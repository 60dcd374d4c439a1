"""Report outputs for a fixed outcomes file, byte for byte.

The input and the expected files are in tests/data/reports/ (see
make_golden.py there). A difference means the metrics, stats or summary
tables changed: regenerate the golden files only if that was intended.
"""

import json
from pathlib import Path

import pytest

from reforacle import assessor
from reforacle.cli_report import main, telemetry_summary

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"
OUTCOMES = GOLDEN / "outcomes.jsonl"
INCONCLUSIVE_BACKEND = "delta"  # every row of it is inconclusive


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _paired_outcomes(path: Path) -> Path:
    """The golden rows without the backend that has no conclusive row."""
    lines = OUTCOMES.read_text("utf-8").splitlines(True)
    kept = [line for line in lines if json.loads(line)["backend_name"] != INCONCLUSIVE_BACKEND]
    assert len(kept) < len(lines)
    path.write_text("".join(kept), "utf-8")
    return path


@pytest.mark.parametrize(
    "source, command",
    [("outcomes", "metrics"), ("outcomes", "stats"), ("outcomes", "summarize"), ("paired", "stats")],
)
def test_report_matches_golden(source, command, tmp_path):
    outcomes = OUTCOMES if source == "outcomes" else _paired_outcomes(tmp_path / "paired.jsonl")
    out = tmp_path / "out"
    assert main([command, "--outcomes", str(outcomes), "--out", str(out)]) == 0
    expected = _files(GOLDEN / "expected" / source / command)
    assert expected, "golden files missing; run tests/data/reports/make_golden.py"
    actual = _files(out)
    assert sorted(actual) == sorted(expected)
    for name, content in expected.items():
        assert actual[name] == content, name


def test_telemetry_matches_golden():
    records = assessor.read_outcomes(OUTCOMES)
    expected = (GOLDEN / "expected" / "telemetry.json").read_text("utf-8")
    assert json.dumps(telemetry_summary(records), indent=1) == expected
