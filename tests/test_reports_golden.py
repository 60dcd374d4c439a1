"""Report outputs for fixed outcomes files, byte for byte.

The inputs and the expected files are in tests/data/reports/ (see
make_golden.py there). A difference means the metrics, stats or summary
tables changed: regenerate the golden files only if that was intended.
The same rows in another order must give the same bytes, and every
output must give one first-run accuracy per configuration.
"""

import csv
import json
import random
from pathlib import Path

import pytest

from reforacle import assessor
from reforacle.cli_report import _by_run, _runs, main, telemetry_summary

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"
OUTCOMES = GOLDEN / "outcomes.jsonl"
INCONCLUSIVE_BACKEND = "delta"  # every row of it is inconclusive
SHUFFLE_SEED = 7


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _outcomes(source: str, tmp_path: Path) -> Path:
    """The input file of `source`: a golden file, or the golden rows
    without the backend that has no conclusive row (`paired`) or in a
    second seeded order (`shuffled`)."""
    if source in ("outcomes", "mixed"):
        return GOLDEN / f"{source}.jsonl"
    lines = OUTCOMES.read_text("utf-8").splitlines(True)
    if source == "paired":
        kept = [line for line in lines if json.loads(line)["backend_name"] != INCONCLUSIVE_BACKEND]
        assert len(kept) < len(lines)
    else:
        kept = list(lines)
        random.Random(SHUFFLE_SEED).shuffle(kept)
        assert kept != lines
    path = tmp_path / f"{source}.jsonl"
    path.write_text("".join(kept), "utf-8")
    return path


@pytest.mark.parametrize(
    "source, command",
    [("outcomes", "metrics"), ("outcomes", "stats"), ("outcomes", "summarize"), ("paired", "stats"),
     ("shuffled", "metrics"), ("shuffled", "stats"), ("shuffled", "summarize"),
     ("mixed", "metrics"), ("mixed", "stats"), ("mixed", "summarize")],
)
def test_report_matches_golden(source, command, tmp_path):
    outcomes = _outcomes(source, tmp_path)
    out = tmp_path / "out"
    assert main([command, "--outcomes", str(outcomes), "--out", str(out)]) == 0
    expected = _files(GOLDEN / "expected" / source.replace("shuffled", "outcomes") / command)
    assert expected, "golden files missing; run tests/data/reports/make_golden.py"
    actual = _files(out)
    assert sorted(actual) == sorted(expected)
    for name, content in expected.items():
        assert actual[name] == content, name


@pytest.mark.parametrize("source", ["outcomes", "shuffled"])
def test_telemetry_matches_golden(source, tmp_path):
    records = assessor.read_outcomes(_outcomes(source, tmp_path))
    expected = (GOLDEN / "expected" / "telemetry.json").read_text("utf-8")
    assert json.dumps(telemetry_summary(_by_run(_runs(records))), indent=1) == expected


@pytest.mark.parametrize("source", ["outcomes", "shuffled", "paired", "mixed"])
def test_every_output_gives_one_first_run_accuracy(source, tmp_path):
    outcomes = _outcomes(source, tmp_path)
    out = tmp_path / "out"
    for command in ("metrics", "stats", "summarize"):
        assert main([command, "--outcomes", str(outcomes), "--out", str(out)]) == 0
    metrics = {doc["backend"]: doc for doc in
               (json.loads(p.read_text("utf-8")) for p in out.glob("metrics-*.json"))}
    models = json.loads((out / "stats.json").read_text("utf-8"))["models"]
    with (out / "accuracy_by_model.csv").open(newline="", encoding="utf-8") as fh:
        table = {line["model"]: line for line in csv.DictReader(fh)}
    assert metrics
    assert sorted(metrics) == sorted(models) == sorted(
        name for name, line in table.items() if line["n"] != "0")
    for name, doc in metrics.items():
        accuracy, n, left_out = (doc["per_attempt_accuracy"][0], doc["instances"],
                                 doc["dropped_inconclusive"])
        model = models[name]
        assert (model["correct"] / model["n"], model["n"], model["left_out"]) == (
            accuracy, n, left_out), name
        line = table[name]
        assert (line["overall"], line["n"], line["inconclusive"]) == (
            f"{accuracy:.3f}", str(n), str(left_out)), name
