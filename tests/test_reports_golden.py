"""Report outputs for fixed outcomes files, byte for byte.

The inputs and the expected files are in tests/data/reports/ (see
make_golden.py there). A difference means the metrics, stats or summary
tables changed: regenerate the golden files only if that was intended.
The same rows in another order must give the same bytes, and every
output must give one first-run accuracy per configuration.
"""

import csv
import hashlib
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


TWELVE_ATTEMPTS_SEED = 12
# sha256 of the metrics pair of `_twelve_attempt_rows`. Keys "10"-"12" of
# each per-k table sort after "1" in the JSON and after 9 in the CSV.
TWELVE_ATTEMPTS_DIGESTS = {
    "metrics-kappa.csv": "3f62ae8200f0fa881f658fa9c25eeaef85c9d79e56f03204fd2c1c2c3f7ce736",
    "metrics-kappa.json": "1c4027caeae8c82ad5b6be6de6037395f20d8f467fb89244e17429d9fde4e53f",
}


def _twelve_attempt_rows() -> list[dict]:
    """One configuration, 12 attempts of 7 BC and 9 CE instances, each
    attempt right with a chance that differs per instance."""
    rng = random.Random(TWELVE_ATTEMPTS_SEED)
    rows = []
    for i in range(16):
        label, p = ("BC" if i < 7 else "CE"), rng.random()
        for attempt in range(1, 13):
            correct = rng.random() < p
            rows.append({
                "schema": assessor.OUTCOME_SCHEMA, "backend_name": "kappa",
                "instance_id": f"inst-{i:02d}", "attempt_index": attempt, "ground_label": label,
                "answer_label": assessor.correct_answer_label(label) if correct else rng.choice(
                    [assessor.SAID_YES, assessor.SAID_UNKNOWN]),
                "correct": correct, "inconclusive": False,
            })
    return rows


def test_a_twelve_attempt_metrics_pair_keeps_its_bytes(tmp_path):
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_text("".join(json.dumps(r) + "\n" for r in _twelve_attempt_rows()), "utf-8")
    out = tmp_path / "out"
    assert main(["metrics", "--outcomes", str(outcomes), "--out", str(out)]) == 0
    files = _files(out)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == \
        TWELVE_ATTEMPTS_DIGESTS
    doc = json.loads(files["metrics-kappa.json"])
    assert (doc["attempts"], doc["instances"]) == (12, 16)
    assert list(doc["bc_at"]) == ["1", "10", "11", "12", *map(str, range(2, 10))]
