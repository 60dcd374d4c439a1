"""The abstract's first-run numbers, 182/226 (80.5%) and 212/226 (93.8%),
and criterion 04's Acc@k curve, through the CLI: a 226-instance corpus,
a scripted replay store for two backends, `run` on a real JDK, then
`metrics`, `stats` and `summarize`."""

from __future__ import annotations

import csv
import json
import os

import java_fixtures
from reforacle import stats
from reforacle.cli_report import main
from reforacle.dataset import BugInstance
from reforacle.model_client import BackendConfig
from reforacle.pipeline import RunConfig
from replay_stores import write_replay_store

A, B = "model-a", "model-b"
ATTEMPTS = 5
CE_ANSWER = json.dumps({"verdict": "NO - COMPILATION ERROR", "explanation": "undefined method",
                        "junit_test": None})
YES_ANSWER = json.dumps({"verdict": "YES", "explanation": "same behavior", "junit_test": None})

# Instance i of the corpus (185 CE, then 41 BC) in a fixed order that
# mixes both labels: 7 is coprime to 226, so this is a permutation.
ORDER = sorted(range(226), key=lambda i: (i * 7) % 226)
# A's first right attempt along ORDER (0: never), criterion 04's layout:
# 182 at attempt 1, then +12, +12, +3, +1, and 16 never right
FIRST_RIGHT_A = dict(zip(ORDER, [1] * 182 + [2] * 12 + [3] * 12 + [4] * 3 + [5] * 1 + [0] * 16))
# B is wrong at every attempt on 10 instances A misses at attempt 1 and
# on 4 it gets right, so the McNemar cells are 178 / 4 / 34 / 10
WRONG_B = set(ORDER[182:192]) | set(ORDER[:4])
CELLS = {"n11": 178, "n10": 4, "n01": 34, "n00": 10}


def right_at(row: str, index: int, attempt: int) -> bool:
    if row == A:
        return 0 < FIRST_RIGHT_A[index] <= attempt
    return index not in WRONG_B


def rate(flags: list[bool]) -> str:
    return f"{sum(flags) / len(flags):.3f}"


def test_the_abstracts_first_run_numbers_through_the_cli(jdk, tmp_path):
    fixtures = java_fixtures.synthetic_benchmark()
    index = {f.id: i for i, f in enumerate(fixtures)}
    corpus = java_fixtures.write_corpus(tmp_path / "corpus", fixtures)

    def answer(row: str, inst: BugInstance, attempt: int) -> str:
        if not right_at(row, index[inst.id], attempt):
            return YES_ANSWER
        if inst.label == "CE":
            return CE_ANSWER
        return json.dumps({"verdict": "NO - BEHAVIOR CHANGE", "explanation": "value changes",
                           "junit_test": inst.exposing_test})

    backends = [BackendConfig(name=A), BackendConfig(name=B)]
    cfg = RunConfig(corpus_root=str(corpus), backends=backends, attempts=ATTEMPTS,
                    out_dir=str(tmp_path / "unused"))
    store = write_replay_store(tmp_path / "store.jsonl", cfg, answer)
    backends_file = tmp_path / "backends.json"
    backends_file.write_text(json.dumps([{"name": b.name, "endpoint": "local"} for b in backends]))
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus), "--backends-file", str(backends_file),
                 "--backend", A, "--backend", B, "--replay", str(store),
                 "--attempts", str(ATTEMPTS), "--jobs", "2", "--out", str(out),
                 "--junit-cp", os.pathsep.join(jdk.config.junit_classpath)]) == 0
    outcomes = out / "outcomes.jsonl"
    for command in ("metrics", "stats", "summarize"):
        assert main([command, "--outcomes", str(outcomes), "--out", str(tmp_path / command)]) == 0

    metrics = json.loads((tmp_path / "metrics" / f"metrics-{A}.json").read_text())
    assert (metrics["instances"], metrics["dropped_inconclusive"]) == (226, 0)
    for k, expected in zip(range(1, ATTEMPTS + 1), [0.805, 0.858, 0.912, 0.925, 0.929]):
        assert abs(metrics["acc_at"][str(k)] - expected) <= 1e-3, k

    doc = json.loads((tmp_path / "stats" / "stats.json").read_text())
    for name, correct in ((A, 182), (B, 212)):
        model = doc["models"][name]
        assert (model["correct"], model["n"], model["left_out"]) == (correct, 226, 0)
        assert model["wilson_95"] == list(stats.wilson_ci(correct, 226))
    (pair,) = doc["pairwise"]
    assert pair["pair"] == [A, B]
    assert {cell: pair[cell] for cell in CELLS} == CELLS
    assert pair["p_exact"] == stats.mcnemar_exact(stats.PairedCounts(**CELLS)).p_value

    labels = [f.label for f in fixtures]
    with (tmp_path / "summarize" / "accuracy_by_model.csv").open(newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["model", "overall", "bc", "ce", "n", "inconclusive"]
    expected = []
    for row in (A, B):
        first = [right_at(row, i, 1) for i in range(226)]
        expected.append([row, rate(first),
                         rate([ok for ok, label in zip(first, labels) if label == "BC"]),
                         rate([ok for ok, label in zip(first, labels) if label == "CE"]),
                         "226", "0"])
    assert table[1:] == expected
    assert [row[1] for row in expected] == ["0.805", "0.938"]
