"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria needing a real JDK (variant compilation, executable
discrimination) skip cleanly when no toolchain is present; their
toolchain-free halves still run against the scripted mock.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import java_fixtures
from conftest import SAMPLE_BC_OUTPUT, SAMPLE_CE_OUTPUT, SAMPLE_YES_OUTPUT
from reforacle import analytics, assessor, metamorph, pipeline, stats
from reforacle.analytics import Cell, RunMatrix
from reforacle.dataset import BugInstance, SourceSet, load_corpus
from reforacle.java_executor import FAIL, PASS, MockToolchain
from reforacle.model_client import BackendConfig, MockBackend, TranscriptStore
from reforacle.prompting import DIFF_ONLY, FULL_SOURCE
from reforacle.verdict_parser import ModelVerdict, ParseFailure, parse_response

from test_analytics import (
    brute_acc_at,
    brute_cons_at,
    brute_mean,
    brute_spread,
    brute_tar_at,
    random_matrix,
)
from test_stats import cochran_reference
from test_verdict_parser import mutate


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)")
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


def src(**files) -> SourceSet:
    return SourceSet(files=tuple(sorted(files.items())))


def test_criterion_01_statistics_exact_values():
    with criterion(1, "statistics exact reproduction", budget_s=1.0):
        expected_ci = {
            182: (0.749, 0.852),
            212: (0.899, 0.963),
            214: (0.909, 0.969),
            225: (0.975, 0.999),
        }
        for successes, (lo, hi) in expected_ci.items():
            low, high = stats.wilson_ci(successes, 226, 0.95)
            assert abs(low - lo) <= 1e-3, (successes, low, lo)
            assert abs(high - hi) <= 1e-3, (successes, high, hi)

        mcnemar_cases = [
            ((169, 13, 43, 1), 7.33e-5, -0.133),
            ((174, 8, 40, 4), 3.31e-6, -0.142),
            ((202, 10, 12, 2), 0.832, -0.009),
        ]
        raw_ps = []
        for counts, p_expected, delta_expected in mcnemar_cases:
            result = stats.mcnemar_exact(stats.PairedCounts(*counts))
            raw_ps.append(result.p_value)
            assert abs(result.p_value - p_expected) / p_expected <= 0.01
            assert abs(result.delta - delta_expected) <= 1e-3

        adjusted = stats.holm_correct(raw_ps)
        for got, expected in zip(adjusted, (1.47e-4, 9.92e-6, 0.832)):
            assert abs(got - expected) / expected <= 0.01


def test_criterion_02_cochran_q_properties():
    with criterion(2, "Cochran Q vs brute force + permutation invariance", budget_s=5.0):
        rng = random.Random(31415)
        exercised = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            m = rng.randint(2, 4)
            matrix = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            expected = cochran_reference(matrix)
            result = stats.cochran_q(matrix)
            if expected is None:
                assert result.degenerate and result.p_value == 1.0
                continue
            exercised += 1
            assert abs(result.statistic - expected) <= 1e-9
            shuffled = matrix[:]
            rng.shuffle(shuffled)
            perm = list(range(m))
            rng.shuffle(perm)
            permuted = [[row[j] for j in perm] for row in shuffled]
            again = stats.cochran_q(permuted)
            assert abs(again.statistic - result.statistic) <= 1e-9
        assert exercised >= 100


def test_criterion_03_metrics_match_brute_force():
    with criterion(3, "metrics equal brute-force enumeration (500 fixtures)", budget_s=10.0):
        rng = random.Random(271828)
        for _ in range(500):
            m = random_matrix(rng, n_max=30, k_max=5)
            assert abs(analytics.mean_accuracy(m) - brute_mean(m)) <= 1e-12
            assert abs(analytics.accuracy_spread(m) - brute_spread(m)) <= 1e-12
            accs, tars = [], []
            for k in range(1, m.attempts + 1):
                acc = analytics.acc_at(m, k)
                tar = analytics.tar_at(m, k)
                cons = analytics.cons_at(m, k)
                assert abs(acc - brute_acc_at(m, k)) <= 1e-12
                assert abs(tar - brute_tar_at(m, k)) <= 1e-12
                assert abs(cons - brute_cons_at(m, k)) <= 1e-12
                accs.append(acc)
                tars.append(tar)
            assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(tars, tars[1:]))
            assert abs(analytics.cons_at(m, 1) - analytics.acc_at(m, 1)) <= 1e-12


def test_criterion_04_reference_cumulative_curve():
    with criterion(4, "226x5 fixture reproduces the Acc@ curve", budget_s=5.0):
        # first-success counts consistent with the reference aggregates:
        # 182 at attempt 1, then +12, +12, +3, +1, and 16 never solved
        first_success = [1] * 182 + [2] * 12 + [3] * 12 + [4] * 3 + [5] * 1 + [0] * 16
        labels = ["BC"] * 41 + ["CE"] * 185
        rows = []
        for i, first in enumerate(first_success):
            winning = assessor.correct_answer_label(labels[i])
            row = []
            for attempt in range(1, 6):
                hit = first != 0 and attempt >= first
                row.append(
                    Cell(answer_label=winning if hit else "SAID_YES", correct=hit)
                )
            rows.append(tuple(row))
        matrix = RunMatrix(
            backend_name="fixture",
            instance_ids=tuple(f"i{i:03d}" for i in range(226)),
            labels=tuple(labels),
            attempts=5,
            cells=tuple(rows),
        )
        expected_curve = [0.805, 0.858, 0.912, 0.925, 0.929]
        assert analytics.per_attempt_accuracy(matrix, 1) * 226 == 182
        for k, expected in enumerate(expected_curve, start=1):
            assert abs(analytics.acc_at(matrix, k) - expected) <= 1e-3, k


def test_criterion_05_union_regions():
    with criterion(5, "mixture-of-experts union and regions", budget_s=1.0):
        region_layout = {
            ("m1", "m2", "m3", "m4"): 163,
            ("m1", "m2", "m3"): 39,
            ("m1", "m3", "m4"): 10,
            ("m1", "m2", "m4"): 6,
            ("m1", "m2"): 4,
            ("m1", "m4"): 2,
            ("m1", "m3"): 1,
            ("m3", "m4"): 1,
        }
        solved = {name: set() for name in ("m1", "m2", "m3", "m4")}
        counter = 0
        for models, count in region_layout.items():
            for _ in range(count):
                instance = f"i{counter:03d}"
                counter += 1
                for model in models:
                    solved[model].add(instance)
        report = analytics.union_coverage(solved)
        assert report.union_size == 226
        assert sum(report.regions.values()) == 226
        for models, count in region_layout.items():
            assert report.region(*models) == count, models
        for models in report.regions:
            assert models in region_layout
        assert report.solved_sizes == {"m1": 225, "m2": 212, "m3": 214, "m4": 182}


def _fixture_variants():
    for fixture in java_fixtures.FIXTURES:
        sources = src(**fixture.original)
        for op in metamorph.OPERATORS:
            if not metamorph.operator_applicable(metamorph.index_structure(sources), op):
                continue
            for seed in range(5):
                yield fixture, op, seed, metamorph.apply_operator(sources, op, seed)


def test_criterion_06_metamorphic_conservation_and_freshness():
    with criterion(6, "metamorphic conservation + fresh identifiers", budget_s=60.0):
        count = 0
        for fixture, op, seed, variant in _fixture_variants():
            count += 1
            base = src(**fixture.original)
            base_identifiers = metamorph.index_structure(base).identifiers
            for path, content in variant.transformed_original.files:
                elements = [e for e in variant.manifest if e.file == path]
                restored = metamorph.remove_injected_lines(content, elements)
                assert restored == base.content(path), (fixture.id, op, seed)
            for element in variant.manifest:
                if element.name:
                    assert element.name not in base_identifiers, (fixture.id, op)
        assert count >= 20 * 5  # every program, several operators, five seeds


@pytest.mark.usefixtures("jdk")
def test_criterion_06b_metamorphic_variants_compile(jdk):
    with criterion(6, "metamorphic variants compile (real JDK)", budget_s=300.0):
        for fixture, op, seed, variant in _fixture_variants():
            base = src(**fixture.original)
            assert jdk.compile(base).success, f"fixture {fixture.id} must compile"
            result = jdk.compile(variant.transformed_original)
            assert result.success, (fixture.id, op, seed, result.diagnostics)


@pytest.mark.usefixtures("junit_jdk")
def test_criterion_06c_metamorphic_oracle_preserved(junit_jdk):
    with criterion(6, "metamorphic oracle preservation (real JDK)", budget_s=300.0):
        for fixture in java_fixtures.BC_FIXTURES:
            base = src(**fixture.original)
            resulting = src(**fixture.resulting)
            baseline = junit_jdk.check_discriminating(fixture.test, base, resulting)
            for op in metamorph.OPERATORS:
                if not metamorph.operator_applicable(metamorph.index_structure(base), op):
                    continue
                variant = metamorph.apply_operator(base, op, seed=1)
                shifted = junit_jdk.check_discriminating(
                    fixture.test, variant.transformed_original, resulting
                )
                assert shifted.on_original.outcome == baseline.on_original.outcome
                assert shifted.on_resulting.outcome == baseline.on_resulting.outcome


def _instance(fixture) -> BugInstance:
    return BugInstance(
        id=fixture.id,
        tool=fixture.tool,
        refactoring_type=fixture.refactoring,
        label=fixture.label,
        original=src(**fixture.original),
        resulting=src(**fixture.resulting),
        exposing_test=fixture.test,
    )


def test_criterion_07_assessor_truth_table():
    with criterion(7, "assessor truth table", budget_s=1.0):
        bc = _instance(java_fixtures.BC_FIXTURES[0])
        ce = _instance(java_fixtures.CE_FIXTURES[0])
        preserving = _instance(java_fixtures.PRESERVING_FIXTURES[0])

        def verdict(kind, test=None, mode=FULL_SOURCE):
            doc = {"verdict": kind, "explanation": "e"}
            if mode == FULL_SOURCE:
                doc["junit_test"] = test
            return parse_response(json.dumps(doc), mode)

        def make_toolchain(inst, discriminating):
            from reforacle.verdict_parser import extract_test_source

            toolchain = MockToolchain()
            if discriminating:
                claimed = extract_test_source(
                    verdict("NO - BEHAVIOR CHANGE", java_fixtures.VACUOUS_TEST)
                )
                toolchain.script_run(inst.original, claimed, PASS)
                toolchain.script_run(inst.resulting, claimed, FAIL)
            return toolchain

        # every reachable answer label against every ground truth
        for inst in (bc, ce):
            cases = [
                (verdict("YES"), MockToolchain(), assessor.SAID_YES),
                (verdict("NO - COMPILATION ERROR"), MockToolchain(), assessor.SAID_CE),
                (
                    verdict("NO - BEHAVIOR CHANGE", java_fixtures.VACUOUS_TEST),
                    make_toolchain(inst, discriminating=True),
                    assessor.SAID_BC_VALID,
                ),
                (
                    verdict("NO - BEHAVIOR CHANGE", java_fixtures.VACUOUS_TEST),
                    MockToolchain(),
                    assessor.SAID_BC_TEST_NOT_DISCRIMINATING,
                ),
                (
                    verdict("NO - BEHAVIOR CHANGE", None),
                    MockToolchain(),
                    assessor.SAID_BC_TEST_NOT_COMPILING,
                ),
                (verdict("UNKNOWN", mode=DIFF_ONLY), MockToolchain(), assessor.SAID_UNKNOWN),
                (parse_response("garbage", FULL_SOURCE), MockToolchain(), assessor.PARSE_ERROR),
            ]
            for v, toolchain, expected_label in cases:
                outcome = assessor.assess(inst, v, toolchain)
                assert outcome.answer_label == expected_label
                should_be_correct = expected_label == assessor.correct_answer_label(inst.label)
                assert outcome.correct == should_be_correct, (inst.label, expected_label)
                if outcome.correct and inst.label == "BC":
                    assert outcome.evidence is not None
                    assert outcome.evidence.discriminates

        preserving_cases = [
            (verdict("YES"), assessor.SAID_YES, True),
            (verdict("NO - COMPILATION ERROR"), assessor.SAID_CE, False),
            (
                verdict("NO - BEHAVIOR CHANGE", java_fixtures.VACUOUS_TEST),
                assessor.SAID_BC_TEST_NOT_DISCRIMINATING,
                False,
            ),
            (parse_response("junk", FULL_SOURCE), assessor.PARSE_ERROR, False),
        ]
        for v, expected_label, expected_correct in preserving_cases:
            outcome = assessor.assess_preserving(preserving, v, MockToolchain())
            assert outcome.answer_label == expected_label
            assert outcome.correct == expected_correct


@pytest.mark.usefixtures("junit_jdk")
def test_criterion_08_executor_end_to_end(junit_jdk):
    with criterion(8, "executor end-to-end (real JDK)", budget_s=30.0):
        original = src(**java_fixtures.PUSH_DOWN_ORIGINAL)
        resulting = src(**java_fixtures.PUSH_DOWN_RESULTING)
        result = junit_jdk.check_discriminating(
            java_fixtures.BEHAVIOR_TEST, original, resulting
        )
        assert result.discriminates

        broken = junit_jdk.compile(src(**java_fixtures.INLINE_VAR_RESULTING))
        assert not broken.success

        vacuous = junit_jdk.check_discriminating(
            java_fixtures.VACUOUS_TEST, original, resulting
        )
        assert not vacuous.discriminates


def test_criterion_08_mock_equivalent():
    """The same discrimination rules, exercised without a JDK."""
    with criterion(8, "executor rules (scripted toolchain)", budget_s=5.0):
        original = src(**java_fixtures.PUSH_DOWN_ORIGINAL)
        resulting = src(**java_fixtures.PUSH_DOWN_RESULTING)
        toolchain = MockToolchain()
        toolchain.script_run(original, java_fixtures.BEHAVIOR_TEST, PASS)
        toolchain.script_run(resulting, java_fixtures.BEHAVIOR_TEST, FAIL)
        toolchain.script_compile(
            src(**java_fixtures.INLINE_VAR_RESULTING), success=False, diagnostics="int"
        )
        assert toolchain.check_discriminating(
            java_fixtures.BEHAVIOR_TEST, original, resulting
        ).discriminates
        assert not toolchain.compile(src(**java_fixtures.INLINE_VAR_RESULTING)).success
        assert not toolchain.check_discriminating(
            java_fixtures.VACUOUS_TEST, original, resulting
        ).discriminates


CE_ANSWER = '{"verdict": "NO - COMPILATION ERROR", "explanation": "broken", "junit_test": null}'


def test_criterion_09_pipeline_determinism(mini_corpus_root, tmp_path):
    with criterion(9, "pipeline determinism and resume", budget_s=20.0):
        def scripted():
            toolchain = MockToolchain()
            for inst in load_corpus(mini_corpus_root).instances:
                if inst.label == "CE":
                    toolchain.script_compile(inst.resulting, success=False)
                if inst.label == "BC":
                    toolchain.script_run(inst.original, inst.exposing_test, PASS)
                    toolchain.script_run(inst.resulting, inst.exposing_test, FAIL)
            return toolchain

        store_path = tmp_path / "transcripts.jsonl"
        record_cfg = pipeline.RunConfig(
            corpus_root=str(mini_corpus_root),
            backends=[BackendConfig(name="mock")],
            attempts=2,
            record_path=str(store_path),
            out_dir=str(tmp_path / "record"),
        )
        pipeline.run_benchmark(
            record_cfg, backends_impl={"mock": MockBackend(CE_ANSWER)}, toolchain=scripted()
        )
        assert len(TranscriptStore(store_path)) == 10 * 2

        replays = []
        for name in ("r1", "r2"):
            cfg = pipeline.RunConfig(
                corpus_root=str(mini_corpus_root),
                backends=[BackendConfig(name="mock")],
                attempts=2,
                replay_path=str(store_path),
                out_dir=str(tmp_path / name),
            )
            artifacts = pipeline.run_benchmark(
                cfg, backends_impl={}, toolchain=scripted()
            )
            replays.append(Path(artifacts.outcomes_path).read_bytes())
        assert replays[0] == replays[1]

        # interrupt at 50% and resume: same keyed record set
        full_lines = replays[0].decode().splitlines()
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        (resumed_dir / "outcomes.jsonl").write_text(
            "\n".join(full_lines[: len(full_lines) // 2]) + "\n"
        )
        cfg = pipeline.RunConfig(
            corpus_root=str(mini_corpus_root),
            backends=[BackendConfig(name="mock")],
            attempts=2,
            replay_path=str(store_path),
            out_dir=str(resumed_dir),
        )
        artifacts = pipeline.run_benchmark(cfg, backends_impl={}, toolchain=scripted())

        def keyed(text: str):
            rows = {}
            for line in text.splitlines():
                doc = json.loads(line)
                key = (doc["backend_name"], doc["instance_id"], doc["variant_tag"], doc["attempt_index"])
                rows[key] = doc
            return rows

        assert keyed(Path(artifacts.outcomes_path).read_text()) == keyed(replays[0].decode())


def test_criterion_10_verdict_parser():
    with criterion(10, "verdict parser samples + fuzz totality", budget_s=1.0):
        bc = parse_response(SAMPLE_BC_OUTPUT, FULL_SOURCE)
        assert isinstance(bc, ModelVerdict)
        assert bc.category == "NO_BEHAVIOR_CHANGE"
        assert bc.junit_test and "RefactoringBehaviorTest" in bc.junit_test

        ce = parse_response(SAMPLE_CE_OUTPUT, FULL_SOURCE)
        assert isinstance(ce, ModelVerdict)
        assert ce.category == "NO_COMPILATION_ERROR"

        yes = parse_response(SAMPLE_YES_OUTPUT, FULL_SOURCE)
        assert isinstance(yes, ModelVerdict)
        assert yes.category == "YES"

        rng = random.Random(161803)
        bases = [SAMPLE_BC_OUTPUT, SAMPLE_CE_OUTPUT, SAMPLE_YES_OUTPUT]
        for _ in range(100):
            text = mutate(rng, rng.choice(bases))
            result = parse_response(text, rng.choice([FULL_SOURCE, DIFF_ONLY]))
            assert isinstance(result, (ModelVerdict, ParseFailure))
            assert isinstance(result, ModelVerdict) != isinstance(result, ParseFailure)
