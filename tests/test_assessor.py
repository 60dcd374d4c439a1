import dataclasses
import json

import pytest

import java_fixtures
from conftest import SAMPLE_BC_OUTPUT
from reforacle import assessor, java_executor, jsonl
from reforacle.assessor import (
    PARSE_ERROR,
    SAID_BC_TEST_NOT_COMPILING,
    SAID_BC_TEST_NOT_DISCRIMINATING,
    SAID_BC_VALID,
    SAID_CE,
    SAID_UNKNOWN,
    SAID_YES,
    AssessmentOutcome,
    assess,
    assess_preserving,
    correct_answer_label,
    read_outcomes,
    write_outcomes,
)
from reforacle.dataset import BugInstance, SourceSet
from reforacle.java_executor import FAIL, PASS, MockToolchain, NullToolchain
from reforacle.prompting import DIFF_ONLY, FULL_SOURCE
from reforacle.verdict_parser import parse_response


def src(**files):
    return SourceSet(files=tuple(sorted(files.items())))


def instance(fixture) -> BugInstance:
    return BugInstance(
        id=fixture.id,
        tool=fixture.tool,
        refactoring_type=fixture.refactoring,
        label=fixture.label,
        original=src(**fixture.original),
        resulting=src(**fixture.resulting),
        exposing_test=fixture.test,
    )


BC_INSTANCE = instance(java_fixtures.BC_FIXTURES[0])  # Push Down Method pair
CE_INSTANCE = instance(java_fixtures.CE_FIXTURES[0])  # Inline Variable pair
PRESERVING_INSTANCE = instance(java_fixtures.PRESERVING_FIXTURES[0])


# the row fields the pipeline gives for the attempt it asked
ROW = {"backend_name": "m", "attempt_index": 1}


def verdict_of(verdict: str, junit_test=None, mode=FULL_SOURCE):
    doc = {"verdict": verdict, "explanation": "because", "junit_test": junit_test}
    if mode == DIFF_ONLY:
        doc.pop("junit_test")
    return parse_response(json.dumps(doc), mode)


def discriminating_mock(inst: BugInstance, test_source: str) -> MockToolchain:
    toolchain = MockToolchain()
    toolchain.script_run(inst.original, test_source, PASS)
    toolchain.script_run(inst.resulting, test_source, FAIL)
    return toolchain


class TestBugAssessment:
    def test_ce_verdict_on_ce_instance_correct(self):
        outcome = assess(CE_INSTANCE, verdict_of("NO - COMPILATION ERROR"), MockToolchain(),
                         provenance=ROW)
        assert outcome.correct
        assert outcome.answer_label == SAID_CE

    def test_ce_verdict_on_bc_instance_incorrect(self):
        outcome = assess(BC_INSTANCE, verdict_of("NO - COMPILATION ERROR"), MockToolchain(),
                         provenance=ROW)
        assert not outcome.correct
        assert outcome.answer_label == SAID_CE

    def test_yes_always_incorrect_on_bugs(self):
        for inst in (BC_INSTANCE, CE_INSTANCE):
            outcome = assess(inst, verdict_of("YES"), MockToolchain(), provenance=ROW)
            assert not outcome.correct
            assert outcome.answer_label == SAID_YES

    def test_bc_with_discriminating_test_correct(self):
        verdict = parse_response(SAMPLE_BC_OUTPUT, FULL_SOURCE)
        toolchain = discriminating_mock(BC_INSTANCE, verdict.test)
        outcome = assess(BC_INSTANCE, verdict, toolchain, provenance=ROW)
        assert outcome.correct
        assert outcome.answer_label == SAID_BC_VALID
        assert outcome.evidence is not None and outcome.evidence.discriminates

    def test_bc_with_vacuous_test_not_discriminating(self):
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)
        outcome = assess(BC_INSTANCE, verdict, MockToolchain(), provenance=ROW)  # passes on both
        assert not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_DISCRIMINATING

    def test_bc_with_missing_test_not_compiling(self):
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=None)
        outcome = assess(BC_INSTANCE, verdict, MockToolchain(), provenance=ROW)
        assert not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING

    def test_bc_with_malformed_test_not_compiling(self):
        verdict = verdict_of(
            "NO - BEHAVIOR CHANGE", junit_test="public class A {}\npublic class B {}"
        )
        outcome = assess(BC_INSTANCE, verdict, MockToolchain(), provenance=ROW)
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING

    def test_bc_claim_on_ce_instance_never_correct(self):
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)
        toolchain = MockToolchain()
        toolchain.script_compile(CE_INSTANCE.resulting, success=False)
        outcome = assess(CE_INSTANCE, verdict, toolchain, provenance=ROW)
        assert not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING

    def test_reflective_test_counts_as_non_discriminating(self):
        reflective = java_fixtures.REFLECTIVE_TEST
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=reflective)
        toolchain = MockToolchain()
        toolchain.script_run(BC_INSTANCE.original, reflective, PASS)
        toolchain.script_run(BC_INSTANCE.resulting, reflective, FAIL)
        outcome = assess(BC_INSTANCE, verdict, toolchain, provenance=ROW)
        assert outcome.reflective_test
        assert outcome.answer_label == SAID_BC_TEST_NOT_DISCRIMINATING
        assert not outcome.correct

    def test_parse_failure_maps_to_parse_error(self):
        failure = parse_response("not json at all", FULL_SOURCE)
        outcome = assess(CE_INSTANCE, failure, MockToolchain(), provenance=ROW)
        assert outcome.answer_label == PARSE_ERROR
        assert outcome.parse_reason == "NotJson"
        assert not outcome.correct

    def test_unknown_in_diff_mode_tallied_separately(self):
        verdict = verdict_of("UNKNOWN", mode=DIFF_ONLY)
        outcome = assess(CE_INSTANCE, verdict, MockToolchain(), provenance=ROW)
        assert outcome.answer_label == SAID_UNKNOWN
        assert not outcome.correct

    def test_toolchain_failure_is_inconclusive(self):
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)

        class Broken:
            def version(self):
                return "broken"

            def check_discriminating(self, *a, **k):
                raise java_executor.ToolchainUnavailable("no jdk")

        outcome = assess(BC_INSTANCE, verdict, Broken(), provenance=ROW)
        assert outcome.inconclusive
        assert not outcome.correct

    def test_rejects_preserving_instances(self):
        with pytest.raises(ValueError):
            assess(PRESERVING_INSTANCE, verdict_of("YES"), MockToolchain(), provenance=ROW)

    def test_the_row_is_the_instance_the_judgement_and_the_provenance(self):
        provenance = {
            "backend_name": "gpt-x", "attempt_index": 4, "variant_tag": "mt-7-CO",
            "prompt_hash": "h", "template_version": "fullsource-v1", "temperature": "0.2",
            "toolchain_version": "javac 17", "seed": 7, "latency_s": 3.5, "tokens_in": 1000,
            "tokens_out": 50, "tokens_reasoning": 20, "cost_estimate": 0.01,
        }
        outcome = assess(CE_INSTANCE, verdict_of("YES"), MockToolchain(), provenance=provenance)
        row = json.loads(outcome.to_json_line())
        assert {name: row[name] for name in provenance} == provenance
        assert row["instance_id"] == CE_INSTANCE.id
        assert row["ground_label"] == "CE"
        assert row["refactoring_type"] == CE_INSTANCE.refactoring_type
        assert row["tool"] == CE_INSTANCE.tool
        assert row["answer_label"] == SAID_YES and row["explanation"] == "because"

    def test_the_provenance_must_name_the_attempt(self):
        with pytest.raises(TypeError):
            assess(CE_INSTANCE, verdict_of("YES"), MockToolchain(), provenance={})


class TestPreservingAssessment:
    def test_yes_is_correct(self):
        outcome = assess_preserving(PRESERVING_INSTANCE, verdict_of("YES"), NullToolchain(),
                                    provenance=ROW)
        assert outcome.correct
        assert outcome.answer_label == SAID_YES

    def test_no_ce_claim_recorded(self):
        outcome = assess_preserving(
            PRESERVING_INSTANCE, verdict_of("NO - COMPILATION ERROR"), NullToolchain(),
            provenance=ROW,
        )
        assert not outcome.correct
        assert outcome.answer_label == SAID_CE

    def test_reflective_bc_claim_flagged(self):
        verdict = verdict_of(
            "NO - BEHAVIOR CHANGE", junit_test=java_fixtures.REFLECTIVE_TEST
        )
        outcome = assess_preserving(PRESERVING_INSTANCE, verdict, NullToolchain(), provenance=ROW)
        assert not outcome.correct
        assert outcome.reflective_test

    def test_parse_failure(self):
        failure = parse_response("garbage", FULL_SOURCE)
        outcome = assess_preserving(PRESERVING_INSTANCE, failure, NullToolchain(), provenance=ROW)
        assert outcome.answer_label == PARSE_ERROR
        assert not outcome.correct

    def test_with_toolchain_validates_evidence(self):
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)
        outcome = assess_preserving(PRESERVING_INSTANCE, verdict, MockToolchain(), provenance=ROW)
        assert outcome.answer_label == SAID_BC_TEST_NOT_DISCRIMINATING

    @pytest.mark.parametrize(
        "toolchain", [NullToolchain(), MockToolchain()], ids=lambda t: type(t).__name__
    )
    def test_two_public_classes_do_not_compile(self, toolchain):
        verdict = verdict_of(
            "NO - BEHAVIOR CHANGE", junit_test="public class A {}\npublic class B {}"
        )
        outcome = assess_preserving(PRESERVING_INSTANCE, verdict, toolchain, provenance=ROW)
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING
        assert not outcome.inconclusive
        assert not outcome.correct

    def test_rejects_bug_instances(self):
        with pytest.raises(ValueError):
            assess_preserving(CE_INSTANCE, verdict_of("YES"), NullToolchain(), provenance=ROW)


class TestWithoutAJdk:
    @pytest.mark.parametrize(
        "inst", [BC_INSTANCE, CE_INSTANCE, PRESERVING_INSTANCE], ids=lambda i: i.label
    )
    def test_a_bc_claim_is_inconclusive_only_on_a_bc_instance(self, inst):
        judge = assess_preserving if inst.label == "PRESERVING" else assess
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.BEHAVIOR_TEST)
        outcome = judge(inst, verdict, NullToolchain(), provenance=ROW)
        assert outcome.inconclusive == (inst.label == "BC")
        assert not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING
        assert outcome.evidence is None
        assert outcome.toolchain_error == "ToolchainUnavailable: no JDK configured"


class RaisingToolchain(MockToolchain):
    """A scripted toolchain whose every test run raises, as a compile over
    its limit does; the error names a kept workspace."""

    def __init__(self) -> None:
        super().__init__()
        self.checks = 0

    def run_test(self, program, test_source):
        self.checks += 1
        err = java_executor.ToolchainError("javac exceeded 300 s")
        err.workspace = "reforacle-test-kept"
        raise err


class TestAToolchainError:
    """A check that raises leaves a claim out only where its evidence
    decides the answer: on a BC instance."""

    verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)

    @pytest.mark.parametrize("inst", [PRESERVING_INSTANCE, CE_INSTANCE], ids=lambda i: i.label)
    def test_a_claim_on_any_other_instance_is_conclusive_and_wrong(self, inst):
        judge = assess_preserving if inst.label == "PRESERVING" else assess
        toolchain = RaisingToolchain()
        outcome = judge(inst, self.verdict, toolchain, provenance=ROW)
        assert toolchain.checks == 1  # the check still runs
        assert not outcome.inconclusive and not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING
        assert outcome.row["toolchain_error"] == "ToolchainError: javac exceeded 300 s"

    def test_a_claim_on_a_bc_instance_is_inconclusive(self):
        outcome = assess(BC_INSTANCE, self.verdict, RaisingToolchain(), provenance=ROW)
        assert outcome.inconclusive and not outcome.correct
        assert outcome.answer_label == SAID_BC_TEST_NOT_COMPILING
        row = json.loads(outcome.to_json_line())
        assert row["toolchain_error"] == "ToolchainError: javac exceeded 300 s"
        assert "reforacle-test-kept" not in outcome.to_json_line()

    def test_a_row_whose_check_did_not_raise_has_no_error_key(self):
        for toolchain in (MockToolchain(), discriminating_mock(BC_INSTANCE,
                                                               java_fixtures.VACUOUS_TEST)):
            outcome = assess(BC_INSTANCE, self.verdict, toolchain, provenance=ROW)
            assert "toolchain_error" not in json.loads(outcome.to_json_line())
            assert outcome.row == json.loads(outcome.to_json_line())


class TestInvariants:
    def test_valid_bc_requires_evidence(self):
        with pytest.raises(ValueError):
            AssessmentOutcome(
                instance_id="x",
                attempt_index=1,
                backend_name="m",
                correct=True,
                answer_label=SAID_BC_VALID,
                ground_label="BC",
            )

    def test_correct_answer_label_map(self):
        assert correct_answer_label("BC") == SAID_BC_VALID
        assert correct_answer_label("CE") == SAID_CE
        assert correct_answer_label("PRESERVING") == SAID_YES

    def test_every_verdict_yields_exactly_one_label(self):
        toolchain = MockToolchain()
        verdicts = [
            verdict_of("YES"),
            verdict_of("NO - COMPILATION ERROR"),
            verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST),
            parse_response("junk", FULL_SOURCE),
        ]
        for inst in (BC_INSTANCE, CE_INSTANCE):
            for verdict in verdicts:
                outcome = assess(inst, verdict, toolchain, provenance=ROW)
                assert outcome.answer_label in assessor.ANSWER_LABELS


class CountingToolchain(MockToolchain):
    def __init__(self) -> None:
        super().__init__()
        self.checks = 0

    def check_discriminating(self, test_source, original, resulting):
        self.checks += 1
        return super().check_discriminating(test_source, original, resulting)


class TestNeedsToolchain:
    @pytest.mark.parametrize(
        "verdict, needed",
        [
            (verdict_of("YES"), False),
            (verdict_of("NO - COMPILATION ERROR"), False),
            (verdict_of("UNKNOWN", mode=DIFF_ONLY), False),
            (parse_response("junk", FULL_SOURCE), False),
            (verdict_of("NO - BEHAVIOR CHANGE"), False),
            (verdict_of("NO - BEHAVIOR CHANGE", junit_test="public class A {}\npublic class B {}"),
             False),
            (verdict_of("NO - BEHAVIOR CHANGE", junit_test="```\n```"), False),
            (verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST), True),
            (verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.REFLECTIVE_TEST), True),
        ],
        ids=["yes", "ce", "unknown", "parse-failure", "no-test", "two-classes", "empty-test",
             "test", "reflective-test"],
    )
    def test_true_exactly_when_scoring_checks_the_claim(self, verdict, needed):
        assert (verdict.test is not None) is needed
        for inst in (BC_INSTANCE, CE_INSTANCE, PRESERVING_INSTANCE):
            judge = assess_preserving if inst.label == "PRESERVING" else assess
            toolchain = CountingToolchain()
            judge(inst, verdict, toolchain, provenance=ROW)
            assert toolchain.checks == int(needed)


def ce_outcome() -> AssessmentOutcome:
    return assess(CE_INSTANCE, verdict_of("NO - COMPILATION ERROR"), MockToolchain(),
                  provenance=ROW)


def append(path, outcomes) -> None:
    with jsonl.Appender(path) as out:
        write_outcomes(outcomes, out)


class TestOutcomePersistence:
    def test_round_trip(self, tmp_path):
        outcome = ce_outcome()
        path = tmp_path / "outcomes.jsonl"
        append(path, [outcome])
        rows = read_outcomes(path)
        assert len(rows) == 1
        assert rows[0]["schema"] == 1
        assert rows[0]["instance_id"] == CE_INSTANCE.id
        assert rows[0]["correct"] is True
        assert rows[0]["answer_label"] == SAID_CE

    def test_row_carries_every_field(self):
        outcome = ce_outcome()
        row = json.loads(outcome.to_json_line())
        # the two fields a row carries only when they are set
        names = {f.name for f in dataclasses.fields(outcome)} - {"evidence", "toolchain_error"}
        assert set(row) == names | {"schema"}
        assert all(row[name] == getattr(outcome, name) for name in names)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        path.write_text(json.dumps({"schema": 99}) + "\n")
        with pytest.raises(ValueError):
            read_outcomes(path)

    def test_torn_last_line_is_skipped_then_cut(self, tmp_path, caplog):
        outcome = ce_outcome()
        path = tmp_path / "outcomes.jsonl"
        append(path, [outcome, outcome])
        whole = path.read_text()
        with path.open("a") as fh:
            fh.write(outcome.to_json_line()[:40])  # killed mid-write
        assert len(read_outcomes(path)) == 2
        assert "torn last line" in caplog.text
        append(path, [outcome])
        assert path.read_text() == whole + outcome.to_json_line() + "\n"
        assert len(read_outcomes(path)) == 3

    def test_an_appender_cuts_a_torn_line_at_its_first_write(self, tmp_path):
        outcome = ce_outcome()
        line = outcome.to_json_line() + "\n"
        path = tmp_path / "outcomes.jsonl"
        append(path, [outcome])
        with path.open("a") as fh:
            fh.write(line[:40])  # killed mid-write
        with jsonl.Appender(path) as out:
            assert path.read_text() == line + line[:40]  # opened only by the first write
            write_outcomes([outcome], out)
            assert path.read_text() == line * 2  # unbuffered: each row is on disk at once
            write_outcomes([outcome], out)
            assert path.read_text() == line * 3

    def test_an_appender_that_writes_nothing_creates_no_file(self, tmp_path):
        with jsonl.Appender(tmp_path / "outcomes.jsonl"):
            pass
        assert not (tmp_path / "outcomes.jsonl").exists()

    def test_whole_last_line_without_newline_is_kept(self, tmp_path):
        outcome = ce_outcome()
        path = tmp_path / "outcomes.jsonl"
        path.write_text(outcome.to_json_line())
        assert len(read_outcomes(path)) == 1
        append(path, [outcome])
        assert path.read_text() == (outcome.to_json_line() + "\n") * 2

    def test_malformed_line_before_the_last_is_an_error(self, tmp_path):
        outcome = ce_outcome()
        path = tmp_path / "outcomes.jsonl"
        line = outcome.to_json_line()
        path.write_text(line[:40] + "\n" + line)
        with pytest.raises(ValueError):
            read_outcomes(path)
