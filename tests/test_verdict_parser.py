import json
import random

import pytest

from conftest import SAMPLE_BC_OUTPUT, SAMPLE_CE_OUTPUT, SAMPLE_YES_OUTPUT
from reforacle.prompting import DIFF_ONLY, FULL_SOURCE
from reforacle.verdict_parser import (
    ILLEGAL_UNKNOWN_IN_FULL_MODE,
    ILLEGAL_VERDICT_STRING,
    MISSING_FIELD,
    NO_BEHAVIOR_CHANGE,
    NO_COMPILATION_ERROR,
    NOT_JSON,
    UNKNOWN,
    YES,
    ModelVerdict,
    ParseFailure,
    extract_test_source,
    parse_response,
)


class TestParseSampleOutputs:
    def test_behavior_change_sample(self):
        verdict = parse_response(SAMPLE_BC_OUTPUT, FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == NO_BEHAVIOR_CHANGE
        assert verdict.test is not None
        assert "RefactoringBehaviorTest" in verdict.test

    def test_compilation_error_sample(self):
        verdict = parse_response(SAMPLE_CE_OUTPUT, FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == NO_COMPILATION_ERROR
        assert verdict.test is None

    def test_yes_sample(self):
        verdict = parse_response(SAMPLE_YES_OUTPUT, FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == YES

    def test_minimal_schema_instance(self):
        verdict = parse_response(
            '{"verdict":"YES","explanation":"ok","junit_test":null}', FULL_SOURCE
        )
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == YES
        assert verdict.test is None

    def test_yes_with_a_well_formed_test_carries_none(self):
        doc = json.loads(SAMPLE_BC_OUTPUT)
        doc["verdict"] = "YES"
        verdict = parse_response(json.dumps(doc), FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == YES
        assert verdict.test is None


class TestRecoverableNoise:
    def test_markdown_fences_stripped(self):
        text = "```json\n" + SAMPLE_CE_OUTPUT + "\n```"
        verdict = parse_response(text, FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == NO_COMPILATION_ERROR
        assert verdict.explanation == json.loads(SAMPLE_CE_OUTPUT)["explanation"]

    def test_prose_around_json_stripped(self):
        text = "Sure, here is my answer:\n" + SAMPLE_CE_OUTPUT + "\nHope that helps!"
        verdict = parse_response(text, FULL_SOURCE)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == NO_COMPILATION_ERROR
        assert verdict.explanation == json.loads(SAMPLE_CE_OUTPUT)["explanation"]

    def test_free_prose_is_not_json(self):
        failure = parse_response("I think the refactoring is fine.", FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == NOT_JSON

    def test_json_array_is_not_object(self):
        failure = parse_response("[1, 2, 3]", FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == NOT_JSON

    def test_excerpt_truncated(self):
        failure = parse_response("x" * 500, FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert len(failure.excerpt) == 200


class TestVerdictStrings:
    def test_single_space_deviation_accepted(self):
        for variant in ("NO -BEHAVIOR CHANGE", "NO- BEHAVIOR CHANGE", "NO-BEHAVIOR CHANGE"):
            verdict = parse_response(
                json.dumps({"verdict": variant, "explanation": "e"}), FULL_SOURCE
            )
            assert isinstance(verdict, ModelVerdict), variant
            assert verdict.category == NO_BEHAVIOR_CHANGE

    def test_case_sensitive(self):
        failure = parse_response(
            '{"verdict":"yes","explanation":"e"}', FULL_SOURCE
        )
        assert isinstance(failure, ParseFailure)
        assert failure.reason == ILLEGAL_VERDICT_STRING

    def test_unrelated_string_rejected(self):
        failure = parse_response(
            '{"verdict":"MAYBE","explanation":"e"}', FULL_SOURCE
        )
        assert isinstance(failure, ParseFailure)
        assert failure.reason == ILLEGAL_VERDICT_STRING

    def test_unknown_only_in_diff_mode(self):
        text = '{"verdict":"UNKNOWN","explanation":"not enough context"}'
        failure = parse_response(text, FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == ILLEGAL_UNKNOWN_IN_FULL_MODE
        verdict = parse_response(text, DIFF_ONLY)
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == UNKNOWN

    def test_missing_fields(self):
        failure = parse_response('{"verdict":"YES"}', FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == MISSING_FIELD

    def test_non_string_verdict(self):
        failure = parse_response('{"verdict": 3, "explanation": "e"}', FULL_SOURCE)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == ILLEGAL_VERDICT_STRING


class TestMissingTestViolation:
    def test_bc_without_test_is_not_parse_failure(self):
        verdict = parse_response(
            '{"verdict":"NO - BEHAVIOR CHANGE","explanation":"e","junit_test":null}',
            FULL_SOURCE,
        )
        assert isinstance(verdict, ModelVerdict)
        assert verdict.category == NO_BEHAVIOR_CHANGE and verdict.test is None


class TestRoundTrip:
    def test_canonical_json_reparses_equal(self):
        original = parse_response(SAMPLE_BC_OUTPUT, FULL_SOURCE)
        assert isinstance(original, ModelVerdict)
        canonical = json.dumps({"verdict": "NO - BEHAVIOR CHANGE",
                                "explanation": original.explanation,
                                "junit_test": original.test})
        again = parse_response(canonical, FULL_SOURCE)
        assert isinstance(again, ModelVerdict)
        assert again.category == original.category
        assert again.explanation == original.explanation
        assert again.test == original.test


class TestExtractTestSource:
    SAMPLE_TEST = json.loads(SAMPLE_BC_OUTPUT)["junit_test"]

    def test_sample_test_extracts_one_class(self):
        source = extract_test_source(self.SAMPLE_TEST)
        assert source is not None
        assert "public class RefactoringBehaviorTest" in source
        assert source.count("@Test") == 1

    def test_absent_on_yes_verdict(self):
        verdict = parse_response(SAMPLE_YES_OUTPUT, FULL_SOURCE)
        assert verdict.test is None

    def test_fenced_test_extracts_identically(self):
        fenced = "```java\n" + self.SAMPLE_TEST + "\n```"
        assert extract_test_source(fenced) == extract_test_source(self.SAMPLE_TEST)
        doc = {**json.loads(SAMPLE_BC_OUTPUT), "junit_test": fenced}
        assert parse_response(json.dumps(doc), FULL_SOURCE).test == extract_test_source(fenced)

    def test_two_public_classes_malformed(self):
        assert extract_test_source("public class A { }\npublic class B { }") is None

    def test_empty_test_malformed(self):
        assert extract_test_source("```\n```") is None


def mutate(rng: random.Random, text: str) -> str:
    ops = rng.randint(1, 3)
    out = text
    for _ in range(ops):
        kind = rng.randrange(6)
        if not out:
            break
        pos = rng.randrange(len(out))
        if kind == 0:
            out = out[:pos] + out[pos + 1 :]
        elif kind == 1:
            out = out[:pos] + rng.choice('{}[]",:xyz \n') + out[pos:]
        elif kind == 2:
            out = out[:pos] + rng.choice('{}[]",:xyz') + out[pos + 1 :]
        elif kind == 3:
            out = out[: rng.randrange(len(out))]
        elif kind == 4:
            out = "junk " + out
        else:
            out = out + "```"
    return out


class TestTotality:
    def test_hundred_fuzzed_strings_never_crash(self):
        rng = random.Random(1234)
        base_texts = [SAMPLE_BC_OUTPUT, SAMPLE_CE_OUTPUT, SAMPLE_YES_OUTPUT]
        for i in range(100):
            text = mutate(rng, rng.choice(base_texts))
            result = parse_response(text, rng.choice([FULL_SOURCE, DIFF_ONLY]))
            assert isinstance(result, (ModelVerdict, ParseFailure))
            # exactly one of the two kinds
            assert isinstance(result, ModelVerdict) != isinstance(result, ParseFailure)
