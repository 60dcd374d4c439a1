"""Per-attempt correctness decisions against ground truth.

A verdict is only as good as its evidence: a behavior-change claim
counts as correct solely when the model's own JUnit test compiles
against both program versions and passes on exactly one of them. The
answer taxonomy distinguishes wrong verdicts from right verdicts with
failed evidence, so error analyses can separate the two. The parser has
already checked the claim's test: a claim whose `verdict.test` is None
had no usable test and runs no toolchain.

The assessor names no attempt itself. A row is the instance's fields,
the judgement, and the provenance mapping the pipeline builds for the
attempt it asked: backend, attempt and variant, prompt, toolchain and
seed, and the response's telemetry.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

from . import java_executor, jsonl, verdict_parser
from .dataset import BugInstance
from .java_executor import DiscriminationResult, Toolchain
# read_outcomes is imported only so that assessor.read_outcomes stays the
# function perfbench/tracer.py wraps, until its LAYERS table names outcome_rows.
from .outcome_rows import (  # noqa: F401
    ANSWER_LABELS,
    OUTCOME_SCHEMA,
    PARSE_ERROR,
    SAID_BC_TEST_NOT_COMPILING,
    SAID_BC_TEST_NOT_DISCRIMINATING,
    SAID_BC_VALID,
    SAID_CE,
    SAID_UNKNOWN,
    SAID_YES,
    read_outcomes,
)
from .verdict_parser import ModelVerdict, ParseFailure

logger = logging.getLogger(__name__)


def correct_answer_label(ground_label: str) -> str:
    """The single answer label that scores correct for a ground truth."""
    return {"BC": SAID_BC_VALID, "CE": SAID_CE, "PRESERVING": SAID_YES}[ground_label]


@dataclass(frozen=True)
class AssessmentOutcome:
    instance_id: str
    attempt_index: int
    backend_name: str
    correct: bool
    answer_label: str
    ground_label: str
    variant_tag: str = ""
    evidence: DiscriminationResult | None = None
    reflective_test: bool = False
    inconclusive: bool = False
    parse_reason: str | None = None
    explanation: str = ""
    latency_s: float = 0.0
    tokens_in: int | None = None
    tokens_out: int | None = None
    tokens_reasoning: int | None = None
    cost_estimate: float | None = None
    prompt_hash: str = ""
    template_version: str = ""
    toolchain_version: str = ""
    toolchain_error: str | None = None
    seed: int | None = None
    temperature: str = ""
    refactoring_type: str = ""
    tool: str = ""
    schema: ClassVar[int] = OUTCOME_SCHEMA

    def __post_init__(self) -> None:
        if self.answer_label not in ANSWER_LABELS:
            raise ValueError(f"unknown answer label {self.answer_label!r}")
        if self.answer_label == SAID_BC_VALID and not self.inconclusive:
            if self.evidence is None or not self.evidence.discriminates:
                raise ValueError("SAID_BC_VALID requires discriminating evidence")

    @cached_property
    def row(self) -> dict:
        """The outcome row, equal to the dict its JSON line reads back as:
        keys in the line's order and JSON values only. Every field but
        `evidence` and `toolchain_error` goes in as is; the evidence is
        flattened into its own block. Each of the two is absent when there
        is none, so a row whose check did not raise has no
        `toolchain_error` key."""
        doc = {name: getattr(self, name) for name in _ROW_KEYS}
        if self.toolchain_error is None:
            del doc["toolchain_error"]
        if self.evidence is None:
            del doc["evidence"]
        else:
            doc["evidence"] = {
                "discriminates": self.evidence.discriminates,
                "on_original": self.evidence.on_original.outcome,
                "on_resulting": self.evidence.on_resulting.outcome,
                "passing_side": self.evidence.passing_side,
            }
        return doc

    def to_json_line(self) -> str:
        return _ENCODER.encode(self.row)


# The row's keys in the order its JSON line writes them: sorted.
_ROW_KEYS = tuple(sorted([f.name for f in fields(AssessmentOutcome)] + ["schema"]))
# One encoder for every row: the bytes of json.dumps(row, sort_keys=True).
_ENCODER = json.JSONEncoder(sort_keys=True)


def assess(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    *,
    provenance: Mapping[str, object],
) -> AssessmentOutcome:
    """Judge one attempt on a bug instance (ground truth BC or CE).

    A YES is always incorrect here: every instance is a confirmed bug.
    `provenance` holds every row field that the instance and the judgement
    do not give (see _judge).
    """
    if inst.label not in ("BC", "CE"):
        raise ValueError(f"assess() expects a bug instance, got label {inst.label}")
    return _judge(inst, verdict, toolchain, provenance)


def assess_preserving(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    *,
    provenance: Mapping[str, object],
) -> AssessmentOutcome:
    """Judge one attempt on a behavior-preserving instance.

    Correct iff the model answers YES. NO verdicts are recorded with
    their claimed category for false-positive analysis. `provenance` is
    as for assess().
    """
    if inst.label != "PRESERVING":
        raise ValueError(f"assess_preserving() expects PRESERVING, got {inst.label}")
    return _judge(inst, verdict, toolchain, provenance)


_CLAIM_LABELS = {
    verdict_parser.YES: SAID_YES,
    verdict_parser.UNKNOWN: SAID_UNKNOWN,
    verdict_parser.NO_COMPILATION_ERROR: SAID_CE,
}


def _judge(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    provenance: Mapping[str, object],
) -> AssessmentOutcome:
    """Score one attempt against any ground truth.

    The row is the instance's fields, the judgement and `provenance`: the
    attempt's name (backend, attempt, variant), its prompt, toolchain and
    seed, and the response's telemetry. Behavior-change claims are
    validated mechanically through the model's own test, whatever the
    ground truth. A toolchain failure is recorded on the row; it makes the
    outcome inconclusive only on a BC instance, the one label where the
    evidence decides `correct`. On any other label the claim is wrong
    whatever its test does.
    """
    row = dict(instance_id=inst.id, ground_label=inst.label,
               refactoring_type=inst.refactoring_type, tool=inst.tool, **provenance)
    if isinstance(verdict, ParseFailure):
        return AssessmentOutcome(
            correct=False, answer_label=PARSE_ERROR, parse_reason=verdict.reason, **row
        )
    evidence, reflective, error = None, False, None
    if verdict.category == verdict_parser.NO_BEHAVIOR_CHANGE:
        label, evidence, reflective, error = _validate_bc_claim(inst, verdict.test, toolchain)
    else:
        label = _CLAIM_LABELS[verdict.category]
    inconclusive = error is not None and inst.label == "BC"
    return AssessmentOutcome(
        correct=label == correct_answer_label(inst.label) and not inconclusive,
        answer_label=label,
        explanation=verdict.explanation,
        evidence=evidence,
        reflective_test=reflective,
        inconclusive=inconclusive,
        toolchain_error=error,
        **row,
    )


def _validate_bc_claim(
    inst: BugInstance, test: str | None, toolchain: Toolchain
) -> tuple[str, DiscriminationResult | None, bool, str | None]:
    """(answer_label, evidence, reflective, toolchain_error) for a BC claim
    checked with `test` (None: no usable test). The error is
    `<class>: <message>` of a check that raised, else None."""
    if test is None:
        # a missing or malformed junit_test counts as absent evidence
        return SAID_BC_TEST_NOT_COMPILING, None, False, None
    reflective = java_executor.uses_reflection(test)
    try:
        evidence = toolchain.check_discriminating(test, inst.original, inst.resulting)
    except java_executor.ToolchainError as err:
        logger.warning("no evidence for the claim on %s: %s", inst.id, err)
        return SAID_BC_TEST_NOT_COMPILING, None, reflective, f"{type(err).__name__}: {err.reason}"
    if not evidence.compiled:
        return SAID_BC_TEST_NOT_COMPILING, evidence, reflective, None
    if reflective:
        # reflective tests step outside the client-observable equivalence
        # notion; their evidence never counts as discriminating
        return SAID_BC_TEST_NOT_DISCRIMINATING, evidence, True, None
    if evidence.discriminates:
        return SAID_BC_VALID, evidence, False, None
    return SAID_BC_TEST_NOT_DISCRIMINATING, evidence, False, None


def write_outcomes(outcomes, out: jsonl.Appender) -> None:
    """Append outcomes to the JSON-lines results file `out` holds open."""
    out.write([outcome.to_json_line() for outcome in outcomes])
