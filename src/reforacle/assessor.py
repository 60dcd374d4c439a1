"""Per-attempt correctness decisions against ground truth.

A verdict is only as good as its evidence: a behavior-change claim
counts as correct solely when the model's own JUnit test compiles
against both program versions and passes on exactly one of them. The
answer taxonomy distinguishes wrong verdicts from right verdicts with
failed evidence, so error analyses can separate the two.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

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
    # provenance, filled by the pipeline
    prompt_hash: str = ""
    template_version: str = ""
    toolchain_version: str = ""
    seed: int | None = None
    temperature: str = ""
    refactoring_type: str = ""
    tool: str = ""

    def __post_init__(self) -> None:
        if self.answer_label not in ANSWER_LABELS:
            raise ValueError(f"unknown answer label {self.answer_label!r}")
        if self.answer_label == SAID_BC_VALID and not self.inconclusive:
            if self.evidence is None or not self.evidence.discriminates:
                raise ValueError("SAID_BC_VALID requires discriminating evidence")

    def to_json_line(self) -> str:
        doc = {name: getattr(self, name) for name in _ROW_FIELDS}
        doc["schema"] = OUTCOME_SCHEMA
        if self.evidence is not None:
            doc["evidence"] = {
                "discriminates": self.evidence.discriminates,
                "passing_side": self.evidence.passing_side,
                "on_original": self.evidence.on_original.outcome,
                "on_resulting": self.evidence.on_resulting.outcome,
            }
        return json.dumps(doc, sort_keys=True)


# Every field but `evidence` goes into the outcome row as is; the evidence
# is flattened into its own block.
_ROW_FIELDS = tuple(f.name for f in fields(AssessmentOutcome) if f.name != "evidence")


def _telemetry(verdict: ModelVerdict | ParseFailure) -> dict:
    raw = verdict.raw
    if raw is None:
        return {}
    return {
        "latency_s": raw.latency_s,
        "tokens_in": raw.tokens_in,
        "tokens_out": raw.tokens_out,
        "tokens_reasoning": raw.tokens_reasoning,
        "cost_estimate": raw.cost_estimate,
    }


def _base(inst: BugInstance, verdict, attempt_index: int, backend_name: str,
          variant_tag: str) -> dict:
    raw = verdict.raw
    return {
        "instance_id": inst.id,
        "attempt_index": raw.attempt_index if raw is not None else attempt_index,
        "backend_name": raw.backend_name if raw is not None else backend_name,
        "variant_tag": variant_tag,
        "ground_label": inst.label,
        "refactoring_type": inst.refactoring_type,
        "tool": inst.tool,
        **_telemetry(verdict),
    }


_SCAN = object()  # test_source default: _judge takes checked_test(verdict) itself


def assess(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    *,
    attempt_index: int = 1,
    backend_name: str = "",
    variant_tag: str = "",
    test_source: str | None | object = _SCAN,
    provenance: Callable[[], dict] = dict,
) -> AssessmentOutcome:
    """Judge one attempt on a bug instance (ground truth BC or CE).

    A YES is always incorrect here: every instance is a confirmed bug.
    A caller that has already taken `checked_test(verdict)` passes it as
    `test_source`, so the test is not scanned again. `provenance` is
    called once any claim is checked, and the fields it returns (prompt
    hash, template and toolchain version, seed, temperature) go into the
    outcome, so a slow lookup such as a toolchain version probe can
    overlap the check.
    """
    if inst.label not in ("BC", "CE"):
        raise ValueError(f"assess() expects a bug instance, got label {inst.label}")
    return _judge(inst, verdict, toolchain, attempt_index, backend_name, variant_tag,
                  test_source, provenance)


def assess_preserving(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    *,
    attempt_index: int = 1,
    backend_name: str = "",
    variant_tag: str = "",
    test_source: str | None | object = _SCAN,
    provenance: Callable[[], dict] = dict,
) -> AssessmentOutcome:
    """Judge one attempt on a behavior-preserving instance.

    Correct iff the model answers YES. NO verdicts are recorded with
    their claimed category for false-positive analysis. `test_source`
    and `provenance` are as for assess().
    """
    if inst.label != "PRESERVING":
        raise ValueError(f"assess_preserving() expects PRESERVING, got {inst.label}")
    return _judge(inst, verdict, toolchain, attempt_index, backend_name, variant_tag,
                  test_source, provenance)


_CLAIM_LABELS = {
    verdict_parser.YES: SAID_YES,
    verdict_parser.UNKNOWN: SAID_UNKNOWN,
    verdict_parser.NO_COMPILATION_ERROR: SAID_CE,
}


def _judge(
    inst: BugInstance,
    verdict: ModelVerdict | ParseFailure,
    toolchain: Toolchain,
    attempt_index: int,
    backend_name: str,
    variant_tag: str,
    test_source: str | None | object,
    provenance: Callable[[], dict],
) -> AssessmentOutcome:
    """Score one attempt against any ground truth.

    Behavior-change claims are validated mechanically through the model's
    own test, whatever the ground truth; toolchain failures mark the
    outcome inconclusive rather than wrong.
    """
    base = _base(inst, verdict, attempt_index, backend_name, variant_tag)
    if isinstance(verdict, ParseFailure):
        return AssessmentOutcome(
            correct=False, answer_label=PARSE_ERROR, parse_reason=verdict.reason, **base,
            **provenance(),
        )
    base["explanation"] = verdict.explanation
    evidence, reflective, inconclusive = None, False, False
    if verdict.category == verdict_parser.NO_BEHAVIOR_CHANGE:
        if test_source is _SCAN:
            test_source = checked_test(verdict)
        label, evidence, reflective, inconclusive = _validate_bc_claim(
            inst, test_source, toolchain
        )
    else:
        label = _CLAIM_LABELS[verdict.category]
    return AssessmentOutcome(
        correct=label == correct_answer_label(inst.label) and not inconclusive,
        answer_label=label,
        evidence=evidence,
        reflective_test=reflective,
        inconclusive=inconclusive,
        **base,
        **provenance(),
    )


def checked_test(verdict: ModelVerdict | ParseFailure) -> str | None:
    """The test a behavior-change claim is checked with, so scoring
    `verdict` runs the toolchain exactly when this is not None. None for
    any other verdict and for a claim whose test is missing or malformed
    (not exactly one public class)."""
    if isinstance(verdict, ParseFailure) or verdict.category != verdict_parser.NO_BEHAVIOR_CHANGE:
        return None
    try:
        return verdict_parser.extract_test_source(verdict)
    except verdict_parser.MalformedTest:
        return None


def _validate_bc_claim(
    inst: BugInstance, test_source: str | None, toolchain: Toolchain
) -> tuple[str, DiscriminationResult | None, bool, bool]:
    """(answer_label, evidence, reflective, inconclusive) for a BC claim
    checked with `test_source` (None: no usable test)."""
    if test_source is None:
        # a missing or malformed junit_test counts as absent evidence
        return SAID_BC_TEST_NOT_COMPILING, None, False, False
    reflective = java_executor.uses_reflection(test_source)
    try:
        evidence = toolchain.check_discriminating(test_source, inst.original, inst.resulting)
    except java_executor.ToolchainError as err:
        logger.warning("inconclusive assessment for %s: %s", inst.id, err)
        return SAID_BC_TEST_NOT_COMPILING, None, reflective, True
    if (
        evidence.on_original.outcome == java_executor.DID_NOT_COMPILE
        or evidence.on_resulting.outcome == java_executor.DID_NOT_COMPILE
    ):
        return SAID_BC_TEST_NOT_COMPILING, evidence, reflective, False
    if reflective:
        # reflective tests step outside the client-observable equivalence
        # notion; their evidence never counts as discriminating
        return SAID_BC_TEST_NOT_DISCRIMINATING, evidence, True, False
    if evidence.discriminates:
        return SAID_BC_VALID, evidence, False, False
    return SAID_BC_TEST_NOT_DISCRIMINATING, evidence, False, False


def write_outcomes(outcomes, out: str | Path | jsonl.Appender) -> None:
    """Append outcomes to a JSON-lines results file, given by its path or
    as an Appender the caller holds open."""
    lines = [outcome.to_json_line() for outcome in outcomes]
    if isinstance(out, jsonl.Appender):
        out.write(lines)
    else:
        jsonl.append(out, lines)
