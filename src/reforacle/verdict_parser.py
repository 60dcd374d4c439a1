"""Parse raw model output into a structured verdict.

The schema is strict: a JSON object with a verdict string out of a fixed
set, an explanation, and (full-source mode) an optional junit_test. Two
kinds of noise are recoverable because small models emit them routinely:
prose or markdown fences around the outermost JSON object, and a single
missing/extra space around the verdict hyphen. Everything else is a
ParseFailure value, never an exception: parsing is total.

A behavior-change claim's junit_test is checked here, once: the verdict
carries it as `test` only when it holds exactly one top-level public
class, so scoring runs the toolchain exactly when `verdict.test` is not
None.

The parser reads the answer's text only. A verdict does not carry the
response it came from: the pipeline names each attempt's row and copies
the response's telemetry into it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import javalex
from .prompting import DIFF_ONLY, FULL_SOURCE

YES = "YES"
NO_COMPILATION_ERROR = "NO_COMPILATION_ERROR"
NO_BEHAVIOR_CHANGE = "NO_BEHAVIOR_CHANGE"
UNKNOWN = "UNKNOWN"

_VERDICT_STRINGS = {
    "YES": YES,
    "NO - COMPILATION ERROR": NO_COMPILATION_ERROR,
    "NO - BEHAVIOR CHANGE": NO_BEHAVIOR_CHANGE,
    "UNKNOWN": UNKNOWN,
}

# Failure reasons
NOT_JSON = "NotJson"
MISSING_FIELD = "MissingField"
ILLEGAL_VERDICT_STRING = "IllegalVerdictString"
ILLEGAL_UNKNOWN_IN_FULL_MODE = "IllegalUnknownInFullMode"

_FENCE_RE = re.compile(r"^```[a-zA-Z]*\s*$")


@dataclass(frozen=True)
class ModelVerdict:
    category: str
    explanation: str
    test: str | None = None  # a behavior-change claim's well-formed test


@dataclass(frozen=True)
class ParseFailure:
    reason: str
    excerpt: str

    test = None  # a failure claims nothing, so no test is checked


def parse_response(text: str, mode: str = FULL_SOURCE) -> ModelVerdict | ParseFailure:
    """Total mapping from a model's answer text to exactly one verdict or
    failure."""

    def failure(reason: str) -> ParseFailure:
        return ParseFailure(reason=reason, excerpt=text[:200])

    doc = _load_json_object(text)
    if doc is None:
        return failure(NOT_JSON)
    if "verdict" not in doc or "explanation" not in doc:
        return failure(MISSING_FIELD)
    verdict_value = doc["verdict"]
    if not isinstance(verdict_value, str):
        return failure(ILLEGAL_VERDICT_STRING)
    category = _map_verdict(verdict_value)
    if category is None:
        return failure(ILLEGAL_VERDICT_STRING)
    if category == UNKNOWN and mode != DIFF_ONLY:
        return failure(ILLEGAL_UNKNOWN_IN_FULL_MODE)
    junit_test = doc.get("junit_test")
    test = None
    if category == NO_BEHAVIOR_CHANGE and isinstance(junit_test, str):
        test = extract_test_source(junit_test)
    explanation = doc["explanation"]
    if not isinstance(explanation, str):
        explanation = json.dumps(explanation)
    return ModelVerdict(category=category, explanation=explanation, test=test)


def _map_verdict(value: str) -> str | None:
    """Exact match after normalizing whitespace around the hyphen only."""
    if value in _VERDICT_STRINGS:
        return _VERDICT_STRINGS[value]
    normalized = re.sub(r"\s*-\s*", " - ", value)
    if normalized != value and normalized in _VERDICT_STRINGS:
        return _VERDICT_STRINGS[normalized]
    return None


def _load_json_object(text: str) -> dict | None:
    """Parse the outermost JSON object, stripping recoverable noise.
    None when no object can be parsed."""
    try:
        doc = json.loads(text)
        return doc if isinstance(doc, dict) else None
    except json.JSONDecodeError:
        pass
    candidate = _strip_fences(text)
    if candidate != text:
        try:
            doc = json.loads(candidate)
            if isinstance(doc, dict):
                return doc
        except json.JSONDecodeError:
            pass
    start = text.find("{")
    end = text.rfind("}")
    if start != -1 and end > start:
        try:
            doc = json.loads(text[start : end + 1])
            if isinstance(doc, dict):
                return doc
        except json.JSONDecodeError:
            pass
    return None


def _strip_fences(text: str) -> str:
    lines = text.strip().split("\n")
    kept = [ln for ln in lines if not _FENCE_RE.match(ln)]
    return "\n".join(kept).strip()


def extract_test_source(junit_test: str) -> str | None:
    """A claim's JUnit test as plain Java, or None when it is malformed.

    Markdown fences inside the test are stripped (a rule models sometimes
    violate). A test that is empty, does not scan, or does not hold
    exactly one top-level public class is None; scoring counts that as
    a test that does not compile.
    """
    lines = [ln for ln in junit_test.split("\n") if not _FENCE_RE.match(ln.strip())]
    source = "\n".join(lines).strip("\n")
    return source if javalex.top_level_public_class(source) else None
