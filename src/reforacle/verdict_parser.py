"""Parse raw model output into a structured verdict.

The schema is strict: a JSON object with a verdict string out of a fixed
set, an explanation, and (full-source mode) an optional junit_test. Two
kinds of noise are recoverable because small models emit them routinely:
prose or markdown fences around the outermost JSON object, and a single
missing/extra space around the verdict hyphen. Everything else is a
ParseFailure value, never an exception: parsing is total.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import javalex
from .model_client import RawModelResponse
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


class MalformedTest(ValueError):
    """junit_test does not contain exactly one top-level public class."""


@dataclass(frozen=True)
class ModelVerdict:
    category: str
    explanation: str
    junit_test: str | None = None
    noise_stripped: bool = False
    raw: RawModelResponse | None = None


@dataclass(frozen=True)
class ParseFailure:
    reason: str
    excerpt: str
    raw: RawModelResponse | None = None


def parse_response(raw: RawModelResponse | str, mode: str = FULL_SOURCE) -> ModelVerdict | ParseFailure:
    """Total mapping from raw output to exactly one verdict or failure."""
    if isinstance(raw, str):
        text, ref = raw, None
    else:
        text, ref = raw.text, raw

    def failure(reason: str) -> ParseFailure:
        return ParseFailure(reason=reason, excerpt=text[:200], raw=ref)

    doc, stripped = _load_json_object(text)
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
    if junit_test is not None and not isinstance(junit_test, str):
        junit_test = None
    explanation = doc["explanation"]
    if not isinstance(explanation, str):
        explanation = json.dumps(explanation)
    return ModelVerdict(
        category=category,
        explanation=explanation,
        junit_test=junit_test,
        noise_stripped=stripped,
        raw=ref,
    )


def _map_verdict(value: str) -> str | None:
    """Exact match after normalizing whitespace around the hyphen only."""
    if value in _VERDICT_STRINGS:
        return _VERDICT_STRINGS[value]
    normalized = re.sub(r"\s*-\s*", " - ", value)
    if normalized != value and normalized in _VERDICT_STRINGS:
        return _VERDICT_STRINGS[normalized]
    return None


def _load_json_object(text: str) -> tuple[dict | None, bool]:
    """Parse the outermost JSON object, stripping recoverable noise.

    Returns (object, noise_stripped). None when no object can be parsed.
    """
    try:
        doc = json.loads(text)
        if isinstance(doc, dict):
            return doc, False
        return None, False
    except json.JSONDecodeError:
        pass
    candidate = _strip_fences(text)
    if candidate != text:
        try:
            doc = json.loads(candidate)
            if isinstance(doc, dict):
                return doc, True
        except json.JSONDecodeError:
            pass
    start = text.find("{")
    end = text.rfind("}")
    if start != -1 and end > start:
        try:
            doc = json.loads(text[start : end + 1])
            if isinstance(doc, dict):
                return doc, True
        except json.JSONDecodeError:
            pass
    return None, False


def _strip_fences(text: str) -> str:
    lines = text.strip().split("\n")
    kept = [ln for ln in lines if not _FENCE_RE.match(ln)]
    return "\n".join(kept).strip()


def extract_test_source(verdict: ModelVerdict) -> str | None:
    """The verdict's JUnit test as plain Java, or None when absent.

    Markdown fences inside the test are stripped (a rule models sometimes
    violate). Raises MalformedTest unless exactly one top-level public
    class remains; the caller records that and treats it as a
    test-compilation failure.
    """
    if verdict.junit_test is None:
        return None
    source = verdict.junit_test
    lines = [ln for ln in source.split("\n") if not _FENCE_RE.match(ln.strip())]
    source = "\n".join(lines).strip("\n")
    if not source.strip():
        raise MalformedTest("test body is empty after stripping fences")
    try:
        scan = javalex.scan_file(source)
    except javalex.ScanError as err:
        raise MalformedTest(f"test source does not scan: {err}") from err
    public_classes = scan.public_class_names()
    if len(public_classes) != 1:
        raise MalformedTest(
            f"expected exactly one top-level public class, found {len(public_classes)}"
        )
    return source
