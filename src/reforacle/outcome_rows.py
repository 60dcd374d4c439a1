"""The outcome-row format: the schema version and answer labels of the
JSON lines in `outcomes.jsonl`, and how to read them back.

The report commands read rows through this module alone, so they load no
scoring, toolchain or model code.
"""

from __future__ import annotations

from pathlib import Path

from . import jsonl

OUTCOME_SCHEMA = 1

# Answer labels
SAID_YES = "SAID_YES"
SAID_CE = "SAID_CE"
SAID_BC_VALID = "SAID_BC_VALID"
SAID_BC_TEST_NOT_COMPILING = "SAID_BC_TEST_NOT_COMPILING"
SAID_BC_TEST_NOT_DISCRIMINATING = "SAID_BC_TEST_NOT_DISCRIMINATING"
SAID_UNKNOWN = "SAID_UNKNOWN"
PARSE_ERROR = "PARSE_ERROR"

ANSWER_LABELS = (
    SAID_YES,
    SAID_CE,
    SAID_BC_VALID,
    SAID_BC_TEST_NOT_COMPILING,
    SAID_BC_TEST_NOT_DISCRIMINATING,
    SAID_UNKNOWN,
    PARSE_ERROR,
)


def read_outcomes(path: str | Path) -> list[dict]:
    """Outcome records as dicts, without a torn last line; raises on
    schema mismatch."""
    rows = []
    for n, doc in jsonl.records(path):
        if doc.get("schema") != OUTCOME_SCHEMA:
            raise ValueError(f"{path}:{n}: unsupported outcome schema {doc.get('schema')}")
        rows.append(doc)
    return rows
