"""Write the golden report inputs and outputs in this directory.

    PYTHONPATH=src python tests/data/reports/make_golden.py

`outcomes.jsonl` is a seeded, shuffled set of 354 outcome rows covering
the report edge cases: five backends (two of them temperature-folded
names), one backend whose every row is inconclusive, one backend that
lacks some instances, three attempts, UNKNOWN rows, parse errors and
missing token counts. `expected/outcomes/` holds what `reforacle
metrics`, `stats` and `summarize` write for it, and
`expected/telemetry.json` the telemetry summary as JSON. Every report
reads one instance set per configuration, the instances whose every
attempt is conclusive, so the backend with no conclusive row has an empty
set and `stats` leaves it out. Each McNemar pair compares the instances
both of its models have, so `expected/paired/`, the `stats` output for
the same rows without that backend, is the same file as
`expected/outcomes/stats/`.
`mixed.jsonl` holds one backend's rows from three run configurations (a
base run, a metamorphic run with seed 7 and a diff-only run) next to a
backend with one configuration; `expected/mixed/` pins how the reports
name and separate them.
Rerun this only when a change to the report output is intended;
tests/test_reports_golden.py compares against these files byte for byte.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from pathlib import Path

from reforacle import assessor, metamorph
from reforacle.cli_report import _by_run, _runs, main, telemetry_summary

HERE = Path(__file__).resolve().parent
SEED = 20260418
ATTEMPTS = 3
INCONCLUSIVE_BACKEND = "delta"
TYPES = ("Rename Method", "Extract Method", "Inline Method", "Move Method", "Pull Up Field")
LABELS = ("BC", "CE", "PRESERVING")
BC_CLAIMS = (
    assessor.SAID_BC_VALID,
    assessor.SAID_BC_TEST_NOT_COMPILING,
    assessor.SAID_BC_TEST_NOT_DISCRIMINATING,
)
ANSWERS = (assessor.SAID_YES, assessor.SAID_CE, *BC_CLAIMS, assessor.SAID_UNKNOWN,
           assessor.PARSE_ERROR)


def instances(rng: random.Random) -> list[tuple[str, str, str]]:
    return [(f"inst-{i:02d}", LABELS[i % 3], rng.choice(TYPES)) for i in range(26)]


def row(rng: random.Random, backend: str, temp: str, inst: tuple[str, str, str],
        attempt: int, always_inconclusive: bool) -> dict:
    instance_id, label, rtype = inst
    wanted = assessor.correct_answer_label(label)
    answer = wanted if rng.random() < 0.55 else rng.choice(ANSWERS)
    inconclusive = always_inconclusive or (answer in BC_CLAIMS and rng.random() < 0.3)
    if inconclusive and answer not in BC_CLAIMS:
        answer = assessor.SAID_BC_TEST_NOT_COMPILING
    doc = {
        "schema": assessor.OUTCOME_SCHEMA,
        "instance_id": instance_id,
        "attempt_index": attempt,
        "backend_name": backend,
        "variant_tag": "",
        "correct": answer == wanted and not inconclusive,
        "answer_label": answer,
        "ground_label": label,
        "reflective_test": False,
        "inconclusive": inconclusive,
        "parse_reason": "no verdict line" if answer == assessor.PARSE_ERROR else None,
        "explanation": (
            'unsure, the "helper" may be overridden' if answer == assessor.SAID_UNKNOWN else ""
        ),
        "latency_s": round(rng.uniform(0.05, 9.0), 3),
        "tokens_in": None if rng.random() < 0.1 else rng.randint(200, 4000),
        "tokens_out": None if rng.random() < 0.1 else rng.randint(5, 900),
        "tokens_reasoning": None if rng.random() < 0.5 else rng.randint(0, 2000),
        "cost_estimate": None if rng.random() < 0.2 else round(rng.uniform(0, 0.05), 5),
        "prompt_hash": "",
        "template_version": "full_source_v1",
        "toolchain_version": "none",
        "seed": None,
        "temperature": temp,
        "refactoring_type": rtype,
        "tool": "Eclipse",
    }
    if answer == assessor.SAID_BC_VALID and not inconclusive:
        doc["evidence"] = {"discriminates": True, "passing_side": "original",
                           "on_original": "PASS", "on_resulting": "FAIL"}
    return doc


def outcome_rows() -> list[dict]:
    rng = random.Random(SEED)
    insts = instances(rng)
    backends = (  # name, temperature, instances, every row inconclusive
        ("alpha@t=0.2", "0.2", insts, False),
        ("alpha@t=0.7", "0.7", insts, False),
        ("beta", "None", insts, False),
        ("gamma", "None", insts[::2] + [insts[1]], False),
        (INCONCLUSIVE_BACKEND, "None", insts, True),
    )
    rows = [
        row(rng, name, temp, inst, attempt, dead)
        for name, temp, chosen, dead in backends
        for inst in chosen
        for attempt in range(1, ATTEMPTS + 1)
    ]
    rng.shuffle(rows)
    return rows


def mixed_rows() -> list[dict]:
    rng = random.Random(SEED + 1)
    insts = instances(rng)[:12]
    configs = (  # name, template version, variant family
        ("omega", "full_source_v1", ""),
        ("omega", "full_source_v1", "mt-7"),
        ("omega", "diff_only_v1", ""),
        ("sigma", "full_source_v1", ""),
    )
    rows = []
    for name, template, family in configs:
        for i, inst in enumerate(insts):
            for attempt in range(1, 3):
                doc = row(rng, name, "provider-default", inst, attempt, False)
                doc["template_version"] = template
                if family:
                    op = metamorph.OPERATORS[i % len(metamorph.OPERATORS)]
                    doc.update(variant_tag=f"{family}-{op}", seed=7)
                rows.append(doc)
    rng.shuffle(rows)
    return rows


def paired_rows(lines: list[str]) -> list[str]:
    """The outcome lines of every backend that has a conclusive row."""
    return [line for line in lines if json.loads(line)["backend_name"] != INCONCLUSIVE_BACKEND]


def write_golden(outcomes: Path, out: Path, commands=("metrics", "stats", "summarize")) -> None:
    """The report outputs for `outcomes`, one directory per subcommand."""
    for command in commands:
        assert main([command, "--outcomes", str(outcomes), "--out", str(out / command)]) == 0


def write_rows(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in rows), "utf-8")
    return path


if __name__ == "__main__":
    outcomes = write_rows(HERE / "outcomes.jsonl", outcome_rows())
    expected = HERE / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    write_golden(outcomes, expected / "outcomes")
    (expected / "telemetry.json").write_text(
        json.dumps(telemetry_summary(_by_run(_runs(assessor.read_outcomes(outcomes)))), indent=1),
        "utf-8",
    )
    with tempfile.TemporaryDirectory() as tmp:
        paired = Path(tmp) / "paired.jsonl"
        lines = outcomes.read_text("utf-8").splitlines(True)
        paired.write_text("".join(paired_rows(lines)), "utf-8")
        write_golden(paired, expected / "paired", commands=("stats",))
    write_golden(write_rows(HERE / "mixed.jsonl", mixed_rows()), expected / "mixed")
