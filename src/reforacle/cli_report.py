"""The `reforacle` command line, the grouped view of outcome rows and the
report writers.

Subcommands mirror the pipeline stages: `validate` (dataset ground-truth
check), `run` (render - query - parse - assess, streamed to a JSON-lines
outcomes file), `metamorph` (persist seeded variants), `metrics`,
`stats`, and `summarize` (CSV tables). The first three live in
`pipeline`, which is imported only for them: the report commands read
`outcomes.jsonl` and load no corpus, model or toolchain code.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import statistics as pystats
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import outcome_rows

if TYPE_CHECKING:
    from . import java_executor

logger = logging.getLogger(__name__)

FULL_SOURCE_MODE = "FullSource"
DIFF_ONLY_MODE = "DiffOnly"
PRESERVING_MODE = "Preserving"
METAMORPHIC_MODE = "Metamorphic"
MODES = (FULL_SOURCE_MODE, DIFF_ONLY_MODE, PRESERVING_MODE, METAMORPHIC_MODE)


class ConfigError(ValueError):
    pass


class RunKey(NamedTuple):
    """One run configuration, from fields every outcome row has: backend
    name (`name@t=T` in a sweep), temperature, template version and variant
    family (`mt-<seed>` for metamorphic rows, else "")."""

    backend_name: str
    temperature: str | None
    template_version: str
    family: str




def _completed_keys(runs: dict[RunKey, list[dict]]) -> dict[tuple[RunKey, str, str, int], str]:
    """The stored prompt hash per done (RunKey, instance, variant, attempt)."""
    return {
        (key, rec["instance_id"], rec.get("variant_tag", ""), rec["attempt_index"]):
            rec["prompt_hash"]
        for key, rows in runs.items()
        for rec in rows
    }


def _runs(records: list[dict]) -> dict[RunKey, list[dict]]:
    """Rows per RunKey, derived once per distinct raw fields, not per row."""
    by_fields: dict[tuple, list[dict]] = {}
    for r in records:
        fields = (r["backend_name"], r.get("temperature", ""), r.get("template_version", ""),
                  r.get("variant_tag", ""))
        by_fields.setdefault(fields, []).append(r)
    groups: dict[RunKey, list[dict]] = {}
    for (name, temperature, template, tag), rows in by_fields.items():
        family = tag.rsplit("-", 1)[0] if tag else ""
        groups.setdefault(RunKey(name, temperature, template, family), []).extend(rows)
    return groups


def _by_run(runs: dict[RunKey, list[dict]]) -> dict[str, list[dict]]:
    """The one view every report reads: the groups of `_runs` in name order,
    each sorted by (instance, attempt), so no report depends on row order.
    A name is the backend name plus `#<value>` for each key part that differs
    among the configurations sharing it, empty values skipped (`mock#mt-7`).
    A configuration with two rows for one (instance, attempt) is left out,
    with a warning, rather than reported from either of them."""
    at = itemgetter("instance_id", "attempt_index")
    named = {}
    for key, rows in runs.items():
        peers = [k for k in runs if k.backend_name == key.backend_name]
        name = key.backend_name + "".join(f"#{value}" for i, value in enumerate(key)
                                          if value and len({peer[i] for peer in peers}) > 1)
        rows.sort(key=at)
        twice = next((at(r) for prev, r in zip(rows, rows[1:]) if at(prev) == at(r)), None)
        if twice is None:
            named[name] = rows
        else:
            logger.warning("no reports for %s: %s attempt %d appears twice", name, *twice)
    return dict(sorted(named.items()))


def _first_attempts(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["attempt_index"] == 1]


def _conclusive(rows: list[dict]) -> list[dict]:
    return [r for r in rows if not r.get("inconclusive")]


def write_metric_reports(view: dict[str, list[dict]], out_dir: Path) -> list[Path]:
    from . import analytics

    paths = []
    for name, rows in view.items():
        try:
            report = analytics.metric_report(analytics.matrix_from_outcomes(rows, name))
        except analytics.AnalyticsError as err:  # e.g. every row inconclusive
            logger.warning("no metrics for %s: %s", name, err)
            continue
        safe = name.replace("/", "_").replace("@", "_at_").replace("=", "")
        json_path = out_dir / f"metrics-{safe}.json"
        json_path.write_text(report.to_json(), "utf-8")
        csv_path = out_dir / f"metrics-{safe}.csv"
        report.write_csv(csv_path)
        paths += [json_path, csv_path]
    return paths


def write_stats_report(view: dict[str, list[dict]], out_dir: Path) -> Path | None:
    """Wilson CIs per model plus pairwise exact McNemar with Holm, and
    Cochran's Q, over first-attempt conclusive outcomes."""
    from . import stats

    per_model = {}
    for name, rows in view.items():
        first = _conclusive(_first_attempts(rows))
        outcomes = {r["instance_id"]: bool(r["correct"]) for r in first}
        if outcomes:
            per_model[name] = outcomes
        else:  # it would leave the models no instance in common
            logger.warning("no stats for %s: no conclusive first attempt", name)
    if not per_model:
        return None
    backends = list(per_model)
    doc: dict = {"models": {}, "pairwise": [], "cochran_q": None}
    for name, outcomes in per_model.items():
        n = len(outcomes)
        successes = sum(outcomes.values())
        low, high = stats.wilson_ci(successes, n, 0.95)
        doc["models"][name] = {
            "correct": successes,
            "n": n,
            "accuracy": successes / n,
            "wilson_95": [low, high],
        }
    common = sorted(set.intersection(*(set(outcomes) for outcomes in per_model.values())))
    pairs = []
    for a, b in itertools.combinations(backends, 2):
        cells = Counter((per_model[a][x], per_model[b][x]) for x in common)
        counts = stats.PairedCounts(
            n11=cells[True, True],
            n10=cells[True, False],
            n01=cells[False, True],
            n00=cells[False, False],
        )
        pairs.append((a, b, counts, stats.mcnemar_exact(counts)))
    if pairs:
        adjusted = stats.holm_correct([result.p_value for _, _, _, result in pairs])
        for (a, b, counts, result), p_holm in zip(pairs, adjusted):
            doc["pairwise"].append(
                {
                    "pair": [a, b],
                    "n11": counts.n11,
                    "n10": counts.n10,
                    "n01": counts.n01,
                    "n00": counts.n00,
                    "delta": result.delta,
                    "p_exact": result.p_value,
                    "p_holm": p_holm,
                }
            )
    if len(backends) >= 2 and common:
        matrix = [[1 if per_model[b][x] else 0 for b in backends] for x in common]
        q = stats.cochran_q(matrix)
        doc["cochran_q"] = {
            "q": q.statistic,
            "p": q.p_value,
            "degenerate": q.degenerate,
            "models": backends,
            "n": len(common),
        }
    path = out_dir / "stats.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), "utf-8")
    return path


def telemetry_summary(view: dict[str, list[dict]]) -> dict:
    summary: dict = {}
    for name, rows in view.items():
        latencies = [r["latency_s"] for r in rows]
        summary[name] = {
            "calls": len(rows),
            "latency_total_s": sum(latencies),
            "latency_mean_s": pystats.mean(latencies),
            "latency_median_s": pystats.median(latencies),
            "latency_min_s": min(latencies),
            "latency_max_s": max(latencies),
            "tokens_in": sum(r["tokens_in"] or 0 for r in rows),
            "tokens_out": sum(r["tokens_out"] or 0 for r in rows),
            "tokens_reasoning": sum(r.get("tokens_reasoning") or 0 for r in rows),
            "cost_total": sum(r["cost_estimate"] or 0.0 for r in rows),
        }
    return summary


def summarize(view: dict[str, list[dict]], out_dir: Path) -> list[Path]:
    """Emit the summary CSVs: accuracy, per-type heatmap data, failure
    modes, telemetry, and the UNKNOWN adjudication worksheet."""
    accuracy, heatmap, modes, unknowns = [], [], [], []
    for name, rows in view.items():
        first = _first_attempts(rows)
        usable = _conclusive(first)
        bc = [r for r in usable if r["ground_label"] == "BC"]
        ce = [r for r in usable if r["ground_label"] == "CE"]
        accuracy.append(
            [name, _rate(usable), _rate(bc), _rate(ce), len(usable), len(first) - len(usable)]
        )
        cells: dict[tuple[str, str], list[dict]] = {}
        for r in usable:
            cells.setdefault((r["refactoring_type"], r["ground_label"]), []).append(r)
        for (rtype, label), grp in sorted(cells.items()):
            heatmap.append([name, rtype, label, _rate(grp), len(grp)])
        counts = Counter(r["answer_label"] for r in rows)
        modes += [[name, label, counts[label]] for label in outcome_rows.ANSWER_LABELS if counts[label]]
        unknowns += [
            [name, r["instance_id"], r["attempt_index"], r["ground_label"],
             r.get("explanation", ""), ""]
            for r in rows
            if r["answer_label"] == outcome_rows.SAID_UNKNOWN
        ]
    telemetry = [
        [
            name,
            row["calls"],
            f"{row['latency_mean_s']:.3f}",
            f"{row['latency_median_s']:.3f}",
            f"{row['latency_min_s']:.3f}",
            f"{row['latency_max_s']:.3f}",
            f"{row['latency_total_s']:.3f}",
            row["tokens_in"],
            row["tokens_out"],
            f"{row['cost_total']:.4f}",
        ]
        for name, row in telemetry_summary(view).items()
    ]
    paths = [
        _write_csv(out_dir / "accuracy_by_model.csv",
                   ["model", "overall", "bc", "ce", "n", "inconclusive"], accuracy),
        _write_csv(out_dir / "heatmap_by_refactoring.csv",
                   ["model", "refactoring", "label", "accuracy", "n"], heatmap),
        _write_csv(out_dir / "failure_modes.csv", ["model", "answer_label", "count"], modes),
        _write_csv(out_dir / "telemetry.csv",
                   ["model", "calls", "mean_s", "median_s", "min_s", "max_s", "total_s",
                    "tokens_in", "tokens_out", "cost_total"], telemetry),
    ]
    if unknowns:
        paths.append(_write_csv(
            out_dir / "unknown_adjudication.csv",
            ["model", "instance", "attempt", "ground_label", "explanation", "adjudication"],
            unknowns,
        ))
    return paths


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _rate(rows: list[dict]) -> str:
    if not rows:
        return ""
    return f"{sum(1 for r in rows if r['correct']) / len(rows):.3f}"


# ------------------------------------------------------------------- CLI


def _toolchain_from_args(args) -> java_executor.Toolchain:
    """The toolchain named on the command line, else the JDK on PATH,
    else a NullToolchain. The one place a JDK is looked for."""
    from . import java_executor

    compiler = getattr(args, "compiler", None)
    junit_cp = getattr(args, "junit_cp", None)
    entries = tuple(junit_cp.split(os.pathsep)) if junit_cp else ()
    if compiler:
        cfg = java_executor.ToolchainConfig(
            javac_path=compiler,
            java_path=getattr(args, "java", "java"),
            junit_classpath=entries,
        )
        try:
            return java_executor.RealToolchain(cfg)
        except java_executor.ToolchainUnavailable as err:  # e.g. no such compiler
            raise ConfigError(str(err)) from err
    found = java_executor.find_jdk(entries)
    return java_executor.RealToolchain(found) if found else java_executor.NullToolchain()


def _toolchain_error() -> type[Exception]:
    """java_executor.ToolchainError, if a command has loaded that module;
    until one has, no ToolchainError can have been raised."""
    module = sys.modules.get(f"{__package__}.java_executor")
    return module.ToolchainError if module is not None else ConfigError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reforacle",
        description="Evaluate foundation models as refactoring correctness oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check corpus ground truth with a JDK")
    p_validate.add_argument("--corpus", required=True)
    p_validate.add_argument("--compiler")
    p_validate.add_argument("--java", default="java")
    p_validate.add_argument("--junit-cp", dest="junit_cp")
    p_validate.add_argument("--out", default="out")

    p_run = sub.add_parser("run", help="run a benchmark")
    p_run.add_argument("--corpus", required=True)
    p_run.add_argument("--backend", action="append", required=True)
    p_run.add_argument("--backends-file", dest="backends_file")
    p_run.add_argument("--attempts", type=int, default=1)
    p_run.add_argument("--temperature", default="")
    p_run.add_argument(
        "--mode",
        choices=[m.lower() for m in MODES] + list(MODES),
        default=FULL_SOURCE_MODE,
    )
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--replay")
    p_run.add_argument("--record")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--template")
    p_run.add_argument("--compiler")
    p_run.add_argument("--java", default="java")
    p_run.add_argument("--junit-cp", dest="junit_cp")

    p_meta = sub.add_parser("metamorph", help="persist metamorphic variants")
    p_meta.add_argument("--corpus", required=True)
    p_meta.add_argument("--seed", type=int, required=True)
    p_meta.add_argument("--out", default="out")

    p_metrics = sub.add_parser("metrics", help="metric reports from outcomes")
    p_metrics.add_argument("--outcomes", required=True)
    p_metrics.add_argument("--out", default="out")

    p_stats = sub.add_parser("stats", help="significance tests from outcomes")
    p_stats.add_argument("--outcomes", required=True)
    p_stats.add_argument("--out", default="out")

    p_sum = sub.add_parser("summarize", help="summary CSV tables from outcomes")
    p_sum.add_argument("--outcomes", required=True)
    p_sum.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        return _dispatch(args)
    except (ConfigError, OSError, ValueError, _toolchain_error()) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command not in ("metrics", "stats", "summarize"):
        from . import pipeline  # run, validate, metamorph: corpus, model and toolchain code

        return pipeline.dispatch(args)
    view = _by_run(_runs(outcome_rows.read_outcomes(args.outcomes)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "metrics":
        for path in write_metric_reports(view, out_dir):
            print(f"metrics: {path}")
    elif args.command == "summarize":
        for path in summarize(view, out_dir):
            print(f"summary: {path}")
    else:
        path = write_stats_report(view, out_dir)
        print(f"stats: {path}" if path else
              "no stats: no configuration has a conclusive first attempt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
