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
import signal
import statistics as pystats
import sys
import threading
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import outcome_rows

if TYPE_CHECKING:
    from . import java_executor

logger = logging.getLogger(__name__)

# the values of `run --mode`
FULL_SOURCE_MODE = "fullsource"
DIFF_ONLY_MODE = "diffonly"
METAMORPHIC_MODE = "metamorphic"
MODES = (FULL_SOURCE_MODE, DIFF_ONLY_MODE, METAMORPHIC_MODE)


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


def _family(variant_tag: str) -> str:
    """A variant tag's RunKey family: the tag less its operator (`mt-7-CO`: `mt-7`)."""
    return variant_tag.rsplit("-", 1)[0] if variant_tag else ""


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
        groups.setdefault(RunKey(name, temperature, template, _family(tag)), []).extend(rows)
    return groups


class Run(NamedTuple):
    """One configuration in the report view: its rows in (instance, attempt)
    order; the instance set every accuracy reads, the rows of each instance
    whose every attempt is conclusive, one list per instance in attempt
    order; and how many instances that set leaves out."""

    rows: list[dict]
    conclusive: list[list[dict]]
    left_out: int

    @property
    def first(self) -> list[dict]:
        """The attempt-1 rows of the instance set."""
        return [attempts[0] for attempts in self.conclusive]


_NO_INSTANCE_SET = "no instance has every attempt conclusive"
_NO_CONFIGURATION = "no configuration has an instance whose every attempt is conclusive"


def _by_run(runs: dict[RunKey, list[dict]]) -> dict[str, Run]:
    """The one view every report reads: the groups of `_runs` in name order,
    each sorted by (instance, attempt), so no report depends on row order.
    A name is the backend name plus `#<value>` for each key part that differs
    among the configurations sharing it, empty values skipped (`mock#mt-7`).
    A configuration whose rows are not one per (instance, attempt) for
    attempts 1..K, K its largest attempt, is left out, with a warning,
    rather than reported from a guess."""
    named = {}
    for key, rows in runs.items():
        peers = [k for k in runs if k.backend_name == key.backend_name]
        name = key.backend_name + "".join(f"#{value}" for i, value in enumerate(key)
                                          if value and len({peer[i] for peer in peers}) > 1)
        rows.sort(key=itemgetter("instance_id", "attempt_index"))
        want = list(range(1, max(r["attempt_index"] for r in rows) + 1))
        conclusive = []
        for instance, group in itertools.groupby(rows, itemgetter("instance_id")):
            attempts = list(group)
            indices = [r["attempt_index"] for r in attempts]
            if indices != want:
                logger.warning("no reports for %s: %s has attempts %s, not one each of 1..%d",
                               name, instance, indices, len(want))
                break
            if not any(r.get("inconclusive") for r in attempts):
                conclusive.append(attempts)
        else:  # one row per (instance, attempt): len(rows) // len(want) instances
            named[name] = Run(rows, conclusive, len(rows) // len(want) - len(conclusive))
    return dict(sorted(named.items()))


def write_metric_reports(view: dict[str, Run], out_dir: Path) -> list[Path]:
    """`metrics-<name>.json` and `.csv` per configuration with an instance
    set. The CSV has a row per metric and k: the means, the accuracy of each
    attempt, then each per-k table of the document in its order."""
    from . import analytics

    paths = []
    for name, run in view.items():
        if not run.conclusive:
            logger.warning("no metrics for %s: %s", name, _NO_INSTANCE_SET)
            continue
        doc = analytics.metric_report(analytics.RunMatrix.from_instances(run.conclusive, name),
                                      run.left_out)
        rows = [["mean_accuracy", "", doc["mean_accuracy"]],
                ["accuracy_spread", "", doc["accuracy_spread"]]]
        rows += [["attempt_accuracy", k, v]
                 for k, v in enumerate(doc["per_attempt_accuracy"], start=1)]
        rows += [[metric, k, v]
                 for metric, table in doc.items() if isinstance(table, dict)
                 for k, v in table.items()]
        safe = name.replace("/", "_").replace("@", "_at_").replace("=", "")
        json_path = out_dir / f"metrics-{safe}.json"
        json_path.write_text(json.dumps(doc, indent=1, sort_keys=True), "utf-8")
        paths += [json_path, _write_csv(out_dir / f"metrics-{safe}.csv", ["metric", "k", "value"],
                                        [[metric, k, f"{v:.6f}"] for metric, k, v in rows])]
    return paths


def write_stats_report(view: dict[str, Run], out_dir: Path) -> Path | None:
    """Wilson CIs per model over its first-run instance set, exact McNemar
    with Holm over the instances each pair has in common, and Cochran's Q
    over the instances every model has."""
    from . import stats

    per_model = {}
    for name, run in view.items():
        if run.conclusive:
            per_model[name] = {r["instance_id"]: bool(r["correct"]) for r in run.first}
        else:  # it would leave the models no instance in common
            logger.warning("no stats for %s: %s", name, _NO_INSTANCE_SET)
    if not per_model:
        return None
    backends = list(per_model)
    doc: dict = {"models": {}, "pairwise": [], "cochran_q": None}
    for name, outcomes in per_model.items():
        n = len(outcomes)
        successes = sum(outcomes.values())
        low, high = stats.wilson_ci(successes, n)
        doc["models"][name] = {
            "correct": successes,
            "n": n,
            "left_out": view[name].left_out,
            "accuracy": successes / n,
            "wilson_95": [low, high],
        }
    pairs = []
    for a, b in itertools.combinations(backends, 2):
        shared = per_model[a].keys() & per_model[b].keys()
        cells = Counter((per_model[a][x], per_model[b][x]) for x in shared)
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
    common = sorted(set.intersection(*(set(outcomes) for outcomes in per_model.values())))
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


def telemetry_summary(view: dict[str, Run]) -> dict:
    summary: dict = {}
    for name, (rows, _, _) in view.items():
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


def summarize(view: dict[str, Run], out_dir: Path) -> list[Path]:
    """Emit the summary CSVs: accuracy and per-type heatmap data over each
    configuration's first-run instance set, failure modes, telemetry, and
    the UNKNOWN adjudication worksheet."""
    accuracy, heatmap, modes, unknowns = [], [], [], []
    for name, run in view.items():
        rows, first = run.rows, run.first
        bc = [r for r in first if r["ground_label"] == "BC"]
        ce = [r for r in first if r["ground_label"] == "CE"]
        accuracy.append([name, _rate(first), _rate(bc), _rate(ce), len(first), run.left_out])
        cells: dict[tuple[str, str], list[dict]] = {}
        for r in first:
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
    """The JDK of the `--compiler` given, else of the javac on PATH, else a
    NullToolchain. The one place a JDK is looked for."""
    from . import java_executor

    compiler = getattr(args, "compiler", None)
    junit_cp = getattr(args, "junit_cp", None)
    cfg = java_executor.ToolchainConfig(
        javac_path=compiler or "javac",
        junit_classpath=tuple(junit_cp.split(os.pathsep)) if junit_cp else (),
    )
    try:
        return java_executor.RealToolchain(cfg)
    except java_executor.ToolchainUnavailable as err:  # no such javac, or no java beside it
        if compiler:
            raise ConfigError(str(err)) from err
        return java_executor.NullToolchain()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reforacle",
        description="Evaluate foundation models as refactoring correctness oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jdk = argparse.ArgumentParser(add_help=False)
    jdk.add_argument("--compiler")
    jdk.add_argument("--junit-cp", dest="junit_cp")

    p_validate = sub.add_parser("validate", parents=[jdk],
                                help="check corpus ground truth with a JDK")
    p_validate.add_argument("--corpus", required=True)
    p_validate.add_argument("--out", default="out")

    p_run = sub.add_parser("run", parents=[jdk], help="run a benchmark")
    p_run.add_argument("--corpus", required=True)
    p_run.add_argument("--backend", action="append", required=True)
    p_run.add_argument("--backends-file", dest="backends_file")
    p_run.add_argument("--attempts", type=int, default=1)
    p_run.add_argument("--temperature", default="")
    p_run.add_argument(
        "--mode",
        choices=MODES,
        default=FULL_SOURCE_MODE,
    )
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--replay")
    p_run.add_argument("--record")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--template")

    p_meta = sub.add_parser("metamorph", help="persist metamorphic variants")
    p_meta.add_argument("--corpus", required=True)
    p_meta.add_argument("--seed", type=int, required=True)
    p_meta.add_argument("--out", default="out")

    for command, help_text in (("metrics", "metric reports from outcomes"),
                               ("stats", "significance tests from outcomes"),
                               ("summarize", "summary CSV tables from outcomes")):
        p_report = sub.add_parser(command, help=help_text)
        p_report.add_argument("--outcomes", required=True)
        p_report.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    # While a command runs, SIGTERM exits with 143 the way an error does, so
    # every `finally` and `with` on the way out runs: workspaces are deleted,
    # javac/java children killed, compile workers stopped. Only the main
    # thread may set a handler; the caller's is restored on return.
    on_main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm) if on_main_thread else None
    try:
        return _dispatch(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)


def _dispatch(args) -> int:
    if args.command not in ("metrics", "stats", "summarize"):
        # run, validate, metamorph: corpus, model and toolchain code
        from . import java_executor, pipeline

        try:
            return pipeline.dispatch(args)
        except java_executor.ToolchainError as err:
            raise ConfigError(str(err)) from err
    view = _by_run(_runs(outcome_rows.read_outcomes(args.outcomes)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "metrics":
        paths = write_metric_reports(view, out_dir)
        for path in paths:
            print(f"metrics: {path}")
        if not paths:
            print(f"no metrics: {_NO_CONFIGURATION}")
    elif args.command == "summarize":
        for path in summarize(view, out_dir):
            print(f"summary: {path}")
    else:
        path = write_stats_report(view, out_dir)
        print(f"stats: {path}" if path else f"no stats: {_NO_CONFIGURATION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
