"""End-to-end run orchestration and reporting.

Subcommands mirror the pipeline stages: `validate` (dataset ground-truth
check), `run` (render - query - parse - assess, streamed to a JSON-lines
outcomes file), `metamorph` (persist seeded variants), `metrics`,
`stats`, and `summarize` (CSV tables). Runs are resumable: a completed
(run configuration, instance, variant, attempt) key is never re-queried.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import logging
import os
import statistics as pystats
import sys
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from dataclasses import fields as dataclass_fields
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import analytics, assessor, diffs, java_executor, jsonl, metamorph, prompting, stats
from .dataset import BugInstance, load_corpus
from .model_client import (
    BackendConfig,
    ModelClient,
    ModelClientError,
    TranscriptStore,
)
from .verdict_parser import ModelVerdict, ParseFailure, parse_response

logger = logging.getLogger(__name__)

FULL_SOURCE_MODE = "FullSource"
DIFF_ONLY_MODE = "DiffOnly"
PRESERVING_MODE = "Preserving"
METAMORPHIC_MODE = "Metamorphic"
MODES = (FULL_SOURCE_MODE, DIFF_ONLY_MODE, PRESERVING_MODE, METAMORPHIC_MODE)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    corpus_root: str
    backends: list[BackendConfig]
    attempts: int = 1
    mode: str = FULL_SOURCE_MODE
    master_seed: int | None = None
    temperatures: list[float | str] = field(default_factory=list)
    replay_path: str | None = None
    record_path: str | None = None
    out_dir: str = "out"
    jobs: int = 1
    template_path: str | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigError("attempts must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mode == METAMORPHIC_MODE and self.master_seed is None:
            raise ConfigError("metamorphic mode needs a master seed")
        if not self.backends:
            raise ConfigError("at least one backend required")


@dataclass
class RunArtifacts:
    outcomes_path: Path | None  # None: no outcome was written
    metrics_paths: list[Path]
    stats_path: Path | None
    telemetry: dict
    call_errors: int = 0


class RunKey(NamedTuple):
    """One run configuration, from fields every outcome row has: backend
    name (`name@t=T` in a sweep), temperature, template version and variant
    family (`mt-<seed>` for metamorphic rows, else "")."""

    backend_name: str
    temperature: str | None
    template_version: str
    family: str


@dataclass(frozen=True)
class _Task:
    key: RunKey
    instance: BugInstance
    attempt: int
    prompt: prompting.RenderedPrompt


def _sweep_configs(cfg: RunConfig) -> list[tuple[str, BackendConfig]]:
    """(row name, backend config) per (backend, temperature) pair.

    A sweep names the rows and transcript keys `name@t=T`, so they stay
    distinct per temperature; the provider is still sent the configured
    model name.
    """
    if not cfg.temperatures:
        return [(base.name, base) for base in cfg.backends]
    return [
        (f"{base.name}@t={temp}", replace(base, temperature=temp))
        for base in cfg.backends
        for temp in cfg.temperatures
    ]


def _load_override_template(cfg: RunConfig) -> prompting.PromptTemplate | None:
    if not cfg.template_path:
        return None
    kind = prompting.DIFF_ONLY if cfg.mode == DIFF_ONLY_MODE else prompting.FULL_SOURCE
    return prompting.load_template(cfg.template_path, kind)


def _render(cfg: RunConfig, inst: BugInstance, variant_tag: str,
            original_override=None, template=None) -> prompting.RenderedPrompt:
    original = original_override if original_override is not None else inst.original
    if cfg.mode == DIFF_ONLY_MODE:
        diff = diffs.unified_source_diff(original, inst.resulting)
        return prompting.render_diff_prompt(
            diff, template=template, instance_id=inst.id, variant_tag=variant_tag
        )
    return prompting.render_full_prompt(
        original.concatenated(),
        inst.resulting.concatenated(),
        template=template,
        instance_id=inst.id,
        variant_tag=variant_tag,
    )


class _VersionProbe(ThreadPoolExecutor):
    """toolchain.version() on a thread of its own, started at most once, as
    soon as the run is known to have work, so its JVM starts during set-up.
    result() waits for it and raises what it raised; leaving the `with`
    block waits for it too, so no probe process outlives the run."""

    def __init__(self, toolchain: java_executor.Toolchain) -> None:
        super().__init__(max_workers=1)
        self._toolchain = toolchain
        self._version: Future | None = None

    def start(self) -> None:
        if self._version is None:
            self._version = self.submit(self._toolchain.version)

    def result(self) -> str:
        self.start()
        return self._version.result()


def run_benchmark(
    cfg: RunConfig,
    backends_impl: dict[str, object] | None = None,
    *,
    toolchain: java_executor.Toolchain,
) -> RunArtifacts:
    """Execute render - query - parse - assess over the whole grid.

    Per-call transport errors are logged and counted but never abort the
    run; configuration errors raise before any work starts. The caller
    owns the toolchain and closes it.
    """
    out_dir = Path(cfg.out_dir)
    outcomes_path = out_dir / "outcomes.jsonl"
    runs = _runs(assessor.read_outcomes(outcomes_path) if outcomes_path.exists() else [])
    with _VersionProbe(toolchain) as probe:
        if not runs:  # every attempt is left to do
            probe.start()
        written, call_errors = _run_tasks(cfg, backends_impl, toolchain, probe, outcomes_path,
                                          runs)
    if written:  # else the reports come from the rows grouped for the resume check
        runs = _runs(assessor.read_outcomes(outcomes_path))
    if not runs:  # e.g. a run whose every call failed
        return RunArtifacts(outcomes_path=None, metrics_paths=[], stats_path=None,
                            telemetry={}, call_errors=call_errors)
    view = _by_run(runs)
    metrics_paths = write_metric_reports(view, out_dir)
    stats_path = write_stats_report(view, out_dir)
    telemetry = telemetry_summary(view)
    (out_dir / "telemetry.json").write_text(json.dumps(telemetry, indent=1), "utf-8")
    return RunArtifacts(
        outcomes_path=outcomes_path,
        metrics_paths=metrics_paths,
        stats_path=stats_path,
        telemetry=telemetry,
        call_errors=call_errors,
    )


def _run_tasks(cfg: RunConfig, backends_impl: dict[str, object] | None,
               toolchain: java_executor.Toolchain, probe: _VersionProbe,
               outcomes_path: Path, runs: dict[RunKey, list[dict]]) -> tuple[int, int]:
    """Schedule every attempt not among `runs` (the rows already in
    `outcomes_path`, grouped), run them and append one row each. The transcript
    stores are opened only when an attempt is left to do. Returns (rows
    appended, failed model calls); each attempt counts in one of them."""
    corpus = load_corpus(cfg.corpus_root)
    outcomes_path.parent.mkdir(parents=True, exist_ok=True)

    variants_by_id: dict[str, metamorph.MetamorphicVariant] = {}
    if cfg.mode == METAMORPHIC_MODE:
        assert cfg.master_seed is not None
        for variant in metamorph.transform_corpus(corpus, cfg.master_seed):
            variants_by_id[variant.base_instance_id] = variant

    done_keys = _completed_keys(runs)
    override_template = _load_override_template(cfg)
    family = f"mt-{cfg.master_seed}" if cfg.mode == METAMORPHIC_MODE else ""
    sweep = _sweep_configs(cfg)
    tasks: list[_Task] = []
    for run_name, backend_cfg in sweep:
        for inst in corpus.instances:
            variant_tag = ""
            override = None
            if cfg.mode == METAMORPHIC_MODE:
                variant = variants_by_id[inst.id]  # one per instance: CO always applies
                override = variant.transformed_original
                variant_tag = f"{family}-{variant.operator}"
            try:
                prompt = _render(cfg, inst, variant_tag, override, override_template)
            except (prompting.EmptyDiff, prompting.NoChangeLines) as err:
                logger.warning("skipping %s in diff mode: %s", inst.id, err)
                continue
            run_key = RunKey(run_name, str(backend_cfg.temperature), prompt.template_version, family)
            fresh_hash = prompt.hash
            for attempt in range(1, cfg.attempts + 1):
                stored_hash = done_keys.get((run_key, inst.id, variant_tag, attempt))
                if stored_hash is None:
                    probe.start()
                    tasks.append(_Task(key=run_key, instance=inst, attempt=attempt, prompt=prompt))
                elif stored_hash != fresh_hash:
                    raise ConfigError(
                        f"{outcomes_path}: {inst.id} attempt {attempt} of {run_name} was run "
                        f"with another {prompt.template_version} prompt; rename the edited "
                        "template or use a new --out"
                    )
    if not tasks:
        return 0, 0

    replay_store = TranscriptStore(cfg.replay_path) if cfg.replay_path else None
    record_store = TranscriptStore(cfg.record_path) if cfg.record_path else None
    clients = {
        run_name: ModelClient(
            backend_cfg,
            backend=backends_impl.get(backend_cfg.name) if backends_impl is not None else None,
            replay_store=replay_store,
            record_store=record_store,
            name=run_name,
        )
        for run_name, backend_cfg in sweep
    }
    mode = prompting.DIFF_ONLY if cfg.mode == DIFF_ONLY_MODE else prompting.FULL_SOURCE
    write_lock = threading.Lock()
    call_errors = 0

    def score(task: _Task, verdict: ModelVerdict | ParseFailure, test: str | None) -> None:
        if task.instance.label == "PRESERVING":
            assess = assessor.assess_preserving
        else:
            assess = assessor.assess
        outcome = assess(
            task.instance,
            verdict,
            toolchain,
            attempt_index=task.attempt,
            backend_name=task.key.backend_name,
            variant_tag=task.prompt.variant_tag,
            test_source=test,
            provenance=lambda: {  # after the check, which overlaps the version probe
                "prompt_hash": task.prompt.hash,
                "template_version": task.prompt.template_version,
                "toolchain_version": probe.result(),
                "seed": cfg.master_seed,
                "temperature": task.key.temperature,
            },
        )
        with write_lock:
            assessor.write_outcomes([outcome], outcomes)

    def run_task(task: _Task) -> None:
        nonlocal call_errors
        try:
            response = clients[task.key.backend_name].query(task.prompt, task.attempt)
        except ModelClientError as err:
            with write_lock:
                call_errors += 1
            logger.error("call failed (%s: %s attempt %d): %s", task.key.backend_name,
                         task.instance.id, task.attempt, err)
            return
        verdict = parse_response(response, mode)
        score(task, verdict, assessor.checked_test(verdict))

    with jsonl.Appender(outcomes_path) as outcomes:
        if cfg.jobs <= 1:
            for task in tasks:
                run_task(task)
            return len(tasks) - call_errors, call_errors
        # Threads only overlap waiting: an attempt that neither calls a
        # model nor checks a claim is finished on this thread, and the pool
        # gets the rest, so it never holds more than --jobs checks.
        pool = ThreadPoolExecutor(max_workers=cfg.jobs)
        try:
            pending = []
            for task in tasks:
                client = clients[task.key.backend_name]
                if client.recorded(task.prompt, task.attempt) is None:
                    pending.append(pool.submit(run_task, task))
                    continue
                verdict = parse_response(client.query(task.prompt, task.attempt), mode)
                test = assessor.checked_test(verdict)
                if test is None:
                    score(task, verdict, test)
                else:
                    pending.append(pool.submit(score, task, verdict, test))
            for future in pending:
                future.result()
        finally:  # on an error, drop the attempts no thread has started
            pool.shutdown(cancel_futures=True)
    return len(tasks) - call_errors, call_errors


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
        modes += [[name, label, counts[label]] for label in assessor.ANSWER_LABELS if counts[label]]
        unknowns += [
            [name, r["instance_id"], r["attempt_index"], r["ground_label"],
             r.get("explanation", ""), ""]
            for r in rows
            if r["answer_label"] == assessor.SAID_UNKNOWN
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


def _read_backends_file(path: str) -> dict[str, BackendConfig]:
    """The backends a --backends-file defines, by name. A file that is not
    JSON, or a malformed entry, is a ConfigError naming the file (and the
    entry's index and the bad key)."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: expected a JSON list of backend objects")
    known = {f.name for f in dataclass_fields(BackendConfig)}
    configs: dict[str, BackendConfig] = {}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: entry {i} is a {type(entry).__name__}, not an object")
        for key in entry:
            if key not in known:
                raise ConfigError(f"{path}: entry {i} has unknown key {key!r}")
        try:
            cfg = BackendConfig(**entry)
        except (TypeError, ValueError) as err:  # no name, or a value of the wrong type or range
            raise ConfigError(f"{path}: entry {i}: {err}") from err
        configs[cfg.name] = cfg
    return configs


def _load_backends(args) -> list[BackendConfig]:
    backends_file = getattr(args, "backends_file", None)
    configs = _read_backends_file(backends_file) if backends_file else {}
    chosen = []
    for name in args.backend:
        if name in configs:
            chosen.append(configs[name])
        elif name == "mock":
            chosen.append(BackendConfig(name="mock", endpoint="mock"))
        elif name == "replay":
            chosen.append(BackendConfig(name="replay", endpoint="local"))
        else:
            raise ConfigError(
                f"backend {name!r} not defined; add it to --backends-file"
            )
    return chosen


def _toolchain_from_args(args) -> java_executor.Toolchain:
    """The toolchain named on the command line, else the JDK on PATH,
    else a NullToolchain. The one place a JDK is looked for."""
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
    except (ConfigError, OSError, ValueError, java_executor.ToolchainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "validate":
        from .dataset import validate_instance

        corpus = load_corpus(args.corpus)
        with contextlib.closing(_toolchain_from_args(args)) as toolchain:
            if isinstance(toolchain, java_executor.NullToolchain):
                raise ConfigError("validate needs a JDK (use --compiler)")
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "validation.jsonl"
            confirmed = quarantined = 0
            with report_path.open("w", encoding="utf-8") as fh:
                for inst in corpus.instances:
                    report = validate_instance(inst, toolchain)
                    confirmed += int(report.ground_truth_confirmed)
                    quarantined += int(report.quarantined)
                    fh.write(
                        json.dumps(
                            {
                                "instance_id": report.instance_id,
                                "label": report.label,
                                "original_compiles": report.original_compiles,
                                "resulting_compiles": report.resulting_compiles,
                                "test_compiles_on_both": report.test_compiles_on_both,
                                "test_discriminates": report.test_discriminates,
                                "ground_truth_confirmed": report.ground_truth_confirmed,
                                "quarantined": report.quarantined,
                                "toolchain_version": report.toolchain_version,
                            }
                        )
                        + "\n"
                    )
        print(
            f"validated {corpus.total} instances: {confirmed} confirmed, "
            f"{quarantined} quarantined -> {report_path}"
        )
        return 0

    if args.command == "run":
        temperatures: list[float | str] = []
        if args.temperature:
            temperatures = [float(t) for t in args.temperature.split(",")]
        mode = {m.lower(): m for m in MODES}.get(args.mode, args.mode)
        cfg = RunConfig(
            corpus_root=args.corpus,
            backends=_load_backends(args),
            attempts=args.attempts,
            mode=mode,
            master_seed=args.seed,
            temperatures=temperatures,
            replay_path=args.replay,
            record_path=args.record,
            out_dir=args.out,
            jobs=args.jobs,
            template_path=args.template,
        )
        with contextlib.closing(_toolchain_from_args(args)) as toolchain:
            artifacts = run_benchmark(cfg, toolchain=toolchain)
        if artifacts.outcomes_path is None:
            print("no outcomes were written")
        else:
            print(f"outcomes: {artifacts.outcomes_path}")
        for path in artifacts.metrics_paths:
            print(f"metrics: {path}")
        if artifacts.stats_path:
            print(f"stats: {artifacts.stats_path}")
        if artifacts.call_errors:
            print(f"warning: {artifacts.call_errors} calls failed; rerun to resume")
        return 0

    if args.command == "metamorph":
        corpus = load_corpus(args.corpus)
        variants = metamorph.transform_corpus(corpus, args.seed)
        base = metamorph.persist_variants(variants, corpus, args.out, args.seed)
        counts = metamorph.operator_counts(variants)
        print(f"wrote {len(variants)} variants under {base}")
        print("operators: " + ", ".join(f"{op}={n}" for op, n in counts.items()))
        return 0

    if args.command in ("metrics", "stats", "summarize"):
        view = _by_run(_runs(assessor.read_outcomes(args.outcomes)))
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

    raise ConfigError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
