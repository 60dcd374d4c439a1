"""The run pipeline behind the `run`, `validate` and `metamorph` commands.

`run` renders each attempt's prompt, queries the model (or a replay
store), parses the verdict, assesses it with the Java toolchain and
appends one outcome row per attempt to `outcomes.jsonl`, then writes the
reports from the grouped rows (cli_report). Runs are resumable: a
completed (run configuration, instance, variant, attempt) key is never
re-queried. `validate` checks the corpus ground truth with a JDK, and
`metamorph` persists seeded variants.

cli_report imports this module only for those three commands. This
module calls cli_report's functions through that module
(`cli_report._runs(...)`), so a wrapper set on cli_report is the one that
runs.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

from . import assessor, cli_report, diffs, java_executor, jsonl, metamorph, outcome_rows, prompting
from .cli_report import (
    DIFF_ONLY_MODE,
    FULL_SOURCE_MODE,
    METAMORPHIC_MODE,
    MODES,
    ConfigError,
    RunKey,
)
from .dataset import BugInstance, load_corpus, validate_instance
from .model_client import (
    BackendConfig,
    ModelClient,
    ModelClientError,
    TranscriptStore,
)
from .verdict_parser import ModelVerdict, ParseFailure, parse_response

logger = logging.getLogger(__name__)


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
    rows = outcome_rows.read_outcomes(outcomes_path) if outcomes_path.exists() else []
    runs = cli_report._runs(rows)
    with _VersionProbe(toolchain) as probe:
        if not runs:  # every attempt is left to do
            probe.start()
        written, call_errors = _run_tasks(cfg, backends_impl, toolchain, probe, outcomes_path,
                                          runs)
    if written:  # else the reports come from the rows grouped for the resume check
        runs = cli_report._runs(outcome_rows.read_outcomes(outcomes_path))
    if not runs:  # e.g. a run whose every call failed
        return RunArtifacts(outcomes_path=None, metrics_paths=[], stats_path=None,
                            telemetry={}, call_errors=call_errors)
    view = cli_report._by_run(runs)
    metrics_paths = cli_report.write_metric_reports(view, out_dir)
    stats_path = cli_report.write_stats_report(view, out_dir)
    telemetry = cli_report.telemetry_summary(view)
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

    done_keys = cli_report._completed_keys(runs)
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


def dispatch(args) -> int:
    """The `validate`, `run` and `metamorph` commands, on the arguments
    cli_report.main parsed."""
    if args.command == "validate":
        corpus = load_corpus(args.corpus)
        with contextlib.closing(cli_report._toolchain_from_args(args)) as toolchain:
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
                    row = asdict(report)
                    del row["logs"]  # every other field, in declaration order
                    fh.write(json.dumps(row) + "\n")
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
        with contextlib.closing(cli_report._toolchain_from_args(args)) as toolchain:
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

    raise ConfigError(f"unknown command {args.command}")
