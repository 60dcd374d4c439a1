"""The run pipeline behind the `run`, `validate` and `metamorph` commands.

`run` renders each attempt's prompt, queries the model (or a replay
store), parses the verdict, assesses it with the Java toolchain and
appends one outcome row per attempt to `outcomes.jsonl`, then writes the
reports (cli_report) from the rows it read at the start plus the rows it
appended, without reading the file again. Runs are resumable: a
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
from dataclasses import dataclass, field, replace
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
from .dataset import BugInstance, load_corpus
from .model_client import (
    BackendConfig,
    ModelClient,
    ModelClientError,
    RawModelResponse,
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
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mode == METAMORPHIC_MODE and self.master_seed is None:
            raise ConfigError("metamorphic mode needs a master seed")
        if self.mode != METAMORPHIC_MODE and self.master_seed is not None:
            raise ConfigError(f"--seed draws metamorphic variants; {self.mode} mode takes none")
        if not self.backends:
            raise ConfigError("at least one backend required")
        # a repeat would run, and query, every attempt of its rows twice
        for what, values in (("backend", [b.name for b in self.backends]),
                             ("temperature", [str(t) for t in self.temperatures])):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]} is given more than once")

    @property
    def prompt_kind(self) -> str:
        """The prompt every attempt renders: the diff in diff-only mode,
        else both whole programs."""
        return prompting.DIFF_ONLY if self.mode == DIFF_ONLY_MODE else prompting.FULL_SOURCE


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
    return prompting.load_template(cfg.template_path, cfg.prompt_kind)


def _render(cfg: RunConfig, inst: BugInstance, template=None) -> prompting.RenderedPrompt:
    if cfg.prompt_kind == prompting.DIFF_ONLY:
        diff = diffs.unified_source_diff(inst.original, inst.resulting)
        return prompting.render_diff_prompt(
            diff, template=template, instance_id=inst.id, variant_tag=inst.variant_tag
        )
    return prompting.render_full_prompt(
        inst.original.concatenated(),
        inst.resulting.concatenated(),
        template=template,
        instance_id=inst.id,
        variant_tag=inst.variant_tag,
    )


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
    appended, call_errors = _run_tasks(cfg, backends_impl, toolchain, outcomes_path, runs)
    if appended:  # else the reports come from the rows grouped for the resume check
        runs = cli_report._runs(rows + appended)
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
               toolchain: java_executor.Toolchain, outcomes_path: Path,
               runs: dict[RunKey, list[dict]]) -> tuple[list[dict], int]:
    """Schedule every attempt not among `runs` (the rows already in
    `outcomes_path`, grouped), run them and append one row each. The toolchain
    version is read and the transcript stores are opened only when an attempt
    is left to do. Returns (the rows appended, in file order; failed model
    calls); each attempt counts in one of them."""
    corpus = load_corpus(cfg.corpus_root)
    if cfg.mode == METAMORPHIC_MODE:
        corpus = metamorph.variant_corpus(corpus, cfg.master_seed)
    outcomes_path.parent.mkdir(parents=True, exist_ok=True)

    done_keys = cli_report._completed_keys(runs)
    override_template = _load_override_template(cfg)
    # the prompt names no backend: one per instance serves every configuration
    prompts: list[tuple[BugInstance, prompting.RenderedPrompt]] = []
    for inst in corpus.instances:
        try:
            prompts.append((inst, _render(cfg, inst, override_template)))
        except (prompting.EmptyDiff, prompting.NoChangeLines) as err:
            logger.warning("skipping %s in diff mode: %s", inst.id, err)
    sweep = _sweep_configs(cfg)
    tasks: list[_Task] = []
    for run_name, backend_cfg in sweep:
        for inst, prompt in prompts:
            run_key = RunKey(run_name, str(backend_cfg.temperature), prompt.template_version,
                             cli_report._family(inst.variant_tag))
            for attempt in range(1, cfg.attempts + 1):
                stored_hash = done_keys.get((run_key, inst.id, inst.variant_tag, attempt))
                if stored_hash is None:
                    tasks.append(_Task(key=run_key, instance=inst, attempt=attempt, prompt=prompt))
                elif stored_hash != prompt.hash:
                    raise ConfigError(
                        f"{outcomes_path}: the prompt of {inst.id} attempt {attempt} of "
                        f"{run_name} changed since it was run (an edited "
                        f"{prompt.template_version} template or an edited corpus); rename "
                        "the edited template or use a new --out"
                    )
    if not tasks:
        return [], 0
    # a missing store would replay nothing, and every attempt would go live
    if cfg.replay_path and not cfg.record_path and not Path(cfg.replay_path).is_file():
        raise ConfigError(f"--replay {cfg.replay_path}: not a file")

    toolchain_version = toolchain.version()
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
    write_lock = threading.Lock()
    appended: list[dict] = []
    call_errors = 0

    def score(task: _Task, response: RawModelResponse,
              verdict: ModelVerdict | ParseFailure) -> None:
        if task.instance.label == "PRESERVING":
            assess = assessor.assess_preserving
        else:
            assess = assessor.assess
        # every row field the instance and the judgement do not give: the
        # task names the row, whatever the stored response says
        provenance = {
            "backend_name": task.key.backend_name,
            "attempt_index": task.attempt,
            "variant_tag": task.instance.variant_tag,
            "prompt_hash": task.prompt.hash,
            "template_version": task.prompt.template_version,
            "temperature": task.key.temperature,
            "toolchain_version": toolchain_version,
            "seed": task.instance.seed,
            "latency_s": response.latency_s,
            "tokens_in": response.tokens_in,
            "tokens_out": response.tokens_out,
            "tokens_reasoning": response.tokens_reasoning,
            "cost_estimate": response.cost_estimate,
        }
        outcome = assess(task.instance, verdict, toolchain, provenance=provenance)
        with write_lock:
            assessor.write_outcomes([outcome], outcomes)
            appended.append(outcome.row)

    # Threads only overlap waiting: a live call (with the rest of its attempt) or a
    # claim's check. At --jobs N the calling thread hands each wait to a pool of N
    # threads and does all else itself; at --jobs 1 each wait runs inline, in order.
    pool = ThreadPoolExecutor(max_workers=cfg.jobs)
    pending: list[Future] = []

    def attempt(task: _Task, inline: bool) -> None:
        """Query, parse and score one attempt; `inline`: wait on this thread."""
        nonlocal call_errors
        client = clients[task.key.backend_name]
        # with no live backend a miss fails at once, so only a live call can wait
        live = client.backend is not None
        if not inline and live and client.recorded(task.prompt, task.attempt) is None:
            pending.append(pool.submit(attempt, task, True))
            return
        try:
            response = client.query(task.prompt, task.attempt)
        except ModelClientError as err:
            with write_lock:
                call_errors += 1
            logger.error("call failed (%s: %s attempt %d): %s", task.key.backend_name,
                         task.instance.id, task.attempt, err)
            return
        verdict = parse_response(response.text, task.prompt.kind)
        if inline or verdict.test is None:
            score(task, response, verdict)
        else:
            pending.append(pool.submit(score, task, response, verdict))

    with jsonl.Appender(outcomes_path) as outcomes:
        try:
            for task in tasks:
                attempt(task, inline=cfg.jobs == 1)
            for future in pending:
                future.result()
        finally:  # on an error, drop the attempts no thread has started
            pool.shutdown(cancel_futures=True)
            if record_store is not None:
                record_store.close()
    return appended, call_errors


def validate_instance(inst: BugInstance, toolchain: java_executor.Toolchain) -> dict:
    """The `validation.jsonl` row of `inst`: its stored label checked
    against compile and test evidence.

    A ToolchainError quarantines the instance instead of raising, so one
    bad instance cannot abort the command; what was learnt before it stays
    in the row.
    """
    row = {"instance_id": inst.id, "label": inst.label, "original_compiles": False,
           "resulting_compiles": False, "test_compiles_on_both": None,
           "test_discriminates": None, "ground_truth_confirmed": False, "quarantined": False,
           "toolchain_version": toolchain.version()}
    try:
        original = row["original_compiles"] = toolchain.compile(inst.original).success
        resulting = row["resulting_compiles"] = toolchain.compile(inst.resulting).success
        if inst.label == "CE":
            row["ground_truth_confirmed"] = original and not resulting
        elif inst.label == "PRESERVING":
            row["ground_truth_confirmed"] = original and resulting
        else:  # BC: the exposing test must compile on both versions, pass on
            # the original and fail on the resulting program
            disc = toolchain.check_discriminating(inst.exposing_test, inst.original,
                                                  inst.resulting)
            row["test_compiles_on_both"] = disc.compiled
            row["test_discriminates"] = disc.discriminates
            row["ground_truth_confirmed"] = (original and resulting
                                             and disc.passing_side == "original")
    except java_executor.ToolchainError as err:
        row["quarantined"] = True
        logger.warning("instance %s quarantined: %s", inst.id, err)
    return row


def _read_backends_file(path: str) -> dict[str, BackendConfig]:
    """The backends a --backends-file defines, by name. A file that is not
    JSON, a malformed entry or a name defined twice is a ConfigError naming
    the file (and the entry's index and the bad key, or both indices)."""
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
        if cfg.name in configs:  # every earlier entry is in `configs`, in order
            first = list(configs).index(cfg.name)
            raise ConfigError(f"{path}: entries {first} and {i} both define {cfg.name!r}")
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
                    row = validate_instance(inst, toolchain)
                    confirmed += int(row["ground_truth_confirmed"])
                    quarantined += int(row["quarantined"])
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
        cfg = RunConfig(
            corpus_root=args.corpus,
            backends=_load_backends(args),
            attempts=args.attempts,
            mode=args.mode,
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
        base = metamorph.persist_variants(variants, args.out, args.seed)
        counts = metamorph.operator_counts(variants)
        print(f"wrote {len(variants)} variants under {base}")
        print("operators: " + ", ".join(f"{op}={n}" for op, n in counts.items()))
        return 0

    raise ConfigError(f"unknown command {args.command}")
