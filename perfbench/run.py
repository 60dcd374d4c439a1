"""Benchmark of the `reforacle` CLI, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The model is replaced by a
replay store that the CLI itself records at set-up, against mock
backends, and that then gets the workload's scripted answers; the Java
toolchain is the local javac/java with a JUnit 4 stand-in
(perfbench/junit) on the classpath, built once per invocation. Every
CLI call runs at --jobs 2 with its own TMPDIR under .perfbench/.

--trace 0 times whole CLI invocations and prints the end-to-end
metrics; --trace 1 runs the pipeline once untraced and once through
perfbench/tracer.py and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it records the workload, its inputs and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

JOBS = 2
ROUNDS = 10          # resume, summarize and one-attempt samples per invocation, at least
DEADLINE_S = 170.0   # the whole invocation must end within 180 s
# Without shared perf memory the JVMs write nothing to /tmp/hsperfdata_<user>.
# Each JVM then prints "Picked up JAVA_TOOL_OPTIONS: ..." on stderr, which
# the outcome rows carry in toolchain_version and the toolchain diagnostics.
JAVA_TOOL_OPTIONS = "-XX:-UsePerfData"
SETUP_BACKEND = "model-setup"
# Outcome fields that must agree between two replays of one workload.
KEYED_FIELDS = (
    "answer_label", "correct", "inconclusive", "ground_label", "variant_tag", "evidence",
    "reflective_test", "parse_reason", "explanation", "prompt_hash", "template_version",
    "toolchain_version", "seed", "temperature", "latency_s", "tokens_in", "tokens_out",
    "refactoring_type", "tool",
)


class BenchError(RuntimeError):
    pass


@dataclass
class Invocation:
    wall_s: float
    self_rss_mb: float
    child_rss_mb: float


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.calls = 0
        self.check_tail: dict | None = None
        self.samples: dict | None = None
        self.workspaces_left = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, JAVA_TOOL_OPTIONS=JAVA_TOOL_OPTIONS)
        work.mkdir(parents=True)
        self.junit_cp = self._build_junit()
        sys.path.insert(0, str(ROOT / "src"))
        self.inputs = workloads.build_inputs(workload, seed, ROOT, work / "corpus")
        self.store = work / "store.jsonl"
        self.backends_file = self._backends(work / "backends.json", "local")
        self.mock_backends = self._backends(work / "record-backends.json", "mock")
        self.setup_corpus = self._setup_corpus()
        self.setup_store = work / "setup-store.jsonl"
        self._record_stores()

    # ------------------------------------------------------------ set-up

    def _build_junit(self) -> str:
        classes = self.work / "junit"
        sources = sorted(str(p) for p in (HERE / "junit").rglob("*.java"))
        proc = subprocess.run(["javac", "-d", str(classes), *sources], env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"building the JUnit stand-in failed:\n{proc.stderr[-2000:]}")
        return str(classes)

    def _backends(self, path: Path, endpoint: str) -> Path:
        """The workload's backends and the set-up backend, all on `endpoint`:
        "local" has no live model, so an answer missing from the replay store
        is a call error; "mock" answers every prompt with YES."""
        names = [*self.workload.backends, SETUP_BACKEND]
        path.write_text(json.dumps([{"name": n, "endpoint": endpoint} for n in names]), "utf-8")
        return path

    def _setup_corpus(self) -> Path:
        """A one-instance corpus for the set-up run."""
        first = sorted(self.inputs.labels)[0]
        corpus = self.work / "setup-corpus"
        shutil.copytree(self.inputs.corpus_root / "instances" / first, corpus / "instances" / first)
        return corpus

    def _recorded_keys(self, setup: bool = False) -> list:
        """The request keys the CLI itself renders for the full run (or the
        set-up run): one run against mock backends that answer YES, with
        every request recorded."""
        record = self.work / "record.jsonl"
        out = self.work / "record-out"
        self.cli([*self.run_args(out, setup=setup, backends=self.mock_backends), "--record", str(record)])
        keys = tracer.layer("model_client", "TranscriptStore")(record).keys()
        record.unlink()
        shutil.rmtree(out)
        return keys

    def _record_stores(self) -> None:
        """Record the replay stores through the CLI's own rendering and
        request keys, then give every key its scripted answer."""
        keys = self._recorded_keys()
        by_attempt = {(k.backend_name, k.instance_id, k.attempt_index): k for k in keys}
        w = self.workload
        scheduled = {(i, a) for i in self.inputs.labels for a in range(1, w.attempts + 1)}
        configs = {c for c, _, _ in by_attempt}
        if len(configs) != w.config_count or len(by_attempt) != len(keys) or any(
                {(i, a) for c2, i, a in by_attempt if c2 == c} != scheduled for c in configs):
            raise BenchError(f"the CLI scheduled {len(keys)} requests over {sorted(configs)}; "
                             f"expected {len(scheduled)} for each of {w.config_count} configurations")
        self.inputs.script(by_attempt)
        store = tracer.layer("model_client", "TranscriptStore")(self.store)
        for attempt, key in by_attempt.items():
            store.put(key, self._response(attempt, self.inputs.answers[attempt][1]))

        shutil.copyfile(self.store, self.setup_store)
        setup_keys = self._recorded_keys(setup=True)
        if len(setup_keys) != 1:
            raise BenchError(f"the set-up run scheduled {len(setup_keys)} requests, expected 1")
        key, = setup_keys
        self.setup_key = (key.backend_name, key.instance_id, key.attempt_index)
        setup_store = tracer.layer("model_client", "TranscriptStore")(self.setup_store)
        setup_store.put(key, self._response(self.setup_key, workloads.answer_text(workloads.YES)))

    @staticmethod
    def _response(attempt: tuple, text: str):
        """A recorded answer whose latency and token counts depend only on
        the attempt and the text."""
        digest = hashlib.sha256("|".join(map(str, attempt)).encode()).digest()
        return tracer.layer("model_client", "RawModelResponse")(
            text=text, latency_s=0.5 + digest[0] / 100, attempt_index=attempt[2],
            backend_name=attempt[0], created_at="2026-01-01T00:00:00+00:00",
            tokens_in=1000 + digest[1], tokens_out=len(text) // 4)

    # ------------------------------------------------------- invocations

    def run_args(self, out: Path, setup: bool = False, backends: Path | None = None) -> list[str]:
        w = self.workload
        args = ["run", "--corpus", str(self.setup_corpus if setup else self.inputs.corpus_root),
                "--backends-file", str(backends or self.backends_file), "--mode", w.mode,
                "--replay", str(self.setup_store if setup else self.store), "--out", str(out),
                "--jobs", str(JOBS), "--junit-cp", self.junit_cp]
        if setup:
            args += ["--backend", SETUP_BACKEND, "--attempts", "1"]
        else:
            args += ["--attempts", str(w.attempts)]
            for backend in w.backends:
                args += ["--backend", backend]
            if w.temperatures:
                args += ["--temperature", ",".join(str(t) for t in w.temperatures)]
        if w.metamorphic_seed:
            args += ["--seed", str(self.seed)]
        return args

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def _subprocess(self, cmd: list[str]) -> float:
        """Run one command in its own TMPDIR; wall time in seconds."""
        self.calls += 1
        tmp = self.work / "tmp" / str(self.calls)
        tmp.mkdir(parents=True)
        env = dict(self.env, TMPDIR=str(tmp))
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=self._remaining())
            except BaseException as exc:  # timeout or interrupt: stop the whole group
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchError(f"timed out: {' '.join(cmd[:4])}") from exc
                raise
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}:\n{err[-3000:]}")
        self.workspaces_left += sum(1 for p in tmp.iterdir() if p.name.startswith("reforacle-"))
        shutil.rmtree(tmp)
        return wall

    def cli(self, args: list[str]) -> Invocation:
        usage_path = self.work / f"rusage-{self.calls + 1}.json"
        wall = self._subprocess([sys.executable, str(HERE / "entry.py"), str(usage_path), *args])
        usage = json.loads(usage_path.read_text("utf-8"))
        usage_path.unlink()
        return Invocation(wall, usage["self_kb"] / 1024, usage["children_kb"] / 1024)

    # ---------------------------------------------------------- checking

    def rows(self, out: Path) -> dict[tuple, dict]:
        keyed: dict[tuple, dict] = {}
        path = out / "outcomes.jsonl"
        for line in path.read_text("utf-8").splitlines() if path.exists() else ():
            row = json.loads(line)
            key = (row["backend_name"], row["instance_id"], row["attempt_index"])
            if key in keyed:
                self.problems.append(f"duplicate row {key}")
            keyed[key] = {f: row.get(f) for f in KEYED_FIELDS}
        return keyed

    def check(self, keyed: dict[tuple, dict], expected: dict[tuple, dict]) -> None:
        """Count scheduled attempts that lack a row with the expected label."""
        self.attempted += len(expected)
        for key, want in expected.items():
            row = keyed.get(key)
            if row is None or any(row[f] != v for f, v in want.items()):
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{key}: expected {want}, got {row and {f: row[f] for f in want}}")
        extra = set(keyed) - set(expected)
        if extra:
            self.problems.append(f"{len(extra)} unexpected rows, e.g. {sorted(extra)[0]}")

    def same_rows(self, a: dict, b: dict, what: str) -> None:
        if a != b:
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            self.problems.append(f"{what}: {len(diff)} keyed rows differ, e.g. {diff[0]}")

    def setup_run(self) -> float:
        out = self.work / f"setup-out-{self.calls}"
        wall = self.cli(self.run_args(out, setup=True)).wall_s
        self.check(self.rows(out), {self.setup_key: workloads.expected_row(
            self.inputs.labels[self.setup_key[1]], workloads.YES)})
        shutil.rmtree(out)
        return wall

    def full_run(self, out: Path) -> tuple[Invocation, dict]:
        inv = self.cli(self.run_args(out))
        keyed = self.rows(out)
        self.check(keyed, self.inputs.expected())
        return inv, keyed

    def resume_and_summarize(self, out: Path, before: dict) -> tuple[float, float]:
        resume = self.cli(self.run_args(out)).wall_s
        self.same_rows(before, self.rows(out), "resume")
        summary = self.cli(self.summarize_args(out)).wall_s
        return resume, summary

    @staticmethod
    def summarize_args(out: Path) -> list[str]:
        return ["summarize", "--outcomes", str(out / "outcomes.jsonl"), "--out", str(out / "summary")]

    # ------------------------------------------------------------- modes

    def timed(self, seconds: float) -> dict:
        """Rounds of [a full run, while one still fits in the window], resume,
        summarize and a one-attempt run, for at least `seconds` and ROUNDS
        rounds, so every kind of sample spreads over the whole run. The
        recording runs at set-up have filled the bytecode and page caches."""
        runs: list[tuple[Invocation, int]] = []
        resumes: list[float] = []
        summaries: list[float] = []
        setup: list[float] = []
        first: dict = {}
        start = time.monotonic()
        out = self.work / "out"
        while True:
            elapsed = time.monotonic() - start
            if runs and elapsed >= seconds and len(setup) >= ROUNDS:
                break
            if not runs or elapsed + runs[-1][0].wall_s <= seconds:
                shutil.rmtree(out, ignore_errors=True)
                inv, keyed = self.full_run(out)
                runs.append((inv, len(keyed)))
                if first:
                    self.same_rows(first, keyed, "replay")
                else:
                    first = keyed
            resume, summary = self.resume_and_summarize(out, first)
            resumes.append(resume)
            summaries.append(summary)
            setup.append(self.setup_run())
        shutil.rmtree(out)
        self.samples = {"full_runs": len(runs), "rounds": len(setup)}
        return {
            "attempts_per_s": (statistics.median([n / inv.wall_s for inv, n in runs]), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "resume_s": (statistics.median(resumes), "s"),
            "summarize_s": (statistics.median(summaries), "s"),
            "cli_peak_rss_mb": (statistics.median([inv.self_rss_mb for inv, _ in runs]), "MB"),
            "child_peak_rss_mb": (statistics.median([inv.child_rss_mb for inv, _ in runs]), "MB"),
        }

    def traced(self) -> dict:
        self.setup_run()
        plain_out, traced_out = self.work / "out-plain", self.work / "out-traced"
        inv, plain = self.full_run(plain_out)
        resume, summary = self.resume_and_summarize(plain_out, plain)
        plain_wall = inv.wall_s + resume + summary
        left_by_cli = self.workspaces_left

        spans: list[dict] = []
        traced_wall = 0.0
        for phase, args in (("run", self.run_args(traced_out)), ("resume", self.run_args(traced_out)),
                            ("summarize", self.summarize_args(traced_out))):
            spans_path = self.work / f"spans-{phase}.jsonl"
            traced_wall += self._subprocess(
                [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args])
            spans += [json.loads(line) for line in spans_path.read_text("utf-8").splitlines()]
        silent = expected_spans(self.workload) - {span["name"] for span in spans}
        if silent:
            raise BenchError(f"the traced run recorded no call of {', '.join(sorted(silent))}; "
                             "the CLI no longer calls the function LAYERS in perfbench/tracer.py "
                             "names for it")
        self.same_rows(plain, self.rows(traced_out), "traced run")
        metrics, self.check_tail = layer_metrics(spans)
        metrics["java_executor.workspaces_left"] = (left_by_cli, "count")
        metrics["java_executor.toolchain_errors"] = (
            sum(1 for row in plain.values() if row["inconclusive"]), "count")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        return metrics


# ------------------------------------------------------------- per layer

# Spans whose total duration is reported as "<name>_s".
TIMED_SPANS = (
    "dataset.load", "metamorph.transform", "prompting.render", "diffs.diff",
    "model_client.store_load", "model_client.query", "verdict_parser.parse",
    "verdict_parser.extract", "assessor.write", "assessor.read", "java_executor.version",
    "cli_report.completed_keys", "cli_report.metric_reports", "cli_report.stats_report",
    "cli_report.telemetry", "cli_report.summarize",
)


def expected_spans(workload: workloads.Workload) -> set[str]:
    """Spans a traced run of the workload must record at least once."""
    names = set(TIMED_SPANS) | {"assessor.assess"}
    if workload.mode != "metamorphic":
        names.discard("metamorph.transform")
    if workload.mode != "diffonly":
        names.discard("diffs.diff")
    if workload.name != "python-path":
        names.add("java_executor.check")
    return names


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9..p50 with at least ten
    samples above its rank; (0, 0) when there are too few samples."""
    n = len(sorted_values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct, nearest_rank(sorted_values, pct)
    return 0.0, 0.0


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer totals over the traced run, resume and summarize, and
    which percentile `check_tail_s` is and how many checks lie beyond it."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    metrics = {f"{name}_s": (total(name), "s") for name in TIMED_SPANS}
    checks = sorted(by_name["java_executor.check"], key=lambda s: s["start"])
    durations = sorted(s["end"] - s["start"] for s in checks)
    busy = sum(durations)
    test_run = sum(side["elapsed_s"] for s in checks for side in s["sides"]
                   if side["outcome"] != "DID_NOT_COMPILE")
    seen: set[tuple] = set()
    repeats = sides = 0
    for s in checks:
        for side in s["sides"]:
            pair = tuple(side["pair"])
            repeats += pair in seen
            sides += 1
            seen.add(pair)
    tail_pct, tail = tail_percentile(durations)
    check_time_by_parent: dict[int, float] = defaultdict(float)
    for s in checks:
        check_time_by_parent[s["parent"]] += s["end"] - s["start"]
    assess_self = sum(s["end"] - s["start"] - check_time_by_parent[s["id"]]
                      for s in by_name["assessor.assess"])
    metrics.update({
        "java_executor.check_calls": (len(checks), "count"),
        "java_executor.check_p50_s": (nearest_rank(durations, 50) if durations else 0.0, "s"),
        "java_executor.check_tail_s": (tail, "s"),
        "java_executor.check_busy_s": (busy, "s"),
        "java_executor.test_run_s": (test_run, "s"),
        "java_executor.compile_s": (busy - test_run, "s"),
        "java_executor.repeat_share": (repeats / sides if sides else 0.0, "share"),
        "metamorph.variants": (sum(s.get("variants", 0) for s in by_name["metamorph.transform"]), "count"),
        "model_client.replay_misses": (
            sum(s.get("error") == "ReplayMiss" for s in by_name["model_client.query"]), "count"),
        "verdict_parser.parse_failures": (sum(1 for s in by_name["verdict_parser.parse"] if s.get("failed")), "count"),
        "assessor.assess_self_s": (assess_self, "s"),
    })
    beyond = len(durations) - math.ceil(tail_pct / 100 * len(durations)) if tail_pct else 0
    return metrics, {"percentile": tail_pct, "checks": len(durations), "beyond": beyond}


# ------------------------------------------------------------------ main


def machine_record() -> dict:
    def first_line(cmd: list[str]) -> str:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, JAVA_TOOL_OPTIONS=JAVA_TOOL_OPTIONS))
        lines = [ln for ln in (proc.stdout + proc.stderr).splitlines() if not ln.startswith("Picked up")]
        return lines[0] if lines else ""

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "javac": first_line(["javac", "-version"]),
        "java": first_line(["java", "-version"]),
        "platform": platform.platform(),
    }


def file_hash(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def claim_repeat_share(inputs: workloads.Inputs) -> float:
    """Share of program sides checked whose (program content, test) pair
    occurred earlier in the input; 0 when no answer reaches javac."""
    program = {}
    seen: set[tuple] = set()
    repeats = sides = 0
    for (_, instance, _), (kind, text) in sorted(inputs.answers.items()):
        if kind not in workloads.CLAIM_ANSWER.values():
            continue
        for side in ("original", "resulting"):
            if (instance, side) not in program:
                program[instance, side] = workloads.tree_hash(
                    inputs.corpus_root / "instances" / instance / side)
            pair = (program[instance, side], text)
            repeats += pair in seen
            sides += 1
            seen.add(pair)
    return repeats / sides if sides else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "pyproject.toml", ROOT / "src" / "reforacle", ROOT / "tests" / "java_fixtures.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a reforacle source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for tool in ("javac", "java"):
        if shutil.which(tool) is None:
            print(f"error: {tool} is not on PATH", file=sys.stderr)
            return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up as on an interrupt
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(workload, args.seed, work)
        metrics = bench.traced() if args.trace else bench.timed(args.seconds)
        record = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "trace": args.trace,
            "instances": len(bench.inputs.labels),
            "scheduled_attempts": len(bench.inputs.answers),
            "repeat_share": claim_repeat_share(bench.inputs),
            "corpus_sha256": workloads.tree_hash(bench.inputs.corpus_root),
            "fixtures_sha256": file_hash([ROOT / "tests" / "java_fixtures.py"]),
            "runner": "JUnit 4 stand-in (perfbench/junit), sha256 "
            + file_hash(sorted((HERE / "junit").rglob("*.java"))),
            "jobs": JOBS,
            "cli_calls": bench.calls,
            "problems": bench.problems,
            **({"samples": bench.samples} if bench.samples else {}),
            **({"check_tail": bench.check_tail} if bench.check_tail else {}),
            **machine_record(),
        }
    except (BenchError, tracer.MissingLayerFunction) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
