"""Compile source sets and run single JUnit tests in isolated workspaces.

Every toolchain implements the Toolchain protocol. RealToolchain compiles
with one JDK's javac and runs each test in a fresh JVM of that JDK's java
with a JUnit 4 runner on the classpath; MockToolchain answers from a table
keyed by content hashes so everything above it can be exercised without a
JDK; NullToolchain stands for "no JDK" and makes every compile and test
run unavailable. Every task gets its own workspace directory; nothing is
shared between tasks. A toolchain runs each (program, test) pair once and
reuses that run.
"""

from __future__ import annotations

import hashlib
import locale
import logging
import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from . import javalex
from .dataset import SourceSet

logger = logging.getLogger(__name__)

# Test run outcomes
PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
TIMEOUT = "TIMEOUT"
DID_NOT_COMPILE = "DID_NOT_COMPILE"

REFLECTION_MARKER = "java.lang.reflect"

TEST_TIMEOUT_S = 30.0
COMPILE_TIMEOUT_S = 300.0

# The warm compiler run by RealToolchain, started with the JDK's
# source-file launcher so it needs no build step.
COMPILE_WORKER_SOURCE = Path(__file__).with_name("java") / "CompileWorker.java"
# A small serial-GC heap and C1 only keep a worker's peak RSS below that
# of one-shot javac (about 75 MB against 78 MB on OpenJDK 17).
COMPILE_WORKER_JVM_FLAGS = (
    "-XX:+UseSerialGC",
    "-Xms8m",
    "-Xmx48m",
    "-XX:TieredStopAtLevel=1",
    "-XX:ReservedCodeCacheSize=16m",
)


class ToolchainError(RuntimeError):
    pass


class ToolchainUnavailable(ToolchainError):
    pass


@dataclass(frozen=True)
class CompileResult:
    success: bool
    diagnostics: str
    elapsed_s: float


@dataclass(frozen=True)
class TestRunResult:
    outcome: str
    runner_output: str
    elapsed_s: float


@dataclass(frozen=True)
class DiscriminationResult:
    """One test's runs on the original and on the resulting program."""

    on_original: TestRunResult
    on_resulting: TestRunResult

    @property
    def compiled(self) -> bool:
        """The test compiled against both versions."""
        return DID_NOT_COMPILE not in (self.on_original.outcome, self.on_resulting.outcome)

    @property
    def passing_side(self) -> str:
        """The side the test passes on, "original" or "resulting", when it
        compiled on both sides and passes on exactly one; else ""."""
        passes = (self.on_original.outcome == PASS, self.on_resulting.outcome == PASS)
        if not self.compiled or passes[0] == passes[1]:
            return ""
        return "original" if passes[0] else "resulting"

    @property
    def discriminates(self) -> bool:
        return self.passing_side != ""


def uses_reflection(test: str) -> bool:
    """Lexical check; policy for flagged tests lives in the assessor."""
    return REFLECTION_MARKER in test


@dataclass(frozen=True)
class ToolchainConfig:
    """One JDK, named by its javac; its java runs the workers and tests."""

    javac_path: str = "javac"
    junit_classpath: tuple[str, ...] = ()


class Toolchain:
    """What the assessor and the validator need from a Java toolchain.

    A toolchain that cannot produce evidence raises ToolchainError, which
    callers record as inconclusive, never as a wrong answer.
    """

    def __init__(self) -> None:
        # (program hash, test hash) -> the run of that test on that program;
        # see check_discriminating
        self._runs_lock = threading.Lock()
        self._runs: dict[tuple[str, str], Future] = {}

    def version(self) -> str:
        raise NotImplementedError

    def compile(self, src: SourceSet) -> CompileResult:
        raise NotImplementedError

    def run_test(self, program: SourceSet, test: str) -> TestRunResult:
        raise NotImplementedError

    def check_discriminating(
        self, test: str, original: SourceSet, resulting: SourceSet
    ) -> DiscriminationResult:
        """Run the same test against both versions in disjoint workspaces.

        Each (program, test) pair runs once per toolchain, single-flight:
        a caller claims, one at a time, each side nobody has claimed yet
        and runs it, and only then waits for the sides others are running.
        So two concurrent checks of one pair split its sides, and nobody
        waits while holding an unfinished claim. Every finished run is
        kept, whatever its outcome; a side answered from a run made
        elsewhere reports elapsed_s 0.0, as no JVM ran for it. An
        exception reaches the callers waiting on that run and is not
        kept, so the next check retries.
        """
        test_hash = _text_hash(test)
        sides = [(p, (source_set_hash(p), test_hash)) for p in (original, resulting)]
        runs: dict[tuple[str, str], Future] = {}  # every side's run, wherever it is made
        ran: dict[tuple[str, str], TestRunResult] = {}  # the runs made by this call
        for program, key in sides:
            if key in runs:  # identical versions
                continue
            with self._runs_lock:
                claimed = key not in self._runs
                if claimed:
                    self._runs[key] = Future()
                run = runs[key] = self._runs[key]
            if not claimed:
                continue
            try:
                ran[key] = self.run_test(program, test)
            except BaseException as err:
                with self._runs_lock:
                    self._runs.pop(key, None)  # gone if a mock was re-scripted meanwhile
                run.set_exception(err)
                raise
            run.set_result(ran[key])
        # identical versions share a key: the run counts once, on the first side
        return DiscriminationResult(*(
            ran.pop(key) if key in ran else replace(runs[key].result(), elapsed_s=0.0)
            for _, key in sides
        ))

    def close(self) -> None:
        """Release whatever the toolchain holds; nothing by default."""


class NullToolchain(Toolchain):
    """No JDK: nothing compiles or runs, so every behavior-change claim
    is inconclusive."""

    def version(self) -> str:
        return "none"

    def compile(self, src: SourceSet) -> CompileResult:
        raise ToolchainUnavailable("no JDK configured")

    def run_test(self, program: SourceSet, test: str) -> TestRunResult:
        raise ToolchainUnavailable("no JDK configured")


class RealToolchain(Toolchain):
    """One JDK's javac and java; one fresh workspace per compile or run.

    Compiles go to a pool of warm compiler JVMs (CompileWorker.java) that
    run javac in process with the argv one-shot javac would get. A worker
    starts on the first compile that finds none idle, so the pool never
    outgrows the number of concurrent callers. A worker that cannot
    start or dies is dropped and that compile runs one-shot javac
    instead; a compile that overruns COMPILE_TIMEOUT_S, in a worker or
    one-shot, raises ToolchainError at once. Each test still runs in a
    fresh JVM. The workers and the tests run on the java launcher next to
    the resolved javac, so one JDK compiles and runs everything. Its
    version comes from that JDK's release file, so building a toolchain
    starts no process. Call close() to stop the workers.
    """

    def __init__(self, config: ToolchainConfig) -> None:
        javac = shutil.which(config.javac_path)
        if javac is None:
            raise ToolchainUnavailable(f"compiler not found: {config.javac_path}")
        java = Path(javac).resolve().with_name("java")
        if not java.is_file():
            raise ToolchainUnavailable(f"no java launcher next to {javac}")
        version = _jdk_version(java.parent.parent / "release")  # beside <home>/bin
        super().__init__()
        self.config = config
        self.java = str(java)
        self._javac_version = f"javac {version}"
        self._workers_can_start = True  # False once a worker failed to start
        self._workers_lock = threading.Lock()
        self._workers: list[_CompileWorker] = []
        self._idle_workers: list[_CompileWorker] = []

    def version(self) -> str:
        """`javac <JAVA_VERSION>`, as `javac -version` prints it, read from
        the JDK's release file when the toolchain was built."""
        return self._javac_version

    @contextmanager
    def _workspace(self, tag: str):
        """A new workspace under the temp directory, deleted once the call
        ends. One whose call raised ToolchainError is kept for its
        invocations.log, and the error names it; one whose javac or java
        could not start (ToolchainUnavailable) holds nothing to read and is
        deleted."""
        try:
            ws = Path(tempfile.mkdtemp(prefix=f"reforacle-{tag}-")).absolute()
        except OSError as err:
            raise ToolchainError(str(err)) from err
        keep = False
        try:
            yield ws
        except ToolchainError as err:
            keep = not isinstance(err, ToolchainUnavailable)
            if keep:
                err.args = (f"{err} (workspace kept: {ws})",)
            raise
        finally:
            if not keep:
                shutil.rmtree(ws, ignore_errors=True)

    def _write_sources(self, files: tuple[tuple[str, str], ...], root: Path) -> list[Path]:
        """Write each (relative path, content) under `root`."""
        paths = []
        for rel, content in files:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
            paths.append(path)
        return paths

    def compile(self, src: SourceSet) -> CompileResult:
        """Write all files and compile them together in one javac call."""
        with self._workspace("compile") as ws:
            return self._compile_in(self._write_sources(src.files, ws / "src"), ws)

    def _compile_in(self, files: list[Path], ws: Path) -> CompileResult:
        """Compile `files` into `<ws>/classes` in one javac call. The paths
        are absolute, because a warm worker's working directory is fixed
        when it starts."""
        out = ws / "classes"
        out.mkdir(exist_ok=True)
        cmd = [self.config.javac_path, "-d", str(out)]
        if self.config.junit_classpath:
            cmd += ["-cp", _join_cp(self.config.junit_classpath)]
        cmd += [str(f) for f in files]
        start = time.monotonic()
        try:
            result = self._compile_in_worker(cmd[1:])
            if result is None:
                result = _compile_one_shot(cmd)
        except ToolchainError as err:  # javac overran COMPILE_TIMEOUT_S or did not start
            _log_invocation(ws, cmd, str(err))
            raise
        returncode, diagnostics = result
        elapsed = time.monotonic() - start
        return CompileResult(success=returncode == 0, diagnostics=diagnostics, elapsed_s=elapsed)

    def _compile_in_worker(self, javac_args: list[str]) -> tuple[int, str] | None:
        """(exit code, diagnostics) from a warm worker, or None when this
        compile has to run one-shot javac. A worker that overruns the
        compile limit raises ToolchainError: a retry would get the same
        budget again."""
        if any("\n" in arg for arg in javac_args):  # a request is one line
            return None
        with self._workers_lock:
            worker = self._idle_workers.pop() if self._idle_workers else None
            can_start = self._workers_can_start
        if worker is None:
            if not can_start:
                return None
            try:
                worker = _CompileWorker(self.java)
            except _WorkerFailed as err:
                with self._workers_lock:
                    self._workers_can_start = False
                logger.warning("compile worker did not start (%s); using one-shot javac", err)
                return None
            with self._workers_lock:
                self._workers.append(worker)
        try:
            result = worker.compile(javac_args)
        except _WorkerFailed as err:
            worker.kill()
            with self._workers_lock:
                self._workers.remove(worker)
            if isinstance(err, _WorkerTimedOut):
                raise ToolchainError(f"javac {err}") from err
            logger.warning("compile worker failed (%s); this compile uses one-shot javac", err)
            return None
        with self._workers_lock:
            self._idle_workers.append(worker)
        return result

    def close(self) -> None:
        """Stop the compile workers: end their input and wait for them."""
        with self._workers_lock:
            workers, self._workers, self._idle_workers = self._workers, [], []
        for worker in workers:
            worker.close()

    def run_test(self, program: SourceSet, test: str) -> TestRunResult:
        """Compile program + test together, then run the single JUnit test."""
        if not self.config.junit_classpath:
            # the runner main can only come from the JUnit classpath
            raise ToolchainUnavailable("no JUnit classpath configured")
        test_class = javalex.top_level_public_class(test)
        if test_class is None:
            raise ToolchainError("test does not scan, or does not declare exactly one public class")
        with self._workspace("test") as ws:
            return self._run_test_in(program, test, test_class, ws)

    def _run_test_in(
        self, program: SourceSet, test: str, test_class: str, ws: Path
    ) -> TestRunResult:
        # the test has a root of its own, so a test class that clashes with a
        # program class is javac's "duplicate class", a test that does not compile
        files = self._write_sources(program.files, ws / "src")
        files += self._write_sources(((f"{test_class}.java", test),), ws / "test")
        compile_result = self._compile_in(files, ws)
        if not compile_result.success:
            return TestRunResult(
                outcome=DID_NOT_COMPILE,
                runner_output=compile_result.diagnostics,
                elapsed_s=compile_result.elapsed_s,
            )
        classpath = _join_cp((str(ws / "classes"),) + self.config.junit_classpath)
        qualified = _qualified_test_class(test, test_class)
        cmd = [self.java, "-cp", classpath, "org.junit.runner.JUnitCore", qualified]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TEST_TIMEOUT_S)
        except OSError as err:  # e.g. java lost its execute bit
            raise ToolchainUnavailable(f"{cmd[0]} did not start: {err}") from err
        except subprocess.TimeoutExpired as err:
            return TestRunResult(
                outcome=TIMEOUT,
                runner_output=str(err),
                elapsed_s=time.monotonic() - start,
            )
        elapsed = time.monotonic() - start
        output = proc.stdout + proc.stderr
        if proc.returncode == 0:
            outcome = PASS
        elif _FAILURE_MARKER in output:
            outcome = FAIL
        else:
            outcome = ERROR
        return TestRunResult(outcome=outcome, runner_output=output, elapsed_s=elapsed)


_JAVA_VERSION_RE = re.compile(r"^JAVA_VERSION=(.*)$", re.MULTILINE)


def _jdk_version(release: Path) -> str:
    """JAVA_VERSION from a JDK image's release file (`<home>/release`);
    ToolchainUnavailable when the file or the key is missing."""
    try:
        text = release.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        raise ToolchainUnavailable(
            f"cannot read the JDK release file {release}: {err.strerror or err}"
        ) from err
    match = _JAVA_VERSION_RE.search(text)
    version = match.group(1).strip().strip('"') if match else ""
    if not version:
        raise ToolchainUnavailable(f"the JDK release file {release} has no JAVA_VERSION")
    return version


class _WorkerFailed(Exception):
    pass


class _WorkerTimedOut(_WorkerFailed):
    pass


class _CompileWorker:
    """One warm compiler JVM speaking CompileWorker.java's protocol."""

    def __init__(self, java: str) -> None:
        cmd = [java, *COMPILE_WORKER_JVM_FLAGS, str(COMPILE_WORKER_SOURCE)]
        try:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
        except OSError as err:
            raise _WorkerFailed(str(err)) from err
        try:
            ready = self._with_deadline(self.proc.stdout.readline)
        except _WorkerFailed:
            self.kill()
            raise
        if ready != b"ready\n":
            self.kill()
            raise _WorkerFailed(f"no ready line (exit code {self.proc.returncode})")

    def compile(self, javac_args: list[str]) -> tuple[int, str]:
        """(exit code, diagnostics) of javac with these arguments."""
        request = ("\0".join(javac_args) + "\n").encode("utf-8")

        def exchange() -> tuple[int, bytes]:
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
            code, size = self.proc.stdout.readline().split()
            body = self.proc.stdout.read(int(size))
            if len(body) != int(size):
                raise EOFError("reply cut short")
            return int(code), body

        code, body = self._with_deadline(exchange)
        # decoded as subprocess decodes one-shot javac's output in text mode
        text = body.decode(locale.getpreferredencoding(False))
        return code, text.replace("\r\n", "\n").replace("\r", "\n")

    def _with_deadline(self, step):
        """step(), with the worker killed if it takes longer than the
        compile limit; a dead worker raises _WorkerFailed, a timed-out one
        _WorkerTimedOut."""
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            self.proc.kill()

        timer = threading.Timer(COMPILE_TIMEOUT_S, expire)
        timer.start()
        try:
            return step()
        except (OSError, ValueError, EOFError) as err:
            if expired.is_set():
                raise _WorkerTimedOut(f"exceeded {COMPILE_TIMEOUT_S:g} s") from err
            raise _WorkerFailed(f"worker exited: {err!r}") from err
        finally:
            timer.cancel()

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # a dead worker's pipe may be broken
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _compile_one_shot(cmd: list[str]) -> tuple[int, str]:
    """(exit code, diagnostics) of one javac process."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S)
    except OSError as err:
        raise ToolchainUnavailable(f"{cmd[0]} did not start: {err}") from err
    except subprocess.TimeoutExpired as err:
        raise ToolchainError(f"javac exceeded {COMPILE_TIMEOUT_S:g} s") from err
    return proc.returncode, proc.stdout + proc.stderr


class MockToolchain(Toolchain):
    """Scripted toolchain: content-hash tables for compiles and runs.

    Unscripted programs compile successfully and unscripted tests pass,
    so the default world is a healthy one; tests script the failures
    they need.
    """

    def __init__(
        self,
        default_compile_success: bool = True,
        default_run_outcome: str = PASS,
    ) -> None:
        super().__init__()
        self._compile_table: dict[str, CompileResult] = {}
        self._run_table: dict[tuple[str, str], TestRunResult] = {}
        self.default_compile_success = default_compile_success
        self.default_run_outcome = default_run_outcome

    def version(self) -> str:
        return "mock-toolchain"

    def script_compile(self, src: SourceSet, success: bool, diagnostics: str = "") -> None:
        self._compile_table[source_set_hash(src)] = CompileResult(
            success=success, diagnostics=diagnostics, elapsed_s=0.0
        )
        self._runs.clear()  # a re-scripted program may change a kept run

    def script_run(
        self,
        program: SourceSet,
        test: str,
        outcome: str,
        runner_output: str = "",
    ) -> None:
        key = (source_set_hash(program), _text_hash(test))
        self._run_table[key] = TestRunResult(
            outcome=outcome, runner_output=runner_output, elapsed_s=0.0
        )
        self._runs.clear()

    def compile(self, src: SourceSet) -> CompileResult:
        key = source_set_hash(src)
        if key in self._compile_table:
            return self._compile_table[key]
        return CompileResult(
            success=self.default_compile_success,
            diagnostics="" if self.default_compile_success else "scripted failure",
            elapsed_s=0.0,
        )

    def run_test(self, program: SourceSet, test: str) -> TestRunResult:
        compile_result = self.compile(program)
        if not compile_result.success:
            return TestRunResult(
                outcome=DID_NOT_COMPILE,
                runner_output=compile_result.diagnostics,
                elapsed_s=0.0,
            )
        key = (source_set_hash(program), _text_hash(test))
        if key in self._run_table:
            return self._run_table[key]
        return TestRunResult(outcome=self.default_run_outcome, runner_output="", elapsed_s=0.0)


def source_set_hash(src: SourceSet) -> str:
    h = hashlib.sha256()
    for path, content in sorted(src.files):
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(content.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the JUnit 4 runner's summary when a test failed
_FAILURE_MARKER = "FAILURES!!!"

_PACKAGE_RE = re.compile(r"^\s*package\s+([\w.]+)\s*;", re.MULTILINE)


def _qualified_test_class(test: str, test_class: str) -> str:
    match = _PACKAGE_RE.search(test)
    if match:
        return f"{match.group(1)}.{test_class}"
    return test_class


def _join_cp(entries: tuple[str, ...]) -> str:
    return os.pathsep.join(entries)


def _log_invocation(workspace: Path, cmd: list[str], output: str) -> None:
    """Verbatim record of a javac call that raised ToolchainError; only
    such a call's workspace can be kept (see _workspace)."""
    try:
        log = workspace / "invocations.log"
        with log.open("a", encoding="utf-8") as fh:
            fh.write(" ".join(cmd) + "\n")
            fh.write(output)
            fh.write("\n---\n")
    except OSError:  # logging must never fail the run
        logger.debug("could not write invocation log in %s", workspace)
