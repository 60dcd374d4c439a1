import fnmatch
import importlib.resources
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import java_fixtures
from jdk_image import JAVA_VERSION, stand_in_jdk
from reforacle import assessor, java_executor
from reforacle.dataset import SourceSet
from reforacle.java_executor import (
    DID_NOT_COMPILE,
    ERROR,
    FAIL,
    PASS,
    TIMEOUT,
    DiscriminationResult,
    MockToolchain,
    NullToolchain,
    RealToolchain,
    Toolchain,
    ToolchainError,
    ToolchainUnavailable,
    source_set_hash,
    uses_reflection,
)
from reforacle.java_executor import TestRunResult as RunResult
from test_assessor import BC_INSTANCE, ROW, verdict_of


def src(**files) -> SourceSet:
    return SourceSet(files=tuple(sorted(files.items())))


FIG1_ORIGINAL = src(**java_fixtures.PUSH_DOWN_ORIGINAL)
FIG1_RESULTING = src(**java_fixtures.PUSH_DOWN_RESULTING)


def run(outcome: str) -> RunResult:
    return RunResult(outcome=outcome, runner_output="", elapsed_s=0.0)


@pytest.fixture
def workspaces(tmp_path, monkeypatch) -> Path:
    """The temp directory, and so the parent of every workspace, for one test."""
    base = tmp_path / "ws"
    base.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(base))
    return base


class TestDiscrimination:
    def test_pass_fail_discriminates(self):
        result = DiscriminationResult(run(PASS), run(FAIL))
        assert result.discriminates
        assert result.passing_side == "original"

    def test_pass_pass_does_not(self):
        assert not DiscriminationResult(run(PASS), run(PASS)).discriminates

    def test_fail_fail_does_not(self):
        assert not DiscriminationResult(run(FAIL), run(FAIL)).discriminates

    def test_did_not_compile_never_discriminates(self):
        for sides in ((DID_NOT_COMPILE, PASS), (PASS, DID_NOT_COMPILE)):
            result = DiscriminationResult(*map(run, sides))
            assert not result.compiled
            assert not result.discriminates
            assert result.passing_side == ""
        assert DiscriminationResult(run(FAIL), run(ERROR)).compiled

    def test_symmetry_flips_sides_not_verdict(self):
        for a in (PASS, FAIL, TIMEOUT, DID_NOT_COMPILE):
            for b in (PASS, FAIL, TIMEOUT, DID_NOT_COMPILE):
                fwd = DiscriminationResult(run(a), run(b))
                rev = DiscriminationResult(run(b), run(a))
                assert fwd.discriminates == rev.discriminates

    def test_error_counts_as_non_pass(self):
        result = DiscriminationResult(run(PASS), run(java_executor.ERROR))
        assert result.discriminates


class TestReflectionFlag:
    def test_detects_reflection_import(self):
        assert uses_reflection(java_fixtures.REFLECTIVE_TEST)

    def test_plain_test_not_flagged(self):
        assert not uses_reflection(java_fixtures.BEHAVIOR_TEST)


class TestMockToolchain:
    def test_default_world_is_healthy(self):
        toolchain = MockToolchain()
        assert toolchain.compile(FIG1_ORIGINAL).success
        result = toolchain.run_test(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST)
        assert result.outcome == PASS

    def test_scripted_compile_failure(self):
        toolchain = MockToolchain()
        toolchain.script_compile(FIG1_RESULTING, success=False, diagnostics="boom")
        result = toolchain.compile(FIG1_RESULTING)
        assert not result.success
        assert result.diagnostics == "boom"
        # failing programs cannot run tests
        run_result = toolchain.run_test(FIG1_RESULTING, java_fixtures.BEHAVIOR_TEST)
        assert run_result.outcome == DID_NOT_COMPILE

    def test_scripted_discrimination(self):
        toolchain = MockToolchain()
        toolchain.script_run(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST, PASS)
        toolchain.script_run(FIG1_RESULTING, java_fixtures.BEHAVIOR_TEST, FAIL)
        result = toolchain.check_discriminating(
            java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
        )
        assert result.discriminates
        assert result.passing_side == "original"

    def test_test_compiling_on_one_side_only(self):
        # a test must compile on both versions to discriminate
        toolchain = MockToolchain()
        toolchain.script_compile(FIG1_ORIGINAL, success=False, diagnostics="no symbol")
        result = toolchain.check_discriminating(
            java_fixtures.CONSTANT_ONLY_TEST, FIG1_ORIGINAL, FIG1_RESULTING
        )
        assert result.on_original.outcome == DID_NOT_COMPILE
        assert not result.discriminates

    def test_determinism(self):
        toolchain = MockToolchain()
        toolchain.script_run(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST, FAIL)
        a = toolchain.run_test(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST)
        b = toolchain.run_test(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST)
        assert a == b

    def test_content_hash_sensitivity(self):
        h1 = source_set_hash(FIG1_ORIGINAL)
        h2 = source_set_hash(FIG1_RESULTING)
        assert h1 != h2
        assert h1 == source_set_hash(src(**java_fixtures.PUSH_DOWN_ORIGINAL))


class TestToolchainProtocol:
    def test_one_shared_discrimination_check(self):
        for toolchain in (RealToolchain, MockToolchain, NullToolchain):
            assert toolchain.check_discriminating is Toolchain.check_discriminating

    def test_null_toolchain_has_no_evidence(self):
        toolchain = NullToolchain()
        assert toolchain.version() == "none"
        with pytest.raises(ToolchainUnavailable):
            toolchain.compile(FIG1_ORIGINAL)
        with pytest.raises(ToolchainUnavailable):
            toolchain.check_discriminating(
                java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
            )
        toolchain.close()


class CountingToolchain(MockToolchain):
    """A mock that counts the test runs it is asked for, per program, and
    reports each run as taking `elapsed_s`."""

    def __init__(self, elapsed_s: float = 0.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.elapsed_s = elapsed_s
        self.runs: Counter = Counter()
        self._count_lock = threading.Lock()

    def run_test(self, program, test_source):
        with self._count_lock:
            self.runs[program] += 1
        return replace(super().run_test(program, test_source), elapsed_s=self.elapsed_s)


class TestRunMemo:
    """check_discriminating runs each (program, test) pair once."""

    def check(self, toolchain, original=FIG1_ORIGINAL, resulting=FIG1_RESULTING):
        return toolchain.check_discriminating(java_fixtures.BEHAVIOR_TEST, original, resulting)

    @pytest.mark.parametrize("outcome", [PASS, FAIL, ERROR, TIMEOUT, DID_NOT_COMPILE])
    def test_repeated_pair_runs_once(self, outcome):
        if outcome == DID_NOT_COMPILE:
            toolchain = CountingToolchain(default_compile_success=False)
        else:
            toolchain = CountingToolchain(default_run_outcome=outcome)
        first, second = self.check(toolchain), self.check(toolchain)
        assert toolchain.runs == {FIG1_ORIGINAL: 1, FIG1_RESULTING: 1}
        assert second == first
        assert second.on_original.outcome == outcome

    def test_identical_versions_run_once(self):
        toolchain = CountingToolchain(elapsed_s=1.5)
        result = self.check(toolchain, FIG1_ORIGINAL, FIG1_ORIGINAL)
        assert toolchain.runs == {FIG1_ORIGINAL: 1}
        assert result.on_original.elapsed_s == 1.5
        assert result.on_resulting == replace(result.on_original, elapsed_s=0.0)

    def test_a_hit_reports_no_elapsed_time(self):
        toolchain = CountingToolchain(elapsed_s=1.5)
        first, second = self.check(toolchain), self.check(toolchain)
        assert first.on_original.elapsed_s == first.on_resulting.elapsed_s == 1.5
        assert second.on_original.elapsed_s == second.on_resulting.elapsed_s == 0.0
        assert second.on_original.outcome == first.on_original.outcome

    def test_concurrent_checks_split_the_sides(self):
        # each run waits for a second run to be in flight, so the checks
        # finish only if the two threads run one side each
        both_running = threading.Barrier(2, timeout=30)

        class Splitting(CountingToolchain):
            def run_test(self, program, test_source):
                both_running.wait()
                return super().run_test(program, test_source)

        toolchain = Splitting()
        toolchain.script_run(FIG1_RESULTING, java_fixtures.BEHAVIOR_TEST, FAIL)
        start = threading.Barrier(2, timeout=30)

        def check(_):
            start.wait()
            return self.check(toolchain)

        with ThreadPoolExecutor(max_workers=2) as pool:
            a, b = pool.map(check, range(2), timeout=60)
        assert toolchain.runs == {FIG1_ORIGINAL: 1, FIG1_RESULTING: 1}
        assert a.discriminates and b.discriminates
        assert (a.on_original.outcome, a.on_resulting.outcome) == (PASS, FAIL)
        assert (b.on_original.outcome, b.on_resulting.outcome) == (PASS, FAIL)

    def test_an_error_reaches_every_caller_and_is_retried(self):
        release, resulting_ran = threading.Event(), threading.Event()
        failing = [True]

        class Flaky(CountingToolchain):
            def run_test(self, program, test_source):
                result = super().run_test(program, test_source)
                if program == FIG1_ORIGINAL and failing[0]:
                    assert release.wait(timeout=30)
                    raise ToolchainError("runner crashed")
                resulting_ran.set()
                return result

        toolchain = Flaky()
        start = threading.Barrier(2, timeout=30)

        def check(_):
            start.wait()
            try:
                return self.check(toolchain)
            except ToolchainError as err:
                return err

        with ThreadPoolExecutor(max_workers=2) as pool:
            pending = [pool.submit(check, i) for i in range(2)]
            try:
                # the other caller has claimed and run the resulting side,
                # so it already holds the failing run
                assert resulting_ran.wait(timeout=30)
            finally:
                release.set()
            errors = [f.result(timeout=60) for f in pending]
        assert all(isinstance(err, ToolchainError) for err in errors), errors
        assert toolchain.runs == {FIG1_ORIGINAL: 1, FIG1_RESULTING: 1}
        failing[0] = False
        assert self.check(toolchain).on_original.outcome == PASS
        assert toolchain.runs == {FIG1_ORIGINAL: 2, FIG1_RESULTING: 1}

    def test_every_side_runs_once_under_contention(self):
        programs = [src(**{f"C{i}.java": f"class C{i} {{ }}\n"}) for i in range(6)]
        toolchain = CountingToolchain()
        for program in programs[::2]:
            toolchain.script_run(program, java_fixtures.BEHAVIOR_TEST, FAIL)
        pairs = [(a, b) for a in programs for b in programs] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda ab: self.check(toolchain, *ab), pairs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert toolchain.runs == {program: 1 for program in programs}
        expected = {program: FAIL if i % 2 == 0 else PASS for i, program in enumerate(programs)}
        for (a, b), result in zip(pairs, results):
            outcomes = (result.on_original.outcome, result.on_resulting.outcome)
            assert outcomes == (expected[a], expected[b])

    def test_rescripting_a_mock_takes_effect(self):
        toolchain = MockToolchain()
        assert not self.check(toolchain).discriminates
        toolchain.script_run(FIG1_RESULTING, java_fixtures.BEHAVIOR_TEST, FAIL)
        assert self.check(toolchain).discriminates
        toolchain.script_compile(FIG1_RESULTING, success=False)
        assert self.check(toolchain).on_resulting.outcome == DID_NOT_COMPILE


class TestRealToolchainConstruction:
    def test_missing_compiler_raises(self):
        config = java_executor.ToolchainConfig(javac_path="definitely-not-javac")
        with pytest.raises(ToolchainUnavailable):
            java_executor.RealToolchain(config)


@pytest.mark.usefixtures("jdk")
class TestRealCompile:
    def test_fig1_original_compiles(self, jdk):
        assert jdk.compile(FIG1_ORIGINAL).success

    def test_inline_variable_resulting_fails_with_diagnostic(self, jdk):
        result = jdk.compile(src(**java_fixtures.INLINE_VAR_RESULTING))
        assert not result.success
        assert "int" in result.diagnostics

    def test_workspaces_are_disjoint(self, jdk, workspaces):
        with jdk._workspace("a") as ws1, jdk._workspace("a") as ws2:
            assert ws1 != ws2
            assert ws1.parent == ws2.parent == workspaces

    def test_compile_deletes_its_own_workspace(self, jdk, workspaces):
        assert jdk.compile(FIG1_ORIGINAL).success
        assert not jdk.compile(src(**java_fixtures.INLINE_VAR_RESULTING)).success
        assert list(workspaces.iterdir()) == []

    def test_version_is_what_javac_prints(self, jdk):
        env = {k: v for k, v in os.environ.items()
               if k not in ("JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS", "JDK_JAVA_OPTIONS")}
        proc = subprocess.run([jdk.config.javac_path, "-version"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert RealToolchain(jdk.config).version() == (proc.stdout + proc.stderr).strip()


@pytest.mark.usefixtures("jdk")
class TestRealJUnit:
    def test_behavior_test_passes_on_original(self, jdk):
        result = jdk.run_test(FIG1_ORIGINAL, java_fixtures.BEHAVIOR_TEST)
        assert result.outcome == PASS, result.runner_output

    def test_behavior_test_fails_on_resulting(self, jdk):
        result = jdk.run_test(FIG1_RESULTING, java_fixtures.BEHAVIOR_TEST)
        assert result.outcome == FAIL, result.runner_output

    def test_discriminates_fig1(self, jdk):
        result = jdk.check_discriminating(
            java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
        )
        assert result.discriminates
        assert result.passing_side == "original"

    def test_vacuous_test_does_not_discriminate(self, jdk):
        result = jdk.check_discriminating(
            java_fixtures.VACUOUS_TEST, FIG1_ORIGINAL, FIG1_RESULTING
        )
        assert not result.discriminates

    def test_missing_class_does_not_compile(self, jdk):
        other = src(**{"Z.java": "class Z { }\n"})
        result = jdk.run_test(other, java_fixtures.BEHAVIOR_TEST)
        assert result.outcome == DID_NOT_COMPILE

    def test_test_compiling_only_on_resulting(self, jdk):
        fixture = next(f for f in java_fixtures.FIXTURES if f.id == "pr-intro-const")
        result = jdk.check_discriminating(
            java_fixtures.CONSTANT_ONLY_TEST,
            src(**fixture.original),
            src(**fixture.resulting),
        )
        assert result.on_original.outcome == DID_NOT_COMPILE
        assert not result.discriminates


def _fixture_source_sets():
    """(name, source set) for every fixture version, and program plus test
    where the fixture has a test. The test goes under `test/`, as a test
    run writes it beside the program."""
    for fixture in java_fixtures.FIXTURES:
        for side, files in (("original", fixture.original), ("resulting", fixture.resulting)):
            program = src(**files)
            yield f"{fixture.id}-{side}", program
            if fixture.test is not None:
                test_class = java_executor.javalex.top_level_public_class(fixture.test)
                yield f"{fixture.id}-{side}+test", SourceSet(
                    files=program.files + ((f"test/{test_class}.java", fixture.test),)
                )


def _normalised(diagnostics: str, temp_dir: Path) -> str:
    # one-shot javac repeats the JVM's "Picked up JAVA_TOOL_OPTIONS: ..."
    # line; a warm worker printed it once, when it started
    workspace = re.escape(str(temp_dir)) + r"/reforacle-compile-[^/]+"
    lines = re.sub(workspace, "<ws>", diagnostics).splitlines()
    return "\n".join(line for line in lines if not line.startswith("Picked up "))


def _one_shot(toolchain, monkeypatch):
    monkeypatch.setattr(toolchain, "_compile_in_worker", lambda javac_args: None)
    return toolchain


@pytest.fixture
def fresh_jdk(jdk):
    """A toolchain of its own, so its workers can be inspected and killed."""
    toolchain = java_executor.RealToolchain(jdk.config)
    yield toolchain
    toolchain.close()


@pytest.mark.usefixtures("jdk")
class TestCompileWorker:
    @pytest.mark.parametrize(
        "source_set", [pytest.param(s, id=name) for name, s in _fixture_source_sets()]
    )
    def test_worker_matches_one_shot_javac(self, jdk, source_set, workspaces, monkeypatch,
                                           caplog):
        warm = jdk.compile(source_set)
        assert jdk._workers, "the compile did not reach a worker"
        assert "one-shot" not in caplog.text
        cold = _one_shot(java_executor.RealToolchain(jdk.config), monkeypatch).compile(source_set)
        assert warm.success == cold.success
        assert _normalised(warm.diagnostics, workspaces) == _normalised(
            cold.diagnostics, workspaces
        )

    def test_killed_worker_falls_back_to_one_shot(self, fresh_jdk, caplog):
        assert fresh_jdk.compile(FIG1_ORIGINAL).success
        (worker,) = fresh_jdk._workers
        worker.proc.kill()
        worker.proc.wait(timeout=10)
        result = fresh_jdk.compile(src(**java_fixtures.INLINE_VAR_RESULTING))
        assert not result.success
        assert "int" in result.diagnostics
        assert "compile worker failed" in caplog.text
        # the dead worker is dropped; the next compile starts a new one
        assert fresh_jdk.compile(FIG1_ORIGINAL).success
        (replacement,) = fresh_jdk._workers
        assert replacement is not worker

    def test_close_stops_every_worker(self, fresh_jdk):
        barrier = threading.Barrier(2)

        def compile_together(_):
            barrier.wait(timeout=60)
            return fresh_jdk.compile(FIG1_ORIGINAL).success

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(compile_together, range(2)))
        procs = [worker.proc for worker in fresh_jdk._workers]
        assert 1 <= len(procs) <= 2
        fresh_jdk.close()
        assert all(proc.poll() is not None for proc in procs)
        assert not fresh_jdk._workers

    def test_no_jvm_before_first_compile(self, jdk, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError(f"started a process: {args}")

        monkeypatch.setattr(java_executor.subprocess, "Popen", no_process)
        toolchain = java_executor.RealToolchain(jdk.config)
        toolchain.close()

    def test_pool_stays_consistent_under_contention(self, fresh_jdk):
        sources = [
            src(**{f"C{i}.java": f"public class C{i} {{ int v() {{ return {i}; }} }}\n"})
            for i in range(12)
        ] + [src(**java_fixtures.INLINE_VAR_RESULTING)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(fresh_jdk.compile, sources, timeout=240))
        finally:
            sys.setswitchinterval(interval)
        assert [r.success for r in results] == [True] * 12 + [False]
        # every started worker is either idle or was dropped, never lost
        assert 1 <= len(fresh_jdk._workers) <= 3
        assert sorted(map(id, fresh_jdk._idle_workers)) == sorted(map(id, fresh_jdk._workers))

    def test_worker_timeout_is_a_toolchain_error(self, fresh_jdk, monkeypatch, workspaces):
        assert fresh_jdk.compile(FIG1_ORIGINAL).success
        (worker,) = fresh_jdk._workers

        def no_retry(cmd):
            raise AssertionError("a timed-out compile was retried one-shot")

        monkeypatch.setattr(java_executor, "_compile_one_shot", no_retry)
        monkeypatch.setattr(java_executor, "COMPILE_TIMEOUT_S", 0.001)
        with pytest.raises(java_executor.ToolchainError, match="exceeded"):
            fresh_jdk.compile(FIG1_RESULTING)
        assert worker.proc.poll() is not None
        assert fresh_jdk._workers == []
        (kept,) = workspaces.iterdir()
        assert "javac exceeded" in (kept / "invocations.log").read_text()


class TestCompileTimeout:
    def test_one_shot_timeout_is_a_toolchain_error(self, tmp_path, monkeypatch, workspaces):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexec sleep 30\n")
        config = java_executor.ToolchainConfig(javac_path=str(javac))
        toolchain = java_executor.RealToolchain(config)
        monkeypatch.setattr(java_executor, "COMPILE_TIMEOUT_S", 0.5)
        with pytest.raises(java_executor.ToolchainError, match="exceeded"):
            toolchain.compile(FIG1_ORIGINAL)
        toolchain.close()
        (kept,) = workspaces.iterdir()
        log = (kept / "invocations.log").read_text()
        assert log.startswith(f"{javac} -d ")
        assert "javac exceeded 0.5 s" in log


@pytest.mark.usefixtures("jdk")
class TestRealCheck:
    def test_check_leaves_no_workspace(self, jdk, workspaces):
        toolchain = java_executor.RealToolchain(jdk.config)
        try:
            result = toolchain.check_discriminating(
                java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
            )
        finally:
            toolchain.close()
        assert (result.on_original.outcome, result.on_resulting.outcome) == (PASS, FAIL)
        assert result.discriminates
        assert list(workspaces.iterdir()) == []

    def test_a_passing_check_writes_no_invocation_log(self, fresh_jdk, monkeypatch):
        logged = []
        monkeypatch.setattr(java_executor, "_log_invocation", lambda *args: logged.append(args))
        result = fresh_jdk.check_discriminating(
            java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
        )
        assert result.discriminates
        assert logged == []  # the workspaces are deleted, so a log would go unread

    def test_toolchain_error_keeps_the_workspace(self, tmp_path, monkeypatch, workspaces):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexec sleep 30\n")
        config = java_executor.ToolchainConfig(
            javac_path=str(javac), junit_classpath=("junit.jar",)
        )
        toolchain = java_executor.RealToolchain(config)
        monkeypatch.setattr(java_executor, "COMPILE_TIMEOUT_S", 0.5)
        with pytest.raises(ToolchainError, match="workspace kept") as err:
            toolchain.check_discriminating(
                java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
            )
        toolchain.close()
        (kept,) = workspaces.iterdir()
        assert str(kept) in str(err.value)
        assert "javac exceeded 0.5 s" in (kept / "invocations.log").read_text()


def wrapped_jdk(directory: Path, log: Path, java_body: str) -> Path:
    """A stand-in JDK image under `directory` whose javac runs the real javac and whose
    java appends its arguments to `log`, then runs `java_body`."""
    real = Path(shutil.which("javac")).resolve().parent
    return stand_in_jdk(
        directory,
        javac=f'#!/bin/sh\nexec "{real / "javac"}" "$@"\n',
        java=f'#!/bin/sh\necho "$*" >> "{log}"\n{java_body.format(real=real)}\n',
    )


@pytest.mark.usefixtures("jdk")
class TestOneJdk:
    """A toolchain starts every JVM from the java next to its javac."""

    def test_workers_and_test_runs_use_the_java_beside_javac(self, jdk, tmp_path, workspaces):
        log = tmp_path / "java.log"
        javac = wrapped_jdk(tmp_path / "jdk", log, 'exec "{real}/java" "$@"')
        toolchain = RealToolchain(java_executor.ToolchainConfig(
            javac_path=str(javac), junit_classpath=jdk.config.junit_classpath,
        ))
        try:
            result = toolchain.check_discriminating(
                java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING
            )
        finally:
            toolchain.close()
        assert (result.on_original.outcome, result.on_resulting.outcome) == (PASS, FAIL)
        launches = log.read_text().splitlines()
        runs = " org.junit.runner.JUnitCore RefactoringBehaviorTest"
        assert sum(line.endswith(runs) for line in launches) == 2
        assert sum(line.endswith(str(java_executor.COMPILE_WORKER_SOURCE))
                   for line in launches) == 1
        assert len(launches) == 3

    def test_a_java_that_starts_no_worker_leaves_compiles_to_javac(self, tmp_path, caplog):
        log = tmp_path / "java.log"
        javac = wrapped_jdk(tmp_path / "jdk", log, "exit 1")
        toolchain = RealToolchain(java_executor.ToolchainConfig(javac_path=str(javac)))
        try:
            assert toolchain.compile(FIG1_ORIGINAL).success
            assert len(log.read_text().splitlines()) == 1
            result = toolchain.compile(src(**java_fixtures.INLINE_VAR_RESULTING))
        finally:
            toolchain.close()
        assert not result.success
        assert "int" in result.diagnostics
        assert caplog.text.count("compile worker did not start") == 1
        assert len(log.read_text().splitlines()) == 1  # no second start attempt
        assert toolchain._workers == []


class TestReleaseFile:
    """A toolchain's version is JAVA_VERSION from its JDK's release file,
    read when the toolchain is built."""

    def test_the_value_is_read(self, tmp_path):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 1\n")
        toolchain = RealToolchain(java_executor.ToolchainConfig(javac_path=str(javac)))
        (tmp_path / "jdk" / "release").unlink()
        assert toolchain.version() == f"javac {JAVA_VERSION}"

    def test_a_missing_key_is_toolchain_unavailable(self, tmp_path):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 0\n",
                             release='JAVA_RUNTIME_VERSION="17.0.15+6"\nJAVA_VERSION=""\n')
        release = tmp_path / "jdk" / "release"
        with pytest.raises(ToolchainUnavailable, match=re.escape(f"{release} has no JAVA_VERSION")):
            RealToolchain(java_executor.ToolchainConfig(javac_path=str(javac)))

    def test_a_missing_file_is_toolchain_unavailable(self, tmp_path):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 0\n", release=None)
        release = tmp_path / "jdk" / "release"
        with pytest.raises(ToolchainUnavailable,
                           match=re.escape(f"cannot read the JDK release file {release}")):
            RealToolchain(java_executor.ToolchainConfig(javac_path=str(javac)))


class TestLaunchFailure:
    """A javac or java that cannot be started: the claim is inconclusive,
    not a crash, and its workspace is deleted."""

    def toolchain(self, tmp_path, broken: str) -> RealToolchain:
        """Stand-in javac and java that exit 0, with `broken` made
        non-executable once the toolchain is built."""
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 0\n")
        toolchain = RealToolchain(
            java_executor.ToolchainConfig(javac_path=str(javac), junit_classpath=("junit.jar",))
        )
        javac.with_name(broken).chmod(0o644)
        return toolchain

    @pytest.mark.parametrize("broken", ["java", "javac"])
    def test_a_claim_is_inconclusive_and_leaves_no_workspace(self, broken, tmp_path, workspaces):
        toolchain = self.toolchain(tmp_path, broken)
        verdict = verdict_of("NO - BEHAVIOR CHANGE", junit_test=java_fixtures.VACUOUS_TEST)
        with pytest.raises(ToolchainUnavailable, match=f"{broken} did not start"):
            toolchain.check_discriminating(java_fixtures.VACUOUS_TEST, FIG1_ORIGINAL,
                                           FIG1_RESULTING)
        outcome = assessor.assess(BC_INSTANCE, verdict, toolchain, provenance=ROW)
        toolchain.close()
        assert outcome.inconclusive and not outcome.correct
        assert outcome.answer_label == assessor.SAID_BC_TEST_NOT_COMPILING
        assert list(workspaces.iterdir()) == []

    def test_any_other_error_deletes_the_workspace(self, tmp_path, monkeypatch, workspaces):
        toolchain = self.toolchain(tmp_path, "java")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(java_executor.subprocess, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            toolchain.check_discriminating(java_fixtures.VACUOUS_TEST, FIG1_ORIGINAL,
                                           FIG1_RESULTING)
        toolchain.close()
        assert list(workspaces.iterdir()) == []


class TestRunTestWithoutJUnit:
    def test_raises_before_compiling(self, tmp_path, workspaces):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 99\n")
        config = java_executor.ToolchainConfig(javac_path=str(javac))
        toolchain = java_executor.RealToolchain(config)
        with pytest.raises(ToolchainUnavailable):
            toolchain.check_discriminating(java_fixtures.BEHAVIOR_TEST, FIG1_ORIGINAL, FIG1_RESULTING)
        assert list(workspaces.iterdir()) == []


class TestPackaging:
    def test_worker_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        packaged = importlib.resources.files("reforacle") / "java" / "CompileWorker.java"
        assert packaged.is_file()
        assert Path(str(packaged)) == java_executor.COMPILE_WORKER_SOURCE
        root = Path(java_executor.__file__).resolve().parents[2]
        with (root / "pyproject.toml").open("rb") as fh:
            patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["reforacle"]
        assert any(fnmatch.fnmatch("java/CompileWorker.java", p) for p in patterns)
