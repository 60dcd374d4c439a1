import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import java_fixtures
from reforacle import (
    assessor,
    cli_report,
    java_executor,
    jsonl,
    outcome_rows,
    pipeline,
    verdict_parser,
)
from reforacle.cli_report import ConfigError, main, summarize
from reforacle.java_executor import FAIL, PASS, MockToolchain, NullToolchain, ToolchainUnavailable
from reforacle.model_client import BackendConfig, MockBackend, TranscriptStore
from reforacle.pipeline import RunConfig, run_benchmark

CE_ANSWER = '{"verdict": "NO - COMPILATION ERROR", "explanation": "does not compile", "junit_test": null}'
YES_ANSWER = '{"verdict": "YES", "explanation": "fine", "junit_test": null}'


def ce_backend():
    return MockBackend(CE_ANSWER)


def scripted_toolchain(corpus_root) -> MockToolchain:
    from reforacle.dataset import load_corpus

    toolchain = MockToolchain()
    for inst in load_corpus(corpus_root).instances:
        if inst.label == "CE":
            toolchain.script_compile(inst.resulting, success=False, diagnostics="err")
        if inst.label == "BC":
            toolchain.script_run(inst.original, inst.exposing_test, PASS)
            toolchain.script_run(inst.resulting, inst.exposing_test, FAIL)
    return toolchain


def base_config(corpus_root, out_dir, **kw) -> RunConfig:
    defaults = dict(
        corpus_root=str(corpus_root),
        backends=[BackendConfig(name="mock", endpoint="local")],
        attempts=1,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunBenchmark:
    def test_end_to_end_with_mock(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "out", attempts=2)
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        assert len(records) == 10 * 2
        # the CE-always mock is right on CE instances, wrong elsewhere
        ce_rows = [r for r in records if r["ground_label"] == "CE"]
        assert all(r["correct"] for r in ce_rows)
        assert artifacts.metrics_paths
        assert artifacts.stats_path is not None
        assert artifacts.call_errors == 0

    def test_replay_runs_are_byte_identical(self, mini_corpus_root, tmp_path):
        store_path = tmp_path / "transcripts.jsonl"
        record_cfg = base_config(
            mini_corpus_root, tmp_path / "rec", record_path=str(store_path)
        )
        run_benchmark(
            record_cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        outputs = []
        for name in ("replay1", "replay2"):
            cfg = base_config(
                mini_corpus_root, tmp_path / name, replay_path=str(store_path)
            )
            artifacts = run_benchmark(
                cfg, backends_impl={}, toolchain=scripted_toolchain(mini_corpus_root)
            )
            outputs.append(Path(artifacts.outcomes_path).read_bytes())
        assert outputs[0] == outputs[1]

    def test_resume_completes_keyed_set(self, mini_corpus_root, tmp_path):
        store_path = tmp_path / "transcripts.jsonl"
        run_benchmark(
            base_config(mini_corpus_root, tmp_path / "rec", record_path=str(store_path)),
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        full_cfg = base_config(
            mini_corpus_root, tmp_path / "full", replay_path=str(store_path)
        )
        full = run_benchmark(
            full_cfg, backends_impl={}, toolchain=scripted_toolchain(mini_corpus_root)
        )
        full_lines = Path(full.outcomes_path).read_text().splitlines()

        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        half = len(full_lines) // 2
        (resumed_dir / "outcomes.jsonl").write_text(
            "\n".join(full_lines[:half]) + "\n"
        )
        resumed_cfg = base_config(
            mini_corpus_root, resumed_dir, replay_path=str(store_path)
        )
        resumed = run_benchmark(
            resumed_cfg, backends_impl={}, toolchain=scripted_toolchain(mini_corpus_root)
        )
        def keyed(lines):
            out = {}
            for line in lines:
                doc = json.loads(line)
                out[(doc["backend_name"], doc["instance_id"], doc["variant_tag"], doc["attempt_index"])] = doc
            return out

        resumed_lines = Path(resumed.outcomes_path).read_text().splitlines()
        assert keyed(resumed_lines) == keyed(full_lines)

    def test_resume_after_a_torn_last_line(self, mini_corpus_root, tmp_path):
        toolchain = scripted_toolchain(mini_corpus_root)
        full = run_benchmark(
            base_config(mini_corpus_root, tmp_path / "full"),
            backends_impl={"mock": ce_backend()},
            toolchain=toolchain,
        )
        full_lines = Path(full.outcomes_path).read_text().splitlines()
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        half = len(full_lines) // 2
        # the process was killed while it wrote the next row
        (resumed_dir / "outcomes.jsonl").write_text(
            "\n".join(full_lines[:half]) + "\n" + full_lines[half][:50]
        )
        resumed = run_benchmark(
            base_config(mini_corpus_root, resumed_dir),
            backends_impl={"mock": ce_backend()},
            toolchain=toolchain,
        )
        resumed_lines = Path(resumed.outcomes_path).read_text().splitlines()
        assert resumed_lines[:half] == full_lines[:half]

        def rows(lines):  # the live mock backend's latency varies
            return sorted(json.dumps({**json.loads(line), "latency_s": 0}) for line in lines)

        assert rows(resumed_lines) == rows(full_lines)

    def test_metamorphic_mode_is_seed_deterministic(self, mini_corpus_root, tmp_path):
        outputs = []
        for name in ("mt1", "mt2"):
            cfg = base_config(
                mini_corpus_root,
                tmp_path / name,
                mode=cli_report.METAMORPHIC_MODE,
                master_seed=99,
            )
            artifacts = run_benchmark(
                cfg,
                backends_impl={"mock": ce_backend()},
                toolchain=scripted_toolchain(mini_corpus_root),
            )
            records = assessor.read_outcomes(artifacts.outcomes_path)
            outputs.append(
                sorted(
                    (r["instance_id"], r["variant_tag"], r["prompt_hash"]) for r in records
                )
            )
        assert outputs[0] == outputs[1]
        assert all(tag.startswith("mt-99-") for _, tag, _ in outputs[0])

    def test_temperature_sweep_yields_per_temperature_rows(
        self, mini_corpus_root, tmp_path
    ):
        temps = [round(0.1 * i, 1) for i in range(11)]
        cfg = base_config(
            mini_corpus_root,
            tmp_path / "sweep",
            temperatures=temps,
        )
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        names = {r["backend_name"] for r in records}
        assert len(names) == 11
        temps_seen = {r["temperature"] for r in records}
        assert len(temps_seen) == 11
        # one metrics json+csv pair per temperature
        json_reports = [p for p in artifacts.metrics_paths if p.suffix == ".json"]
        assert len(json_reports) == 11

    def test_diff_mode_runs(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "diff", mode=cli_report.DIFF_ONLY_MODE)
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": MockBackend('{"verdict": "UNKNOWN", "explanation": "thin diff"}')},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        assert all(r["answer_label"] == "SAID_UNKNOWN" for r in records)
        # the identity pair has no diff payload and is skipped
        assert len(records) == 9
        assert not any(r["instance_id"] == "pr-identity" for r in records)

    def test_template_override_flag(self, mini_corpus_root, tmp_path):
        override = tmp_path / "pinned.txt"
        override.write_text(
            "Return ONLY valid JSON\nFIRST:\n{code1}\nSECOND:\n{code2}\n"
        )
        cfg = base_config(
            mini_corpus_root, tmp_path / "tpl", template_path=str(override)
        )
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        assert all(r["template_version"] == "pinned.txt" for r in records)

    def test_provenance_recorded(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "prov")
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        record = assessor.read_outcomes(artifacts.outcomes_path)[0]
        assert record["prompt_hash"]
        assert record["template_version"] == "full_source_v1"
        assert record["toolchain_version"] == "mock-toolchain"

    def test_without_toolchain_bc_claims_are_inconclusive(
        self, mini_corpus_root, tmp_path
    ):
        bc_answer = json.dumps(
            {
                "verdict": "NO - BEHAVIOR CHANGE",
                "explanation": "e",
                "junit_test": java_fixtures.VACUOUS_TEST,
            }
        )
        cfg = base_config(mini_corpus_root, tmp_path / "not")
        artifacts = run_benchmark(
            cfg, backends_impl={"mock": MockBackend(bc_answer)}, toolchain=NullToolchain()
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        # PRESERVING rows too: a missing JDK never makes an answer wrong
        assert {r["ground_label"] for r in records} == {"BC", "CE", "PRESERVING"}
        assert all(r["inconclusive"] and not r["correct"] for r in records)
        assert {r["toolchain_version"] for r in records} == {"none"}

    def test_telemetry_totals_match_outcomes(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "tele")
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        records = assessor.read_outcomes(artifacts.outcomes_path)
        summary = artifacts.telemetry["mock"]
        assert summary["calls"] == len(records)
        assert summary["latency_total_s"] == pytest.approx(
            sum(r["latency_s"] for r in records), abs=1e-9
        )

    def test_parallel_jobs_equal_sequential_keyed_set(self, mini_corpus_root, tmp_path):
        results = {}
        for jobs in (1, 4):
            cfg = base_config(
                mini_corpus_root, tmp_path / f"jobs{jobs}", attempts=2, jobs=jobs
            )
            artifacts = run_benchmark(
                cfg,
                backends_impl={"mock": ce_backend()},
                toolchain=scripted_toolchain(mini_corpus_root),
            )
            keyed = {
                (r["instance_id"], r["attempt_index"]): (r["correct"], r["answer_label"])
                for r in assessor.read_outcomes(artifacts.outcomes_path)
            }
            results[jobs] = keyed
        assert results[1] == results[4]

    def test_call_errors_do_not_abort_run(self, mini_corpus_root, tmp_path):
        from reforacle.model_client import TransportFailure

        class HalfBroken:
            def __init__(self):
                self.n = 0

            def complete(self, cfg, prompt_text):
                self.n += 1
                if self.n % 2 == 0:
                    raise TransportFailure("flaky network")
                from reforacle.model_client import BackendReply

                return BackendReply(text=CE_ANSWER)

        cfg = base_config(mini_corpus_root, tmp_path / "flaky")
        cfg.backends = [BackendConfig(name="mock", max_attempts_per_call=1)]
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": HalfBroken()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        assert artifacts.call_errors > 0
        records = assessor.read_outcomes(artifacts.outcomes_path)
        assert 0 < len(records) < 10  # failures recorded as gaps, not rows

    def test_config_errors(self, mini_corpus_root, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(corpus_root=str(mini_corpus_root), backends=[], out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            RunConfig(
                corpus_root=str(mini_corpus_root),
                backends=[BackendConfig(name="m")],
                mode=cli_report.METAMORPHIC_MODE,
                out_dir=str(tmp_path),
            )


class CountingBackend(MockBackend):
    """The CE-always mock, remembering the model name each call was sent."""

    def __init__(self):
        super().__init__(CE_ANSWER)
        self.models = []

    def complete(self, cfg, prompt_text):
        self.models.append(cfg.name)
        return super().complete(cfg, prompt_text)


class TestRunKey:
    def run(self, corpus_root, out, backend=None, **kw):
        backend = backend or CountingBackend()
        artifacts = run_benchmark(
            base_config(corpus_root, out, **kw),
            backends_impl={"mock": backend},
            toolchain=scripted_toolchain(corpus_root),
        )
        return artifacts, backend

    def test_base_and_metamorphic_rows_are_two_configurations(self, mini_corpus_root, tmp_path):
        out = tmp_path / "out"
        self.run(mini_corpus_root, out)
        artifacts, _ = self.run(mini_corpus_root, out, mode=cli_report.METAMORPHIC_MODE,
                                master_seed=7)
        assert len(assessor.read_outcomes(artifacts.outcomes_path)) == 20
        assert sorted(p.name for p in artifacts.metrics_paths) == [
            "metrics-mock#mt-7.csv", "metrics-mock#mt-7.json", "metrics-mock.csv",
            "metrics-mock.json"]
        models = json.loads(artifacts.stats_path.read_text())["models"]
        assert {name: m["n"] for name, m in models.items()} == {"mock": 10, "mock#mt-7": 10}

    def test_another_mode_in_the_same_directory_queries_again(self, mini_corpus_root, tmp_path):
        out = tmp_path / "out"
        self.run(mini_corpus_root, out)
        artifacts, backend = self.run(mini_corpus_root, out, mode=cli_report.DIFF_ONLY_MODE)
        assert backend.calls == 9  # pr-identity has no diff
        versions = Counter(r["template_version"]
                           for r in assessor.read_outcomes(artifacts.outcomes_path))
        assert versions == {"full_source_v1": 10, "diff_only_v1": 9}
        _, again = self.run(mini_corpus_root, out, mode=cli_report.DIFF_ONLY_MODE)
        assert again.calls == 0

    def test_edited_template_under_the_same_name_is_a_config_error(
        self, mini_corpus_root, tmp_path
    ):
        template = tmp_path / "pinned.txt"
        template.write_text("Return ONLY valid JSON\nFIRST:\n{code1}\nSECOND:\n{code2}\n")
        out = tmp_path / "out"
        self.run(mini_corpus_root, out, template_path=str(template))
        template.write_text("Return ONLY valid JSON.\nFIRST:\n{code1}\nSECOND:\n{code2}\n")
        with pytest.raises(ConfigError, match="pinned.txt"):
            self.run(mini_corpus_root, out, template_path=str(template))

    def test_sweep_sends_the_configured_model_name(self, mini_corpus_root, tmp_path):
        store = tmp_path / "store.jsonl"
        artifacts, backend = self.run(mini_corpus_root, tmp_path / "out", temperatures=[0.2],
                                      record_path=str(store))
        assert set(backend.models) == {"mock"} and backend.calls == 10
        rows = assessor.read_outcomes(artifacts.outcomes_path)
        assert {(r["backend_name"], r["temperature"]) for r in rows} == {("mock@t=0.2", "0.2")}
        keys = TranscriptStore(store).keys()
        assert len(keys) == 10 and {k.backend_name for k in keys} == {"mock@t=0.2"}

    def test_a_run_whose_every_call_fails_exits_0_without_metrics(
        self, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("REFORACLE_TEST_NO_SUCH_KEY", raising=False)
        backends_file = tmp_path / "backends.json"
        backends_file.write_text(json.dumps([{
            "name": "remote", "endpoint": "https://models.invalid/v1/chat/completions",
            "auth_env": "REFORACLE_TEST_NO_SUCH_KEY"}]))
        out = tmp_path / "out"
        code = main(["run", "--corpus", str(mini_corpus_root), "--backend", "remote",
                     "--backends-file", str(backends_file), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "warning: 10 calls failed; rerun to resume" in printed
        assert "no outcomes were written" in printed and "outcomes:" not in printed
        assert not (out / "outcomes.jsonl").exists()
        assert not list(out.glob("metrics-*")) and not (out / "stats.json").exists()
        assert not (out / "telemetry.json").exists()

    def test_a_failed_call_names_its_configuration(self, mini_corpus_root, tmp_path, caplog):
        from reforacle.model_client import ProviderRefusal

        class Refusing:
            def complete(self, cfg, prompt_text):
                raise ProviderRefusal("HTTP 400: refused")

        cfg = base_config(mini_corpus_root, tmp_path / "out", temperatures=[0.2],
                          backends=[BackendConfig(name="alpha"), BackendConfig(name="beta")])
        with caplog.at_level("ERROR", logger="reforacle.pipeline"):
            artifacts = run_benchmark(cfg, backends_impl={"alpha": Refusing(), "beta": ce_backend()},
                                      toolchain=scripted_toolchain(mini_corpus_root))
        assert artifacts.call_errors == 10
        failed = sorted(r.getMessage() for r in caplog.records if "call failed" in r.getMessage())
        ids = sorted(r["instance_id"] for r in assessor.read_outcomes(artifacts.outcomes_path))
        assert failed == [f"call failed (alpha@t=0.2: {i} attempt 1): HTTP 400: refused"
                          for i in ids]

    def test_a_complete_resume_probes_no_toolchain_version(self, mini_corpus_root, tmp_path):
        class Unversioned(MockToolchain):
            probes = 0

            def version(self):
                Unversioned.probes += 1  # raised on the probe's thread, it would go unseen
                raise AssertionError("version probed with nothing to run")

        out = tmp_path / "out"
        run_benchmark(base_config(mini_corpus_root, out), backends_impl={"mock": ce_backend()},
                      toolchain=scripted_toolchain(mini_corpus_root))
        reports = sorted(p.name for p in out.iterdir() if p.name != "outcomes.jsonl")
        for name in reports:
            (out / name).unlink()
        artifacts = run_benchmark(base_config(mini_corpus_root, out),
                                  backends_impl={"mock": ce_backend()}, toolchain=Unversioned())
        assert artifacts.call_errors == 0 and artifacts.stats_path is not None
        assert Unversioned.probes == 0
        assert sorted(p.name for p in out.iterdir() if p.name != "outcomes.jsonl") == reports
        assert "telemetry.json" in reports


def take_reports(out: Path) -> dict[str, bytes]:
    """Every report file in `out` by name, deleted once read."""
    reports = {}
    for path in sorted(out.iterdir()):
        if path.name != "outcomes.jsonl":
            reports[path.name] = path.read_bytes()
            path.unlink()
    return reports


class TestCompleteResume:
    """A run into a finished --out opens no transcript store and writes its
    reports from the rows it read for the resume check."""

    @pytest.mark.parametrize("flag", ["--replay", "--record"])
    def test_a_transcript_store_is_opened_only_for_work_left(
        self, flag, mini_corpus_root, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        store, out = tmp_path / "store.jsonl", tmp_path / "out"
        argv = ["run", "--corpus", str(mini_corpus_root), "--backend", "mock", "--out", str(out)]
        assert main(argv + ["--record", str(store)]) == 0
        reports = take_reports(out)
        lines = store.read_text().splitlines(keepends=True)
        store.write_text("".join(lines[:5] + ["{not json\n"] + lines[5:]))

        assert main(argv + [flag, str(store)]) == 0
        assert take_reports(out) == reports
        outcomes = out / "outcomes.jsonl"
        outcomes.write_text("".join(outcomes.read_text().splitlines(keepends=True)[1:]))
        assert main(argv + [flag, str(store)]) == 2  # the store is read, and is malformed

    def test_outcomes_are_read_once_unless_rows_are_appended(
        self, mini_corpus_root, tmp_path, monkeypatch
    ):
        reads, groupings = [], []
        read, group = outcome_rows.read_outcomes, cli_report._runs

        def counting_read(path):
            reads.append(path)
            return read(path)

        def counting_group(records):
            groupings.append(len(records))
            return group(records)

        monkeypatch.setattr(outcome_rows, "read_outcomes", counting_read)
        monkeypatch.setattr(cli_report, "_runs", counting_group)
        out = tmp_path / "out"

        def run():
            reads.clear()
            groupings.clear()
            run_benchmark(base_config(mini_corpus_root, out), backends_impl={"mock": ce_backend()},
                          toolchain=scripted_toolchain(mini_corpus_root))
            return len(reads), len(groupings)

        assert run() == (1, 2)  # fresh: the reports read and group what the run wrote
        assert run() == (1, 1)  # complete: the resume check's grouping feeds the reports
        outcomes = out / "outcomes.jsonl"
        outcomes.write_text("".join(outcomes.read_text().splitlines(keepends=True)[1:]))
        assert run() == (2, 2)  # one row appended: read and grouped again for the reports
        for command in ("metrics", "stats", "summarize"):
            reads.clear()
            groupings.clear()
            assert main([command, "--outcomes", str(outcomes),
                         "--out", str(tmp_path / command)]) == 0
            assert (len(reads), len(groupings)) == (1, 1), command

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_equal_those_of_the_full_run(self, jobs, mini_corpus_root, tmp_path):
        backends = [BackendConfig(name="alpha"), BackendConfig(name="beta")]
        store = tmp_path / "store.jsonl"
        run_benchmark(base_config(mini_corpus_root, tmp_path / "record", backends=backends,
                                  attempts=2, temperatures=[0.0, 0.5], record_path=str(store)),
                      backends_impl={b.name: cycling_backend() for b in backends},
                      toolchain=MockToolchain())
        out = tmp_path / "out"
        cfg = base_config(mini_corpus_root, out, backends=backends, attempts=2,
                          temperatures=[0.0, 0.5], jobs=jobs, replay_path=str(store))
        run_benchmark(cfg, backends_impl={}, toolchain=MockToolchain())
        outcomes = (out / "outcomes.jsonl").read_bytes()
        full = take_reports(out)
        assert len(full) == 2 * 4 + 2  # metrics JSON and CSV per configuration, stats, telemetry

        artifacts = run_benchmark(cfg, backends_impl={}, toolchain=MockToolchain())
        assert artifacts.call_errors == 0
        assert (out / "outcomes.jsonl").read_bytes() == outcomes
        assert take_reports(out) == full


BC_ANSWER = json.dumps({"verdict": "NO - BEHAVIOR CHANGE", "explanation": "runnable test",
                        "junit_test": java_fixtures.VACUOUS_TEST})
TWO_CLASS_ANSWER = json.dumps({"verdict": "NO - BEHAVIOR CHANGE", "explanation": "two classes",
                               "junit_test": "public class A {}\npublic class B {}\n"})
PROSE_ANSWER = "The refactoring looks fine to me."
MIXED_ANSWERS = (YES_ANSWER, CE_ANSWER, PROSE_ANSWER, TWO_CLASS_ANSWER, BC_ANSWER)


def cycling_backend() -> MockBackend:
    """Answers each call with the next of MIXED_ANSWERS."""
    answers = itertools.cycle(MIXED_ANSWERS)
    return MockBackend(lambda prompt_text: next(answers))


class ThreadRecordingToolchain(MockToolchain):
    def __init__(self) -> None:
        super().__init__()
        self.check_threads = []

    def check_discriminating(self, test_source, original, resulting):
        self.check_threads.append(threading.current_thread())
        return super().check_discriminating(test_source, original, resulting)


class TestParallelRun:
    """At --jobs > 1 only model calls and claim checks go to the pool."""

    BACKENDS = [BackendConfig(name="alpha"), BackendConfig(name="beta")]

    def record(self, corpus_root, tmp_path, **kw) -> Path:
        store = tmp_path / "store.jsonl"
        cfg = base_config(corpus_root, tmp_path / "record", record_path=str(store), **kw)
        run_benchmark(cfg, backends_impl={b.name: cycling_backend() for b in cfg.backends},
                      toolchain=MockToolchain())
        return store

    def test_replayed_answers_are_scored_on_the_calling_thread(
        self, mini_corpus_root, tmp_path, monkeypatch
    ):
        store = self.record(mini_corpus_root, tmp_path, attempts=2)
        written = []
        write = assessor.write_outcomes

        def recording_write(outcomes, path):
            written.extend((threading.current_thread(), o.answer_label) for o in outcomes)
            write(outcomes, path)

        monkeypatch.setattr(assessor, "write_outcomes", recording_write)
        toolchain = ThreadRecordingToolchain()
        run_benchmark(
            base_config(mini_corpus_root, tmp_path / "out", attempts=2, jobs=2,
                        replay_path=str(store)),
            backends_impl={},
            toolchain=toolchain,
        )
        caller = threading.current_thread()
        assert len(written) == 20
        assert Counter(label for thread, label in written if thread is caller) == {
            assessor.SAID_YES: 4, assessor.SAID_CE: 4, assessor.PARSE_ERROR: 4,
            assessor.SAID_BC_TEST_NOT_COMPILING: 4}
        assert Counter(label for thread, label in written if thread is not caller) == {
            assessor.SAID_BC_TEST_NOT_DISCRIMINATING: 4}
        assert len(toolchain.check_threads) == 4 and caller not in toolchain.check_threads

    def test_jobs_1_and_jobs_2_write_the_same_rows(self, mini_corpus_root, tmp_path):
        store = self.record(mini_corpus_root, tmp_path, attempts=3)
        rows = []
        for jobs in (1, 2):
            artifacts = run_benchmark(
                base_config(mini_corpus_root, tmp_path / f"jobs{jobs}", attempts=3, jobs=jobs,
                            replay_path=str(store)),
                backends_impl={},
                toolchain=scripted_toolchain(mini_corpus_root),
            )
            rows.append(sorted(artifacts.outcomes_path.read_text().splitlines()))
        assert len(rows[0]) == 30
        assert rows[0] == rows[1]

    def test_live_calls_still_overlap(self, mini_corpus_root, tmp_path):
        class PairedBackend(MockBackend):
            """Answers only once a second call is in flight."""

            def __init__(self):
                super().__init__(CE_ANSWER)
                self.barrier = threading.Barrier(2, timeout=10)

            def complete(self, cfg, prompt_text):
                self.barrier.wait()  # a lone call breaks it and fails the run
                return super().complete(cfg, prompt_text)

        artifacts = run_benchmark(
            base_config(mini_corpus_root, tmp_path / "out", jobs=2),
            backends_impl={"mock": PairedBackend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        assert len(assessor.read_outcomes(artifacts.outcomes_path)) == 10

    def test_rows_stay_whole_under_rapid_thread_switches(self, mini_corpus_root, tmp_path):
        store = self.record(mini_corpus_root, tmp_path, backends=self.BACKENDS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:  # attempt 1 replays; attempts 2 and 3 call the live backends
            artifacts = run_benchmark(
                base_config(mini_corpus_root, tmp_path / "out", backends=self.BACKENDS,
                            attempts=3, jobs=4, replay_path=str(store)),
                backends_impl={b.name: cycling_backend() for b in self.BACKENDS},
                toolchain=scripted_toolchain(mini_corpus_root),
            )
        finally:
            sys.setswitchinterval(interval)
        assert artifacts.call_errors == 0
        rows = [json.loads(line) for line in artifacts.outcomes_path.read_text().splitlines()]
        ids = {r["instance_id"] for r in rows}
        assert len(ids) == 10
        assert Counter((r["backend_name"], r["instance_id"], r["attempt_index"]) for r in rows) == {
            (b.name, i, a): 1 for b in self.BACKENDS for i in ids for a in (1, 2, 3)}


class CountingFile:
    """An open file that records each write() call's bytes."""

    def __init__(self, fh, writes: list) -> None:
        self._fh, self._writes = fh, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestOncePerAttempt:
    """A replayed attempt hashes its prompt, scans its test and writes its
    row once, whichever thread scores it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_per_attempt_step_runs_once(self, jobs, mini_corpus_root, tmp_path, monkeypatch):
        store = tmp_path / "store.jsonl"
        run_benchmark(base_config(mini_corpus_root, tmp_path / "record", attempts=2,
                                  record_path=str(store)),
                      backends_impl={"mock": cycling_backend()}, toolchain=MockToolchain())

        rendered, hashed, extracted, opened, writes = [], [], [], [], []
        render, sha256 = pipeline._render, hashlib.sha256
        extract = verdict_parser.extract_test_source

        def recording_render(*args, **kwargs):
            rendered.append(render(*args, **kwargs))
            return rendered[-1]

        def recording_sha256(data=b"", **kwargs):
            hashed.append(bytes(data))
            return sha256(data, **kwargs)

        def recording_extract(verdict):
            extracted.append(verdict)
            return extract(verdict)

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path))
            return CountingFile(open(path, *args, **kwargs), writes)

        monkeypatch.setattr(pipeline, "_render", recording_render)
        monkeypatch.setattr(hashlib, "sha256", recording_sha256)
        monkeypatch.setattr(verdict_parser, "extract_test_source", recording_extract)
        monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
        artifacts = run_benchmark(
            base_config(mini_corpus_root, tmp_path / "out", attempts=2, jobs=jobs,
                        replay_path=str(store)),
            backends_impl={}, toolchain=MockToolchain())

        texts = Counter(prompt.text.encode("utf-8") for prompt in rendered)
        assert len(rendered) == 10
        assert Counter(data for data in hashed if data in texts) == texts
        rows = artifacts.outcomes_path.read_bytes().splitlines(keepends=True)
        claims = [r for r in map(json.loads, rows) if r["answer_label"].startswith("SAID_BC_")]
        assert len(rows) == 20 and len(claims) == 8
        assert len(extracted) == len(claims)
        assert opened == [artifacts.outcomes_path]
        assert writes == rows


class FailingProbe(MockToolchain):
    def version(self):
        raise ToolchainUnavailable("javac -version: no such interpreter")


class SlowProbe(MockToolchain):
    """A version probe that takes a while and records the thread it ran on."""

    def __init__(self) -> None:
        super().__init__()
        self.probes = []

    def version(self):
        time.sleep(0.2)
        self.probes.append(threading.current_thread())
        return super().version()


class TestVersionProbe:
    """The toolchain's version probe overlaps set-up and never outlives the run."""

    def test_a_fresh_out_probes_while_the_corpus_loads(self, mini_corpus_root, tmp_path,
                                                        monkeypatch):
        probing = threading.Event()

        class SignallingProbe(MockToolchain):
            def version(self):
                probing.set()
                return super().version()

        load = pipeline.load_corpus

        def load_after_the_probe_started(root):
            assert probing.wait(10), "the corpus loaded before the version probe started"
            return load(root)

        monkeypatch.setattr(pipeline, "load_corpus", load_after_the_probe_started)
        artifacts = run_benchmark(base_config(mini_corpus_root, tmp_path / "out"),
                                  backends_impl={"mock": ce_backend()}, toolchain=SignallingProbe())
        rows = assessor.read_outcomes(artifacts.outcomes_path)
        assert {r["toolchain_version"] for r in rows} == {"mock-toolchain"}

    def test_a_config_error_mid_scheduling_waits_for_the_probe(self, mini_corpus_root, tmp_path):
        out = tmp_path / "out"
        run_benchmark(base_config(mini_corpus_root, out), backends_impl={"mock": ce_backend()},
                      toolchain=MockToolchain())
        path = out / "outcomes.jsonl"
        lines = path.read_text().splitlines()
        last = {**json.loads(lines[-1]), "prompt_hash": "0" * 64}
        # the first attempt is scheduled again, which starts the probe, and
        # the last one was run with another prompt
        path.write_text("\n".join(lines[1:-1] + [json.dumps(last)]) + "\n")
        toolchain = SlowProbe()
        with pytest.raises(ConfigError, match="another full_source_v1 prompt"):
            run_benchmark(base_config(mini_corpus_root, out), backends_impl={"mock": ce_backend()},
                          toolchain=toolchain)
        assert len(toolchain.probes) == 1
        assert toolchain.probes[0] is not threading.current_thread()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failing_probe_exits_2_and_writes_no_outcomes(
        self, jobs, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: FailingProbe())
        out = tmp_path / "out"
        argv = ["run", "--corpus", str(mini_corpus_root), "--backend", "mock", "--jobs", jobs,
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == "error: javac -version: no such interpreter"
        assert not (out / "outcomes.jsonl").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_compiler_that_cannot_start_exits_2_and_writes_no_outcomes(
        self, jobs, mini_corpus_root, tmp_path, capsys
    ):
        javac = tmp_path / "javac"
        javac.write_text(f"#!{tmp_path / 'no-such-interpreter'}\n")
        javac.chmod(0o755)
        out = tmp_path / "out"
        argv = ["run", "--corpus", str(mini_corpus_root), "--backend", "mock", "--jobs", jobs,
                "--out", str(out), "--compiler", str(javac), "--java", sys.executable]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {javac} -version: ") and "Traceback" not in err
        assert not (out / "outcomes.jsonl").exists()


def grouped(records: list[dict]) -> dict[str, list[dict]]:
    """The view every report reads, grouped as the CLI groups it."""
    return cli_report._by_run(cli_report._runs(records))


def read_view(outcomes_path) -> dict[str, list[dict]]:
    return grouped(assessor.read_outcomes(outcomes_path))


class TestSummarize:
    def test_summary_tables(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "out")
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        paths = summarize(read_view(artifacts.outcomes_path), tmp_path)
        names = {p.name for p in paths}
        assert "accuracy_by_model.csv" in names
        assert "heatmap_by_refactoring.csv" in names
        assert "failure_modes.csv" in names
        assert "telemetry.csv" in names
        acc = (tmp_path / "accuracy_by_model.csv").read_text().splitlines()
        assert acc[0] == "model,overall,bc,ce,n,inconclusive"
        assert acc[1].startswith("mock,")

    def test_unknown_worksheet_emitted_in_diff_mode(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "out", mode=cli_report.DIFF_ONLY_MODE)
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": MockBackend('{"verdict": "UNKNOWN", "explanation": "?"}')},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        paths = summarize(read_view(artifacts.outcomes_path), tmp_path)
        assert any(p.name == "unknown_adjudication.csv" for p in paths)

    def test_empty_outcomes_summary(self, tmp_path):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text("")
        paths = summarize(read_view(outcomes), tmp_path)
        assert paths  # tables exist, just empty


def row(backend, instance, attempt=1, correct=True, inconclusive=False, latency=1.0,
        tokens_in=10, tokens_out=5, cost=0.5):
    return {
        "backend_name": backend,
        "instance_id": instance,
        "attempt_index": attempt,
        "correct": correct,
        "inconclusive": inconclusive,
        "latency_s": latency,
        "tokens_in": tokens_in,
        "tokens_out": tokens_out,
        "cost_estimate": cost,
    }


class TestGroupedView:
    def test_by_run_groups_in_name_order_sorted_by_instance_and_attempt(self):
        records = [row("b", "i2"), row("a@t=0.7", "i1"), row("b", "i1", attempt=2),
                   row("a@t=0.2", "i3"), row("b", "i1")]
        groups = grouped(records)
        assert list(groups) == ["a@t=0.2", "a@t=0.7", "b"]
        assert [(r["instance_id"], r["attempt_index"]) for r in groups["b"]] == [
            ("i1", 1), ("i1", 2), ("i2", 1)]
        assert sum(len(rows) for rows in groups.values()) == len(records)

    def test_by_run_names_configurations_that_share_a_backend_name(self):
        base = dict(temperature="0.2", template_version="full_source_v1")
        records = [
            {**row("m", "i1"), **base},
            {**row("m", "i1"), **base, "variant_tag": "mt-7-AF"},
            {**row("m", "i2"), **base, "variant_tag": "mt-7-CO"},
            {**row("m", "i1"), **base, "template_version": "diff_only_v1"},
            {**row("n", "i1"), **base, "variant_tag": "mt-7-AF"},
        ]
        groups = grouped(records)
        assert list(groups) == ["m#diff_only_v1", "m#full_source_v1",
                                "m#full_source_v1#mt-7", "n"]
        assert [r["instance_id"] for r in groups["m#full_source_v1#mt-7"]] == ["i1", "i2"]

    def test_selectors_keep_first_attempt_conclusive_rows(self):
        rows = [
            row("m", "i1", attempt=1),
            row("m", "i1", attempt=2),
            row("m", "i2", attempt=1, inconclusive=True),
            {k: v for k, v in row("m", "i3", attempt=1).items() if k != "inconclusive"},
        ]
        first = cli_report._first_attempts(grouped(rows)["m"])
        assert [r["instance_id"] for r in first] == ["i1", "i2", "i3"]
        assert [r["instance_id"] for r in cli_report._conclusive(first)] == ["i1", "i3"]

    def test_mcnemar_cells_count_common_first_attempts(self, tmp_path):
        # a/b per instance: i1 TT, i2 TF, i3 TF, i4 FT, i5 FF; i6 only a has.
        outcomes = {"i1": (True, True), "i2": (True, False), "i3": (True, False),
                    "i4": (False, True), "i5": (False, False)}
        records = []
        for inst, (a, b) in outcomes.items():
            records += [row("a", inst, correct=a), row("b", inst, correct=b),
                        row("a", inst, attempt=2, correct=not a)]
        records += [row("a", "i6"), row("b", "i6", inconclusive=True)]
        doc = json.loads(cli_report.write_stats_report(grouped(records), tmp_path).read_text())
        (pair,) = doc["pairwise"]
        assert pair["pair"] == ["a", "b"]
        assert (pair["n11"], pair["n10"], pair["n01"], pair["n00"]) == (1, 2, 1, 1)
        assert doc["models"]["a"]["n"] == 6 and doc["models"]["a"]["correct"] == 4
        assert doc["models"]["b"]["n"] == 5 and doc["models"]["b"]["correct"] == 2
        assert doc["cochran_q"]["n"] == 5

    def test_backend_without_conclusive_rows_is_left_out_of_the_comparison(
        self, tmp_path, caplog
    ):
        records = [row("a", "i1"), row("b", "i1", correct=False), row("a", "i2"),
                   row("b", "i2"), row("c", "i1", inconclusive=True), row("c", "i2", attempt=2)]
        doc = json.loads(cli_report.write_stats_report(grouped(records), tmp_path).read_text())
        assert "no stats for c" in caplog.text
        assert list(doc["models"]) == ["a", "b"]
        (pair,) = doc["pairwise"]
        assert pair["pair"] == ["a", "b"]
        assert (pair["n11"], pair["n10"], pair["n01"], pair["n00"]) == (1, 1, 0, 0)
        assert doc["cochran_q"]["models"] == ["a", "b"] and doc["cochran_q"]["n"] == 2

    def test_no_conclusive_first_attempt_writes_no_stats(self, tmp_path):
        records = [row("a", "i1", inconclusive=True), row("a", "i1", attempt=2)]
        assert cli_report.write_stats_report(grouped(records), tmp_path) is None
        assert not (tmp_path / "stats.json").exists()

    def test_telemetry_summary_totals_every_attempt(self):
        records = [row("b", "i1", latency=1.0, cost=0.25, tokens_in=None),
                   row("a", "i1", latency=4.0),
                   row("b", "i1", attempt=2, latency=3.0, inconclusive=True, cost=None)]
        summary = cli_report.telemetry_summary(grouped(records))
        assert list(summary) == ["a", "b"]
        b = summary["b"]
        assert b["calls"] == 2
        assert b["latency_total_s"] == 4.0 and b["latency_median_s"] == 2.0
        assert (b["latency_min_s"], b["latency_max_s"]) == (1.0, 3.0)
        assert (b["tokens_in"], b["tokens_out"], b["cost_total"]) == (10, 10, 0.25)

    def test_a_configuration_with_a_duplicate_row_is_left_out_of_every_report(
        self, tmp_path, caplog
    ):
        rows = [{**row(name, inst), "schema": assessor.OUTCOME_SCHEMA, "ground_label": "CE",
                 "answer_label": assessor.SAID_CE, "refactoring_type": "Rename Method"}
                for name in ("kept", "dup") for inst in ("i1", "i2")]
        twice = {**rows[2], "correct": False, "answer_label": assessor.SAID_YES}
        outputs = []
        for order in ([twice] + rows, rows + [twice]):
            outcomes = tmp_path / f"outcomes-{len(outputs)}.jsonl"
            outcomes.write_text("".join(json.dumps(r) + "\n" for r in order))
            out = tmp_path / f"out-{len(outputs)}"
            for command in ("metrics", "stats", "summarize"):
                assert main([command, "--outcomes", str(outcomes), "--out", str(out)]) == 0
            assert list(cli_report.telemetry_summary(read_view(outcomes))) == ["kept"]
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == [
            "accuracy_by_model.csv", "failure_modes.csv", "heatmap_by_refactoring.csv",
            "metrics-kept.csv", "metrics-kept.json", "stats.json", "telemetry.csv"]
        assert not [name for name, content in outputs[0].items() if b"dup" in content]
        assert "no reports for dup: i1 attempt 1 appears twice" in caplog.text

    def test_write_csv_writes_header_then_rows(self, tmp_path):
        path = cli_report._write_csv(tmp_path / "t.csv", ["x", "y"], [[1, "a,b"], [2, ""]])
        assert path == tmp_path / "t.csv"
        assert path.read_bytes() == b'x,y\r\n1,"a,b"\r\n2,\r\n'


class TestCliEntry:
    def test_run_and_summarize_via_cli(self, mini_corpus_root, tmp_path, capsys):
        out = tmp_path / "cli-out"
        code = main(
            [
                "run",
                "--corpus",
                str(mini_corpus_root),
                "--backend",
                "mock",
                "--attempts",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "outcomes.jsonl").exists()
        code = main(["summarize", "--outcomes", str(out / "outcomes.jsonl"), "--out", str(out)])
        assert code == 0
        code = main(["metrics", "--outcomes", str(out / "outcomes.jsonl"), "--out", str(out)])
        assert code == 0
        code = main(["stats", "--outcomes", str(out / "outcomes.jsonl"), "--out", str(out)])
        assert code == 0

    def test_stats_without_a_conclusive_first_attempt(self, tmp_path, capsys):
        outcome = assessor.AssessmentOutcome(
            instance_id="i1", attempt_index=1, backend_name="m", correct=False,
            answer_label=assessor.SAID_BC_TEST_NOT_DISCRIMINATING, ground_label="BC",
            inconclusive=True,
        )
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(outcome.to_json_line() + "\n")
        code = main(["stats", "--outcomes", str(outcomes), "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == "no stats: no configuration has a conclusive first attempt\n"
        assert not (tmp_path / "out" / "stats.json").exists()

    def test_metamorph_cli(self, mini_corpus_root, tmp_path, capsys):
        out = tmp_path / "variants"
        code = main(
            ["metamorph", "--corpus", str(mini_corpus_root), "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "10 variants" in printed

    def test_backends_file_defines_models(self, mini_corpus_root, tmp_path):
        backends_file = tmp_path / "backends.json"
        backends_file.write_text(
            json.dumps(
                [
                    {
                        "name": "local-sim",
                        "endpoint": "mock",
                        "temperature": 0.5,
                        "price_in_per_1k": 0.001,
                        "price_out_per_1k": 0.002,
                    }
                ]
            )
        )
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--corpus",
                str(mini_corpus_root),
                "--backend",
                "local-sim",
                "--backends-file",
                str(backends_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = assessor.read_outcomes(out / "outcomes.jsonl")
        assert {r["backend_name"] for r in records} == {"local-sim"}

    @pytest.mark.parametrize("text, message", [
        (json.dumps([{"name": "ok", "endpoint": "mock"},
                     {"name": "m", "endpoint": "mock", "temprature": 0.5}]),
         "entry 1 has unknown key 'temprature'"),
        (json.dumps([{"name": "ok", "endpoint": "mock"}, "m"]), "entry 1 is a str, not an object"),
        ('[{"name": "ok", endpoint: "mock"}]', "not valid JSON: Expecting property name enclosed "
         "in double quotes: line 1 column 17 (char 16)"),
    ])
    def test_a_malformed_backends_file_entry_is_a_config_error(
        self, text, message, mini_corpus_root, tmp_path, capsys
    ):
        backends_file = tmp_path / "backends.json"
        backends_file.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--corpus", str(mini_corpus_root), "--backend", "ok",
                     "--backends-file", str(backends_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {backends_file}: {message}"
        assert not out.exists()

    def test_unknown_backend_is_config_error(self, mini_corpus_root, tmp_path):
        code = main(
            [
                "run",
                "--corpus",
                str(mini_corpus_root),
                "--backend",
                "no-such-model",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_missing_corpus_is_config_error(self, tmp_path):
        code = main(
            ["run", "--corpus", str(tmp_path / "nope"), "--backend", "mock", "--out", str(tmp_path)]
        )
        assert code == 2


class ClosingToolchain(MockToolchain):
    def __init__(self) -> None:
        super().__init__()
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


class TestToolchainLifetime:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_cli_closes_its_toolchain(self, command, mini_corpus_root, tmp_path, monkeypatch):
        built = []

        def toolchain_from_args(args):
            built.append(ClosingToolchain())
            return built[-1]

        monkeypatch.setattr(cli_report, "_toolchain_from_args", toolchain_from_args)
        argv = [command, "--corpus", str(mini_corpus_root), "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--backend", "mock"]
        assert main(argv) == 0
        assert [t.closed for t in built] == [1]

    def test_junit_cp_splits_on_the_path_separator(self, monkeypatch):
        seen = []
        monkeypatch.setattr(java_executor, "find_jdk", seen.append)
        monkeypatch.setattr(os, "pathsep", ";")  # as on Windows, where ":" ends a drive
        args = argparse.Namespace(compiler=None, junit_cp=r"C:\junit.jar;C:\hamcrest.jar")
        assert isinstance(cli_report._toolchain_from_args(args), NullToolchain)
        assert seen == [(r"C:\junit.jar", r"C:\hamcrest.jar")]

    def test_no_jdk_gives_a_null_toolchain(self, monkeypatch):
        monkeypatch.setattr(java_executor, "find_jdk", lambda entries: None)
        args = argparse.Namespace(compiler=None, junit_cp=None)
        toolchain = cli_report._toolchain_from_args(args)
        assert isinstance(toolchain, NullToolchain)
        assert toolchain.version() == "none"

    def test_validate_without_a_jdk_is_a_config_error(
        self, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(java_executor, "find_jdk", lambda entries: None)
        out = tmp_path / "out"
        assert main(["validate", "--corpus", str(mini_corpus_root), "--out", str(out)]) == 2
        assert "validate needs a JDK" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_missing_compiler_is_a_config_error(
        self, command, mini_corpus_root, tmp_path, capsys
    ):
        missing = str(tmp_path / "nonexistent" / "javac")
        argv = [command, "--corpus", str(mini_corpus_root), "--out", str(tmp_path / "out"),
                "--compiler", missing]
        if command == "run":
            argv += ["--backend", "mock"]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: compiler not found: {missing}"


GOLDEN_OUTCOMES = Path(__file__).resolve().parent / "data" / "reports" / "outcomes.jsonl"
PIPELINE_MODULES = {"pipeline", "assessor", "java_executor", "model_client", "verdict_parser",
                    "prompting", "dataset", "metamorph", "diffs", "javalex"}
# The CLI in a fresh interpreter: argv[1] gets the reforacle modules it loaded.
FRESH_CLI = """
import json, sys
from reforacle.cli_report import main
try:
    status = main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(sorted(m for m in sys.modules if m.startswith("reforacle.")), fh)
sys.exit(status)
"""


def fresh_cli(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """(the process, the modules it loaded, without the package prefix)."""
    loaded = tmp_path / "loaded.json"
    src = str(Path(cli_report.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, str(loaded), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc, {name.removeprefix("reforacle.") for name in json.loads(loaded.read_text())}


class TestReportCommandsLoadNoPipeline:
    @pytest.mark.parametrize("command", ["metrics", "stats", "summarize"])
    def test_a_report_command_loads_no_pipeline_module(self, command, tmp_path):
        out = tmp_path / "out"
        proc, loaded = fresh_cli(tmp_path, command, "--outcomes", str(GOLDEN_OUTCOMES),
                                 "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert list(out.iterdir())
        assert not loaded & PIPELINE_MODULES
        if command == "summarize":
            assert not loaded & {"analytics", "stats"}


class TestExitContract:
    """A ToolchainError or ConfigError still prints `error: ...` and exits 2,
    though cli_report loads java_executor only for a command that needs it."""

    def test_a_missing_compiler_is_a_config_error(self, tmp_path):
        missing = str(tmp_path / "nonexistent")
        args = argparse.Namespace(compiler=missing, java="java", junit_cp=None)
        with pytest.raises(ConfigError, match=re.escape(f"compiler not found: {missing}")):
            cli_report._toolchain_from_args(args)

    @pytest.mark.parametrize("compiler", ["cannot-start", "nonexistent"])
    def test_a_fresh_interpreter_exits_2_with_the_error(self, compiler, mini_corpus_root,
                                                        tmp_path):
        javac = tmp_path / compiler
        if compiler == "cannot-start":  # a ToolchainError from the version probe
            javac.write_text(f"#!{tmp_path / 'no-such-interpreter'}\n")
            javac.chmod(0o755)
            message = f"error: {javac} -version: "
        else:  # a ConfigError
            message = f"error: compiler not found: {javac}"
        out = tmp_path / "out"
        proc, loaded = fresh_cli(tmp_path, "run", "--corpus", str(mini_corpus_root),
                                 "--backend", "mock", "--out", str(out),
                                 "--compiler", str(javac), "--java", sys.executable)
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith(message)
        assert "Traceback" not in proc.stderr
        assert "java_executor" in loaded
        assert not (out / "outcomes.jsonl").exists()
