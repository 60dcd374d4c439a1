import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import java_fixtures
from jdk_image import JAVA_VERSION, stand_in_jdk
from reforacle import (
    assessor,
    cli_report,
    java_executor,
    jsonl,
    metamorph,
    outcome_rows,
    pipeline,
    verdict_parser,
)
from reforacle.cli_report import ConfigError, main, summarize
from reforacle.dataset import load_corpus
from reforacle.java_executor import FAIL, PASS, MockToolchain, NullToolchain, ToolchainUnavailable
from reforacle.model_client import BackendConfig, MockBackend, ModelClient, TranscriptStore
from reforacle.pipeline import RunConfig, run_benchmark
from replay_stores import write_replay_store

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

    def test_without_toolchain_only_bc_claims_on_bc_instances_are_inconclusive(
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
        # only on a BC instance can the evidence make the claim right; on a CE
        # or PRESERVING instance it is wrong whatever its test does
        assert {r["ground_label"] for r in records} == {"BC", "CE", "PRESERVING"}
        assert all(r["inconclusive"] == (r["ground_label"] == "BC") for r in records)
        assert not any(r["correct"] for r in records)
        assert {r["toolchain_error"] for r in records} == {
            "ToolchainUnavailable: no JDK configured"}
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
        for jobs in (0, -3):
            with pytest.raises(ConfigError, match="jobs must be >= 1"):
                RunConfig(corpus_root=str(mini_corpus_root), backends=[BackendConfig(name="m")],
                          out_dir=str(tmp_path), jobs=jobs)
        for mode in (cli_report.FULL_SOURCE_MODE, cli_report.DIFF_ONLY_MODE):
            with pytest.raises(ConfigError, match=f"--seed draws metamorphic variants; {mode} "):
                RunConfig(corpus_root=str(mini_corpus_root), backends=[BackendConfig(name="m")],
                          out_dir=str(tmp_path), mode=mode, master_seed=5)


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
                Unversioned.probes += 1
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

    def test_outcomes_are_read_at_most_once(
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

        assert run() == (0, 2)  # fresh: nothing to read; the reports group the rows written
        assert run() == (1, 1)  # complete: the resume check's grouping feeds the reports
        outcomes = out / "outcomes.jsonl"
        outcomes.write_text("".join(outcomes.read_text().splitlines(keepends=True)[1:]))
        assert run() == (1, 2)  # one row appended: the rows read plus it, grouped again
        for command in ("metrics", "stats", "summarize"):
            reads.clear()
            groupings.clear()
            assert main([command, "--outcomes", str(outcomes),
                         "--out", str(tmp_path / command)]) == 0
            assert (len(reads), len(groupings)) == (1, 1), command

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_reports_equal_those_of_the_report_commands(self, jobs, mini_corpus_root,
                                                            tmp_path):
        """The rows a run keeps report as the rows `metrics` and `stats` read
        back from its outcomes.jsonl: after a fresh run, and after a resume
        that appends to rows read from the file."""
        backends = [BackendConfig(name="alpha"), BackendConfig(name="beta")]
        store = tmp_path / "store.jsonl"
        run_benchmark(base_config(mini_corpus_root, tmp_path / "record", backends=backends,
                                  attempts=2, temperatures=[0.0, 0.5], record_path=str(store)),
                      backends_impl={b.name: cycling_backend() for b in backends},
                      toolchain=MockToolchain())
        out = tmp_path / "out"
        outcomes = out / "outcomes.jsonl"
        cfg = base_config(mini_corpus_root, out, backends=backends, attempts=2,
                          temperatures=[0.0, 0.5], jobs=jobs, replay_path=str(store))
        for kept in (None, 7):  # None: fresh; 7: resumed after the first 7 rows
            if kept is not None:
                outcomes.write_text("".join(outcomes.read_text().splitlines(keepends=True)[:kept]))
            run_benchmark(cfg, backends_impl={}, toolchain=scripted_toolchain(mini_corpus_root))
            rows = assessor.read_outcomes(outcomes)
            assert len(rows) == 2 * 2 * 10 * 2
            assert Counter(r["answer_label"] for r in rows).keys() == {
                assessor.SAID_YES, assessor.SAID_CE, assessor.PARSE_ERROR,
                assessor.SAID_BC_TEST_NOT_COMPILING, assessor.SAID_BC_TEST_NOT_DISCRIMINATING}
            written = take_reports(out)
            expected = {}
            for command in ("metrics", "stats"):
                reports = tmp_path / f"{command}-{kept}"
                assert main([command, "--outcomes", str(outcomes), "--out", str(reports)]) == 0
                expected.update((p.name, p.read_bytes()) for p in reports.iterdir())
            assert len(expected) == 2 * 4 + 1
            assert written == {**expected, "telemetry.json": json.dumps(
                cli_report.telemetry_summary(read_view(outcomes)), indent=1).encode()}

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


class TestReplayFile:
    """A --replay store is a file. A run with work left fails before any
    model call when the file is missing, unless --record writes it."""

    def argv(self, corpus, out, *extra: str) -> list[str]:
        return ["run", "--corpus", str(corpus), "--out", str(out), *extra]

    @pytest.mark.parametrize("backend", ["mock", "replay"])
    def test_a_missing_replay_file_exits_2_and_names_it(
        self, backend, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        for missing in (tmp_path / "nosuch.jsonl", tmp_path):  # absent, or not a file
            out = tmp_path / "out"
            assert main(self.argv(mini_corpus_root, out, "--backend", backend,
                                  "--replay", str(missing))) == 2
            assert capsys.readouterr().err.strip() == f"error: --replay {missing}: not a file"
            assert not (out / "outcomes.jsonl").exists()
        assert not (tmp_path / "nosuch.jsonl").exists()

    def test_with_record_a_missing_replay_file_is_a_store_to_fill(
        self, mini_corpus_root, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        store, out = tmp_path / "store.jsonl", tmp_path / "out"
        assert main(self.argv(mini_corpus_root, out, "--backend", "mock", "--replay", str(store),
                              "--record", str(store))) == 0
        assert len(assessor.read_outcomes(out / "outcomes.jsonl")) == 10
        assert len(TranscriptStore(store)) == 10

    def test_a_complete_resume_needs_no_replay_file(
        self, mini_corpus_root, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        out = tmp_path / "out"
        assert main(self.argv(mini_corpus_root, out, "--backend", "mock")) == 0
        written = (out / "outcomes.jsonl").read_bytes()
        assert main(self.argv(mini_corpus_root, out, "--backend", "mock",
                              "--replay", str(tmp_path / "nosuch.jsonl"))) == 0
        assert (out / "outcomes.jsonl").read_bytes() == written


class TestImportedAnswers:
    """A replay store imported as the README shows (`manual_response` plus
    `TranscriptStore.put`): a row is named by the attempt `run` asked, not
    by the attempt the stored response names."""

    def run_argv(self, corpus, store, out, *extra: str) -> list[str]:
        backends_file = out.parent / "backends.json"
        backends_file.write_text(json.dumps([{"name": "gpt", "endpoint": "local"}]))
        return ["run", "--corpus", str(corpus), "--backend", "gpt", "--backends-file",
                str(backends_file), "--replay", str(store), "--out", str(out), *extra]

    def test_every_attempt_is_scored_once_and_resumed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        corpus = java_fixtures.write_corpus(tmp_path / "corpus", java_fixtures.CE_FIXTURES[:2])
        out = tmp_path / "out"
        cfg = base_config(corpus, out, backends=[BackendConfig(name="gpt")], attempts=2)
        store = write_replay_store(tmp_path / "store.jsonl", cfg, lambda *_: CE_ANSWER)
        argv = self.run_argv(corpus, store, out, "--attempts", "2")
        assert main(argv) == 0
        rows = assessor.read_outcomes(out / "outcomes.jsonl")
        assert sorted((r["instance_id"], r["attempt_index"]) for r in rows) == [
            (f.id, attempt) for f in java_fixtures.CE_FIXTURES[:2] for attempt in (1, 2)]
        assert all(r["backend_name"] == "gpt" and r["correct"] for r in rows)
        assert (out / "metrics-gpt.json").exists()
        written = (out / "outcomes.jsonl").read_bytes()
        assert main(argv) == 0  # complete: nothing is queried again
        assert (out / "outcomes.jsonl").read_bytes() == written

    def test_a_test_class_that_clashes_with_a_program_class_does_not_compile(
        self, jdk, tmp_path, capsys
    ):
        fixture = java_fixtures.BC_FIXTURES[0]
        assert "A.java" in fixture.original  # the program declares class A
        clash = json.dumps({
            "verdict": "NO - BEHAVIOR CHANGE", "explanation": "a test named A",
            "junit_test": "import org.junit.Test;\n\npublic class A {\n"
                          "  @Test public void t() {}\n}\n",
        })
        corpus = java_fixtures.write_corpus(tmp_path / "corpus", [fixture])
        out = tmp_path / "out"
        cfg = base_config(corpus, out, backends=[BackendConfig(name="gpt")])
        store = write_replay_store(tmp_path / "store.jsonl", cfg, lambda *_: clash)
        argv = self.run_argv(corpus, store, out, "--compiler", jdk.config.javac_path,
                             "--junit-cp", os.pathsep.join(jdk.config.junit_classpath))
        assert main(argv) == 0, capsys.readouterr().err
        (row,) = assessor.read_outcomes(out / "outcomes.jsonl")
        assert row["answer_label"] == assessor.SAID_BC_TEST_NOT_COMPILING
        assert not row["inconclusive"] and not row["correct"]
        assert row["evidence"]["on_original"] == java_executor.DID_NOT_COMPILE


def claim(test: str | None) -> str:
    return json.dumps({"verdict": "NO - BEHAVIOR CHANGE", "explanation": "a claim",
                       "junit_test": test})


class TestRealJdkRuns:
    """`run` through `main` on the real JDK, with a replayed model."""

    def run_argv(self, corpus, out, tmp_path, backends, answer, *extra: str) -> list[str]:
        backends_file = tmp_path / "backends.json"
        backends_file.write_text(json.dumps([{"name": b, "endpoint": "local"} for b in backends]))
        cfg = base_config(corpus, out, backends=[BackendConfig(name=b) for b in backends])
        store = write_replay_store(tmp_path / "store.jsonl", cfg, answer)
        return ["run", "--corpus", str(corpus), *(a for b in backends for a in ("--backend", b)),
                "--backends-file", str(backends_file), "--replay", str(store),
                "--out", str(out), *extra]

    def test_a_wrong_answer_is_never_left_out(self, jdk, tmp_path, capsys):
        # Without JUnit every claim check raises. A BC claim on a CE or
        # PRESERVING instance is wrong whatever its test does, so only a
        # claim on a BC instance is left out.
        def answer(backend, inst, attempt):
            if inst.label == "CE":
                return CE_ANSWER
            return claim(None if backend == "honest" else java_fixtures.VACUOUS_TEST)

        corpus = java_fixtures.write_corpus(tmp_path / "corpus")
        out = tmp_path / "out"
        argv = self.run_argv(corpus, out, tmp_path, ["honest", "mixed"], answer,
                             "--compiler", jdk.config.javac_path)
        assert main(argv) == 0, capsys.readouterr().err
        models = json.loads((out / "stats.json").read_text())["models"]
        assert {name: (m["correct"], m["n"], m["left_out"]) for name, m in models.items()} == {
            "honest": (8, 20, 0), "mixed": (8, 14, 6)}
        rows = assessor.read_outcomes(out / "outcomes.jsonl")
        raised = [r for r in rows if "toolchain_error" in r]
        assert {r["toolchain_error"] for r in raised} == {
            "ToolchainUnavailable: no JUnit classpath configured"}
        assert Counter((r["ground_label"], r["inconclusive"]) for r in raised) == {
            ("BC", True): 6, ("PRESERVING", False): 6}
        assert all(r["backend_name"] == "mixed" for r in raised)

    def test_parallel_claim_checks_share_one_compile_worker(self, jdk, tmp_path, capsys):
        from test_java_executor import worker_launches, wrapped_jdk

        fixtures = java_fixtures.BC_FIXTURES[:4]
        corpus = java_fixtures.write_corpus(tmp_path / "corpus", fixtures)
        log = tmp_path / "java.log"
        javac = wrapped_jdk(tmp_path / "jdk", log, 'exec "{real}/java" "$@"')
        out = tmp_path / "out"
        argv = self.run_argv(corpus, out, tmp_path, ["gpt"],
                             lambda backend, inst, attempt: claim(inst.exposing_test),
                             "--compiler", str(javac), "--jobs", "2",
                             "--junit-cp", os.pathsep.join(jdk.config.junit_classpath))
        assert main(argv) == 0, capsys.readouterr().err
        rows = assessor.read_outcomes(out / "outcomes.jsonl")
        assert [r["answer_label"] for r in rows] == [assessor.SAID_BC_VALID] * 4
        assert worker_launches(log) == 1
        assert sum(" org.junit.runner.JUnitCore " in line
                   for line in log.read_text().splitlines()) == 8  # one fresh JVM per test run


class SpyToolchain(MockToolchain):
    """The healthy mock, remembering the original each claim is checked against."""

    def __init__(self) -> None:
        super().__init__()
        self.originals = []

    def check_discriminating(self, test_source, original, resulting):
        self.originals.append(original)
        return super().check_discriminating(test_source, original, resulting)


def variant_answer(backend, inst, attempt) -> str:
    """A CE verdict on CE instances, else a claim with a test that runs."""
    return CE_ANSWER if inst.label == "CE" else claim(java_fixtures.VACUOUS_TEST)


class TestVariantCorpus:
    """A variant is an instance: `run --mode metamorphic --seed S` scores the
    corpus `metamorph --seed S` persists, and judges each claim against the
    variant the model saw."""

    def argv(self, corpus, store, out, *extra: str) -> list[str]:
        backends_file = out.parent / "backends.json"
        backends_file.write_text(json.dumps([{"name": "gpt", "endpoint": "local"}]))
        return ["run", "--corpus", str(corpus), "--backend", "gpt", "--backends-file",
                str(backends_file), "--replay", str(store), "--out", str(out), *extra]

    def test_a_persisted_variant_corpus_runs_as_metamorphic_mode(self, corpus_root, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        cfg = base_config(corpus_root, tmp_path / "mt", backends=[BackendConfig(name="gpt")],
                          mode=cli_report.METAMORPHIC_MODE, master_seed=7)
        store = write_replay_store(tmp_path / "store.jsonl", cfg, variant_answer)
        mt, persisted = tmp_path / "mt", tmp_path / "persisted"
        assert main(self.argv(corpus_root, store, mt, "--mode", "metamorphic", "--seed", "7")) == 0
        assert main(["metamorph", "--corpus", str(corpus_root), "--seed", "7",
                     "--out", str(tmp_path / "variants")]) == 0
        variants = tmp_path / "variants" / "variants" / "7"
        assert main(self.argv(variants, store, persisted)) == 0
        written = (mt / "outcomes.jsonl").read_bytes()
        assert (persisted / "outcomes.jsonl").read_bytes() == written
        rows = assessor.read_outcomes(mt / "outcomes.jsonl")
        assert len(rows) == 20 and all(r["variant_tag"].startswith("mt-7-") and r["seed"] == 7
                                       for r in rows)
        assert take_reports(persisted) == take_reports(mt)
        # the variant rows are a configuration of their own beside the base rows
        base_cfg = replace(cfg, mode=cli_report.FULL_SOURCE_MODE, master_seed=None)
        write_replay_store(store, base_cfg, variant_answer)
        assert main(self.argv(corpus_root, store, persisted)) == 0
        assert (persisted / "outcomes.jsonl").read_bytes().startswith(written)
        assert sorted(p.name for p in persisted.glob("metrics-*.json")) == [
            "metrics-gpt#mt-7.json", "metrics-gpt.json"]

    def test_a_variant_corpus_runs_in_diff_mode(self, corpus_root, tmp_path):
        corpus = load_corpus(corpus_root)
        variants = metamorph.persist_variants(metamorph.transform_corpus(corpus, 7), corpus,
                                              tmp_path, 7)
        artifacts = run_benchmark(
            base_config(variants, tmp_path / "out", mode=cli_report.DIFF_ONLY_MODE),
            backends_impl={"mock": ce_backend()}, toolchain=MockToolchain())
        rows = assessor.read_outcomes(artifacts.outcomes_path)
        # every variant changes the original, so even pr-identity has a diff
        assert len(rows) == 20
        assert {(r["template_version"], r["variant_tag"][:5], r["seed"]) for r in rows} == {
            ("diff_only_v1", "mt-7-", 7)}
        assert sorted(p.name for p in artifacts.metrics_paths) == ["metrics-mock.csv",
                                                                   "metrics-mock.json"]

    def test_every_claim_is_checked_against_the_variant(self, corpus_root, tmp_path):
        cfg = base_config(corpus_root, tmp_path / "out", mode=cli_report.METAMORPHIC_MODE,
                          master_seed=7)
        toolchain = SpyToolchain()
        run_benchmark(cfg, backends_impl={"mock": MockBackend(claim(java_fixtures.VACUOUS_TEST))},
                      toolchain=toolchain)
        variants = metamorph.variant_corpus(load_corpus(corpus_root), 7).instances
        assert Counter(toolchain.originals) == Counter(inst.original for inst in variants)
        base = {inst.original for inst in load_corpus(corpus_root).instances}
        assert len(toolchain.originals) == 20 and not base & set(toolchain.originals)

    def test_an_edited_corpus_under_the_same_out_exits_2(self, mini_corpus_root, tmp_path,
                                                         capsys):
        args = ["--backend", "mock", "--out", str(tmp_path / "out")]
        assert main(["run", "--corpus", str(mini_corpus_root), *args]) == 0
        edited = tmp_path / "edited"
        shutil.copytree(mini_corpus_root, edited)
        inst_id = java_fixtures.BC_FIXTURES[0].id
        source = next((edited / "instances" / inst_id / "original").rglob("*.java"))
        source.write_text("// edited\n" + source.read_text())
        capsys.readouterr()
        assert main(["run", "--corpus", str(edited), *args]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {tmp_path / 'out' / 'outcomes.jsonl'}: the prompt of {inst_id} attempt 1 "
            "of mock changed since it was run (an edited full_source_v1 template or an edited "
            "corpus); rename the edited template or use a new --out")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestVariantRefusals:
    """`metamorph` writes no variant corpus over another, and no variant is
    drawn from a variant."""

    def test_metamorph_refuses_a_target_that_is_not_empty(self, corpus_root, tmp_path, capsys):
        argv = ["metamorph", "--seed", "7", "--out", str(tmp_path / "out")]
        assert main([*argv, "--corpus", str(corpus_root)]) == 0
        target = tmp_path / "out" / "variants" / "7"
        written = tree_bytes(target)
        assert len(list((target / "instances").iterdir())) == 20
        two = java_fixtures.write_corpus(tmp_path / "two", java_fixtures.FIXTURES[:2])
        capsys.readouterr()
        assert main([*argv, "--corpus", str(two)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {target} is not empty; remove it or use a new --out")
        assert tree_bytes(target) == written

    def test_a_variant_corpus_is_no_base_corpus(self, corpus_root, tmp_path, capsys,
                                                monkeypatch):
        assert main(["metamorph", "--corpus", str(corpus_root), "--seed", "7",
                     "--out", str(tmp_path / "out")]) == 0
        variants = tmp_path / "out" / "variants" / "7"
        first = load_corpus(variants).instances[0]
        refusal = (f"error: {first.id} is already a variant ({first.variant_tag}); "
                   "draw variants from the base corpus")
        calls = []
        monkeypatch.setattr(ModelClient, "query", lambda *args: calls.append(args))
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        capsys.readouterr()
        assert main(["run", "--corpus", str(variants), "--backend", "mock", "--mode",
                     "metamorphic", "--seed", "9", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.strip() == refusal
        assert main(["metamorph", "--corpus", str(variants), "--seed", "9",
                     "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err.strip() == refusal
        assert calls == []
        assert not (tmp_path / "run").exists() and not (tmp_path / "again").exists()


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
    """A replayed attempt looks up its answer, hashes its prompt, scans its
    test and writes its row once, whichever thread scores it; a recording
    run opens its store once."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_per_attempt_step_runs_once(self, jobs, mini_corpus_root, tmp_path, monkeypatch):
        store = tmp_path / "store.jsonl"
        run_benchmark(base_config(mini_corpus_root, tmp_path / "record", attempts=2,
                                  record_path=str(store)),
                      backends_impl={"mock": cycling_backend()}, toolchain=MockToolchain())

        rendered, hashed, extracted, opened, writes, looked_up = [], [], [], [], [], []
        render, sha256 = pipeline._render, hashlib.sha256
        extract, get = verdict_parser.extract_test_source, TranscriptStore.get

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

        def recording_get(self, key):
            looked_up.append(key)
            return get(self, key)

        monkeypatch.setattr(pipeline, "_render", recording_render)
        monkeypatch.setattr(TranscriptStore, "get", recording_get)
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
        assert len(looked_up) == len(set(looked_up)) == 20

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_recording_run_opens_its_store_once(self, jobs, mini_corpus_root, tmp_path,
                                                  monkeypatch):
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
        store = tmp_path / "store.jsonl"
        artifacts = run_benchmark(
            base_config(mini_corpus_root, tmp_path / "out", attempts=2, jobs=jobs,
                        record_path=str(store)),
            backends_impl={"mock": cycling_backend()}, toolchain=MockToolchain())
        assert Counter(opened) == {artifacts.outcomes_path: 1, store: 1}
        assert len(TranscriptStore(store)) == 20


class TestValidateCommand:
    def test_an_exposing_test_that_does_not_scan_quarantines_only_its_instance(
        self, jdk, tmp_path, capsys
    ):
        fixture = next(f for f in java_fixtures.BC_FIXTURES if f.id == "bc-fig-pushdown")
        unmatched = replace(fixture, id="bc-fig-pushdown-unmatched", test=fixture.test + "}\n")
        corpus = java_fixtures.write_corpus(tmp_path / "corpus", [fixture, unmatched])
        out = tmp_path / "out"
        assert main(["validate", "--corpus", str(corpus), "--out", str(out),
                     "--compiler", jdk.config.javac_path,
                     "--junit-cp", os.pathsep.join(jdk.config.junit_classpath)]) == 0
        assert "validated 2 instances: 1 confirmed, 1 quarantined" in capsys.readouterr().out
        rows = [json.loads(line) for line in (out / "validation.jsonl").read_text().splitlines()]
        assert [(r["instance_id"], r["ground_truth_confirmed"], r["quarantined"])
                for r in rows] == [(fixture.id, True, False), (unmatched.id, False, True)]

    def test_each_row_pins_its_keys_and_values(self, tmp_path, monkeypatch, capsys):
        ce = next(f for f in java_fixtures.CE_FIXTURES if f.id == "ce-fig-inline-variable")
        bc, broken = java_fixtures.BC_FIXTURES[:2]
        preserving = next(f for f in java_fixtures.PRESERVING_FIXTURES if f.id == "pr-identity")
        relabelled = replace(preserving, id="pr-identity-as-ce", label="CE")
        corpus = java_fixtures.write_corpus(tmp_path / "corpus",
                                            [ce, bc, broken, preserving, relabelled])

        class CheckRaises(MockToolchain):
            def run_test(self, program, test):
                if test == broken.test:
                    raise java_executor.ToolchainError("the test JVM crashed")
                return super().run_test(program, test)

        toolchain = CheckRaises()
        for inst in load_corpus(corpus).instances:
            if inst.id == ce.id:
                toolchain.script_compile(inst.resulting, success=False, diagnostics="err")
            if inst.id == bc.id:
                toolchain.script_run(inst.original, inst.exposing_test, PASS)
                toolchain.script_run(inst.resulting, inst.exposing_test, FAIL)
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: toolchain)
        out = tmp_path / "out"
        assert main(["validate", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "validated 5 instances: 3 confirmed, 1 quarantined" in capsys.readouterr().out

        def row(inst, label, compiles, test, confirmed, quarantined=False):
            return {"instance_id": inst.id, "label": label, "original_compiles": compiles[0],
                    "resulting_compiles": compiles[1], "test_compiles_on_both": test[0],
                    "test_discriminates": test[1], "ground_truth_confirmed": confirmed,
                    "quarantined": quarantined, "toolchain_version": "mock-toolchain"}

        expected = sorted([
            row(ce, "CE", (True, False), (None, None), True),
            row(bc, "BC", (True, True), (True, True), True),
            row(broken, "BC", (True, True), (None, None), False, quarantined=True),
            row(preserving, "PRESERVING", (True, True), (None, None), True),
            row(relabelled, "CE", (True, True), (None, None), False),
        ], key=lambda r: r["instance_id"])
        lines = (out / "validation.jsonl").read_text().splitlines()
        assert [list(json.loads(line).items()) for line in lines] == [
            list(r.items()) for r in expected]


class TestOnePromptPerInstance:
    """The prompt names no backend: a sweep renders each instance's prompt
    once and schedules every configuration's attempts from it."""

    BACKENDS = [BackendConfig(name="alpha"), BackendConfig(name="beta")]

    @pytest.mark.parametrize("mode, seed, rows", [
        (cli_report.FULL_SOURCE_MODE, None, 40),
        (cli_report.DIFF_ONLY_MODE, None, 36),  # pr-identity has no diff
        (cli_report.METAMORPHIC_MODE, 7, 40),
    ])
    def test_a_swept_run_renders_each_instance_once(
        self, mode, seed, rows, mini_corpus_root, tmp_path, monkeypatch
    ):
        rendered = []
        render = pipeline._render

        def counting_render(cfg, inst, *args, **kwargs):
            rendered.append(inst.id)
            return render(cfg, inst, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_render", counting_render)
        artifacts = run_benchmark(
            base_config(mini_corpus_root, tmp_path / "out", backends=self.BACKENDS,
                        temperatures=[0.0, 0.5], mode=mode, master_seed=seed),
            backends_impl={b.name: ce_backend() for b in self.BACKENDS},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        assert len(assessor.read_outcomes(artifacts.outcomes_path)) == rows
        assert len(rendered) == len(set(rendered)) == 10

    def test_a_swept_diff_run_warns_once_of_an_instance_it_skips(
        self, corpus_root, tmp_path, caplog
    ):
        caplog.set_level("WARNING", logger="reforacle.pipeline")
        artifacts = run_benchmark(
            base_config(corpus_root, tmp_path / "out", backends=self.BACKENDS,
                        temperatures=[0.0, 0.5], mode=cli_report.DIFF_ONLY_MODE),
            backends_impl={b.name: ce_backend() for b in self.BACKENDS},
            toolchain=scripted_toolchain(corpus_root),
        )
        assert len(assessor.read_outcomes(artifacts.outcomes_path)) == 19 * 4
        skips = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
        assert skips == ["skipping pr-identity in diff mode: diff is empty"]


class FailingProbe(MockToolchain):
    def version(self):
        raise ToolchainUnavailable("javac -version: no such interpreter")


class TestVersionProbe:
    """A run with work reads its toolchain's version once, before any row
    is written."""

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

    def test_a_compiler_whose_jdk_has_no_release_file_exits_2_and_names_it(
        self, mini_corpus_root, tmp_path, capsys
    ):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 0\n", release=None)
        out = tmp_path / "out"
        argv = ["run", "--corpus", str(mini_corpus_root), "--backend", "mock",
                "--out", str(out), "--compiler", str(javac)]
        assert main(argv) == 2
        release = tmp_path / "jdk" / "release"
        assert capsys.readouterr().err.startswith(
            f"error: cannot read the JDK release file {release}: ")
        assert not out.exists()

    def test_a_run_starts_no_javac_or_java_unless_a_claim_is_checked(
        self, mini_corpus_root, tmp_path
    ):
        store = tmp_path / "store.jsonl"
        backend = BackendConfig(name="model", endpoint="local")
        run_benchmark(base_config(mini_corpus_root, tmp_path / "record", backends=[backend],
                                  record_path=str(store)),
                      backends_impl={"model": MockBackend(YES_ANSWER)}, toolchain=MockToolchain())
        backends_file = tmp_path / "backends.json"
        backends_file.write_text(json.dumps([{"name": "model", "endpoint": "local"}]))
        log = tmp_path / "launches.log"
        logging_tool = f'#!/bin/sh\necho "$0 $*" >> "{log}"\n'
        javac = stand_in_jdk(tmp_path / "jdk", logging_tool, java=logging_tool)
        out = tmp_path / "out"
        argv = ["run", "--corpus", str(mini_corpus_root), "--backend", "model",
                "--backends-file", str(backends_file), "--replay", str(store),
                "--out", str(out), "--compiler", str(javac), "--junit-cp", "junit.jar"]
        assert main(argv) == 0
        rows = assessor.read_outcomes(out / "outcomes.jsonl")
        assert len(rows) == 10
        assert {r["answer_label"] for r in rows} == {assessor.SAID_YES}
        assert {r["toolchain_version"] for r in rows} == {f"javac {JAVA_VERSION}"}
        assert not log.exists()


def grouped(records: list[dict]) -> dict[str, cli_report.Run]:
    """The view every report reads, grouped as the CLI groups it."""
    return cli_report._by_run(cli_report._runs(records))


def read_view(outcomes_path) -> dict[str, cli_report.Run]:
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
                   row("a@t=0.2", "i3"), row("b", "i2", attempt=2), row("b", "i1")]
        groups = grouped(records)
        assert list(groups) == ["a@t=0.2", "a@t=0.7", "b"]
        assert [(r["instance_id"], r["attempt_index"]) for r in groups["b"].rows] == [
            ("i1", 1), ("i1", 2), ("i2", 1), ("i2", 2)]
        assert sum(len(run.rows) for run in groups.values()) == len(records)

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
        assert [r["instance_id"] for r in groups["m#full_source_v1#mt-7"].rows] == ["i1", "i2"]

    def test_by_run_keeps_first_attempts_of_instances_with_every_attempt_conclusive(self):
        rows = [
            row("m", "i1", attempt=1),
            row("m", "i1", attempt=2),
            row("m", "i2", attempt=1, inconclusive=True),
            row("m", "i2", attempt=2),
            row("m", "i3", attempt=1),
            row("m", "i3", attempt=2, inconclusive=True),
            {k: v for k, v in row("m", "i4", attempt=1).items() if k != "inconclusive"},
            row("m", "i4", attempt=2),
        ]
        run = grouped(rows)["m"]
        assert [[(r["instance_id"], r["attempt_index"]) for r in attempts]
                for attempts in run.conclusive] == [[("i1", 1), ("i1", 2)], [("i4", 1), ("i4", 2)]]
        assert [(r["instance_id"], r["attempt_index"]) for r in run.first] == [("i1", 1), ("i4", 1)]
        assert run.left_out == 2

    def test_metrics_read_the_instance_set_of_the_view(self, tmp_path, capsys):
        # (correct, inconclusive) per attempt; i3's attempt 2 is inconclusive
        attempts = {"i1": [(True, False), (True, False)], "i2": [(False, False), (True, False)],
                    "i3": [(True, False), (False, True)], "i4": [(False, False), (False, False)]}
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text("".join(
            json.dumps({**row("m", inst, attempt=k, correct=ok, inconclusive=inconclusive),
                        "schema": assessor.OUTCOME_SCHEMA, "ground_label": "CE",
                        "answer_label": assessor.SAID_CE if ok else assessor.SAID_YES}) + "\n"
            for inst, cells in attempts.items()
            for k, (ok, inconclusive) in enumerate(cells, start=1)))
        out = tmp_path / "out"
        assert main(["metrics", "--outcomes", str(outcomes), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"metrics: {out / 'metrics-m.json'}", f"metrics: {out / 'metrics-m.csv'}"]
        doc = json.loads((out / "metrics-m.json").read_text())
        assert (doc["instances"], doc["dropped_inconclusive"], doc["attempts"]) == (3, 1, 2)
        assert doc["per_attempt_accuracy"] == [1 / 3, 2 / 3]
        assert doc["mean_accuracy"] == 0.5
        assert doc["acc_at"] == {"1": 1 / 3, "2": 2 / 3}

    def test_mcnemar_cells_count_common_first_attempts(self, tmp_path):
        # a/b per instance: i1 TT, i2 TF, i3 TF, i4 FT, i5 FF; i6 only a has
        # (b's is inconclusive), i7 only b has (a's second attempt is).
        outcomes = {"i1": (True, True), "i2": (True, False), "i3": (True, False),
                    "i4": (False, True), "i5": (False, False)}
        records = []
        for inst, (a, b) in outcomes.items():
            records += [row("a", inst, correct=a), row("b", inst, correct=b),
                        row("a", inst, attempt=2, correct=not a)]
        records += [row("a", "i6"), row("a", "i6", attempt=2), row("b", "i6", inconclusive=True),
                    row("a", "i7"), row("a", "i7", attempt=2, inconclusive=True), row("b", "i7")]
        # c has two instances: it must not shrink the a/b table to them.
        records += [row("c", "i1", correct=False), row("c", "i2")]
        doc = json.loads(cli_report.write_stats_report(grouped(records), tmp_path).read_text())
        pairs = {tuple(p["pair"]): (p["n11"], p["n10"], p["n01"], p["n00"])
                 for p in doc["pairwise"]}
        assert pairs == {("a", "b"): (1, 2, 1, 1), ("a", "c"): (1, 1, 0, 0),
                         ("b", "c"): (0, 1, 1, 0)}
        models = {name: (m["correct"], m["n"], m["left_out"]) for name, m in doc["models"].items()}
        assert models == {"a": (4, 6, 1), "b": (3, 6, 1), "c": (1, 2, 0)}
        assert doc["cochran_q"]["models"] == ["a", "b", "c"] and doc["cochran_q"]["n"] == 2

    def test_backend_without_conclusive_rows_is_left_out_of_the_comparison(
        self, tmp_path, caplog
    ):
        # c has a conclusive row for each instance, but no instance whose
        # every attempt is conclusive
        records = [row("a", "i1"), row("b", "i1", correct=False), row("a", "i2"),
                   row("b", "i2"), row("c", "i1", inconclusive=True), row("c", "i1", attempt=2),
                   row("c", "i2"), row("c", "i2", attempt=2, inconclusive=True)]
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

    @pytest.mark.parametrize("extra, warning", [
        ({"correct": False, "answer_label": assessor.SAID_YES},
         "i1 has attempts [1, 1], not one each of 1..1"),
        ({"attempt_index": 2}, "i2 has attempts [1], not one each of 1..2"),
    ], ids=["duplicate", "missing-attempt"])
    def test_a_configuration_with_a_duplicate_row_is_left_out_of_every_report(
        self, extra, warning, tmp_path, caplog
    ):
        rows = [{**row(name, inst), "schema": assessor.OUTCOME_SCHEMA, "ground_label": "CE",
                 "answer_label": assessor.SAID_CE, "refactoring_type": "Rename Method"}
                for name in ("kept", "dup") for inst in ("i1", "i2")]
        # a second attempt-1 row for dup's i1, or an attempt 2 that its i2 lacks
        bad_row = {**rows[2], **extra}
        outputs = []
        for order in ([bad_row] + rows, rows + [bad_row]):
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
        assert f"no reports for dup: {warning}" in caplog.text

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

    @pytest.mark.parametrize("command", ["stats", "metrics"])
    def test_stats_without_a_conclusive_first_attempt(self, command, tmp_path, capsys):
        outcome = assessor.AssessmentOutcome(
            instance_id="i1", attempt_index=1, backend_name="m", correct=False,
            answer_label=assessor.SAID_BC_TEST_NOT_DISCRIMINATING, ground_label="BC",
            inconclusive=True,
        )
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(outcome.to_json_line() + "\n")
        code = main([command, "--outcomes", str(outcomes), "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == (
            f"no {command}: no configuration has an instance whose every attempt is conclusive\n")
        assert list((tmp_path / "out").iterdir()) == []

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
        (json.dumps([{"name": "ok", "endpoint": "mock", "max_attempts_per_call": 2.5}]),
         "entry 0: max_attempts_per_call must be an integer >= 1, not 2.5"),
        (json.dumps([{"name": "ok", "endpoint": "mock", "temperature": True}]),
         "entry 0: temperature must be numeric or 'provider-default', not True"),
        (json.dumps([{"name": "ok", "endpoint": "mock"}, {"name": "m", "endpoint": "mock"},
                     {"name": "ok", "endpoint": "local"}]),
         "entries 0 and 2 both define 'ok'"),
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"foo": 1}', "not a transcript record (KeyError: 'key')"),
            ('{"key": {"backend_name": "mock"}, "response": {}}',
             "not a transcript record (TypeError: "),
        ],
        ids=["no-key", "key-lacks-fields"],
    )
    def test_a_malformed_replay_record_is_an_error_naming_its_line(
        self, line, message, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_report, "_toolchain_from_args", lambda args: MockToolchain())
        store, out = tmp_path / "store.jsonl", tmp_path / "out"
        store.write_text(line + "\n")
        code = main(["run", "--corpus", str(mini_corpus_root), "--backend", "mock",
                     "--replay", str(store), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"error: {store}:1: {message}")
        assert not (out / "outcomes.jsonl").exists()

    def test_an_outcomes_line_that_is_not_an_object_is_an_error_naming_its_line(
        self, tmp_path, capsys
    ):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(GOLDEN_OUTCOMES.read_text() + "[1,2]\n")
        n = len(outcomes.read_text().splitlines())
        code = main(["summarize", "--outcomes", str(outcomes), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {outcomes}:{n}: not a JSON object"

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

    @pytest.mark.parametrize("repeat, message", [
        (["--backend", "mock", "--backend", "mock"], "backend mock is given more than once"),
        (["--backend", "mock", "--temperature", "0.2,0.20"],
         "temperature 0.2 is given more than once"),
    ], ids=["backend", "temperature"])
    def test_a_repeated_run_name_is_a_config_error(self, repeat, message, mini_corpus_root,
                                                   tmp_path, monkeypatch, capsys):
        def no_call(*args, **kwargs):
            raise AssertionError("a model was called")

        monkeypatch.setattr(MockBackend, "complete", no_call)
        out = tmp_path / "out"
        assert main(["run", "--corpus", str(mini_corpus_root), *repeat, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_missing_corpus_is_config_error(self, tmp_path):
        code = main(
            ["run", "--corpus", str(tmp_path / "nope"), "--backend", "mock", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ["preserving", "FullSource"])
    def test_only_the_three_modes_are_accepted(self, mode, mini_corpus_root, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--corpus", str(mini_corpus_root), "--backend", "mock",
                  "--mode", mode, "--out", str(out)])
        assert exit_.value.code == 2
        assert not out.exists()

    def test_seed_outside_metamorphic_mode_exits_2(self, mini_corpus_root, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--corpus", str(mini_corpus_root), "--backend", "mock",
                     "--seed", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: --seed draws metamorphic variants; fullsource mode takes none")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_java_is_not_an_option(self, command, mini_corpus_root, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--corpus", str(mini_corpus_root), "--out", str(out),
                "--java", sys.executable]
        if command == "run":
            argv += ["--backend", "mock"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --java" in capsys.readouterr().err
        assert not out.exists()


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
        monkeypatch.setattr(java_executor, "RealToolchain", seen.append)
        monkeypatch.setattr(os, "pathsep", ";")  # as on Windows, where ":" ends a drive
        args = argparse.Namespace(compiler=None, junit_cp=r"C:\junit.jar;C:\hamcrest.jar")
        cli_report._toolchain_from_args(args)
        assert [config.junit_classpath for config in seen] == [
            (r"C:\junit.jar", r"C:\hamcrest.jar")]

    def test_no_jdk_gives_a_null_toolchain(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        args = argparse.Namespace(compiler=None, junit_cp=None)
        toolchain = cli_report._toolchain_from_args(args)
        assert isinstance(toolchain, NullToolchain)
        assert toolchain.version() == "none"

    def test_validate_without_a_jdk_is_a_config_error(
        self, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("PATH", "")
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

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_compiler_with_no_java_beside_it_is_a_config_error(
        self, command, mini_corpus_root, tmp_path, capsys
    ):
        javac = stand_in_jdk(tmp_path / "jdk", "#!/bin/sh\nexit 0\n", java=None)
        out = tmp_path / "out"
        argv = [command, "--corpus", str(mini_corpus_root), "--out", str(out),
                "--compiler", str(javac)]
        if command == "run":
            argv += ["--backend", "mock"]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: no java launcher next to {javac}"
        assert not (out / "outcomes.jsonl").exists()


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


def killed(pid: int) -> bool:
    """Whether a process `pid` was there to be killed."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


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
        args = argparse.Namespace(compiler=missing, junit_cp=None)
        with pytest.raises(ConfigError, match=re.escape(f"compiler not found: {missing}")):
            cli_report._toolchain_from_args(args)

    @pytest.mark.parametrize("compiler", ["no-release", "nonexistent"])
    def test_a_fresh_interpreter_exits_2_with_the_error(self, compiler, mini_corpus_root,
                                                        tmp_path):
        javac = tmp_path / compiler
        if compiler == "no-release":  # a JDK image without its release file
            javac = stand_in_jdk(tmp_path / compiler, "#!/bin/sh\nexit 0\n", release=None)
            message = f"error: cannot read the JDK release file {tmp_path / compiler / 'release'}: "
        else:  # no such javac
            message = f"error: compiler not found: {javac}"
        out = tmp_path / "out"
        proc, loaded = fresh_cli(tmp_path, "run", "--corpus", str(mini_corpus_root),
                                 "--backend", "mock", "--out", str(out),
                                 "--compiler", str(javac))
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith(message)
        assert "Traceback" not in proc.stderr
        assert "java_executor" in loaded
        assert not (out / "outcomes.jsonl").exists()

    def test_sigterm_mid_compile_exits_143_and_leaves_nothing_behind(self, mini_corpus_root,
                                                                     tmp_path):
        started = tmp_path / "javac.pid"
        javac = stand_in_jdk(  # a compile hangs
            tmp_path / "jdk",
            "#!/bin/sh\n"
            f"echo $$ > {started}.part && mv {started}.part {started}\n"
            "exec sleep 60\n",
        )
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        src = str(Path(cli_report.__file__).resolve().parents[1])
        env = dict(os.environ, TMPDIR=str(temp_dir),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["validate", "--corpus", str(mini_corpus_root), "--out", str(tmp_path / "out"),
                "--compiler", str(javac)]
        with (tmp_path / "stderr").open("w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from reforacle.cli_report import main; sys.exit(main(sys.argv[1:]))",
                 *argv], env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            deadline = time.monotonic() + 60
            while not started.exists():
                assert proc.poll() is None, (tmp_path / "stderr").read_text()
                assert time.monotonic() < deadline, "the compile never started"
                time.sleep(0.05)
            assert [p.name[:18] for p in temp_dir.iterdir()] == ["reforacle-compile-"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
        finally:
            proc.kill()
            proc.wait()
            child_left = started.exists() and killed(int(started.read_text()))
        assert list(temp_dir.iterdir()) == []
        assert not child_left, "javac's process outlived the CLI"

    def test_main_keeps_the_callers_sigterm_handler(self, tmp_path):
        argv = ["summarize", "--outcomes", str(GOLDEN_OUTCOMES), "--out", str(tmp_path / "out")]

        def own(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, own)
        try:
            assert main(argv) == 0
            assert signal.getsignal(signal.SIGTERM) is own
            # off the main thread no handler can be set, and main sets none
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(main, argv).result(timeout=60) == 0
            assert signal.getsignal(signal.SIGTERM) is own
        finally:
            signal.signal(signal.SIGTERM, previous)
