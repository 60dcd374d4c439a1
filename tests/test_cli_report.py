import argparse
import json
import os
from pathlib import Path

import pytest

import java_fixtures
from reforacle import assessor, cli_report
from reforacle.cli_report import ConfigError, RunConfig, main, run_benchmark, summarize
from reforacle.java_executor import FAIL, PASS, MockToolchain, NullToolchain
from reforacle.model_client import BackendConfig, MockBackend

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


class TestSummarize:
    def test_summary_tables(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "out")
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": ce_backend()},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        paths = summarize(artifacts.outcomes_path, tmp_path / "summary")
        names = {p.name for p in paths}
        assert "accuracy_by_model.csv" in names
        assert "heatmap_by_refactoring.csv" in names
        assert "failure_modes.csv" in names
        assert "telemetry.csv" in names
        acc = (tmp_path / "summary" / "accuracy_by_model.csv").read_text().splitlines()
        assert acc[0] == "model,overall,bc,ce,n,inconclusive"
        assert acc[1].startswith("mock,")

    def test_unknown_worksheet_emitted_in_diff_mode(self, mini_corpus_root, tmp_path):
        cfg = base_config(mini_corpus_root, tmp_path / "out", mode=cli_report.DIFF_ONLY_MODE)
        artifacts = run_benchmark(
            cfg,
            backends_impl={"mock": MockBackend('{"verdict": "UNKNOWN", "explanation": "?"}')},
            toolchain=scripted_toolchain(mini_corpus_root),
        )
        paths = summarize(artifacts.outcomes_path, tmp_path / "summary")
        assert any(p.name == "unknown_adjudication.csv" for p in paths)

    def test_empty_outcomes_summary(self, tmp_path):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text("")
        paths = summarize(outcomes, tmp_path / "summary")
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
    def test_by_model_groups_in_name_order_and_file_order(self):
        records = [row("b", "i1"), row("a@t=0.7", "i1"), row("b", "i2"), row("a@t=0.2", "i3")]
        groups = cli_report._by_model(records)
        assert list(groups) == ["a@t=0.2", "a@t=0.7", "b"]
        assert [r["instance_id"] for r in groups["b"]] == ["i1", "i2"]
        assert sum(len(rows) for rows in groups.values()) == len(records)

    def test_selectors_keep_first_attempt_conclusive_rows(self):
        rows = [
            row("m", "i1", attempt=1),
            row("m", "i1", attempt=2),
            row("m", "i2", attempt=1, inconclusive=True),
            {k: v for k, v in row("m", "i3", attempt=1).items() if k != "inconclusive"},
        ]
        first = cli_report._first_attempts(rows)
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
        doc = json.loads(cli_report.write_stats_report(records, tmp_path).read_text())
        (pair,) = doc["pairwise"]
        assert pair["pair"] == ["a", "b"]
        assert (pair["n11"], pair["n10"], pair["n01"], pair["n00"]) == (1, 2, 1, 1)
        assert doc["models"]["a"]["n"] == 6 and doc["models"]["a"]["correct"] == 4
        assert doc["models"]["b"]["n"] == 5 and doc["models"]["b"]["correct"] == 2
        assert doc["cochran_q"]["n"] == 5

    def test_no_conclusive_first_attempt_writes_no_stats(self, tmp_path):
        records = [row("a", "i1", inconclusive=True), row("a", "i1", attempt=2)]
        assert cli_report.write_stats_report(records, tmp_path) is None
        assert not (tmp_path / "stats.json").exists()

    def test_telemetry_summary_totals_every_attempt(self):
        records = [row("b", "i1", latency=1.0, cost=0.25, tokens_in=None),
                   row("a", "i1", latency=4.0),
                   row("b", "i1", attempt=2, latency=3.0, inconclusive=True, cost=None)]
        summary = cli_report.telemetry_summary(records)
        assert list(summary) == ["a", "b"]
        b = summary["b"]
        assert b["calls"] == 2
        assert b["latency_total_s"] == 4.0 and b["latency_median_s"] == 2.0
        assert (b["latency_min_s"], b["latency_max_s"]) == (1.0, 3.0)
        assert (b["tokens_in"], b["tokens_out"], b["cost_total"]) == (10, 10, 0.25)

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
        monkeypatch.setattr(cli_report.java_executor, "find_jdk", seen.append)
        monkeypatch.setattr(os, "pathsep", ";")  # as on Windows, where ":" ends a drive
        args = argparse.Namespace(compiler=None, junit_cp=r"C:\junit.jar;C:\hamcrest.jar")
        assert isinstance(cli_report._toolchain_from_args(args), NullToolchain)
        assert seen == [(r"C:\junit.jar", r"C:\hamcrest.jar")]

    def test_no_jdk_gives_a_null_toolchain(self, monkeypatch):
        monkeypatch.setattr(cli_report.java_executor, "find_jdk", lambda entries: None)
        args = argparse.Namespace(compiler=None, junit_cp=None)
        toolchain = cli_report._toolchain_from_args(args)
        assert isinstance(toolchain, NullToolchain)
        assert toolchain.version() == "none"

    def test_validate_without_a_jdk_is_a_config_error(
        self, mini_corpus_root, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_report.java_executor, "find_jdk", lambda entries: None)
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
