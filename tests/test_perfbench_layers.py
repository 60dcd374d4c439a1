"""perfbench/ binds package names at run time; a rename must fail here
rather than in the benchmark."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import java_fixtures
from reforacle.java_executor import MockToolchain
from reforacle.model_client import BackendConfig, MockBackend
from reforacle.pipeline import RunConfig, run_benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
YES_ANSWER = json.dumps({"verdict": "YES", "explanation": "fine", "junit_test": None})
CLAIM_ANSWER = json.dumps({"verdict": "NO - BEHAVIOR CHANGE", "explanation": "runnable test",
                           "junit_test": java_fixtures.VACUOUS_TEST})


@pytest.fixture
def tracer(monkeypatch):
    pytest.importorskip("tomllib")  # perfbench/entry.py reads pyproject.toml with it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_layer_resolves(tracer):
    names = [(module, name) for module, name, _, _ in tracer.LAYERS]
    names += [
        ("cli_report", "_toolchain_from_args"),
        ("java_executor", "source_set_hash"),  # TimedToolchain
        ("model_client", "TranscriptStore.keys"),  # run.py records the replay stores
        ("model_client", "TranscriptStore.put"),
        ("model_client", "RawModelResponse"),
    ]
    for module, name in names:
        assert callable(tracer.layer(module, name)), f"{module}.{name}"


def test_a_traced_replay_records_every_per_attempt_span(mini_corpus_root, tmp_path):
    """perfbench/tracer.py over a replay at --jobs 2 with one checked claim,
    then over `summarize`: the spans `run.py --trace 1` requires of every
    workload fire, the per-attempt ones once per row or claim and each
    report writer once."""
    pytest.importorskip("tomllib")
    backend = BackendConfig(name="model", endpoint="local")
    answers = iter([CLAIM_ANSWER])
    store = tmp_path / "store.jsonl"
    run_benchmark(
        RunConfig(corpus_root=str(mini_corpus_root), backends=[backend],
                  record_path=str(store), out_dir=str(tmp_path / "record")),
        backends_impl={"model": MockBackend(lambda prompt: next(answers, YES_ANSWER))},
        toolchain=MockToolchain(),
    )
    out, tmp = tmp_path / "out", tmp_path / "tmp"
    spans = traced(tmp_path, "run", "--corpus", str(mini_corpus_root), "--backend", "model",
                   "--backends-file", str(backends_file(tmp_path)), "--replay", str(store),
                   "--jobs", "2", "--out", str(out))
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    claims = [r for r in rows if r["answer_label"].startswith("SAID_BC_")]
    assert len(rows) == 10 and len(claims) == 1
    assert spans.count("assessor.write") == len(rows)
    assert spans.count("model_client.query") == len(rows)
    assert spans.count("verdict_parser.extract") == len(claims)
    assert spans.count("java_executor.version") == 1
    for name in ("completed_keys", "metric_reports", "stats_report", "telemetry"):
        assert spans.count(f"cli_report.{name}") == 1, name
    spans = traced(tmp_path, "summarize", "--outcomes", str(out / "outcomes.jsonl"),
                   "--out", str(tmp_path / "summary"))
    assert spans.count("cli_report.summarize") == 1
    assert not [p for p in tmp.iterdir() if p.name.startswith("reforacle-")]


def test_a_traced_metamorphic_run_draws_its_variants_once(mini_corpus_root, tmp_path):
    """The python-path workload's traced run requires the metamorph.transform
    span: `run --mode metamorphic` draws the variant corpus once."""
    pytest.importorskip("tomllib")
    store = tmp_path / "store.jsonl"
    run_benchmark(
        RunConfig(corpus_root=str(mini_corpus_root),
                  backends=[BackendConfig(name="model", endpoint="local")],
                  mode="metamorphic", master_seed=7, record_path=str(store),
                  out_dir=str(tmp_path / "record")),
        backends_impl={"model": MockBackend(YES_ANSWER)}, toolchain=MockToolchain())
    out = tmp_path / "out"
    spans = traced(tmp_path, "run", "--corpus", str(mini_corpus_root), "--backend", "model",
                   "--backends-file", str(backends_file(tmp_path)), "--replay", str(store),
                   "--mode", "metamorphic", "--seed", "7", "--out", str(out))
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    assert len(rows) == 10 and all(r["variant_tag"].startswith("mt-7-") for r in rows)
    assert spans.count("metamorph.transform") == 1
    assert spans.count("model_client.query") == len(rows)


def backends_file(tmp_path: Path) -> Path:
    path = tmp_path / "backends.json"
    path.write_text(json.dumps([{"name": "model", "endpoint": "local"}]))
    return path


def traced(tmp_path: Path, *args: str) -> list[str]:
    """The span names of one CLI command run under perfbench/tracer.py, with
    `tmp_path / "tmp"` as its TMPDIR."""
    spans_path, tmp = tmp_path / "spans.jsonl", tmp_path / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp))
    command = [sys.executable, str(PERFBENCH / "tracer.py"), str(spans_path), *args]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return [json.loads(line)["name"] for line in spans_path.read_text().splitlines()]
