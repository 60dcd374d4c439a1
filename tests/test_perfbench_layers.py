"""perfbench/ binds package names at run time; a rename must fail here
rather than in the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
