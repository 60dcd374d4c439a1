"""Traced run: one `reforacle` CLI command with every layer timed.

    python3 perfbench/tracer.py SPANS.jsonl ARGS...

The script runs the CLI's console-script target (see `entry.py`) in
this process with ARGS, so the traced run takes the same path through
the program as an untraced one. Before it starts, each layer function
named in LAYERS is wrapped, in this process only, so that every call
records one span: name, start, end, parent span and the attempt as
trace id. The toolchain the CLI builds is wrapped in TimedToolchain
before it reaches the assessor. No file of the package is changed.
Spans stay in memory and are written as JSON lines when the command
ends. A layer function that no longer exists stops the run with its
name rather than reporting zeros.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time

import entry


class MissingLayerFunction(RuntimeError):
    pass


def layer(module: str, name: str):
    """`reforacle.<module>.<name>` (a dotted name reaches into a class),
    or an error naming what is missing."""
    try:
        obj = importlib.import_module(f"reforacle.{module}")
        for part in name.split("."):
            obj = getattr(obj, part)
        return obj
    except (ImportError, AttributeError) as err:
        raise MissingLayerFunction(
            f"traced run needs reforacle.{module}.{name}, which is missing ({err}); "
            "update LAYERS in perfbench/tracer.py to the new layer API"
        ) from err


class Tracer:
    """In-memory span store. Spans nest per thread; a thread keeps the
    trace id of the attempt it last queried the model for."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_trace(self, trace: str) -> None:
        self._local.trace = trace

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        local = self._local
        self.spans.append({"id": next(self._ids), "parent": getattr(local, "span", None),
                           "trace": getattr(local, "trace", ""), "name": name,
                           "start": start, "end": end, **attrs})


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name, self.attrs = tracer, name, {}

    def __enter__(self) -> dict:
        local = self.tracer._local
        self.parent = getattr(local, "span", None)
        self.id = next(self.tracer._ids)
        local.span = self.id
        self.start = time.perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        local = self.tracer._local
        self.tracer.spans.append({"id": self.id, "parent": self.parent, "trace": getattr(local, "trace", ""),
                                  "name": self.name, "start": self.start, "end": end, **self.attrs})
        local.span = self.parent


class TimedToolchain:
    """Wraps a toolchain and records a span for its version probe and one
    per discrimination check, with the (program hash, test hash) pair and
    the outcome and elapsed time of each side."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self._hash = layer("java_executor", "source_set_hash")

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def version(self) -> str:
        with self.tracer.span("java_executor.version"):
            return self.inner.version()

    def check_discriminating(self, test_source, original, resulting):
        start = time.perf_counter()
        result = self.inner.check_discriminating(test_source, original, resulting)
        end = time.perf_counter()
        test_hash = hashlib.sha256(test_source.encode("utf-8")).hexdigest()
        sides = [
            {"pair": [self._hash(program), test_hash], "outcome": run.outcome,
             "elapsed_s": run.elapsed_s}
            for program, run in ((original, result.on_original), (resulting, result.on_resulting))
        ]
        self.tracer.add("java_executor.check", start, end, sides=sides)
        return result


def _query_trace(tracer: Tracer, args: tuple) -> None:
    client, prompt, attempt = args[:3]
    tracer.set_trace(f"{client.cfg.name}|{prompt.instance_id}|{prompt.variant_tag}|{attempt}")


# (module, function, span name, attributes from the result). The span
# names are the per-layer metric prefixes in run.py.
LAYERS = (
    ("dataset", "load_corpus", "dataset.load", None),
    ("model_client", "TranscriptStore.__init__", "model_client.store_load", None),
    ("metamorph", "transform_corpus", "metamorph.transform", lambda r: {"variants": len(r)}),
    ("cli_report", "_completed_keys", "cli_report.completed_keys", None),
    ("diffs", "unified_source_diff", "diffs.diff", None),
    ("prompting", "render_full_prompt", "prompting.render", None),
    ("prompting", "render_diff_prompt", "prompting.render", None),
    ("model_client", "ModelClient.query", "model_client.query", None),
    ("verdict_parser", "parse_response", "verdict_parser.parse",
     lambda r: {"failed": type(r).__name__ == "ParseFailure"}),
    ("verdict_parser", "extract_test_source", "verdict_parser.extract", None),
    ("assessor", "assess", "assessor.assess", None),
    ("assessor", "assess_preserving", "assessor.assess", None),
    ("assessor", "write_outcomes", "assessor.write", None),
    ("assessor", "read_outcomes", "assessor.read", None),
    ("cli_report", "write_metric_reports", "cli_report.metric_reports", None),
    ("cli_report", "write_stats_report", "cli_report.stats_report", None),
    ("cli_report", "telemetry_summary", "cli_report.telemetry", None),
    ("cli_report", "summarize", "cli_report.summarize", None),
)


def _replace(module: str, name: str, wrapper) -> None:
    """Put `wrapper` wherever the package binds the original: on its
    class, or under any name in any loaded reforacle module."""
    original = layer(module, name)
    owner, _, attr = name.rpartition(".")
    if owner:
        setattr(layer(module, owner), attr, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "reforacle" or mod_name.startswith("reforacle."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def instrument(tracer: Tracer) -> None:
    for module, name, span_name, describe in LAYERS:
        fn = layer(module, name)

        def wrapped(*args, _fn=fn, _span=span_name, _describe=describe, **kwargs):
            if _span == "model_client.query":
                _query_trace(tracer, args)
            with tracer.span(_span) as attrs:
                try:
                    result = _fn(*args, **kwargs)
                except Exception as err:
                    attrs["error"] = type(err).__name__
                    raise
                if _describe is not None:
                    attrs.update(_describe(result))
                return result

        _replace(module, name, functools.wraps(fn)(wrapped))

    make_toolchain = layer("cli_report", "_toolchain_from_args")

    def timed_toolchain(args):
        toolchain = make_toolchain(args)
        return TimedToolchain(toolchain, tracer) if toolchain is not None else None

    _replace("cli_report", "_toolchain_from_args", timed_toolchain)


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    cli = entry.console_script()
    tracer = Tracer()
    try:
        instrument(tracer)
    except MissingLayerFunction as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    status = cli(args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
