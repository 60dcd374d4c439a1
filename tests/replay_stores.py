"""Replay stores written from scripted answers, the way the README has a
user import answers: one `manual_response` per request, put under the
request key `run` computes for it."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from reforacle import metamorph, pipeline
from reforacle.cli_report import METAMORPHIC_MODE
from reforacle.dataset import BugInstance, load_corpus
from reforacle.model_client import RequestKey, TranscriptStore, manual_response

def write_replay_store(path: Path, cfg: pipeline.RunConfig,
                       answer: Callable[[str, BugInstance, int], str]) -> Path:
    """A replay store at `path` answering every request a `run` with `cfg`
    makes with `answer(row name, instance, attempt)`. Each instance of the
    corpus `run` scores (in metamorphic mode, its variants) has its prompt
    rendered once with `pipeline._render`, and keyed per row and attempt
    with `RequestKey.for_prompt`, as `run` does. Each response is
    `manual_response(text, row name)`, so it says attempt 1 whatever
    attempt it answers."""
    corpus = load_corpus(cfg.corpus_root)
    if cfg.mode == METAMORPHIC_MODE:
        corpus = metamorph.variant_corpus(corpus, cfg.master_seed)
    template = pipeline._load_override_template(cfg)
    rows = [row_name for row_name, _ in pipeline._sweep_configs(cfg)]
    store = TranscriptStore(path)
    for inst in corpus.instances:
        prompt = pipeline._render(cfg, inst, template)
        for row_name in rows:
            for attempt in range(1, cfg.attempts + 1):
                store.put(RequestKey.for_prompt(row_name, prompt, attempt),
                          manual_response(answer(row_name, inst, attempt), row_name))
    return path
