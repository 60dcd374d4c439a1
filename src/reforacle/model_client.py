"""Model backends, decoding parameters, telemetry, and record/replay.

A query is addressed by a RequestKey (backend, instance, variant,
attempt, prompt hash). Responses can be recorded into a TranscriptStore
(one JSON line per record) and replayed byte-identically, so a full
evaluation can be re-run with no network access and no nondeterminism.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from . import jsonl
from .prompting import RenderedPrompt

logger = logging.getLogger(__name__)

PROVIDER_DEFAULT = "provider-default"


class ModelClientError(RuntimeError):
    """Carries the request key so a failed call can be retried or resumed."""

    def __init__(self, message: str, key: "RequestKey | None" = None) -> None:
        super().__init__(message)
        self.key = key


class AuthMissing(ModelClientError):
    pass


class Timeout(ModelClientError):
    pass


class TransportFailure(ModelClientError):
    pass


class ProviderRefusal(ModelClientError):
    pass


class ReplayMiss(ModelClientError):
    pass


class DuplicateKey(ModelClientError):
    pass


@dataclass(frozen=True)
class BackendConfig:
    name: str
    endpoint: str = "local"  # URL, "local", or "mock"
    auth_env: str = ""       # env var holding the credential
    temperature: float | str = PROVIDER_DEFAULT
    max_attempts_per_call: int = 3
    timeout_s: float = 120.0
    reasoning_effort: str = ""      # pass-through; provider-specific
    price_in_per_1k: float | None = None
    price_out_per_1k: float | None = None

    def __post_init__(self) -> None:
        if _is_number(self.temperature):
            if not 0.0 <= float(self.temperature) <= 1.0:
                raise ValueError(f"temperature {self.temperature} outside [0, 1]")
        elif self.temperature != PROVIDER_DEFAULT:
            raise ValueError(f"temperature must be numeric or {PROVIDER_DEFAULT!r}, "
                             f"not {self.temperature!r}")
        if not _is_number(self.timeout_s) or self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be a positive number, not {self.timeout_s!r}")
        attempts = self.max_attempts_per_call
        if isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1:
            raise ValueError(f"max_attempts_per_call must be an integer >= 1, not {attempts!r}")
        for key in ("price_in_per_1k", "price_out_per_1k"):
            value = getattr(self, key)
            if value is not None and not _is_number(value):
                raise ValueError(f"{key} must be a number or null, not {value!r}")


def _is_number(value) -> bool:
    """An int or a float, and not a bool, which JSON `true` becomes."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class RequestKey(NamedTuple):
    backend_name: str
    instance_id: str
    variant_tag: str
    attempt_index: int
    prompt_hash: str

    def as_dict(self) -> dict:
        return self._asdict()

    @staticmethod
    def for_prompt(backend_name: str, prompt: RenderedPrompt, attempt_index: int) -> "RequestKey":
        return RequestKey(
            backend_name=backend_name,
            instance_id=prompt.instance_id,
            variant_tag=prompt.variant_tag,
            attempt_index=attempt_index,
            prompt_hash=prompt.hash,
        )


@dataclass(frozen=True)
class RawModelResponse:
    text: str
    latency_s: float
    attempt_index: int
    backend_name: str
    created_at: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    tokens_reasoning: int | None = None
    cost_estimate: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, not {type(self.text).__name__}")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.attempt_index < 1:
            raise ValueError("attempt_index must be >= 1")


class TranscriptStore:
    """Keyed response store: a file of JSON lines, one record per line,
    loaded when it exists and appended to by `put`. The file stays open
    from the first `put` to `close()`; each record is on disk once `put`
    returns, closed or not."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[RequestKey, RawModelResponse] = {}
        self._lock = threading.Lock()
        self._out = jsonl.Appender(self.path)
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for n, doc in jsonl.records(self.path):
            try:
                key = RequestKey(**doc["key"])
                self._records[key] = RawModelResponse(**doc["response"])
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(
                    f"{self.path}:{n}: not a transcript record ({type(err).__name__}: {err})"
                ) from err

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: RequestKey) -> bool:
        return key in self._records

    def get(self, key: RequestKey) -> RawModelResponse | None:
        return self._records.get(key)

    def put(self, key: RequestKey, resp: RawModelResponse, overwrite: bool = False) -> None:
        with self._lock:
            if key in self._records and not overwrite:
                raise DuplicateKey(f"record already present for {key}", key)
            self._records[key] = resp
            line = json.dumps({"key": key.as_dict(), "response": asdict(resp)}, sort_keys=True)
            self._out.write([line])

    def close(self) -> None:
        with self._lock:
            self._out.close()

    def keys(self) -> list[RequestKey]:
        return list(self._records)


def manual_response(text: str, backend_name: str, attempt_index: int = 1) -> RawModelResponse:
    """Wrap a hand-pasted model answer (e.g. from a web UI) for the store."""
    return RawModelResponse(
        text=text,
        latency_s=0.0,
        attempt_index=attempt_index,
        backend_name=backend_name,
        created_at=_now(),
    )


class Backend(Protocol):
    def complete(self, cfg: BackendConfig, prompt_text: str) -> "BackendReply": ...


@dataclass
class BackendReply:
    text: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    tokens_reasoning: int | None = None


class MockBackend:
    """Scripted backend: fixed text or a callable on the prompt text."""

    def __init__(self, reply: str | Callable[[str], str]) -> None:
        self._reply = reply
        self.calls = 0

    def complete(self, cfg: BackendConfig, prompt_text: str) -> BackendReply:
        self.calls += 1
        text = self._reply(prompt_text) if callable(self._reply) else self._reply
        return BackendReply(text=text)


class HttpChatBackend:
    """Chat-completion wire protocol over HTTPS.

    JSON body carries the model name, one user message, and (when not
    provider-default) the temperature. The credential comes only from the
    environment variable named in the config, never from flags or files.
    """

    def complete(self, cfg: BackendConfig, prompt_text: str) -> BackendReply:
        import requests

        token = os.environ.get(cfg.auth_env, "") if cfg.auth_env else ""
        if not token:
            raise AuthMissing(f"credential env var {cfg.auth_env!r} is not set")
        body: dict = {
            "model": cfg.name,
            "messages": [{"role": "user", "content": prompt_text}],
        }
        if cfg.temperature != PROVIDER_DEFAULT:
            body["temperature"] = float(cfg.temperature)
        if cfg.reasoning_effort:
            body["reasoning_effort"] = cfg.reasoning_effort
        try:
            http = requests.post(
                cfg.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {token}"},
                timeout=cfg.timeout_s,
            )
        except requests.Timeout as err:
            raise Timeout(str(err)) from err
        except requests.RequestException as err:
            raise TransportFailure(str(err)) from err
        if http.status_code in (401, 403):
            raise AuthMissing(f"provider rejected credential: HTTP {http.status_code}")
        if http.status_code == 429 or http.status_code >= 500:
            raise TransportFailure(f"HTTP {http.status_code}: {http.text[:200]}")
        if http.status_code >= 400:
            raise ProviderRefusal(f"HTTP {http.status_code}: {http.text[:200]}")
        try:  # a reply with no text is a failed call, logged and re-queried on resume
            doc = http.json()
            text = doc["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as err:
            raise ProviderRefusal(f"malformed reply ({err!r}): {http.text[:200]}") from err
        if not isinstance(text, str):
            raise ProviderRefusal(f"reply content is {text!r}, not text: {http.text[:200]}")
        usage = doc.get("usage") or {}  # absent, or null
        return BackendReply(
            text=text,
            tokens_in=usage.get("prompt_tokens"),
            tokens_out=usage.get("completion_tokens"),
            tokens_reasoning=usage.get("reasoning_tokens"),
        )


class ModelClient:
    """One configured backend plus optional replay/record stores. Requests
    are keyed and stored under `name` (default `cfg.name`; a sweep passes
    `name@t=T`); the backend is always sent `cfg`."""

    def __init__(
        self,
        cfg: BackendConfig,
        backend: Backend | None = None,
        replay_store: TranscriptStore | None = None,
        record_store: TranscriptStore | None = None,
        sleep: Callable[[float], None] = time.sleep,
        name: str | None = None,
    ) -> None:
        self.cfg = cfg
        self.name = name or cfg.name
        self.backend = backend if backend is not None else _default_backend(cfg)
        self.replay_store = replay_store
        self.record_store = record_store
        self._sleep = sleep

    def recorded(self, prompt: RenderedPrompt, attempt_index: int) -> RawModelResponse | None:
        """The replay store's answer to this request, or None when there is
        none (and `query` would call the backend)."""
        if self.replay_store is None:
            return None
        return self.replay_store.get(RequestKey.for_prompt(self.name, prompt, attempt_index))

    def query(self, prompt: RenderedPrompt, attempt_index: int) -> RawModelResponse:
        """Answer a prompt, replaying when recorded, retrying transport errors."""
        stored = self.recorded(prompt, attempt_index)
        if stored is not None:
            return stored
        key = RequestKey.for_prompt(self.name, prompt, attempt_index)
        if self.backend is None:
            raise ReplayMiss(f"no recorded response and no live backend for {key}", key)

        last_error: ModelClientError | None = None
        for retry in range(self.cfg.max_attempts_per_call):
            try:
                start = time.monotonic()
                reply = self.backend.complete(self.cfg, prompt.text)
                latency = time.monotonic() - start
                resp = RawModelResponse(
                    text=reply.text,
                    latency_s=latency,
                    attempt_index=attempt_index,
                    backend_name=self.name,
                    created_at=_now(),
                    tokens_in=reply.tokens_in,
                    tokens_out=reply.tokens_out,
                    tokens_reasoning=reply.tokens_reasoning,
                    cost_estimate=_cost(self.cfg, reply),
                )
                if self.record_store is not None:
                    self.record_store.put(key, resp, overwrite=True)
                return resp
            except (Timeout, TransportFailure) as err:
                err.key = key
                last_error = err
                if retry + 1 >= self.cfg.max_attempts_per_call:
                    break
                backoff = 0.5 * (2**retry)
                logger.warning(
                    "transient failure for %s (retry %d/%d in %.1fs): %s",
                    key.instance_id,
                    retry + 1,
                    self.cfg.max_attempts_per_call,
                    backoff,
                    err,
                )
                self._sleep(backoff)
            except ModelClientError as err:
                err.key = key
                raise
        assert last_error is not None
        raise last_error


def _default_backend(cfg: BackendConfig) -> Backend | None:
    if cfg.endpoint.startswith("http"):
        return HttpChatBackend()
    if cfg.endpoint == "mock":
        return MockBackend('{"verdict": "YES", "explanation": "mock", "junit_test": null}')
    return None


def _cost(cfg: BackendConfig, reply: BackendReply) -> float | None:
    if cfg.price_in_per_1k is None or cfg.price_out_per_1k is None:
        return None
    if reply.tokens_in is None or reply.tokens_out is None:
        return None
    return (
        reply.tokens_in / 1000.0 * cfg.price_in_per_1k
        + reply.tokens_out / 1000.0 * cfg.price_out_per_1k
    )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
