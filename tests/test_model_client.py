import json
import re

import pytest
import requests

import java_fixtures
from reforacle import jsonl
from reforacle.model_client import (
    AuthMissing,
    BackendConfig,
    BackendReply,
    DuplicateKey,
    HttpChatBackend,
    MockBackend,
    ModelClient,
    RawModelResponse,
    ReplayMiss,
    RequestKey,
    Timeout,
    TranscriptStore,
    TransportFailure,
    manual_response,
)
from reforacle.prompting import render_full_prompt

FIXED_VERDICT = '{"verdict": "NO - COMPILATION ERROR", "explanation": "e", "junit_test": null}'


def prompt(instance_id="inst-1", payload="class A { int x = 1; }"):
    return render_full_prompt(payload, payload + " ", instance_id=instance_id)


def cfg(**kw) -> BackendConfig:
    base = dict(name="mock-model", endpoint="local", max_attempts_per_call=3)
    base.update(kw)
    return BackendConfig(**base)


class TestBackendConfig:
    def test_temperature_range_enforced(self):
        with pytest.raises(ValueError):
            cfg(temperature=1.5)
        assert cfg(temperature=0.5).temperature == 0.5
        assert cfg().temperature == "provider-default"

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            cfg(timeout_s=0)

    @pytest.mark.parametrize("key", ["temperature", "timeout_s", "max_attempts_per_call",
                                     "price_in_per_1k", "price_out_per_1k"])
    def test_a_bool_is_not_a_number(self, key):
        with pytest.raises(ValueError, match=f"{key} must be"):
            cfg(**{key: True})


class TestQuery:
    def test_mock_backend_echoes(self):
        client = ModelClient(cfg(), backend=MockBackend(FIXED_VERDICT))
        response = client.query(prompt(), attempt_index=1)
        assert response.text == FIXED_VERDICT
        assert response.latency_s >= 0.0
        assert response.attempt_index == 1
        assert response.backend_name == "mock-model"

    def test_callable_mock_sees_prompt(self):
        client = ModelClient(cfg(), backend=MockBackend(lambda p: p[:4]))
        response = client.query(prompt(), attempt_index=2)
        assert response.text == "Cons"  # the template's first word

    def test_retries_transport_failure_with_backoff(self):
        calls = {"n": 0}

        class Flaky:
            def complete(self, cfg, prompt_text):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise TransportFailure("connection reset")
                return BackendReply(text=FIXED_VERDICT)

        naps = []
        client = ModelClient(cfg(), backend=Flaky(), sleep=naps.append)
        response = client.query(prompt(), attempt_index=1)
        assert response.text == FIXED_VERDICT
        assert calls["n"] == 3
        assert naps == [0.5, 1.0]  # exponential backoff

    def test_gives_up_after_max_attempts(self):
        class AlwaysDown:
            def complete(self, cfg, prompt_text):
                raise TransportFailure("no route")

        client = ModelClient(cfg(max_attempts_per_call=2), backend=AlwaysDown(), sleep=lambda s: None)
        with pytest.raises(TransportFailure) as exc:
            client.query(prompt(), attempt_index=1)
        assert exc.value.key is not None
        assert exc.value.key.instance_id == "inst-1"

    def test_replay_miss_without_backend(self, tmp_path):
        client = ModelClient(cfg(), backend=None,
                             replay_store=TranscriptStore(tmp_path / "t.jsonl"))
        with pytest.raises(ReplayMiss):
            client.query(prompt(), attempt_index=1)

    def test_auth_missing_for_remote_without_env(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_TOKEN", raising=False)
        remote = cfg(endpoint="https://example.invalid/v1/chat", auth_env="NO_SUCH_TOKEN")
        client = ModelClient(remote, backend=HttpChatBackend())
        with pytest.raises(AuthMissing):
            client.query(prompt(), attempt_index=1)


class TestCost:
    """A call's cost is tokens_in/1000 * price_in + tokens_out/1000 * price_out,
    and unknown (null) without both prices and both token counts."""

    @pytest.mark.parametrize("tokens_in, tokens_out, prices, cost", [
        (1000, 500, (0.25, 2.0), 0.25 + 1.0),
        (1000, None, (0.25, 2.0), None),
        (None, 500, (0.25, 2.0), None),
        (1000, 500, (0.25, None), None),
    ], ids=["priced", "no-tokens-out", "no-tokens-in", "no-price-out"])
    def test_cost_estimate(self, tokens_in, tokens_out, prices, cost):
        class Counted:
            def complete(self, cfg, prompt_text):
                return BackendReply(text=FIXED_VERDICT, tokens_in=tokens_in, tokens_out=tokens_out)

        priced = cfg(price_in_per_1k=prices[0], price_out_per_1k=prices[1])
        response = ModelClient(priced, backend=Counted()).query(prompt(), attempt_index=1)
        assert response.cost_estimate == cost


class FakeHttpResponse:
    def __init__(self, status_code=200, doc=None, text=""):
        self.status_code = status_code
        self._doc = doc or {}
        self.text = text

    def json(self):
        if isinstance(self._doc, Exception):
            raise self._doc
        return self._doc


class TestHttpWireProtocol:
    def post_capture(self, monkeypatch, response):
        import requests

        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers, timeout=timeout)
            return response

        monkeypatch.setattr(requests, "post", fake_post)
        return seen

    def remote_cfg(self, **kw):
        return cfg(
            name="some-model",
            endpoint="https://api.example.test/v1/chat/completions",
            auth_env="TEST_TOKEN",
            **kw,
        )

    def test_request_body_and_usage_parsing(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN", "sekret")
        doc = {
            "choices": [{"message": {"content": FIXED_VERDICT}}],
            "usage": {"prompt_tokens": 120, "completion_tokens": 30, "reasoning_tokens": 5},
        }
        seen = self.post_capture(monkeypatch, FakeHttpResponse(doc=doc))
        client = ModelClient(
            self.remote_cfg(temperature=0.5, reasoning_effort="medium"),
            backend=HttpChatBackend(),
        )
        response = client.query(prompt(), attempt_index=1)
        assert response.text == FIXED_VERDICT
        assert response.tokens_in == 120
        assert response.tokens_out == 30
        assert response.tokens_reasoning == 5
        assert seen["body"]["model"] == "some-model"
        assert seen["body"]["temperature"] == 0.5
        assert seen["body"]["reasoning_effort"] == "medium"
        assert seen["body"]["messages"][0]["role"] == "user"
        assert seen["headers"]["Authorization"] == "Bearer sekret"

    def test_provider_default_omits_temperature(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN", "sekret")
        doc = {"choices": [{"message": {"content": "x"}}], "usage": None}
        seen = self.post_capture(monkeypatch, FakeHttpResponse(doc=doc))
        client = ModelClient(self.remote_cfg(), backend=HttpChatBackend())
        response = client.query(prompt(), attempt_index=1)
        assert (response.text, response.tokens_in, response.tokens_out) == ("x", None, None)
        assert "temperature" not in seen["body"]
        assert "reasoning_effort" not in seen["body"]

    def test_refusal_and_retryable_statuses(self, monkeypatch):
        from reforacle.model_client import ProviderRefusal

        monkeypatch.setenv("TEST_TOKEN", "sekret")
        self.post_capture(monkeypatch, FakeHttpResponse(status_code=400, text="bad request"))
        client = ModelClient(self.remote_cfg(), backend=HttpChatBackend())
        with pytest.raises(ProviderRefusal):
            client.query(prompt(), attempt_index=1)

        self.post_capture(monkeypatch, FakeHttpResponse(status_code=503, text="down"))
        client = ModelClient(
            self.remote_cfg(max_attempts_per_call=2),
            backend=HttpChatBackend(),
            sleep=lambda s: None,
        )
        with pytest.raises(TransportFailure):
            client.query(prompt(), attempt_index=1)

    @pytest.mark.parametrize("doc, text, message", [
        ({"error": "busy"}, '{"error": "busy"}', "malformed reply (KeyError('choices'))"),
        (requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0), "<html>",
         "malformed reply (JSONDecodeError("),
        ({"choices": [{"message": {"content": None}}]}, '{"choices": []}',
         "reply content is None, not text"),
    ], ids=["no-choices", "not-json", "null-content"])
    def test_a_malformed_reply_is_a_failed_call(self, doc, text, message, monkeypatch):
        from reforacle.model_client import ProviderRefusal

        monkeypatch.setenv("TEST_TOKEN", "sekret")
        calls = []
        self.post_capture(monkeypatch, FakeHttpResponse(doc=doc, text=text))
        client = ModelClient(self.remote_cfg(), backend=HttpChatBackend(),
                             sleep=calls.append)
        with pytest.raises(ProviderRefusal) as failed:
            client.query(prompt(), attempt_index=1)
        assert str(failed.value).startswith(message) and text in str(failed.value)
        assert failed.value.key.instance_id == "inst-1" and calls == []  # not retried

    @pytest.mark.parametrize("raised, error", [
        (requests.Timeout("read timed out"), Timeout),
        (requests.ConnectionError("connection refused"), TransportFailure),
    ], ids=["timeout", "connection-error"])
    def test_a_transport_error_is_retried_then_raised(self, raised, error, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN", "sekret")
        posts = []

        def failing_post(url, json=None, headers=None, timeout=None):
            posts.append(url)
            raise raised

        monkeypatch.setattr(requests, "post", failing_post)
        naps = []
        client = ModelClient(self.remote_cfg(max_attempts_per_call=3), backend=HttpChatBackend(),
                             sleep=naps.append)
        with pytest.raises(error) as failed:
            client.query(prompt(), attempt_index=1)
        assert str(failed.value) == str(raised)
        assert failed.value.key.instance_id == "inst-1"
        assert len(posts) == 3 and naps == [0.5, 1.0]

    def test_rejected_credential_is_auth_error(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN", "expired")
        self.post_capture(monkeypatch, FakeHttpResponse(status_code=401, text="no"))
        client = ModelClient(self.remote_cfg(), backend=HttpChatBackend())
        with pytest.raises(AuthMissing):
            client.query(prompt(), attempt_index=1)


class TestTranscriptStore:
    def response(self, text=FIXED_VERDICT) -> RawModelResponse:
        return RawModelResponse(
            text=text,
            latency_s=1.25,
            attempt_index=1,
            backend_name="m",
            created_at="2026-01-01T00:00:00+00:00",
            tokens_in=100,
            tokens_out=20,
        )

    def key(self, attempt=1) -> RequestKey:
        return RequestKey.for_prompt("m", prompt(), attempt)

    def test_record_then_replay_byte_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TranscriptStore(path)
        store.put(self.key(), self.response())
        again = TranscriptStore(path)
        replayed = again.get(self.key())
        assert replayed is not None
        assert replayed.text == FIXED_VERDICT
        assert replayed == self.response()

    def test_torn_last_line_is_skipped_then_cut(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        TranscriptStore(path).put(self.key(), self.response())
        whole = path.read_text()
        with path.open("a") as fh:
            fh.write(whole[:30])  # killed mid-write
        store = TranscriptStore(path)
        assert store.keys() == [self.key()]
        assert "torn last line" in caplog.text
        store.put(self.key(2), self.response())
        assert path.read_text().startswith(whole)
        assert TranscriptStore(path).keys() == [self.key(), self.key(2)]

    def test_the_store_stays_open_from_its_first_put_to_close(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
        path = tmp_path / "t.jsonl"
        store = TranscriptStore(path)
        for attempt in (1, 2, 3):
            store.put(self.key(attempt), self.response())
            assert len(TranscriptStore(path)) == attempt  # on disk before close
        store.close()
        store.put(self.key(4), self.response())
        store.close()
        assert opened == [path, path]
        assert TranscriptStore(path).keys() == [self.key(n) for n in (1, 2, 3, 4)]

    def test_malformed_line_before_the_last_is_an_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TranscriptStore(path).put(self.key(), self.response())
        whole = path.read_text()
        path.write_text(whole[:30] + "\n" + whole)
        with pytest.raises(ValueError):
            TranscriptStore(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"foo": 1}', "not a transcript record (KeyError: 'key')"),
            ('{"key": {"backend_name": "m"}, "response": {}}',
             "not a transcript record (TypeError: "),
            ('{"key": {"backend_name": "m", "instance_id": "i", "variant_tag": "", '
             '"attempt_index": 1, "prompt_hash": "h", "model": "m"}, "response": {}}',
             "not a transcript record (TypeError: "),
            ("[1, 2]", "not a JSON object"),
        ],
        ids=["no-key", "key-lacks-fields", "key-has-an-unknown-field", "not-an-object"],
    )
    def test_a_malformed_record_is_an_error_naming_its_line(self, line, message, tmp_path):
        path = tmp_path / "t.jsonl"
        TranscriptStore(path).put(self.key(), self.response())
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            TranscriptStore(path)
        assert str(err.value).startswith(f"{path}:2: {message}")

    def test_a_record_whose_text_is_not_a_string_is_an_error_naming_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TranscriptStore(path).put(self.key(), self.response())
        doc = json.loads(path.read_text())
        doc["response"]["text"] = 5
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:1: not a transcript record (ValueError: text must be a string, not int)")):
            TranscriptStore(path)

    def test_duplicate_key_rejected(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        store.put(self.key(), self.response())
        with pytest.raises(DuplicateKey):
            store.put(self.key(), self.response("other"))

    def test_overwrite_flag(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        store.put(self.key(), self.response())
        store.put(self.key(), self.response("other"), overwrite=True)
        assert store.get(self.key()).text == "other"

    def test_replay_through_client_needs_no_backend(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TranscriptStore(path)
        live = ModelClient(cfg(name="m"), backend=MockBackend(FIXED_VERDICT), record_store=store)
        first = live.query(prompt(), attempt_index=1)
        replay = ModelClient(cfg(name="m"), backend=None, replay_store=TranscriptStore(path))
        second = replay.query(prompt(), attempt_index=1)
        assert second == first

    def test_recorded_is_the_lookup_query_replays_from(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        backend = MockBackend(FIXED_VERDICT)
        client = ModelClient(cfg(name="m"), backend=backend, replay_store=store)
        assert client.recorded(prompt(), attempt_index=1) is None
        store.put(RequestKey.for_prompt("m", prompt(), 1), manual_response("stored", "m"))
        assert client.recorded(prompt(), attempt_index=1).text == "stored"
        assert client.recorded(prompt(), attempt_index=2) is None
        assert client.query(prompt(), attempt_index=1).text == "stored"
        assert backend.calls == 0
        assert client.query(prompt(), attempt_index=2).text == FIXED_VERDICT
        assert backend.calls == 1
        assert ModelClient(cfg(), backend=backend).recorded(prompt(), 1) is None

    def test_manual_import(self, tmp_path):
        store = TranscriptStore(tmp_path / "t.jsonl")
        key = self.key()
        store.put(key, manual_response("pasted from a web UI", "m"))
        assert store.get(key).text == "pasted from a web UI"

    def test_full_benchmark_store_has_1130_records(self, tmp_path):
        # one model, five attempts over a 226-instance corpus
        path = tmp_path / "full.jsonl"
        store = TranscriptStore(path)
        client = ModelClient(cfg(name="m"), backend=MockBackend(FIXED_VERDICT), record_store=store)
        for fixture in java_fixtures.synthetic_benchmark():
            p = render_full_prompt(
                "".join(fixture.original.values()),
                "".join(fixture.resulting.values()),
                instance_id=fixture.id,
            )
            for attempt in range(1, 6):
                client.query(p, attempt)
        assert len(store) == 226 * 5
        # replaying the whole store touches no backend
        replay = ModelClient(cfg(name="m"), backend=None, replay_store=TranscriptStore(path))
        for fixture in java_fixtures.synthetic_benchmark()[:5]:
            p = render_full_prompt(
                "".join(fixture.original.values()),
                "".join(fixture.resulting.values()),
                instance_id=fixture.id,
            )
            assert replay.query(p, 3).text == FIXED_VERDICT

    def test_jsonl_format_one_record_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TranscriptStore(path)
        store.put(self.key(1), self.response())
        store.put(self.key(2), self.response())
        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert set(doc) == {"key", "response"}
