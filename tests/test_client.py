from __future__ import annotations

import json
import logging
import os
import sqlite3
import subprocess
import sys
import threading
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest

import graphreason
from graphreason.client import (
    AuthError,
    ChatClient,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    ProtocolError,
    ResponseCache,
    SamplingConfig,
    TrajectorySamples,
    TransientError,
    TransportExhaustedError,
    cache_key,
    gather_trajectories,
    parse_retry_after,
)
from graphreason.pipeline import trajectory_requests

CONFIG = SamplingConfig(model_name="mock-teacher", temperature=0.9, k=3, seed=None)


def request(user: str = "hello", **overrides) -> CompletionRequest:
    cfg = SamplingConfig(model_name="mock-teacher", **overrides)
    return CompletionRequest("sys", user, cfg)


def no_sleep_client(backend, **kw) -> ChatClient:
    kw.setdefault("sleep", lambda _: None)
    return ChatClient(backend, **kw)


def sample_round(client: ChatClient, question: str, config: SamplingConfig) -> TrajectorySamples:
    """One question's k samples, submitted and gathered as build and ``sample`` do."""
    requests = trajectory_requests(question, config)
    return gather_trajectories([client.submit(r) for r in requests])


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [-0.1, 2.5])
    def test_temperature_range(self, bad):
        with pytest.raises(ValueError):
            SamplingConfig(model_name="m", temperature=bad)

    def test_k_floor(self):
        with pytest.raises(ValueError):
            SamplingConfig(model_name="m", k=0)

    def test_max_new_tokens_floor(self):
        with pytest.raises(ValueError):
            SamplingConfig(model_name="m", max_new_tokens=0)

    def test_defaults(self):
        cfg = SamplingConfig(model_name="m")
        assert (cfg.temperature, cfg.k, cfg.max_new_tokens, cfg.seed) == (0.9, 5, 1024, None)

    def test_empty_user_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest("sys", "", SamplingConfig(model_name="m"))


class TestCacheKey:
    def test_stable(self):
        assert cache_key(request()) == cache_key(request())

    def test_sensitive_to_all_fields(self):
        base = cache_key(request())
        assert cache_key(request(user="other")) != base
        assert cache_key(request(temperature=0.0)) != base
        assert cache_key(request(seed=1)) != base
        assert cache_key(request(max_new_tokens=2)) != base
        r = request()
        r.sample_index = 3
        assert cache_key(r) != base


class TestResponseCache:
    @pytest.mark.parametrize("text", [
        "", "plain", "naïve ✓", "lone \ud800 surrogate", "\udfff\ud800", "nul \x00 byte",
    ])
    def test_any_str_round_trips(self, tmp_path, text):
        ResponseCache(tmp_path).put("k", text)
        assert ResponseCache(tmp_path).get("k") == text

    def test_one_file_per_store(self, tmp_path):
        ResponseCache(tmp_path / "cache").put("k", "v")
        assert (tmp_path / "cache" / ResponseCache.FILENAME).is_file()

    def test_concurrent_puts_and_gets(self, tmp_path):
        store = ResponseCache(tmp_path)
        problems = []

        def work(thread: int) -> None:
            try:
                for i in range(40):
                    key = f"{thread}-{i}"
                    store.put(key, f"text {key}")
                    store.put("shared", f"text {key}")
                    if store.get(key) != f"text {key}" or store.get("shared") is None:
                        problems.append(key)
            except Exception as err:  # a thread's exception would otherwise vanish
                problems.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        fresh = ResponseCache(tmp_path)
        assert all(fresh.get(f"{t}-{i}") == f"text {t}-{i}" for t in range(8) for i in range(40))

    def test_two_stores_on_one_directory_see_each_others_writes(self, tmp_path):
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        first.put("a", "from first")
        second.put("b", "from second")
        assert (first.get("b"), second.get("a")) == ("from second", "from first")

    def test_put_survives_a_writer_that_exits_without_closing(self, tmp_path):
        script = (
            "import os, sys\n"
            "from graphreason.client import ResponseCache\n"
            "store = ResponseCache(sys.argv[1])\n"
            "store.put('k', 'written before exit')\n"
            "os._exit(0)\n"
        )
        path = [str(Path(graphreason.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                       env=env, check=True, timeout=60)
        assert ResponseCache(tmp_path).get("k") == "written before exit"

    def test_dropped_store_closes_its_connection(self, tmp_path):
        store = ResponseCache(tmp_path)
        db = store._db
        del store
        with pytest.raises(sqlite3.ProgrammingError):
            db.execute("SELECT 1")


class _FailingCache(ResponseCache):
    """A store whose every write fails as a full disk or a long-held lock would."""

    def __init__(self, root, error: Exception) -> None:
        super().__init__(root)
        self.error = error

    def put(self, key: str, text: str) -> None:
        raise self.error


class TestComplete:
    def test_scripted_reply(self):
        client = no_sleep_client(MockBackend(default="pong"))
        result = client.complete(request())
        assert result.text == "pong"
        assert result.cached is False
        assert result.attempt_count == 1
        assert result.latency >= 0

    def test_cache_roundtrip(self, tmp_path):
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend, cache=ResponseCache(tmp_path))
        first = client.complete(request())
        second = client.complete(request())
        assert (first.cached, second.cached) == (False, True)
        assert second.text == "pong"
        assert second.attempt_count == 1
        assert backend.calls == 1
        assert client.stats.cache_hits == 1

    def test_cache_survives_new_client(self, tmp_path):
        client_a = no_sleep_client(MockBackend(default="pong"), cache=ResponseCache(tmp_path))
        client_a.complete(request())
        fresh_backend = MockBackend(default="changed")
        client_b = no_sleep_client(fresh_backend, cache=ResponseCache(tmp_path))
        result = client_b.complete(request())
        assert result.text == "pong"
        assert result.cached is True
        assert fresh_backend.calls == 0

    @pytest.mark.parametrize("error", [
        sqlite3.OperationalError("database is locked"), OSError(28, "No space left on device"),
    ])
    def test_failed_cache_write_keeps_the_completion(self, tmp_path, caplog, error):
        client = no_sleep_client(MockBackend(default="pong"), cache=_FailingCache(tmp_path, error))
        with caplog.at_level(logging.WARNING, logger="graphreason.client"):
            result = client.submit(request()).result(timeout=30)
        assert (result.text, result.cached) == ("pong", False)
        assert client.stats.completions == 1
        assert "cache write failed" in caplog.text

    def test_retry_then_success(self):
        backend = MockBackend(default="ok")
        backend.fail_first_attempts(2)
        client = no_sleep_client(backend)
        result = client.complete(request())
        assert result.text == "ok"
        assert result.attempt_count == 3
        assert client.stats.retries == 2

    def test_transport_exhaustion(self):
        backend = MockBackend(default="ok")
        backend.fail_first_attempts(99)
        client = no_sleep_client(backend, max_attempts=4)
        with pytest.raises(TransportExhaustedError) as err:
            client.complete(request())
        assert err.value.attempts == 4
        assert backend.calls == 4

    def test_auth_error_never_retried(self):
        backend = MockBackend(default="ok")
        backend.queue_failures(AuthError("nope"))
        client = no_sleep_client(backend)
        with pytest.raises(AuthError):
            client.complete(request())
        assert backend.calls == 1

    def test_protocol_error_never_retried(self):
        backend = MockBackend(default="ok")
        backend.queue_failures(ProtocolError("garbled"))
        client = no_sleep_client(backend)
        with pytest.raises(ProtocolError):
            client.complete(request())
        assert backend.calls == 1

    def test_backoff_schedule_with_jitter(self):
        delays = []
        backend = MockBackend(default="ok")
        backend.fail_first_attempts(3)
        client = ChatClient(backend, sleep=delays.append, max_attempts=4)
        client.complete(request())
        assert len(delays) == 3
        for n, delay in enumerate(delays):
            nominal = 2**n
            assert 0.8 * nominal <= delay <= 1.2 * nominal


class TestSampling:
    def test_index_ordered_texts(self):
        backend = MockBackend({"Question:": ["r0", "r1", "r2"]})
        client = no_sleep_client(backend)
        samples = sample_round(client, "what?", CONFIG)
        assert samples.texts == ["r0", "r1", "r2"]
        assert samples.errors == {}

    def test_partial_failure_keeps_indices(self):
        def responder(req):
            if req.sample_index == 1:
                raise ProtocolError("boom")
            return f"text-{req.sample_index}"

        client = no_sleep_client(MockBackend(responder=responder))
        samples = sample_round(client, "what?", CONFIG)
        assert samples.texts == ["text-0", None, "text-2"]
        assert list(samples.errors) == [1]
        assert samples.successful() == [(0, "text-0"), (2, "text-2")]

    def test_all_failed_raises(self):
        # The all-failed detail is what the sample command reports before exiting 1.
        def responder(req):
            raise ProtocolError("boom")

        client = no_sleep_client(MockBackend(responder=responder))
        samples = sample_round(client, "what?", CONFIG)
        assert samples.successful() == []
        assert samples.all_failed_detail() == "all 3 samples failed: boom; boom; boom"

    def test_gather_returns_a_fully_failed_round(self):
        def responder(req):
            raise ProtocolError(f"boom {req.sample_index}")

        client = no_sleep_client(MockBackend(responder=responder))
        requests = trajectory_requests("what?", CONFIG)
        samples = gather_trajectories([client.submit(r) for r in requests])
        assert samples.texts == [None, None, None]
        assert samples.all_failed_detail() == "all 3 samples failed: boom 0; boom 1; boom 2"
        assert TrajectorySamples(["text", None], {1: "boom"}).all_failed_detail() is None

    def test_seed_derivation_per_sample(self):
        seeds = {}

        def responder(req):
            seeds[req.sample_index] = req.config.seed
            return "ok"

        client = no_sleep_client(MockBackend(responder=responder))
        seeded = SamplingConfig(model_name="m", k=3, seed=42)
        sample_round(client, "what?", seeded)
        assert seeds == {0: 42, 1: 43, 2: 44}

    def test_no_seed_stays_unseeded(self):
        seeds = set()

        def responder(req):
            seeds.add(req.config.seed)
            return "ok"

        client = no_sleep_client(MockBackend(responder=responder))
        sample_round(client, "what?", CONFIG)
        assert seeds == {None}

    def test_in_flight_bound_respected(self):
        backend = MockBackend(default="ok", delay=0.01)
        client = no_sleep_client(backend, concurrency=3)
        cfg = SamplingConfig(model_name="m", k=8)
        sample_round(client, "what?", cfg)
        assert backend.calls == 8
        assert 1 <= backend.max_concurrent <= 3
        assert client.stats.max_in_flight <= 3


class _FakeResponse:
    def __init__(self, status_code: int, body=None, headers=None):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class _FakeSession:
    def __init__(self, response):
        self.response = response
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.response


GOOD_BODY = {"choices": [{"message": {"content": "hi there"}}]}


class TestHttpBackend:
    def test_missing_credential_fails_before_network(self, monkeypatch):
        monkeypatch.delenv("GRAPHREASON_API_KEY", raising=False)
        session = _FakeSession(_FakeResponse(200, GOOD_BODY))
        backend = HttpBackend("http://example.invalid/v1/chat", session=session)
        with pytest.raises(AuthError):
            backend.send(request())
        assert session.requests == []

    def test_payload_shape(self, monkeypatch):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        session = _FakeSession(_FakeResponse(200, GOOD_BODY))
        backend = HttpBackend("http://example.invalid/v1/chat", session=session)
        text = backend.send(request(seed=7))
        assert text == "hi there"
        sent = session.requests[0]["json"]
        assert sent["model"] == "mock-teacher"
        assert sent["messages"][0] == {"role": "system", "content": "sys"}
        assert sent["messages"][1] == {"role": "user", "content": "hello"}
        assert sent["max_tokens"] == 1024
        assert sent["seed"] == 7
        auth = session.requests[0]["headers"]["Authorization"]
        assert auth == "Bearer sk-test"

    @pytest.mark.parametrize(
        "status,exc",
        [(401, AuthError), (403, AuthError), (429, TransientError),
         (500, TransientError), (503, TransientError), (404, ProtocolError)],
    )
    def test_status_mapping(self, monkeypatch, status, exc):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        backend = HttpBackend(
            "http://example.invalid/v1/chat", session=_FakeSession(_FakeResponse(status))
        )
        with pytest.raises(exc):
            backend.send(request())

    @pytest.mark.parametrize(
        "body", [None, {}, {"choices": []}, {"choices": [{"message": {}}]},
                 {"choices": [{"message": {"content": 5}}]}],
    )
    def test_malformed_body(self, monkeypatch, body):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        backend = HttpBackend(
            "http://example.invalid/v1/chat", session=_FakeSession(_FakeResponse(200, body))
        )
        with pytest.raises(ProtocolError):
            backend.send(request())


class _ScriptedSession:
    """Replies with the given responses in order."""

    def __init__(self, *responses):
        self.responses = list(responses)

    def post(self, url, json=None, headers=None, timeout=None):
        return self.responses.pop(0)


class TestRetryAfter:
    @pytest.mark.parametrize(
        "header,seconds",
        [("7", 7.0), (" 12 ", 12.0), ("0", 0.0), ("-3", None), ("soon", None), ("", None),
         (None, None), ("\u00b2", None), ("\u0661\u0662", None), ("1.5", None)],
    )
    def test_delta_seconds(self, header, seconds):
        assert parse_retry_after(header) == seconds

    def test_http_date(self):
        later = format_datetime(datetime.now(timezone.utc) + timedelta(seconds=30), usegmt=True)
        assert 25.0 <= parse_retry_after(later) <= 30.0
        assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0

    def test_429_carries_the_delay(self, monkeypatch):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        session = _FakeSession(_FakeResponse(429, headers={"Retry-After": "7"}))
        backend = HttpBackend("http://example.invalid/v1/chat", session=session)
        with pytest.raises(TransientError) as err:
            backend.send(request())
        assert err.value.status == 429
        assert err.value.retry_after == 7.0

    @pytest.mark.parametrize("header,backoff,slept", [("7", 1.0, 7.0), ("1", 4.0, 4.0)])
    def test_client_sleeps_the_longer_of_backoff_and_retry_after(
        self, monkeypatch, header, backoff, slept
    ):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        session = _ScriptedSession(
            _FakeResponse(429, headers={"Retry-After": header}), _FakeResponse(200, GOOD_BODY)
        )
        delays = []
        client = ChatClient(
            HttpBackend("http://example.invalid/v1/chat", session=session),
            sleep=delays.append,
            backoff_base=backoff,
            backoff_jitter=0.0,
        )
        result = client.complete(request())
        assert result.text == "hi there"
        assert result.attempt_count == 2
        assert delays == [slept]

    @pytest.mark.parametrize("header", ["86400", "Fri, 31 Dec 9999 23:59:59 GMT"])
    def test_oversized_retry_after_gives_up_without_sleeping(self, monkeypatch, header):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        session = _ScriptedSession(
            _FakeResponse(429, headers={"Retry-After": header}), _FakeResponse(200, GOOD_BODY)
        )
        delays = []
        client = ChatClient(
            HttpBackend("http://example.invalid/v1/chat", session=session), sleep=delays.append
        )
        with pytest.raises(TransportExhaustedError, match="over the 120s limit") as err:
            client.complete(request())
        assert err.value.attempts == 1
        assert err.value.last.status == 429
        assert delays == []

    def test_unreadable_retry_after_is_a_plain_transient_error(self, monkeypatch):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        session = _FakeSession(_FakeResponse(429, headers={"Retry-After": "\u00b2"}))
        backend = HttpBackend("http://example.invalid/v1/chat", session=session)
        with pytest.raises(TransientError) as err:
            backend.send(request())
        assert err.value.retry_after is None


class TestMockFixtureFile:
    def test_from_file(self, tmp_path):
        fixture = tmp_path / "mock.json"
        fixture.write_text(
            json.dumps(
                {
                    "replies": {"what?": ["a", "b"]},
                    "default": "fallthrough",
                }
            )
        )
        backend = MockBackend.from_file(fixture)
        client = no_sleep_client(backend)
        cfg = SamplingConfig(model_name="m", k=2)
        samples = sample_round(client, "so, what?", cfg)
        assert samples.texts == ["a", "b"]
        assert client.complete(request("unmatched")).text == "fallthrough"

    @pytest.mark.parametrize(
        "body,problem",
        [
            ("{not json", "invalid JSON"),
            ("[]", "expected a JSON object"),
            ('{"replies": ["a"]}', "replies must be an object"),
            ('{"replies": null}', "replies must be an object"),
            ('{"replies": {"q": 3}}', "reply for 'q' must be a string or a non-empty list"),
            ('{"replies": {"q": []}}', "reply for 'q' must be a string or a non-empty list"),
            ('{"default": 7}', "default must be a string or null"),
        ],
    )
    def test_from_file_rejects_a_malformed_file(self, tmp_path, body, problem):
        fixture = tmp_path / "mock.json"
        fixture.write_text(body)
        with pytest.raises(ValueError) as err:
            MockBackend.from_file(fixture)
        assert str(err.value).startswith(f"{fixture}: {problem}")

    def test_from_file_keys_are_optional(self, tmp_path):
        fixture = tmp_path / "mock.json"
        fixture.write_text('{"default": null}')
        backend = MockBackend.from_file(fixture)
        assert (backend.replies, backend.default) == ({}, None)

    def test_unmatched_without_default_is_protocol_error(self):
        backend = MockBackend({"nope": "x"})
        client = no_sleep_client(backend)
        with pytest.raises(ProtocolError):
            client.complete(request("other"))
