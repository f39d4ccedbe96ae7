from __future__ import annotations

import hashlib
import json
import logging
import random
import sqlite3
import sys
import threading
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    NOT_UTF8_TEXT,
    FailingCache,
    corrupt_store,
    fail_first_attempts,
    queue_failures,
    reply_to,
    run_python,
)
from graphreason.client import (
    STORE_PAGE_CACHE_KIB,
    AuthError,
    ChatClient,
    ClientError,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    ProtocolError,
    ResponseCache,
    SamplingConfig,
    TransientError,
    TransportExhaustedError,
    all_failed_detail,
    cache_key,
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


def complete(client: ChatClient, request: CompletionRequest) -> str:
    """``request``'s completion text; the ClientError it raised is raised here."""
    reply = reply_to(client, request)
    if isinstance(reply, ClientError):
        raise reply
    return reply


def sample_round(
    client: ChatClient, question: str, config: SamplingConfig
) -> list[str | ClientError]:
    """One question's k samples, requested as build and ``sample`` do."""
    [(_, replies)] = client.replies([question], lambda q: trajectory_requests(q, config))
    return replies


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
        with pytest.raises(ValueError, match="^user_prompt must be non-empty$"):
            CompletionRequest("sys", "", SamplingConfig(model_name="m"))

    def test_whitespace_user_prompt_rejected(self):
        with pytest.raises(ValueError, match="^user_prompt must be non-empty$"):
            CompletionRequest("sys", " \n\t", SamplingConfig(model_name="m"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
        ({"concurrency": 0}, "concurrency must be >= 1, got 0"),
    ])
    def test_client_floors_name_their_argument(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ChatClient(MockBackend(default="x"), **kwargs)


# Any text, with lone surrogates, control characters, U+2028 and the
# characters JSON escapes drawn often.
key_texts = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\u2028", '"', "\\"])
)
# Every kind of value json.dumps writes as a scalar, in any field.
key_values = st.one_of(
    key_texts,
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.none(),
    st.booleans(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)


class TestCacheKey:
    def test_stable(self):
        assert cache_key(request()) == cache_key(request())

    def test_pinned_bytes(self):
        # Every existing completions.sqlite3 is keyed by these bytes; a new
        # key function makes each of its entries miss.
        r = CompletionRequest("sys ✓", "What is 2 + 2?", SamplingConfig(
            model_name="mock-teacher", temperature=0.7, max_new_tokens=256, seed=3,
        ), sample_index=1)
        assert cache_key(r) == "91d445368ffe0f7381d3a4b00aaa0c521c411734347c9cc4d436eef21eafef8e"

    @settings(max_examples=300, deadline=None)
    @given(values=st.fixed_dictionaries({
        "model": key_values, "system": key_values, "user": key_values, "temperature": key_values,
        "seed": key_values, "max_new_tokens": key_values, "sample_index": key_values,
    }))
    def test_bytes_are_those_of_json_dumps(self, values):
        r = request()
        r.system_prompt, r.user_prompt, r.sample_index = (
            values["system"], values["user"], values["sample_index"]
        )
        r.config.model_name, r.config.temperature = values["model"], values["temperature"]
        r.config.seed, r.config.max_new_tokens = values["seed"], values["max_new_tokens"]
        blob = json.dumps(values, sort_keys=True, ensure_ascii=False)
        assert cache_key(r) == hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()

    def test_lone_surrogate_prompt_has_its_own_key(self):
        assert cache_key(request(user="x\ud800?")) not in {cache_key(request(user="x?")),
                                                            cache_key(request(user="x\udfff?"))}

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
        ResponseCache(tmp_path).put({"k": text})
        assert ResponseCache(tmp_path).get(["k"]) == {"k": text}

    def test_a_file_that_is_not_a_store_is_a_value_error_naming_it(self, tmp_path):
        (tmp_path / ResponseCache.FILENAME).write_text("not a database " * 20)
        with pytest.raises(ValueError, match="not a database") as err:
            ResponseCache(tmp_path)
        assert str(err.value).startswith(f"{tmp_path / ResponseCache.FILENAME}: ")

    def test_one_file_per_store(self, tmp_path):
        ResponseCache(tmp_path / "cache").put({"k": "v"})
        assert (tmp_path / "cache" / ResponseCache.FILENAME).is_file()

    def test_concurrent_puts_and_gets(self, tmp_path):
        store = ResponseCache(tmp_path)
        problems = []

        def work(thread: int) -> None:
            try:
                for i in range(40):
                    key = f"{thread}-{i}"
                    store.put({key: f"text {key}"})
                    store.put({"shared": f"text {key}"})
                    if store.get([key]) != {key: f"text {key}"} or not store.get(["shared"]):
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
        keys = [f"{t}-{i}" for t in range(8) for i in range(40)]
        assert fresh.get(keys) == {key: f"text {key}" for key in keys}

    def test_two_stores_on_one_directory_see_each_others_writes(self, tmp_path):
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        first.put({"a": "from first"})
        second.put({"b": "from second"})
        assert (first.get(["b"]), second.get(["a"])) == ({"b": "from second"}, {"a": "from first"})

    def test_put_survives_a_writer_that_exits_without_closing(self, tmp_path):
        script = (
            "import os, sys\n"
            "from graphreason.client import ResponseCache\n"
            "store = ResponseCache(sys.argv[1])\n"
            "store.put({'k': 'written before exit'})\n"
            "os._exit(0)\n"
        )
        run_python(script, str(tmp_path))
        assert ResponseCache(tmp_path).get(["k"]) == {"k": "written before exit"}

    def test_new_and_reopened_stores_bound_their_page_cache(self, tmp_path):
        new = ResponseCache(tmp_path)
        new.put({"k": "v"})
        reopened = ResponseCache(tmp_path)
        for store in (new, reopened):
            # A negative cache_size is a bound in KiB.
            assert store._db.execute("PRAGMA cache_size").fetchone() == (-STORE_PAGE_CACHE_KIB,)

    def test_a_store_larger_than_its_page_cache_round_trips(self, tmp_path):
        texts = {f"k{i}": f"{i} " + "naïve ✓ \ud800 " * 150 for i in range(300)}
        store = ResponseCache(tmp_path)
        store.put(texts)
        (size,) = store._db.execute(
            "SELECT page_count * page_size FROM pragma_page_count, pragma_page_size"
        ).fetchone()
        assert size > 2 * STORE_PAGE_CACHE_KIB * 1024
        for reader in (store, ResponseCache(tmp_path)):
            assert reader.get(list(texts)) == texts

    def test_dropped_store_closes_its_connection(self, tmp_path):
        store = ResponseCache(tmp_path)
        db = store._db
        del store
        with pytest.raises(sqlite3.ProgrammingError):
            db.execute("SELECT 1")


class TestComplete:
    def test_scripted_reply(self):
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend)
        result = complete(client, request())
        assert result == "pong"
        # Sent once, not from a cache, and not retried.
        assert (backend.calls, client.stats.cache_hits, client.stats.retries) == (1, 0, 0)

    def test_cache_roundtrip(self, tmp_path):
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend, cache=ResponseCache(tmp_path))
        first = complete(client, request())
        assert (first, backend.calls, client.stats.cache_hits) == ("pong", 1, 0)
        second = complete(client, request())
        assert second == "pong"
        # The second reply came from the cache: no send and no retry.
        assert backend.calls == 1
        assert client.stats.cache_hits == 1
        assert client.stats.retries == 0

    def test_cache_survives_new_client(self, tmp_path):
        client_a = no_sleep_client(MockBackend(default="pong"), cache=ResponseCache(tmp_path))
        complete(client_a, request())
        fresh_backend = MockBackend(default="changed")
        client_b = no_sleep_client(fresh_backend, cache=ResponseCache(tmp_path))
        result = complete(client_b, request())
        assert result == "pong"
        assert client_b.stats.cache_hits == 1
        assert fresh_backend.calls == 0

    @pytest.mark.parametrize("error", [
        sqlite3.OperationalError("database is locked"), OSError(28, "No space left on device"),
    ])
    def test_failed_cache_write_keeps_the_completion(self, tmp_path, caplog, error):
        cache = FailingCache(tmp_path, error, "put")
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend, cache=cache)
        with caplog.at_level(logging.WARNING, logger="graphreason.client"):
            result = complete(client, request())
        assert result == "pong"
        assert (backend.calls, client.stats.cache_hits) == (1, 0)
        assert client.stats.completions == 1
        assert "cache write failed" in caplog.text

    @pytest.mark.parametrize("error", [
        sqlite3.DatabaseError("database disk image is malformed"), OSError(5, "Input/output error"),
    ])
    def test_failed_cache_read_sends_the_request(self, tmp_path, caplog, error):
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend, cache=FailingCache(tmp_path, error, "get"))
        with caplog.at_level(logging.WARNING, logger="graphreason.client"):
            result = complete(client, request())
        assert result == "pong"
        assert (backend.calls, client.stats.cache_hits) == (1, 0)
        assert caplog.text.count("cache read failed") == 1
        # The read failed, not the store: the completion is still written.
        assert ResponseCache(tmp_path).get([cache_key(request())]) == {cache_key(request()): "pong"}

    @pytest.mark.parametrize("value", NOT_UTF8_TEXT)
    def test_a_row_that_is_not_utf8_text_is_a_miss_that_the_reply_replaces(
        self, tmp_path, caplog, value
    ):
        ResponseCache(tmp_path).put({cache_key(request()): "stored"})
        assert corrupt_store(tmp_path, value) == 1
        backend = MockBackend(default="pong")
        client = no_sleep_client(backend, cache=ResponseCache(tmp_path))
        with caplog.at_level(logging.WARNING, logger="graphreason.client"):
            result = complete(client, request())
        assert result == "pong"
        assert (backend.calls, client.stats.cache_hits) == (1, 0)
        assert caplog.text.count("cache read failed") == 1
        assert f"the entry for {cache_key(request())} is not UTF-8 text" in caplog.text
        assert ResponseCache(tmp_path).get([cache_key(request())]) == {cache_key(request()): "pong"}

    def test_retry_then_success(self):
        backend = MockBackend(default="ok")
        fail_first_attempts(backend, 2)
        client = no_sleep_client(backend)
        result = complete(client, request())
        assert result == "ok"
        assert backend.calls == 3
        assert client.stats.retries == 2

    def test_transport_exhaustion(self):
        backend = MockBackend(default="ok")
        fail_first_attempts(backend, 99)
        client = no_sleep_client(backend, max_attempts=4)
        with pytest.raises(TransportExhaustedError) as err:
            complete(client, request())
        assert err.value.attempts == 4
        assert backend.calls == 4

    def test_auth_error_never_retried(self):
        backend = MockBackend(default="ok")
        queue_failures(backend, AuthError("nope"))
        client = no_sleep_client(backend)
        with pytest.raises(AuthError):
            complete(client, request())
        assert backend.calls == 1

    def test_protocol_error_never_retried(self):
        backend = MockBackend(default="ok")
        queue_failures(backend, ProtocolError("garbled"))
        client = no_sleep_client(backend)
        with pytest.raises(ProtocolError):
            complete(client, request())
        assert backend.calls == 1

    def test_backoff_schedule_with_jitter(self):
        delays = []
        backend = MockBackend(default="ok")
        fail_first_attempts(backend, 3)
        client = ChatClient(backend, sleep=delays.append, max_attempts=4)
        complete(client, request())
        assert len(delays) == 3
        for n, delay in enumerate(delays):
            nominal = 2**n
            assert 0.8 * nominal <= delay <= 1.2 * nominal


class TestSampling:
    def test_index_ordered_texts(self):
        backend = MockBackend({"Question:": ["r0", "r1", "r2"]})
        client = no_sleep_client(backend)
        samples = sample_round(client, "what?", CONFIG)
        assert samples == ["r0", "r1", "r2"]

    def test_partial_failure_keeps_indices(self):
        def responder(req):
            if req.sample_index == 1:
                raise ProtocolError("boom")
            return f"text-{req.sample_index}"

        client = no_sleep_client(MockBackend(responder=responder))
        samples = sample_round(client, "what?", CONFIG)
        assert [samples[0], samples[2]] == ["text-0", "text-2"]
        assert isinstance(samples[1], ProtocolError) and str(samples[1]) == "boom"
        assert all_failed_detail(samples) is None

    def test_all_failed_raises(self):
        # The all-failed detail is what the sample command reports before exiting 1.
        def responder(req):
            raise ProtocolError("boom")

        client = no_sleep_client(MockBackend(responder=responder))
        samples = sample_round(client, "what?", CONFIG)
        assert all(isinstance(sample, ProtocolError) for sample in samples)
        assert all_failed_detail(samples) == "all 3 samples failed: boom; boom; boom"

    def test_gather_returns_a_fully_failed_round(self):
        def responder(req):
            raise ProtocolError(f"boom {req.sample_index}")

        client = no_sleep_client(MockBackend(responder=responder))
        samples = sample_round(client, "what?", CONFIG)
        assert [type(sample) for sample in samples] == [ProtocolError] * 3
        assert all_failed_detail(samples) == "all 3 samples failed: boom 0; boom 1; boom 2"
        assert all_failed_detail(["text", ProtocolError("boom")]) is None

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
    @pytest.mark.parametrize("endpoint", ["", " \t"])
    def test_blank_endpoint_is_refused(self, endpoint):
        with pytest.raises(ValueError, match="^endpoint must be non-empty$"):
            HttpBackend(endpoint, session=_FakeSession(_FakeResponse(200, GOOD_BODY)))

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


class _RaisingSession:
    def __init__(self, error: Exception):
        self.error = error

    def post(self, url, json=None, headers=None, timeout=None):
        raise self.error


class TestHttpBackendTransportErrors:
    """``requests``' own exceptions map onto the client's retry policy."""

    @pytest.mark.parametrize("name,exc", [
        ("Timeout", TransientError), ("ConnectTimeout", TransientError),
        ("ConnectionError", TransientError), ("ChunkedEncodingError", TransientError),
        ("InvalidURL", ProtocolError),
    ])
    def test_requests_exception_mapping(self, monkeypatch, name, exc):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        error = getattr(requests.exceptions, name)("scripted")
        backend = HttpBackend("http://example.invalid/v1/chat", session=_RaisingSession(error))
        with pytest.raises(exc) as caught:
            backend.send(request())
        assert caught.value.__cause__ is error


class _NoJitter(random.Random):
    """Draws the midpoint of every range, so each backoff delay is its nominal value."""

    def random(self):
        return 0.5


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
            rng=_NoJitter(),
        )
        result = complete(client, request())
        assert result == "hi there"
        assert session.responses == []
        assert (client.stats.requests_attempted, client.stats.retries) == (2, 1)
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
            complete(client, request())
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
        assert samples == ["a", "b"]
        assert complete(client, request("unmatched")) == "fallthrough"

    @pytest.mark.parametrize(
        "body,problem",
        [
            ("{not json", "invalid JSON"),
            ("[]", "expected an object"),
            ('{"replies": ["a"]}', "field 'replies' must be an object"),
            ('{"replies": null}', "field 'replies' must be an object"),
            ('{"replies": {"q": 3}}', "field 'replies[q]' must be a string"),
            ('{"replies": {"q": []}}', "field 'replies[q]' must be a string"),
            ('{"default": 7}', "field 'default' must be a string"),
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
            complete(client, request("other"))
