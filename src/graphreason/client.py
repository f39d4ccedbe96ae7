"""Chat-completion client: HTTP transport, caching, retries, concurrency.

The wire protocol is the common JSON chat shape: POST a ``model`` +
``messages`` payload, read ``choices[0].message.content`` back, so any
compatible server works. Credentials travel only through an
environment variable, never through flags or config files. A mock
backend with the same interface supports tests and offline runs.
Every caller sends through the client's one executor, sized by
``concurrency``: ``submit`` starts one completion, and
``gather_trajectories`` collects the k sample futures of a question
(``pipeline.trajectory_requests`` builds their requests).
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import sqlite3
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TypeVar

import requests

from ._io import read_json

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.9
DEFAULT_K = 5
DEFAULT_MAX_NEW_TOKENS = 1024
DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_CONCURRENCY = 8
DEFAULT_CREDENTIAL_ENV = "GRAPHREASON_API_KEY"
DEFAULT_TIMEOUT = 60.0
# Longest server-requested wait (Retry-After), in seconds, that a client
# sleeps before a retry; a longer one fails the request at once.
MAX_RETRY_AFTER = 120.0
# Executor threads per concurrency slot: a send holds a slot, while backoff
# sleeps and cache writes run on a thread without one.
THREADS_PER_SLOT = 2
# Items that batch callers (build, eval) submit ahead, per concurrency slot.
LOOKAHEAD_PER_SLOT = 4

T = TypeVar("T")
S = TypeVar("S")


class ClientError(Exception):
    """Base for completion failures."""


class AuthError(ClientError):
    """Missing or rejected credential; never retried."""


class ProtocolError(ClientError):
    """The server replied with something that is not a completion."""


class TransientError(ClientError):
    """Retryable condition: timeout, connection drop, 429 or 5xx.

    ``retry_after`` is the server's requested wait in seconds, when it
    sent one; the client never retries sooner.
    """

    def __init__(
        self, message: str, status: int | None = None, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class TransportExhaustedError(ClientError):
    """Every allowed attempt failed with a transient condition."""

    def __init__(self, message: str, attempts: int, last: TransientError) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last = last


@dataclass
class SamplingConfig:
    model_name: str
    temperature: float = DEFAULT_TEMPERATURE
    k: int = DEFAULT_K
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.model_name:
            raise ValueError("model_name must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range [0, 2]: {self.temperature}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


@dataclass
class CompletionRequest:
    system_prompt: str
    user_prompt: str
    config: SamplingConfig
    # Distinguishes sibling samples of one question in the cache and in
    # scripted mocks; not part of the wire payload.
    sample_index: int | None = None

    def __post_init__(self) -> None:
        if not self.user_prompt:
            raise ValueError("user_prompt must be non-empty")


@dataclass
class CompletionResult:
    text: str
    cached: bool
    attempt_count: int
    latency: float


@dataclass
class TrajectorySamples:
    """Index-aligned sampling outcome: texts[i] is None where errors[i] says why."""

    texts: list[str | None]
    errors: dict[int, str]

    def successful(self) -> list[tuple[int, str]]:
        return [(i, t) for i, t in enumerate(self.texts) if t is not None]

    def all_failed_detail(self) -> str | None:
        """Why every sample failed, or None when at least one came back."""
        if len(self.errors) < len(self.texts):
            return None
        return f"all {len(self.texts)} samples failed: " + "; ".join(self.errors.values())


def gather_trajectories(futures: Sequence[Future]) -> TrajectorySamples:
    """Wait for one question's sample futures and collect them by index.

    Failures are reported per index, even when every sample failed.
    """
    texts: list[str | None] = [None] * len(futures)
    errors: dict[int, str] = {}
    for i, future in enumerate(futures):
        try:
            texts[i] = future.result().text
        except ClientError as err:
            errors[i] = str(err)
            log.warning("sample %d/%d failed: %s", i + 1, len(futures), err)
    return TrajectorySamples(texts=texts, errors=errors)


def cache_key(request: CompletionRequest) -> str:
    """Content hash identifying a completion request."""
    payload = {
        "model": request.config.model_name,
        "system": request.system_prompt,
        "user": request.user_prompt,
        "temperature": request.config.temperature,
        "seed": request.config.seed,
        "max_new_tokens": request.config.max_new_tokens,
        "sample_index": request.sample_index,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed store of completion texts in one SQLite file.

    The file is ``<root>/completions.sqlite3``; a directory in the older
    one-file-per-completion layout is not read, so its completions are
    requested again. Each put commits on its own, so a crashed writer
    never leaves a torn entry and another store on the same directory
    sees every finished put at once. Concurrent runs may share the file
    on a local disk but not on a network file system: the write-ahead
    log needs shared memory. Texts are stored as UTF-8 with surrogates
    passed through, so any ``str`` round-trips unchanged. The store's
    one connection is shared by the caller's thread (``get``) and the
    executor's (``put``), and closes when the store is collected.
    """

    FILENAME = "completions.sqlite3"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(
            self.root / self.FILENAME, check_same_thread=False, isolation_level=None
        )
        # Connections sit in reference cycles; close this one as soon as the store goes.
        weakref.finalize(self, self._db.close)
        self._lock = threading.Lock()
        self._db.execute("PRAGMA journal_mode=WAL")
        # Syncs only at checkpoints: a power loss may drop the last puts but never tears one.
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS completions "
            "(key TEXT PRIMARY KEY, text BLOB NOT NULL) WITHOUT ROWID"
        )

    def get(self, key: str) -> str | None:
        with self._lock:
            row = self._db.execute("SELECT text FROM completions WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0].decode("utf-8", "surrogatepass")

    def put(self, key: str, text: str) -> None:
        blob = text.encode("utf-8", "surrogatepass")
        with self._lock:
            self._db.execute("INSERT OR REPLACE INTO completions VALUES (?, ?)", (key, blob))


class Backend(Protocol):
    def send(self, request: CompletionRequest) -> str: ...


def parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a Retry-After header (delta-seconds or HTTP date).

    None when the header is absent or unreadable; a date in the past
    reads 0.
    """
    if not value:
        return None
    value = value.strip()
    # isdigit alone admits non-ASCII digits, such as a superscript two, that float() rejects.
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


class HttpBackend:
    """POSTs chat payloads to one endpoint with a Bearer credential."""

    def __init__(
        self,
        endpoint: str,
        credential_env: str = DEFAULT_CREDENTIAL_ENV,
        timeout: float = DEFAULT_TIMEOUT,
        session: requests.Session | None = None,
    ) -> None:
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.credential_env = credential_env
        self.timeout = timeout
        self._session = session or requests.Session()

    def payload(self, request: CompletionRequest) -> dict:
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.append({"role": "user", "content": request.user_prompt})
        body = {
            "model": request.config.model_name,
            "messages": messages,
            "temperature": request.config.temperature,
            "max_tokens": request.config.max_new_tokens,
        }
        if request.config.seed is not None:
            body["seed"] = request.config.seed
        return body

    def send(self, request: CompletionRequest) -> str:
        credential = os.environ.get(self.credential_env)
        if not credential:
            # Checked before any socket is opened.
            raise AuthError(f"credential env var {self.credential_env!r} is not set")
        try:
            response = self._session.post(
                self.endpoint,
                json=self.payload(request),
                headers={"Authorization": f"Bearer {credential}"},
                timeout=self.timeout,
            )
        except requests.Timeout as err:
            raise TransientError(f"request timed out: {err}") from err
        except requests.ConnectionError as err:
            raise TransientError(f"connection failed: {err}") from err
        except requests.RequestException as err:
            raise ProtocolError(f"request failed: {err}") from err

        status = response.status_code
        if status in (401, 403):
            raise AuthError(f"credential rejected with HTTP {status}")
        if status == 429 or status >= 500:
            retry_after = None
            if status == 429:
                retry_after = parse_retry_after(response.headers.get("Retry-After"))
            raise TransientError(
                f"retryable HTTP status {status}", status=status, retry_after=retry_after
            )
        if not 200 <= status < 300:
            raise ProtocolError(f"unexpected HTTP status {status}")
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProtocolError(f"malformed completion body: {err}") from err
        if not isinstance(text, str):
            raise ProtocolError("completion content is not a string")
        return text


class MockBackend:
    """Scripted in-process backend for tests and offline runs.

    Reply resolution order: explicit ``responder`` callable, substring
    matches against the user prompt (list values are picked by the
    request's sample_index so sibling samples differ), then ``default``.
    ``fail_first_attempts`` makes the first n sends of every distinct
    request raise, which exercises retry paths;
    ``queue_failures`` injects globally ordered failures. Thread-safe;
    tracks call and concurrency watermarks for instrumentation.
    """

    def __init__(
        self,
        replies: dict[str, str | list[str]] | None = None,
        *,
        default: str | None = None,
        responder: Callable[[CompletionRequest], str] | None = None,
        delay: float = 0.0,
    ) -> None:
        self.replies = dict(replies or {})
        self.default = default
        self.responder = responder
        self.delay = delay
        self.calls = 0
        self.max_concurrent = 0
        self._concurrent = 0
        self._lock = threading.Lock()
        self._send_counts: dict[str, int] = {}
        self._fail_queue: list[ClientError] = []
        self._fail_first_n = 0
        self._fail_factory: Callable[[], ClientError] | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Load ``{"replies": {fragment: reply or [replies]}, "default": reply}``.

        Both keys are optional. A missing file, or one that is not such an
        object, raises ValueError naming the file.
        """
        if not Path(path).is_file():
            raise ValueError(f"{path}: no such file")
        data, problem = read_json(path)
        if problem is not None:
            raise ValueError(f"{path}: {problem}")
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        replies = data.get("replies", {})
        if not isinstance(replies, dict):
            raise ValueError(f"{path}: replies must be an object")
        for fragment, value in replies.items():
            texts = value if isinstance(value, list) else [value]
            if not texts or not all(isinstance(text, str) for text in texts):
                raise ValueError(
                    f"{path}: reply for {fragment!r} must be a string or a non-empty list of strings"
                )
        default = data.get("default")
        if default is not None and not isinstance(default, str):
            raise ValueError(f"{path}: default must be a string or null")
        return cls(replies, default=default)

    def fail_first_attempts(self, n: int, factory: Callable[[], ClientError] | None = None) -> None:
        self._fail_first_n = n
        self._fail_factory = factory or (lambda: TransientError("scripted 429", status=429))

    def queue_failures(self, *errors: ClientError) -> None:
        self._fail_queue.extend(errors)

    def send(self, request: CompletionRequest) -> str:
        with self._lock:
            self.calls += 1
            self._concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self._concurrent)
        try:
            if self.delay:
                time.sleep(self.delay)
            with self._lock:
                if self._fail_queue:
                    raise self._fail_queue.pop(0)
                if self._fail_factory is not None:
                    key = cache_key(request)
                    count = self._send_counts.get(key, 0) + 1
                    self._send_counts[key] = count
                    if count <= self._fail_first_n:
                        raise self._fail_factory()
            return self._resolve(request)
        finally:
            with self._lock:
                self._concurrent -= 1

    def _resolve(self, request: CompletionRequest) -> str:
        if self.responder is not None:
            return self.responder(request)
        for fragment, value in self.replies.items():
            if fragment in request.user_prompt:
                if isinstance(value, list):
                    index = request.sample_index or 0
                    return value[index % len(value)]
                return value
        if self.default is not None:
            return self.default
        raise ProtocolError(
            f"mock backend has no reply for prompt starting {request.user_prompt[:60]!r}"
        )


@dataclass
class ClientStats:
    """Instrumentation counters; max_in_flight observes the concurrency bound."""

    requests_attempted: int = 0
    completions: int = 0
    cache_hits: int = 0
    retries: int = 0
    max_in_flight: int = 0


class ChatClient:
    """Caching, retrying, concurrency-bounded completion front-end.

    Transient failures retry with exponential backoff (base * 2**n,
    +/- jitter, never shorter than a server's Retry-After) up to
    ``max_attempts``; a Retry-After over ``MAX_RETRY_AFTER`` seconds
    gives up at once, and auth and protocol failures propagate
    immediately.
    A semaphore shared by every caller keeps the number of in-flight
    backend sends at or under ``concurrency``.

    Each client owns one executor of ``THREADS_PER_SLOT * concurrency``
    threads, started on demand and stopped by ``close`` (or leaving a
    ``with`` block) or when the client is garbage-collected. ``submit``
    answers a cache hit in the caller and sends a miss from the
    executor. Every caller (``build_dataset``, ``evaluate``, the
    ``sample`` command) starts its sends through it, so ``concurrency``
    is the one parallelism setting. Hard rule: no executor task ever
    waits on a future of this client (``spawn`` tasks may call
    ``complete``, which waits only for the semaphore), so every task
    finishes and the executor cannot deadlock.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        cache: ResponseCache | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 1.0,
        backoff_jitter: float = 0.2,
        concurrency: int = DEFAULT_CONCURRENCY,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.backend = backend
        self.cache = cache
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_jitter = backoff_jitter
        self.concurrency = concurrency
        self.lookahead = LOOKAHEAD_PER_SLOT * concurrency
        self.stats = ClientStats()
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._semaphore = threading.Semaphore(concurrency)
        self._lock = threading.Lock()
        self._in_flight_now = 0
        self._executor = ThreadPoolExecutor(THREADS_PER_SLOT * concurrency, "graphreason-client")
        # Queued tasks hold the client, so it is only collected once idle.
        self._shutdown = weakref.finalize(self, self._executor.shutdown, wait=False)

    def close(self) -> None:
        """Let the executor's threads exit once queued work is done; idempotent."""
        self._shutdown()

    def __enter__(self) -> ChatClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _in_flight(self) -> Iterator[None]:
        self._semaphore.acquire()
        with self._lock:
            self._in_flight_now += 1
            self.stats.max_in_flight = max(self.stats.max_in_flight, self._in_flight_now)
        try:
            yield
        finally:
            with self._lock:
                self._in_flight_now -= 1
            self._semaphore.release()

    def _backoff_delay(self, attempt: int) -> float:
        jitter = 1.0 + self._rng.uniform(-self.backoff_jitter, self.backoff_jitter)
        return self.backoff_base * (2 ** (attempt - 1)) * jitter

    def _lookup(
        self, request: CompletionRequest, start: float
    ) -> tuple[str | None, CompletionResult | None]:
        """The request's cache key (None without a cache) and its cached result, if any."""
        if self.cache is None:
            return None, None
        key = cache_key(request)
        hit = self.cache.get(key)
        if hit is None:
            return key, None
        with self._lock:
            self.stats.cache_hits += 1
            self.stats.completions += 1
        return key, CompletionResult(hit, cached=True, attempt_count=1,
                                     latency=time.monotonic() - start)

    def _send(self, request: CompletionRequest, key: str | None, start: float) -> CompletionResult:
        attempt = 0
        while True:
            attempt += 1
            with self._lock:
                self.stats.requests_attempted += 1
            try:
                with self._in_flight():
                    text = self.backend.send(request)
                break
            except TransientError as err:
                if attempt >= self.max_attempts:
                    raise TransportExhaustedError(
                        f"gave up after {attempt} attempts: {err}", attempt, err
                    ) from err
                if err.retry_after is not None and err.retry_after > MAX_RETRY_AFTER:
                    raise TransportExhaustedError(
                        f"gave up after {attempt} attempts: server asked to wait "
                        f"{err.retry_after:.0f}s, over the {MAX_RETRY_AFTER:.0f}s limit",
                        attempt, err,
                    ) from err
                with self._lock:
                    self.stats.retries += 1
                delay = max(self._backoff_delay(attempt), err.retry_after or 0.0)
                log.warning(
                    "transient failure (%s); attempt %d/%d, retrying in %.2fs",
                    err, attempt, self.max_attempts, delay,
                )
                self._sleep(delay)

        if key is not None:
            try:
                self.cache.put(key, text)
            except (sqlite3.Error, OSError) as err:
                # The cache only saves work: a failed write keeps the completion.
                log.warning("cache write failed, completion kept uncached: %s", err)
        with self._lock:
            self.stats.completions += 1
        return CompletionResult(text, cached=False, attempt_count=attempt,
                                latency=time.monotonic() - start)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        """One completion in this thread; served from cache when an identical request was seen."""
        start = time.monotonic()
        key, hit = self._lookup(request, start)
        return hit if hit is not None else self._send(request, key, start)

    def submit(self, request: CompletionRequest) -> Future:
        """Start one completion; the future holds its CompletionResult or ClientError.

        A cache hit resolves here without a thread hop; a miss is sent
        from the executor.
        """
        start = time.monotonic()
        key, hit = self._lookup(request, start)
        if hit is None:
            return self._executor.submit(self._send, request, key, start)
        future: Future = Future()
        future.set_result(hit)
        return future

    def spawn(self, fn: Callable[..., T], /, *args, **kwargs) -> Future:
        """Run ``fn`` on the executor; it may call ``complete`` but must wait on no future."""
        return self._executor.submit(fn, *args, **kwargs)

    def ahead(self, jobs: Iterable[T], start: Callable[[T], S]) -> Iterator[tuple[T, S]]:
        """Yield (job, start(job)) in job order, starting up to ``lookahead`` jobs early.

        ``start`` submits a job's work and returns its futures, so the
        consumer can wait on one job while the next ones are in flight;
        the work in flight stays bounded however many jobs there are.
        """
        window: deque[tuple[T, S]] = deque()
        for job in jobs:
            window.append((job, start(job)))
            if len(window) > self.lookahead:
                yield window.popleft()
        while window:
            yield window.popleft()
