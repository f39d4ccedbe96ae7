"""Chat-completion client: HTTP transport, caching, retries, concurrency.

The wire protocol is the common JSON chat shape: POST a ``model`` +
``messages`` payload, read ``choices[0].message.content`` back, so any
compatible server works. Credentials travel only through an
environment variable, never through flags or config files. A mock
backend with the same interface supports tests and offline runs.

Every caller (a sample round, an eval item, a merge's next request)
sends through ``ChatClient.replies``, which hands each job its replies
in job order. The calling thread reads the store a batch of jobs at a
time and writes it before it waits; the client's sender threads only
send. A reply has one type from here to every caller: the completion
text, or the ClientError its request raised.
"""
from __future__ import annotations

import json
import logging
import math
import os
import queue
import random
import threading
import time
import weakref
from collections import deque
from itertools import islice
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Protocol, Sequence, TypeVar,
)

from ._io import Fields, check_non_empty, read_json

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.9
DEFAULT_K = 5
DEFAULT_MAX_NEW_TOKENS = 1024
DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_CONCURRENCY = 8
DEFAULT_CREDENTIAL_ENV = "GRAPHREASON_API_KEY"
# Seconds an HTTP send waits to connect, and then between bytes of the reply.
REQUEST_TIMEOUT = 60.0
# Longest server-requested wait (Retry-After), in seconds, that a client
# sleeps before a retry; a longer one fails the request at once.
MAX_RETRY_AFTER = 120.0
# Each backoff delay is scaled by a factor drawn from [1 - this, 1 + this].
BACKOFF_JITTER = 0.2
# Jobs that ChatClient.replies requests ahead, per concurrency slot. A deep
# window keeps the senders busy while the caller parses, and reads the store
# once for many keys. On 2 cores at concurrency 2, a cold self-graph eval of
# 600 items (perfbench eval-score's set-up) took 1.0 of its CPU time at 4
# jobs per slot, 0.85 at 16 and about 0.80 to 0.83 at 64.
LOOKAHEAD_PER_SLOT = 64
# SQLite page cache of an open ResponseCache, in KiB. A run writes each
# completion once and reads it about once, so cached leaf pages are almost
# never read again; this holds the B-tree's upper levels, where SQLite's
# default is 2 MiB.
STORE_PAGE_CACHE_KIB = 256
# Keys that one store query binds. SQLite before 3.32 allows 999 variables
# in a statement, and Python 3.10 cannot ask a connection for its limit.
STORE_KEYS_PER_QUERY = 500

T = TypeVar("T")


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


def check_at_least_one(name: str, value: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_temperature(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` lies in [0, 2]."""
    if not 0.0 <= value <= 2.0:
        raise ValueError(f"{name} out of range [0, 2]: {value}")


@dataclass
class SamplingConfig:
    model_name: str
    temperature: float = DEFAULT_TEMPERATURE
    k: int = DEFAULT_K
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    seed: int | None = None

    def __post_init__(self) -> None:
        check_non_empty("model_name", self.model_name)
        check_temperature("temperature", self.temperature)
        check_at_least_one("k", self.k)
        check_at_least_one("max_new_tokens", self.max_new_tokens)


@dataclass
class CompletionRequest:
    system_prompt: str
    user_prompt: str
    config: SamplingConfig
    # Distinguishes sibling samples of one question in the cache and in
    # scripted mocks; not part of the wire payload.
    sample_index: int | None = None

    def __post_init__(self) -> None:
        check_non_empty("user_prompt", self.user_prompt)


def all_failed_detail(replies: Sequence[str | ClientError]) -> str | None:
    """Why every reply failed, or None when at least one came back."""
    if any(isinstance(reply, str) for reply in replies):
        return None
    return f"all {len(replies)} samples failed: " + "; ".join(map(str, replies))


def _json_scalar(value: object) -> str:
    """``json.dumps(value, ensure_ascii=False)`` for one value, without building an encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value, ensure_ascii=False)


def cache_key(request: CompletionRequest) -> str:
    """Content hash identifying a completion request.

    The hashed bytes are those of ``json.dumps(payload, sort_keys=True,
    ensure_ascii=False)``, so every store written so far is still read
    warm. They are written here field by field, in key order, because
    ``json.dumps`` builds a new ``JSONEncoder`` on each call that passes
    a non-default option, and even a reused encoder makes a C encoder and
    sorts the payload on each ``encode``: either way a warm request pays
    about twice what the f-string costs.
    """
    config = request.config
    blob = (
        f'{{"max_new_tokens": {_json_scalar(config.max_new_tokens)}, '
        f'"model": {_json_scalar(config.model_name)}, '
        f'"sample_index": {_json_scalar(request.sample_index)}, '
        f'"seed": {_json_scalar(config.seed)}, '
        f'"system": {_json_scalar(request.system_prompt)}, '
        f'"temperature": {_json_scalar(config.temperature)}, '
        f'"user": {_json_scalar(request.user_prompt)}}}'
    )
    import hashlib  # loaded by the first cached run; later calls find it in sys.modules

    # Surrogates pass through, as in ResponseCache, so a lone one in a
    # prompt is a key like any other; every other text keeps its bytes.
    return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()


class ResponseCache:
    """Content-addressed store of completion texts in one SQLite file.

    The file is ``<root>/completions.sqlite3``; a directory in the older
    one-file-per-completion layout is not read, so its completions are
    requested again. ``get`` reads a batch of keys and ``put`` writes a
    batch of completions in one transaction, so a crashed writer never
    leaves a torn entry and another store on the same directory sees
    every finished put at once. Concurrent runs may share the file on a
    local disk but not on a network file system: the write-ahead log
    needs shared memory. Texts are stored as UTF-8 with surrogates
    passed through, so any ``str`` round-trips unchanged. A lock
    serializes the round-trips of threads that share a store, whose one
    connection closes when the store is collected.

    An open store holds at most ``STORE_PAGE_CACHE_KIB`` (256 KiB) of
    SQLite pages, so a lookup in a larger store may read its pages from
    the operating system's file cache.

    The store is the one user of ``sqlite3``, which loads when the first
    store is built. A root that cannot be made a directory, or a file
    that cannot be opened as a store, raises ValueError naming it;
    ``errors`` holds the exception types that ``get`` and ``put`` raise
    when the store fails. A row that is not UTF-8 text, which ``put``
    never writes, is logged and left out of what ``get`` returns: a
    miss for that key alone, whose fresh completion then replaces it.
    """

    FILENAME = "completions.sqlite3"

    def __init__(self, root: str | Path) -> None:
        import sqlite3

        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ValueError(f"{self.root}: cannot be made a directory ({err.strerror})") from None
        self.errors: tuple[type[Exception], ...] = (sqlite3.Error, OSError)
        self._lock = threading.Lock()
        path = self.root / self.FILENAME
        try:
            # A put's first INSERT opens its transaction, which put's with-block ends.
            self._db = sqlite3.connect(path, check_same_thread=False)
            # Connections sit in reference cycles; close this one as soon as the store goes.
            weakref.finalize(self, self._db.close)
            self._db.execute("PRAGMA journal_mode=WAL")
            # Syncs only at checkpoints: a power loss may drop the last puts but never tears one.
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(f"PRAGMA cache_size=-{STORE_PAGE_CACHE_KIB}")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS completions "
                "(key TEXT PRIMARY KEY, text BLOB NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.Error as err:
            raise ValueError(f"{path}: {err}") from None

    def get(self, keys: Sequence[str]) -> dict[str, str]:
        """The stored text of each of ``keys`` that has one, read in one query per 500 keys."""
        rows: list[tuple[str, object]] = []
        with self._lock:
            for start in range(0, len(keys), STORE_KEYS_PER_QUERY):
                chunk = keys[start:start + STORE_KEYS_PER_QUERY]
                marks = ",".join("?" * len(chunk))
                query = f"SELECT key, text FROM completions WHERE key IN ({marks})"
                rows += self._db.execute(query, chunk).fetchall()
        texts = {}
        for key, value in rows:
            try:
                texts[key] = value.decode("utf-8", "surrogatepass")
            except (AttributeError, UnicodeDecodeError):
                # put writes only UTF-8 bytes, so a TEXT or number value, or bytes
                # that are not UTF-8, were damaged or written by another program.
                log.warning("cache read failed, requesting the completion: %s: the entry for %s "
                            "is not UTF-8 text", self.root / self.FILENAME, key)
        return texts

    def put(self, rows: Mapping[str, str]) -> None:
        """Store each key's text, replacing what the key held, in one transaction."""
        blobs = [(key, text.encode("utf-8", "surrogatepass")) for key, text in rows.items()]
        with self._lock, self._db:
            self._db.executemany("INSERT OR REPLACE INTO completions VALUES (?, ?)", blobs)


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
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


class HttpBackend:
    """POSTs chat payloads to one endpoint with a Bearer credential.

    ``requests`` is imported when the first backend is built, so a run
    that never sends over HTTP (offline commands, ``--mock`` runs, the
    reward functions) never loads the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        credential_env: str = DEFAULT_CREDENTIAL_ENV,
        session: requests.Session | None = None,
    ) -> None:
        check_non_empty("endpoint", endpoint)
        # Imported on the caller's thread, so no sender thread runs an
        # import; send's except clauses read the module from the instance.
        import requests

        self._requests = requests
        self.endpoint = endpoint
        self.credential_env = credential_env
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
                timeout=REQUEST_TIMEOUT,
            )
        except self._requests.Timeout as err:
            raise TransientError(f"request timed out: {err}") from err
        except (
            self._requests.ConnectionError, self._requests.exceptions.ChunkedEncodingError
        ) as err:
            # A body cut off mid-read is as retryable as a connection never made.
            raise TransientError(f"connection failed: {err}") from err
        except self._requests.RequestException as err:
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
    request's sample_index so sibling samples differ), then ``default``;
    a raising ``responder`` scripts failures. Thread-safe; tracks call
    and concurrency watermarks for instrumentation.
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

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Load ``{"replies": {fragment: reply or [replies]}, "default": reply}``.

        Both keys are optional. A missing file, or one that is not such an
        object, raises ValueError naming the file and any field at fault.
        """
        if not Path(path).is_file():
            raise ValueError(f"{path}: no such file")
        record = Fields(read_json(path), str(path))
        replies = record.object("replies") if "replies" in record.raw else Fields({}, record.where)
        for fragment, value in replies.raw.items():
            if isinstance(value, list) and value:
                replies.texts(fragment)
            else:
                replies.text(fragment)
        default = None if record.raw.get("default") is None else record.text("default")
        return cls(replies.raw, default=default)

    def send(self, request: CompletionRequest) -> str:
        with self._lock:
            self.calls += 1
            self._concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self._concurrent)
        try:
            if self.delay:
                time.sleep(self.delay)
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


class _Send:
    """One request handed to the sender threads, and its outcome once a sender sets it.

    ``outcome`` is the text ``send`` returned or the exception it raised.
    ``_pending`` is held from the send's making until its outcome is set,
    so waiting on it is one acquire.
    """

    __slots__ = ("send", "request", "outcome", "_pending")

    def __init__(
        self, send: Callable[[CompletionRequest], str], request: CompletionRequest
    ) -> None:
        self.send = send
        self.request = request
        self.outcome: str | BaseException | None = None
        self._pending = threading.Lock()
        self._pending.acquire()

    def run(self) -> None:
        try:
            self.outcome = self.send(self.request)
        except BaseException as err:
            # Handed to the caller, who raises any that is not a ClientError.
            self.outcome = err
        self._pending.release()

    def done(self) -> bool:
        return not self._pending.locked()

    def wait(self) -> str | BaseException:
        """The outcome, once it is set; a send shared by several jobs is waited on by each."""
        with self._pending:
            return self.outcome


def _serve(sends: queue.SimpleQueue[_Send | None], unclaimed: set[_Send]) -> None:
    """A sender thread: run each send it claims from ``unclaimed`` until a stop (None).

    A claim and a cancel each remove the send from ``unclaimed`` in one
    call, so a send is either run by one sender or cancelled, never both.
    """
    while (send := sends.get()) is not None:
        try:
            unclaimed.remove(send)
        except KeyError:
            pass
        else:
            send.run()
        # Between sends the thread holds none, and so not the client a send holds.
        del send


def _stop_senders(sends: queue.SimpleQueue[_Send | None], senders: list[threading.Thread]) -> None:
    for _ in senders:
        sends.put(None)


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
    +/- ``BACKOFF_JITTER``, never shorter than a server's Retry-After) up to
    ``max_attempts``; a Retry-After over ``MAX_RETRY_AFTER`` seconds
    gives up at once, and auth and protocol failures propagate
    immediately.

    Each client owns up to ``concurrency`` sender threads, started on
    demand, which take sends from one queue; they are the one bound on
    in-flight backend sends. ``close`` (or leaving a ``with`` block), or
    collecting the client, stops each thread once the sends queued before
    it are done. The threads are daemons, so the interpreter does not
    wait at exit for a send whose reply nothing will read. A send, its
    backoff sleeps and its retries run on one thread, so a backoff holds
    its slot and a retry goes out as soon as its backoff ends. Every
    caller (``build_dataset``, ``evaluate``, the ``sample`` and ``merge``
    commands) sends through ``replies``, so ``concurrency`` is the one
    parallelism setting. ``replies`` keeps ``lookahead`` (64 per slot)
    jobs ahead, so the senders stay busy while the caller parses; it
    reads and writes the store on the caller's thread, writing before it
    waits on a send, and the sender threads only send.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        cache: ResponseCache | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 1.0,
        concurrency: int = DEFAULT_CONCURRENCY,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        check_at_least_one("max_attempts", max_attempts)
        check_at_least_one("concurrency", concurrency)
        self.backend = backend
        self.cache = cache
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.concurrency = concurrency
        self.lookahead = LOOKAHEAD_PER_SLOT * concurrency
        self.stats = ClientStats()
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        self._in_flight_now = 0
        # The sender threads hold these two and never the client; a queued
        # send holds the client, so it is only collected once idle.
        self._queue: queue.SimpleQueue[_Send | None] = queue.SimpleQueue()
        self._unclaimed: set[_Send] = set()
        self._senders: list[threading.Thread] = []
        self._shutdown = weakref.finalize(self, _stop_senders, self._queue, self._senders)

    def close(self) -> None:
        """Let the sender threads exit once the sends queued so far are done; idempotent."""
        self._shutdown()

    def __enter__(self) -> ChatClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _in_flight(self) -> Iterator[None]:
        with self._lock:
            self._in_flight_now += 1
            self.stats.max_in_flight = max(self.stats.max_in_flight, self._in_flight_now)
        try:
            yield
        finally:
            with self._lock:
                self._in_flight_now -= 1

    def _backoff_delay(self, attempt: int) -> float:
        jitter = 1.0 + self._rng.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)
        return self.backoff_base * (2 ** (attempt - 1)) * jitter

    def _send(self, request: CompletionRequest) -> str:
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
        with self._lock:
            self.stats.completions += 1
        return text

    def _submit(self, request: CompletionRequest) -> _Send:
        """Queue ``request`` for a sender; start a sender while fewer than ``concurrency`` run."""
        if not self._shutdown.alive:
            raise RuntimeError("cannot send through a closed client")
        send = _Send(self._send, request)
        self._unclaimed.add(send)
        self._queue.put(send)
        if len(self._senders) < self.concurrency:
            sender = threading.Thread(
                target=_serve, args=(self._queue, self._unclaimed),
                name=f"graphreason-client_{len(self._senders)}", daemon=True,
            )
            sender.start()
            self._senders.append(sender)
        return send

    def replies(
        self, jobs: Iterable[T], requests_of: Callable[[T], Sequence[CompletionRequest]]
    ) -> Iterator[tuple[T, list[str | ClientError]]]:
        """Yield each job with its replies in job order: per request, its text or ClientError.

        Jobs are taken ``lookahead`` at a time, with one store read per
        batch, and a job's misses are sent when it enters the window, up
        to ``lookahead`` jobs ahead. With a store, a job that repeats a
        request sent earlier in the window, or answered since the batch's
        store read, shares that send's reply instead of sending it again.
        This thread writes the completions handed out in one transaction,
        at the start of each batch and before it waits on a reply that has
        not come back. Closing the window, even on an error, writes every
        completion received and cancels the sends not yet started; it does
        not wait for those in flight.
        """
        window: deque[tuple[T, list[str | None], list[str | _Send]]] = deque()
        fresh: dict[str, str] = {}
        sending: dict[str, _Send] = {}
        jobs = iter(jobs)
        try:
            while batch := [(job, requests_of(job)) for job in islice(jobs, self.lookahead)]:
                self._write(fresh)
                if self.cache:
                    # The sends still in the window; those handed out are in the store now.
                    sending = {key: slot for _, job_keys, slots in window
                               for key, slot in zip(job_keys, slots) if isinstance(slot, _Send)}
                keys = [[cache_key(r) for r in requests] if self.cache else [None] * len(requests)
                        for _, requests in batch]
                stored = self._read([key for job_keys in keys for key in job_keys])
                hits = sum(key in stored for job_keys in keys for key in job_keys)
                with self._lock:
                    self.stats.cache_hits += hits
                    self.stats.completions += hits
                for (job, requests), job_keys in zip(batch, keys):
                    slots: list[str | _Send] = []
                    for request, key in zip(requests, job_keys):
                        slot = stored.get(key, sending.get(key))
                        if slot is None:
                            slot = self._submit(request)
                            if key:
                                sending[key] = slot
                        slots.append(slot)
                    window.append((job, job_keys, slots))
                    if len(window) > self.lookahead:
                        yield self._hand_out(window, fresh)
            while window:
                yield self._hand_out(window, fresh)
        finally:
            for _, job_keys, slots in window:
                for key, slot in zip(job_keys, slots):
                    if isinstance(slot, _Send):
                        # A send no sender has claimed is cancelled; one claimed is not waited for.
                        self._unclaimed.discard(slot)
                        if key and slot.done() and not isinstance(slot.outcome, BaseException):
                            fresh[key] = slot.outcome
            self._write(fresh)

    def _hand_out(self, window: deque, fresh: dict[str, str]) -> tuple[T, list[str | ClientError]]:
        """Take the first job from the window with its replies; its completions join ``fresh``.

        ``fresh`` is written before a wait on a reply that has not come back.
        """
        job, keys, slots = window[0]
        replies: list[str | ClientError] = []
        for key, slot in zip(keys, slots):
            if isinstance(slot, _Send):
                if not slot.done():
                    self._write(fresh)
                slot = slot.wait()
                if isinstance(slot, BaseException):
                    if not isinstance(slot, ClientError):
                        raise slot
                elif key:
                    fresh[key] = slot
            replies.append(slot)
        window.popleft()
        return job, replies

    def _read(self, keys: list[str | None]) -> dict[str, str]:
        """The stored texts of ``keys``; a failed read is a miss for each of them."""
        if self.cache is None or not keys:
            return {}
        try:
            return self.cache.get(keys)
        except self.cache.errors as err:
            log.warning("cache read failed, requesting the completions: %s", err)
            return {}

    def _write(self, fresh: dict[str, str]) -> None:
        """Store ``fresh`` and empty it; a failed write keeps the completions."""
        if fresh:
            try:
                self.cache.put(fresh)
            except self.cache.errors as err:
                log.warning("cache write failed, %d completions kept uncached: %s", len(fresh), err)
            fresh.clear()
