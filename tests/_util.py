"""Shared generators for randomized tests.

Graphs are built from an index skeleton where every edge points from a
lower to a higher index, which guarantees acyclicity by construction;
edge insertion order is then shuffled so tests never depend on a
convenient ordering. Node texts embed their index so normalized keys
are collision-free, and use only letters, digits and spaces so they are
expressible in the step grammar. ``fail_first_attempts`` and
``queue_failures`` script a mock backend's failures through a raising
responder; ``FailingCache`` is a response store whose reads or writes
fail; ``corrupt_store`` overwrites every row of a store with a value
that is not UTF-8 text, and ``stored_keys`` lists a store's keys;
``finish`` drives a step generator's pending requests through a client;
``close_and_join`` closes a client and waits for its sender threads;
``run_python`` runs a script, and ``run_cli`` the command line, in a
fresh interpreter; ``traced_peak`` measures the Python memory a call
allocates.
"""
from __future__ import annotations

import os
import random
import sqlite3
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

import graphreason
from graphreason.client import (
    ChatClient,
    ClientError,
    CompletionRequest,
    MockBackend,
    ResponseCache,
    TransientError,
    cache_key,
)
from graphreason.codec import StructuredOutput
from graphreason.graph import ReasoningGraph
from graphreason.merge import Pending

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu"
).split()


def node_texts(rng: random.Random, n: int, tag: str = "step") -> list[str]:
    return [f"{rng.choice(WORDS)} {rng.choice(WORDS)} {tag} {i}" for i in range(n)]


def random_edge_indices(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Spanning-tree skeleton plus extras; every node touches an edge."""
    edges = [(rng.randrange(j), j) for j in range(1, n)]
    seen = set(edges)
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        seen.add(pair)
        edges.append(pair)
    rng.shuffle(edges)
    return edges


def random_graph(
    rng: random.Random, min_nodes: int = 2, max_nodes: int = 50, tag: str = "step"
) -> ReasoningGraph:
    n = rng.randint(min_nodes, max_nodes)
    texts = node_texts(rng, n, tag)
    return ReasoningGraph.from_edges(
        (texts[parent], texts[child]) for parent, child in random_edge_indices(rng, n)
    )


def random_output(
    rng: random.Random, min_nodes: int = 2, max_nodes: int = 50, tag: str = "step"
) -> StructuredOutput:
    graph = random_graph(rng, min_nodes, max_nodes, tag)
    answer = f"option {rng.randint(0, 999)}"
    return StructuredOutput(graph, answer)


def random_candidate_output(
    rng: random.Random,
    pool: list[str],
    answer: str,
    min_nodes: int = 2,
    max_nodes: int = 8,
) -> StructuredOutput:
    """Candidate over a shared fact pool; unions across candidates may cycle."""
    n = rng.randint(min_nodes, min(max_nodes, len(pool)))
    chosen = rng.sample(pool, n)
    graph = ReasoningGraph.from_edges(
        (chosen[parent], chosen[child]) for parent, child in random_edge_indices(rng, n)
    )
    return StructuredOutput(graph, answer)


def _script_failures(
    backend: MockBackend, error_for: Callable[[CompletionRequest], ClientError | None]
) -> None:
    """Make ``backend`` raise ``error_for(request)`` when it is not None, else reply as before.

    ``backend.calls`` still counts every send, failed or not.
    """
    replier = MockBackend(backend.replies, default=backend.default, responder=backend.responder)

    def respond(request):
        error = error_for(request)
        if error is not None:
            raise error
        return replier.send(request)

    backend.responder = respond


def fail_first_attempts(
    backend: MockBackend, n: int, factory: Callable[[], ClientError] | None = None
) -> None:
    """The first ``n`` sends of every distinct request raise ``factory()``, a 429 by default."""
    factory = factory or (lambda: TransientError("scripted 429", status=429))
    sends: Counter = Counter()
    lock = threading.Lock()

    def error_for(request):
        key = cache_key(request)
        with lock:
            sends[key] += 1
            return factory() if sends[key] <= n else None

    _script_failures(backend, error_for)


def queue_failures(backend: MockBackend, *errors: ClientError) -> None:
    """The next sends, whatever their request, raise ``errors`` in order."""
    queue = list(errors)
    lock = threading.Lock()

    def error_for(request):
        with lock:
            return queue.pop(0) if queue else None

    _script_failures(backend, error_for)


def reply_to(client: ChatClient, request: CompletionRequest) -> str | ClientError:
    """One request's reply, text or ClientError, sent through ``client.replies``."""
    [(_, [reply])] = client.replies([request], lambda request: [request])
    return reply


def finish(outcome, client: ChatClient):
    """Send a pending item's requests through ``client`` until its outcome comes back."""
    while isinstance(outcome, Pending):
        outcome = outcome.resume(reply_to(client, outcome.request))
    return outcome


def close_and_join(client: ChatClient, before: set[threading.Thread]) -> None:
    """Close ``client`` and wait for its sender threads, those not in ``before``.

    Every send queued before the close is then done, so each one is received.
    """
    client.close()
    for thread in threading.enumerate():
        if thread not in before and thread.name.startswith("graphreason-client"):
            thread.join(timeout=10)
            assert not thread.is_alive()


class FailingCache(ResponseCache):
    """A store whose ``failing`` method, "get" or "put", always raises ``error``.

    As a corrupt file (on reads), a full disk or a long-held lock would.
    """

    def __init__(self, root, error: Exception, failing: str) -> None:
        super().__init__(root)
        self.error = error
        self.failing = failing

    def get(self, keys):
        if self.failing == "get":
            raise self.error
        return super().get(keys)

    def put(self, rows) -> None:
        if self.failing == "put":
            raise self.error
        super().put(rows)


# Row values that ResponseCache.put never writes, as parameters for corrupt_store.
NOT_UTF8_TEXT = (
    pytest.param(b"\xff bad", id="bytes"),
    pytest.param("a str value", id="text"),
    pytest.param(7, id="integer"),
)


def corrupt_store(root: str | Path, value: bytes | str | int) -> int:
    """Set every row of the store in ``root`` to ``value``; the number of rows set."""
    db = sqlite3.connect(Path(root) / ResponseCache.FILENAME, isolation_level=None)
    try:
        return db.execute("UPDATE completions SET text = ?", (value,)).rowcount
    finally:
        db.close()


def stored_keys(root: str | Path) -> set[str]:
    """The keys of every row of the store in ``root``."""
    db = sqlite3.connect(Path(root) / ResponseCache.FILENAME)
    try:
        return {key for (key,) in db.execute("SELECT key FROM completions")}
    finally:
        db.close()


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's graphreason."""
    return subprocess.run([sys.executable, "-c", script, *args], env=checkout_env(), check=True,
                          capture_output=True, text=True, timeout=120)


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``python -m graphreason.cli args`` from ``cwd`` in a fresh interpreter, any exit code."""
    return subprocess.run([sys.executable, "-m", "graphreason.cli", *args], cwd=cwd,
                          env=checkout_env(), capture_output=True, text=True, timeout=120)


def checkout_env() -> dict[str, str]:
    path = [str(Path(graphreason.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """``call()``'s result, and the most Python memory in bytes it held at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
