"""The completion store as build and eval use it: read and written by the caller, kept on abort.

``ChatClient.replies`` reads a window's keys a batch at a time and writes
the completions it has handed out, on the caller's thread, before it
waits. These tests pin what that leaves in the store: every completion
of a run that returns, every completion received before a run that
raised, one reply for a request made twice, and nothing sent again by a
warm rerun.
"""
from __future__ import annotations

import itertools
import logging
import re
import sqlite3
import sys
import threading
import time
from pathlib import Path

import pytest

from graphreason import bench, pipeline
from graphreason.bench import BenchmarkItem, evaluate, read_items, write_report
from graphreason.client import (
    LOOKAHEAD_PER_SLOT,
    STORE_KEYS_PER_QUERY,
    ChatClient,
    CompletionRequest,
    MockBackend,
    ResponseCache,
    SamplingConfig,
    cache_key,
)
from graphreason.pipeline import (
    SourceQA,
    build_dataset,
    read_sources,
    trajectory_requests,
    write_dataset,
)
from graphreason.prompts import REPAIR_SUFFIX

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
CONFIG = SamplingConfig(model_name="mock-teacher", k=3)
DOC = "<reasoning>\n<step> {0} start → {0} end </step>\n</reasoning>\n<answer> 4 </answer>"


class Boom(Exception):
    """A fault that is not a ClientError, so it ends the run."""


class RecordingBackend(MockBackend):
    """The golden mock; records the key of each completion it returns; send ``fail_at`` raises."""

    def __init__(self, fail_at: int | None = None) -> None:
        fixture = MockBackend.from_file(GOLDEN / "mock.json")
        super().__init__(fixture.replies, default=fixture.default)
        self.fail_at = fail_at
        self.attempts = 0
        self.returned: set[str] = set()

    def send(self, request: CompletionRequest) -> str:
        with self._lock:
            self.attempts += 1
            if self.attempts == self.fail_at:
                raise Boom(f"send {self.attempts}")
        text = super().send(request)
        with self._lock:
            self.returned.add(cache_key(request))
        return text


def run_build(client: ChatClient, out: Path) -> None:
    with client:
        result = build_dataset(
            read_sources(GOLDEN / "sources.jsonl"), client, CONFIG, merge_mode="llm-with-fallback"
        )
    report = result.report
    assert report.total_in == report.retained + sum(report.discarded_by_reason.values())
    write_dataset(result, out)


def run_eval(client: ChatClient, out: Path) -> None:
    with client:
        report = evaluate(read_items(GOLDEN / "items.jsonl"), "self-graph", client, CONFIG)
    write_report(report, out)


def golden_client(backend: MockBackend, cache: ResponseCache | None = None) -> ChatClient:
    return ChatClient(backend, cache=cache, concurrency=1, sleep=lambda _: None)


# Each command: how it runs, and the item function through which its consumer goes.
RUNS = {
    "build": (run_build, pipeline, "build_instance"),
    "eval": (run_eval, bench, "evaluate_item"),
}


def stored_keys(root: Path) -> set[str]:
    db = sqlite3.connect(root / ResponseCache.FILENAME)
    try:
        return {key for (key,) in db.execute("SELECT key FROM completions")}
    finally:
        db.close()


def tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def quiet():
    # The golden fixture's scripted failures each log a warning.
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.usefixtures("quiet")
@pytest.mark.parametrize("fault", ["consumer", "backend"])
@pytest.mark.parametrize("command", RUNS)
def test_an_aborted_run_keeps_what_it_received_and_a_rerun_sends_only_the_rest(
    tmp_path, monkeypatch, command, fault
):
    run, module, item_function = RUNS[command]
    whole = RecordingBackend()
    run(golden_client(whole), tmp_path / "whole")

    aborted = RecordingBackend(fail_at=5 if fault == "backend" else None)
    client = golden_client(aborted, ResponseCache(tmp_path / "cache"))
    if fault == "consumer":
        finish, calls = getattr(module, item_function), []

        def fail_at_item_5(*args):
            calls.append(args)
            if len(calls) == 5:
                # Every send started comes back first, so each one is received.
                client._executor.shutdown(wait=True)
                raise Boom("item 5")
            return finish(*args)

        monkeypatch.setattr(module, item_function, fail_at_item_5)
    # The raised exception, kept as a caller that reports it would, holds the run's frames.
    with pytest.raises(Boom) as raised:
        run(client, tmp_path / "aborted")
    monkeypatch.undo()
    kept = stored_keys(tmp_path / "cache")
    if fault == "consumer":
        assert kept == aborted.returned
    # A send in flight when the backend's fault ends the run is not waited for.
    assert kept and kept <= aborted.returned
    assert not (tmp_path / "aborted").exists() and raised.traceback

    rerun = RecordingBackend()
    run(golden_client(rerun, ResponseCache(tmp_path / "cache")), tmp_path / "rerun")
    assert rerun.calls == whole.calls - len(kept)
    assert tree(tmp_path / "rerun") == tree(tmp_path / "whole")


def test_closing_a_window_stores_every_completion_received(tmp_path):
    backend = MockBackend(responder=lambda request: "reply to " + request.user_prompt)
    client = ChatClient(backend, cache=ResponseCache(tmp_path), concurrency=1)
    jobs = [CompletionRequest("sys", f"q{i}", CONFIG) for i in range(client.lookahead + 10)]
    window = client.replies(jobs, lambda request: [request])
    assert next(window) == (jobs[0], ["reply to q0"])
    # Job 0 is handed out and the next `lookahead` jobs wait in the window, the
    # rest of the second batch unsent: let every send come back.
    client._executor.shutdown(wait=True)
    assert stored_keys(tmp_path) == set()
    window.close()
    assert backend.calls == 1 + client.lookahead
    assert stored_keys(tmp_path) == {cache_key(job) for job in jobs[:1 + client.lookahead]}


def teacher(request: CompletionRequest) -> str:
    """Replies that all come back; item s0's integration reply does not parse."""
    prompt = request.user_prompt
    item = re.search(r"\bs\d+:", prompt).group(0)
    if "Candidate reasoning graphs:" not in prompt:
        return DOC.format(item)
    if REPAIR_SUFFIX[: REPAIR_SUFFIX.index("{")] in prompt:
        return DOC.format("repaired")
    return "no graph" if item == "s0:" else DOC.format("merged")


def test_a_warm_llm_build_sends_nothing(tmp_path):
    items = [SourceQA(f"s{i}: question {i}", "4", f"s{i}") for i in range(12)]
    runs = {}
    for run in ("cold", "warm"):
        backend = MockBackend(responder=teacher if run == "cold" else None)
        with ChatClient(backend, cache=ResponseCache(tmp_path / "cache"), concurrency=2) as client:
            result = build_dataset(items, client, CONFIG, merge_mode="llm-with-fallback")
        write_dataset(result, tmp_path / run)
        runs[run] = (backend.calls, client.stats.cache_hits)
    assert result.report.retained == 12
    assert not any(row.provenance.fell_back for row in result.instances)
    # 3 samples and one integration per item, and item s0's repair.
    assert runs == {"cold": (12 * 3 + 12 + 1, 0), "warm": (0, 12 * 3 + 12 + 1)}
    assert tree(tmp_path / "warm") == tree(tmp_path / "cold")


def test_a_warm_eval_sends_nothing(tmp_path):
    items = read_items(GOLDEN / "items.jsonl")
    runs = {}
    for run in ("cold", "warm"):
        backend = MockBackend(default=DOC.format("eval") if run == "cold" else None)
        with ChatClient(backend, cache=ResponseCache(tmp_path / "cache"), concurrency=2) as client:
            write_report(evaluate(items, "self-graph", client, CONFIG), tmp_path / run)
        runs[run] = (backend.calls, client.stats.cache_hits)
    assert runs == {"cold": (len(items), 0), "warm": (0, len(items))}
    assert tree(tmp_path / "warm") == tree(tmp_path / "cold")


def test_a_corrupt_row_misses_alone_beside_a_repeated_key(tmp_path, caplog):
    requests = [CompletionRequest("sys", f"q{i}", CONFIG) for i in range(3)]
    keys = [cache_key(request) for request in requests]
    ResponseCache(tmp_path).put({key: f"stored {i}" for i, key in enumerate(keys)})
    db = sqlite3.connect(tmp_path / ResponseCache.FILENAME, isolation_level=None)
    db.execute("UPDATE completions SET text = ? WHERE key = ?", (b"\xff bad", keys[0]))
    db.close()
    backend = MockBackend(default="fresh")
    client = ChatClient(backend, cache=ResponseCache(tmp_path))
    jobs = [requests[0], requests[1], requests[1], requests[2]]
    with caplog.at_level(logging.WARNING, logger="graphreason.client"):
        replies = [reply for _, [reply] in client.replies(jobs, lambda request: [request])]
    assert replies == ["fresh", "stored 1", "stored 1", "stored 2"]
    assert (backend.calls, client.stats.cache_hits, client.stats.completions) == (1, 3, 4)
    assert caplog.text.count("cache read failed") == 1
    assert ResponseCache(tmp_path).get(keys) == {keys[0]: "fresh", keys[1]: "stored 1",
                                                 keys[2]: "stored 2"}


def test_a_batch_larger_than_one_query_reads_every_hit(tmp_path):
    config = SamplingConfig(model_name="m", k=10)
    questions = [f"question {i}?" for i in range(60)]
    expected = {}
    for question in questions:
        for request in trajectory_requests(question, config):
            expected[cache_key(request)] = f"{question} #{request.sample_index}"
    assert len(expected) > STORE_KEYS_PER_QUERY
    ResponseCache(tmp_path).put(expected)
    backend = MockBackend()
    client = ChatClient(backend, cache=ResponseCache(tmp_path), concurrency=64)
    got = dict(client.replies(questions, lambda question: trajectory_requests(question, config)))
    assert got == {q: [f"{q} #{i}" for i in range(10)] for q in questions}
    assert (backend.calls, client.stats.cache_hits) == (0, len(expected))


class ThreadRecordingCache(ResponseCache):
    """A store that records which thread made each round-trip."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.calls: list[tuple[str, int]] = []

    def get(self, keys):
        self.calls.append(("get", threading.get_ident()))
        return super().get(keys)

    def put(self, rows) -> None:
        self.calls.append(("put", threading.get_ident()))
        super().put(rows)


class AfterThePreviousIsStored:
    """A responder whose reply to each job waits until the job before it is in the store.

    It polls a second store on the same directory, so it sees only what
    the client has committed. A job that waits over ``timeout`` seconds
    is recorded in ``missed``, and the jobs after it do not wait.
    """

    def __init__(self, root: Path, jobs: list[CompletionRequest], timeout: float = 2.0) -> None:
        self.store = ResponseCache(root)
        self.previous = {job.user_prompt: cache_key(before) for before, job in zip(jobs, jobs[1:])}
        self.timeout = timeout
        self.missed: list[str] = []

    def __call__(self, request: CompletionRequest) -> str:
        key = self.previous.get(request.user_prompt)
        deadline = time.monotonic() + self.timeout
        while key and not self.store.get([key]):
            if time.monotonic() > deadline:
                self.missed.append(request.user_prompt)
                self.timeout = 0.0
                break
            time.sleep(0.001)
        return "reply to " + request.user_prompt


def test_the_completions_handed_out_are_stored_before_the_caller_waits(tmp_path):
    jobs = [CompletionRequest("sys", f"q{i}", CONFIG) for i in range(3)]
    responder = AfterThePreviousIsStored(tmp_path, jobs)
    client = ChatClient(MockBackend(responder=responder), cache=ResponseCache(tmp_path), concurrency=1)
    replies = [reply for _, [reply] in client.replies(jobs, lambda request: [request])]
    assert replies == ["reply to q0", "reply to q1", "reply to q2"]
    assert responder.missed == []


def test_the_store_is_read_and_written_on_the_callers_thread_once_per_batch(tmp_path):
    cache = ThreadRecordingCache(tmp_path)
    jobs = [CompletionRequest("sys", f"q{i}", CONFIG) for i in range(2 * LOOKAHEAD_PER_SLOT + 10)]
    responder = AfterThePreviousIsStored(tmp_path, jobs)
    client = ChatClient(MockBackend(responder=responder), cache=cache, concurrency=1)
    assert len(list(client.replies(jobs, lambda request: [request]))) == len(jobs)
    # Three batches, one read each. A job's send waits until the job before it
    # is stored, so the caller writes each completion on its own before it
    # waits on the next send, and the last one at the close.
    methods = [method for method, _ in cache.calls]
    assert (methods[0], methods.count("get"), methods.count("put")) == ("get", 3, len(jobs))
    assert responder.missed == []
    assert {thread for _, thread in cache.calls} == {threading.get_ident()}
    assert stored_keys(tmp_path) == {cache_key(job) for job in jobs}


def alternating_answers():
    """A responder whose replies answer 4 and 5 in turn."""
    answers = itertools.cycle("45")
    lock = threading.Lock()

    def respond(request: CompletionRequest) -> str:
        with lock:
            answer = next(answers)
        return f"<reasoning>\n<step> 2 + 2 → {answer} </step>\n</reasoning>\n<answer> {answer} </answer>"

    return respond


def evaluate_two_asking_alike(client: ChatClient, out: Path) -> None:
    items = [BenchmarkItem("What is 2 + 2?", "4", "demo", f"d{i}") for i in (1, 2)]
    write_report(evaluate(items, "self-graph", client, CONFIG), out)


def build_two_asking_alike(client: ChatClient, out: Path) -> None:
    sources = [SourceQA("What is 2 + 2?", "4", f"s{i}") for i in (1, 2)]
    write_dataset(build_dataset(sources, client, CONFIG), out)


@pytest.mark.parametrize("run, sends", [
    (evaluate_two_asking_alike, 1),
    (build_two_asking_alike, CONFIG.k),
], ids=["eval", "build"])
def test_a_request_made_twice_in_one_window_is_sent_once(tmp_path, run, sends):
    calls = {}
    for name in ("first", "rerun"):
        backend = MockBackend(responder=alternating_answers())
        with ChatClient(backend, cache=ResponseCache(tmp_path / "cache"), concurrency=2) as client:
            run(client, tmp_path / name)
        calls[name] = backend.calls
    assert calls == {"first": sends, "rerun": 0}
    assert tree(tmp_path / "rerun") == tree(tmp_path / "first")
    # Without a store, each request is sent on its own.
    backend = MockBackend(responder=alternating_answers())
    with ChatClient(backend, concurrency=2) as client:
        run(client, tmp_path / "uncached")
    assert backend.calls == 2 * sends


def test_each_request_repeated_across_batches_is_sent_once(tmp_path):
    sent = itertools.count()
    backend = MockBackend(responder=lambda request: f"{request.user_prompt} #{next(sent)}")
    client = ChatClient(backend, cache=ResponseCache(tmp_path), concurrency=4)
    jobs = [CompletionRequest("sys", f"q{i % 7}", CONFIG) for i in range(3 * client.lookahead + 10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies = {}
        for job, [reply] in client.replies(jobs, lambda request: [request]):
            replies.setdefault(job.user_prompt, set()).add(reply)
    finally:
        sys.setswitchinterval(interval)
    assert backend.calls == 7
    assert all(len(texts) == 1 for texts in replies.values()) and len(replies) == 7
