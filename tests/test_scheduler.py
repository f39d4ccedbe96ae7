"""The client's sender threads: thread count, retry order, faults, overlap, no deadlock, no leaks."""
from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from _util import fail_first_attempts, reply_to
from graphreason.client import (
    ChatClient,
    CompletionRequest,
    MockBackend,
    ResponseCache,
    SamplingConfig,
    TransientError,
)
from graphreason.pipeline import SourceQA, build_dataset, trajectory_requests
from graphreason.prompts import REPAIR_SUFFIX

CONFIG = SamplingConfig(model_name="mock-teacher", k=3)
MERGED = "<reasoning>\n<step> merged start → merged end </step>\n</reasoning>\n<answer> 4 </answer>"


def chain_doc(tag: str, answer: str) -> str:
    return (
        f"<reasoning>\n<step> {tag} start → {tag} middle </step>\n"
        f"<step> {tag} middle → {tag} end </step>\n</reasoning>\n<answer> {answer} </answer>"
    )


def corpus(n: int) -> tuple[list[SourceQA], dict[str, str]]:
    items = [SourceQA(f"s{i:03d}: question {i}", "4", f"s{i:03d}") for i in range(n)]
    # The integration prompt also quotes the question, so its fragment comes first.
    replies = {"Candidate reasoning graphs:": MERGED}
    replies.update({f"s{i:03d}:": chain_doc(f"s{i}", "4") for i in range(n)})
    return items, replies


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts threading.Thread.start calls made while the test runs."""
    started: list[threading.Thread] = []
    original = threading.Thread.start

    def counting_start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_build_thread_starts_do_not_grow_with_items(thread_starts):
    counts = {}
    for n in (10, 50):
        items, replies = corpus(n)
        client = ChatClient(MockBackend(replies), concurrency=2)
        assert build_dataset(items, client, CONFIG).report.retained == n
        counts[n] = len(thread_starts)
        thread_starts.clear()
    assert all(1 <= count <= 2 for count in counts.values()), counts


def test_cache_hits_resolve_in_the_caller(tmp_path, thread_starts):
    request = CompletionRequest("sys", "probe", SamplingConfig(model_name="m"))
    cache = ResponseCache(tmp_path)
    reply_to(ChatClient(MockBackend(default="cached"), cache=cache), request)
    thread_starts.clear()
    backend = MockBackend(default="fresh")
    assert reply_to(ChatClient(backend, cache=cache), request) == "cached"
    assert backend.calls == 0
    assert thread_starts == []


def test_a_retry_is_sent_before_the_sends_queued_after_it():
    # Job a's first send is refused with a 429; its retry holds the one slot
    # through a short real backoff, so b to e wait for it.
    sent = []

    def respond(request):
        job = request.user_prompt
        if job == "a" and not sent:
            sent.append("a!")
            raise TransientError("scripted 429", status=429)
        sent.append(job)
        return job

    client = ChatClient(MockBackend(responder=respond), concurrency=1, backoff_base=0.05)
    jobs = "abcde"
    replies = list(client.replies(jobs, lambda job: [CompletionRequest("sys", job, CONFIG)]))
    assert replies == [(job, [job]) for job in jobs]
    assert sent == ["a!", "a", "b", "c", "d", "e"]
    assert client.stats.retries == 1


def test_a_backend_fault_that_is_not_a_client_error_reaches_the_caller_as_raised():
    fault = ValueError("backend bug")

    def respond(request):
        raise fault

    client = ChatClient(MockBackend(responder=respond), concurrency=2)
    with pytest.raises(ValueError) as raised:
        list(client.replies(["a", "b"], lambda job: [CompletionRequest("sys", job, CONFIG)]))
    assert raised.value is fault


def test_a_closed_client_refuses_to_send():
    client = ChatClient(MockBackend(default="ok"), concurrency=2)
    client.close()
    with pytest.raises(RuntimeError):
        reply_to(client, CompletionRequest("sys", "q", CONFIG))


@pytest.mark.parametrize("mode", ["llm", "llm-with-fallback"])
def test_llm_merge_sends_of_different_items_overlap(mode):
    items, replies = corpus(24)
    delay = 0.05
    backend = MockBackend(replies, delay=delay)
    client = ChatClient(backend, concurrency=8)
    start = time.monotonic()
    result = build_dataset(items, client, SamplingConfig(model_name="m", k=1), merge_mode=mode)
    elapsed = time.monotonic() - start
    assert result.report.retained == 24
    assert all(i.provenance.merge_mode == "llm" for i in result.instances)
    assert backend.calls == 48
    # One merge send after another would take at least 24 x delay.
    assert elapsed < 0.5 * len(items) * delay


@pytest.mark.parametrize("mode", ["llm", "llm-with-fallback"])
def test_llm_merge_repairs_of_different_items_overlap(mode):
    items, replies = corpus(24)
    # Fragments match in insertion order: the repair prompt also holds the integration's.
    replies = {REPAIR_SUFFIX[: REPAIR_SUFFIX.index("{")]: MERGED, **replies}
    replies["Candidate reasoning graphs:"] = "not a template"
    delay = 0.05
    backend = MockBackend(replies, delay=delay)
    client = ChatClient(backend, concurrency=8)
    start = time.monotonic()
    result = build_dataset(items, client, SamplingConfig(model_name="m", k=1), merge_mode=mode)
    elapsed = time.monotonic() - start
    assert result.report.retained == 24
    assert all(i.provenance.merge_mode == "llm" for i in result.instances)
    assert backend.calls == 3 * 24
    # One repair send after another would take at least 24 x delay.
    assert elapsed < 0.75 * len(items) * delay


def test_llm_build_at_concurrency_one_does_not_deadlock():
    items, replies = corpus(30)
    client = ChatClient(MockBackend(replies, delay=0.001), concurrency=1)
    outcome = {}

    def run():
        outcome["result"] = build_dataset(items, client, CONFIG, merge_mode="llm")

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "build did not finish"
    assert outcome["result"].report.retained == 30


def _client_threads(before: set[threading.Thread]) -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t not in before and t.name.startswith("graphreason-client")]


def test_threads_exit_when_the_client_is_collected():
    before = set(threading.enumerate())
    client = ChatClient(MockBackend(default="ok"), concurrency=2)
    list(client.replies(["what?"], lambda question: trajectory_requests(question, CONFIG)))
    threads = _client_threads(before)
    assert 1 <= len(threads) <= 2
    del client
    gc.collect()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)



def test_threads_exit_on_close():
    before = set(threading.enumerate())
    with ChatClient(MockBackend(default="ok"), concurrency=2) as client:
        list(client.replies(["what?"], lambda question: trajectory_requests(question, CONFIG)))
        threads = _client_threads(before)
    for thread in threads:
        thread.join(timeout=5)
    assert threads and not any(thread.is_alive() for thread in threads)


def test_stats_add_up_under_contention():
    items, replies = corpus(40)
    backend = MockBackend(replies)
    fail_first_attempts(backend, 1)
    client = ChatClient(backend, concurrency=8, sleep=lambda _: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = build_dataset(items, client, CONFIG)
    finally:
        sys.setswitchinterval(interval)
    assert result.report.retained == 40
    stats = client.stats
    assert backend.calls == stats.requests_attempted == 2 * 40 * CONFIG.k
    assert stats.retries == stats.completions == 40 * CONFIG.k
    assert 1 <= stats.max_in_flight <= 8
