"""The three benchmark workloads, driven through graphreason's public API.

Each workload is closed-loop: a round hands its whole input list to one
call, and the program's own ``concurrency`` decides how many requests
are in flight. A run repeats identical rounds on one seed's inputs, so
every round must write the same bytes, and it reports medians over the
rounds. Correctness is gated on invariants, never on stored digests. A round
only times the program's call; its checks run afterwards in ``verify``,
which the runner keeps outside both the timing and the tracer.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from graphreason import bench, client, codec, pipeline, rewards

import gen

MODEL = "mock-teacher"
LATENCY_DELAY_S = 0.010
NPROC = os.cpu_count() or 1

BUILD_CPU_ITEMS = 200
BUILD_LATENCY_ITEMS = 60
EVAL_ITEMS = 600
TRANSIENT_SHARE = 0.02


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def clock() -> tuple[float, float]:
    """(wall seconds, CPU seconds of this process and its waited-for children).

    CPU time does not count waiting: a round that blocks shows only in its
    wall time, which the runner compares against its CPU time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime


def clocks() -> dict[str, float]:
    """Wall, CPU (user plus kernel) and user-only seconds, for timing a set-up."""
    wall, cpu = clock()
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"wall": wall, "cpu": cpu, "user": own.ru_utime + children.ru_utime}


def median_rate(n: int, rounds: list[Round], phase: str | None = None, clock: str = "wall") -> float:
    """Median over rounds of n items per second of ``phase`` (or the whole round).

    ``clock`` is "wall" for elapsed seconds or "cpu" for process CPU seconds.
    """
    times = [getattr(r, clock) for r in rounds]
    rates = [n / (t[phase] if phase else sum(t.values())) for t in times if phase is None or phase in t]
    return statistics.median(rates) if rates else 0.0


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@dataclass
class Round:
    """One timed call over the whole input list, plus what its checks found."""

    items: int  # operations attempted in the round
    wall: dict[str, float] = field(default_factory=dict)  # wall seconds per timed phase
    cpu: dict[str, float] = field(default_factory=dict)  # process CPU seconds per timed phase
    setup: dict[str, float] | None = None  # seconds per clock of the set-up made just before the round, if any
    stats: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed: int = 0  # operations counted as failed
    raised: bool = False

    def lap(self, phase: str, since: tuple[float, float]) -> tuple[float, float]:
        """Charge the wall and CPU time since ``since`` to ``phase``."""
        now = clock()
        self.wall[phase] = now[0] - since[0]
        self.cpu[phase] = now[1] - since[1]
        return now

    def fail(self, ops: int, why: str) -> None:
        self.failed = min(self.items, self.failed + ops)
        self.failures.append(why)


@dataclass
class Prepared:
    """A workload's generated inputs plus the API objects handed to the program."""

    data: gen.BuildInputs | gen.EvalInputs
    items: list  # SourceQA or BenchmarkItem, in input order
    cache_dir: Path | None = None


class Responder:
    """O(1) mock teacher: replies by question id and sample index.

    Sends listed in ``transient`` fail their first attempt with a 429,
    which the client must retry.
    """

    def __init__(self, replies: dict[str, list[str]], transient: frozenset = frozenset()) -> None:
        self.replies = replies
        self.transient = transient
        self.failed: set[tuple[str, int]] = set()  # sends already failed once
        self._lock = threading.Lock()

    def __call__(self, request) -> str:
        qid, index = gen.question_id(request.user_prompt), request.sample_index
        if (qid, index) in self.transient:
            with self._lock:
                first = (qid, index) not in self.failed
                self.failed.add((qid, index))
            if first:
                raise client.TransientError("scripted 429", status=429)
        return self.replies[qid][index]


def refuse(request) -> str:
    raise client.ProtocolError("a warm-cache run must not reach the backend")


class BuildWorkload:
    """build_dataset + write_dataset over mock teacher replies at k=5."""

    def __init__(self, name: str, n: int, delay: float, transient_share: float, cached: bool):
        self.name = name
        self.n = n
        self.delay = delay
        self.transient_share = transient_share
        self.cached = cached

    @property
    def clock(self) -> str:
        """The clock throughput is charged to.

        With a zero-latency backend the build should only compute, under one
        interpreter lock, so its CPU time is the wall time it would take on
        an unshared core, while its wall time on a shared host also counts
        time stolen by neighbours. CPU time is blind to waiting (joins, lock
        waits, sleeps), so the runner refuses a CPU-clock run whose wall time
        is far above its CPU time. With a sleeping backend, waiting is what
        the workload measures, so it runs on the wall clock.
        """
        return "wall" if self.delay else "cpu"

    def setup(self, seed: int, work: Path) -> Prepared:
        data = gen.build_inputs(seed, self.n, self.transient_share)
        return Prepared(data, [pipeline.SourceQA(q, label, qid) for q, label, qid in data.questions])

    def run_round(self, prepared: Prepared, seed: int, out: Path) -> tuple[Round, None]:
        """One timed build; returns the round and nothing for ``verify``, which reads the files."""
        inputs = prepared.data
        responder = Responder(inputs.replies, inputs.transient)
        backend = client.MockBackend(responder=responder, delay=self.delay)
        cache = client.ResponseCache(out / "cache") if self.cached else None
        chat = client.ChatClient(
            backend,
            cache=cache,
            concurrency=NPROC,
            backoff_base=self.delay,
            rng=random.Random(seed),
        )
        rnd = Round(items=self.n)
        start = clock()
        try:
            result = pipeline.build_dataset(prepared.items, chat, self.config())
            pipeline.write_dataset(result, out / "dataset")
        except Exception as err:  # a raising build loses every item of the round
            rnd.lap("build", start)
            rnd.raised = True
            rnd.fail(self.n, f"build raised {type(err).__name__}: {err}")
            return rnd, None
        rnd.lap("build", start)
        rnd.stats.update(
            sends=backend.calls,
            retries=chat.stats.retries,
            injected=len(responder.failed),
            max_in_flight=chat.stats.max_in_flight,
            backend_max_concurrent=backend.max_concurrent,
            cache_hits=chat.stats.cache_hits,
            completions=chat.stats.completions,
        )
        return rnd, None

    @staticmethod
    def config() -> client.SamplingConfig:
        return client.SamplingConfig(model_name=MODEL, k=gen.K)

    def verify(self, prepared: Prepared, rnd: Round, out: Path, _result: None) -> None:
        """Checks the round's output files, then, with a cache, rebuilds from it.

        The rebuild goes through a backend that refuses every send: every
        completion must have been written, so it sends nothing and writes
        the same bytes.
        """
        if rnd.raised:
            return
        self.check(prepared.data, rnd, out / "dataset")
        if not self.cached:
            return
        backend = client.MockBackend(responder=refuse)
        chat = client.ChatClient(backend, cache=client.ResponseCache(out / "cache"), concurrency=NPROC)
        pipeline.write_dataset(pipeline.build_dataset(prepared.items, chat, self.config()), out / "warm")
        warm = {name: sha256(out / "warm" / name) for name in rnd.digests}
        if backend.calls or warm != rnd.digests:
            rnd.fail(self.n, f"warm rebuild from the cache sent {backend.calls} requests, "
                             f"output {'differs' if warm != rnd.digests else 'matches'}")

    def check(self, inputs: gen.BuildInputs, rnd: Round, out: Path) -> None:
        files = {name: out / name for name in ("train.jsonl", "valid.jsonl", "report.json")}
        rnd.digests = {name: sha256(path) for name, path in files.items()}
        report = json.loads(files["report.json"].read_text(encoding="utf-8"))
        valid = read_jsonl(files["valid.jsonl"])
        rows = read_jsonl(files["train.jsonl"]) + valid
        discarded = sum(report["discarded_by_reason"].values())
        rnd.stats["retained"] = report["retained"]
        for reason, count in report["discarded_by_reason"].items():
            rnd.stats[f"discards.{reason}"] = count
        if report["total_in"] != report["retained"] + discarded or report["total_in"] != self.n:
            rnd.fail(self.n, f"accounting: {report['total_in']} in, {report['retained']} "
                             f"retained, {discarded} discarded, {self.n} sent")
        if len(rows) != report["retained"] or len(valid) != len(rows) // 10:
            rnd.fail(self.n, f"{len(rows)} rows written for {report['retained']} retained")
        labels = {qid: label for _, label, qid in inputs.questions}
        retained = set()
        for row in rows:
            qid = row["provenance"]["source_id"]
            retained.add(qid)
            try:
                parsed = codec.parse(row["graph_reasoning"], codec.STRICT)
            except codec.TemplateParseError as err:
                rnd.fail(1, f"{qid}: emitted row does not strict-parse: {err}")
                continue
            if parsed.answer != labels[qid] or row["label"] != labels[qid]:
                rnd.fail(1, f"{qid}: row answer {parsed.answer!r} for label {labels[qid]!r}")
        discards = {d["source_id"]: d["reason"] for d in report.get("discards", [])}
        for qid in sorted(inputs.must_retain - retained):
            rnd.fail(1, f"{qid}: the parsed majority matches the label but it was discarded")
        for qid in sorted(inputs.must_discard & retained):
            rnd.fail(1, f"{qid}: the parsed majority misses the label but it was retained")
        for qid in sorted(inputs.all_unparseable):
            if discards.get(qid) != pipeline.DISCARD_ALL_CANDIDATES_FAILED:
                rnd.fail(1, f"{qid}: no sample parses but outcome is {discards.get(qid)!r}")
        stats = rnd.stats
        expected_sends = self.n * gen.K + stats["retries"]
        if stats["sends"] != expected_sends or stats["retries"] != stats["injected"]:
            rnd.fail(self.n, f"{stats['sends']} sends, {stats['retries']} retries, "
                             f"{stats['injected']} injected 429s for {self.n} items x k={gen.K}")
        if max(stats["max_in_flight"], stats["backend_max_concurrent"]) > NPROC:
            rnd.fail(self.n, f"{stats['max_in_flight']} in flight over concurrency {NPROC}")
        if self.cached and (stats["cache_hits"] or stats["completions"] != self.n * gen.K):
            rnd.fail(self.n, f"cold cache served {stats['cache_hits']} hits, "
                             f"{stats['completions']} completions")

    def named_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """The end-to-end figures this workload stands for, under their own names."""
        out = {"build_items_per_s": (median_rate(self.n, rounds, "build"), "items/s")}
        ratios = [r.wall["build"] / (r.stats["sends"] * self.delay / NPROC)
                  for r in rounds if self.delay and "sends" in r.stats]
        if ratios:
            # Wall time over the ideal sends x delay / concurrency; 1.0 is ideal.
            out["latency_bound_ratio"] = (statistics.median(ratios), "x")
        return out


class EvalScoreWorkload:
    """Warm-cache self-graph evaluate + write_report, then score_batch on the same replies."""

    name = "eval-score"
    clock = "cpu"  # a warm cache leaves nothing to wait for; see BuildWorkload.clock

    def __init__(self, n: int) -> None:
        self.n = n

    def setup(self, seed: int, work: Path) -> Prepared:
        data = gen.eval_inputs(seed, self.n)
        items = [bench.BenchmarkItem(q, label, b, qid) for q, label, b, qid in data.items]
        prepared = Prepared(data, items, work / "cache")
        # Cache fill: a cold evaluate through a replying backend writes every reply.
        backend = client.MockBackend(responder=lambda req: data.replies[gen.question_id(req.user_prompt)])
        chat = client.ChatClient(backend, cache=client.ResponseCache(prepared.cache_dir), concurrency=NPROC)
        bench.evaluate(items, "self-graph", chat, self.config())
        if backend.calls != self.n or chat.stats.cache_hits:
            raise RuntimeError(f"cache fill sent {backend.calls} of {self.n} replies")
        return prepared

    @staticmethod
    def config() -> client.SamplingConfig:
        return client.SamplingConfig(model_name=MODEL)

    def run_round(self, prepared: Prepared, seed: int, out: Path) -> tuple[Round, list | None]:
        """One timed eval and score; returns the round and the scores for ``verify``."""
        inputs = prepared.data
        backend = client.MockBackend(responder=refuse)
        chat = client.ChatClient(backend, cache=client.ResponseCache(prepared.cache_dir), concurrency=NPROC)
        rnd = Round(items=2 * self.n)
        start = clock()
        try:
            report = bench.evaluate(prepared.items, "self-graph", chat, self.config())
            bench.write_report(report, out / "eval")
            mid = rnd.lap("eval", start)
            scores = rewards.score_batch(inputs.texts, inputs.labels)
            rnd.lap("score", mid)
        except Exception as err:
            rnd.lap("eval", start)
            rnd.raised = True
            rnd.fail(rnd.items, f"eval/score raised {type(err).__name__}: {err}")
            return rnd, None
        rnd.stats.update(
            sends=backend.calls,
            cache_hits=chat.stats.cache_hits,
            completions=chat.stats.completions,
            max_in_flight=chat.stats.max_in_flight,
            retries=chat.stats.retries,
        )
        return rnd, scores

    def check(self, inputs: gen.EvalInputs, rnd: Round, out: Path, scores) -> None:
        files = {name: out / name for name in ("report.json", "records.jsonl")}
        rnd.digests = {name: sha256(path) for name, path in files.items()}
        if rnd.stats["sends"]:
            rnd.fail(rnd.stats["sends"], f"warm eval sent {rnd.stats['sends']} requests")
        if rnd.stats["cache_hits"] != self.n:
            rnd.fail(self.n - rnd.stats["cache_hits"], f"{rnd.stats['cache_hits']} cache hits of {self.n}")
        records = read_jsonl(files["records.jsonl"])
        by_id = {r["item_id"]: r for r in records}
        if len(records) != self.n or len(by_id) != self.n:
            rnd.fail(self.n, f"{len(records)} records for {self.n} items")
        expected: dict[str, list[int]] = {}
        structured = 0
        for _, _, name, qid in inputs.items:
            counts = expected.setdefault(name, [0, 0])
            counts[0] += 1
            counts[1] += inputs.correct[qid]
            record = by_id.get(qid)
            if record is None:
                continue
            if record["candidate"] != inputs.answer[qid] or record["correct"] != inputs.correct[qid]:
                rnd.fail(1, f"{qid}: candidate {record['candidate']!r} correct={record['correct']}")
            has_graph = record["node_count"] is not None
            if inputs.structured[qid] not in (None, has_graph):
                rnd.fail(1, f"{qid}: reply {'yielded' if has_graph else 'did not yield'} a graph")
            if has_graph:
                structured += 1
                steps = inputs.steps[qid]
                if (record["node_count"], record["edge_count"]) != (steps + 1, steps):
                    rnd.fail(1, f"{qid}: graph size {record['node_count']}/{record['edge_count']}")
        rnd.stats["structured"] = structured
        report = json.loads(files["report.json"].read_text(encoding="utf-8"))
        got = {name: [s["n"], s["correct"]] for name, s in report["per_benchmark"].items()}
        if got != expected:
            rnd.fail(self.n, f"per-benchmark scores {got} != {expected}")
        if len(scores) != self.n:
            rnd.fail(self.n, f"{len(scores)} scores for {self.n} completions")
        for (*_, qid), score in zip(inputs.items, scores):
            want = (float(inputs.strict_valid[qid]), float(inputs.correct[qid]))
            if (score.format_reward, score.answer_reward) != want or score.combined != sum(want):
                rnd.fail(1, f"{qid}: reward {score} != {want}")

    def verify(self, prepared: Prepared, rnd: Round, out: Path, scores: list | None) -> None:
        """Checks the round's report, records and scores."""
        if not rnd.raised:
            self.check(prepared.data, rnd, out / "eval", scores)

    def named_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """The end-to-end figures this workload stands for, under their own names."""
        return {
            "eval_items_per_s": (median_rate(self.n, rounds, "eval"), "items/s"),
            "score_completions_per_s": (median_rate(self.n, rounds, "score"), "completions/s"),
        }


WORKLOADS = {
    "build-cpu": BuildWorkload("build-cpu", BUILD_CPU_ITEMS, 0.0, 0.0, cached=False),
    "build-latency": BuildWorkload(
        "build-latency", BUILD_LATENCY_ITEMS, LATENCY_DELAY_S, TRANSIENT_SHARE, cached=True
    ),
    "eval-score": EvalScoreWorkload(EVAL_ITEMS),
}


