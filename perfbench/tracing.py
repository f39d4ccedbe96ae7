"""Span tracing around graphreason's public functions, and per-layer metrics.

The tracer wraps every public function of the traced modules at every
module that binds it (``validate`` is bound in ``graph``, ``codec`` and
``merge``; all three bindings get one shared wrapper), plus a few client
methods. A span records its name, its parent span, the item it serves,
start and end. Spans stay in memory during the run and are written at
the end. A name missing at some commit is reported as absent: its
metrics read 0 and nothing crashes.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import inspect
import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

MODULES = ("codec", "graph", "merge", "answers", "client", "pipeline", "bench", "rewards")
METHODS = (
    ("client", "ChatClient", "complete"),
    ("client", "ChatClient", "sample_trajectories"),
    ("client", "ResponseCache", "get"),
    ("client", "ResponseCache", "put"),
    ("client", "MockBackend", "send"),
)
# Spans under these carry the item's id; nested spans inherit it.
ITEM_ROOTS = {"pipeline.build_instance": "source_id", "bench.evaluate_item": "item_id"}
# Span names the per-layer metrics read; each missing one is reported as absent.
USED = (
    "codec.parse", "codec.render", "graph.validate", "graph.strongly_connected_components",
    "merge.merge_deterministic", "answers.answers_match", "client.ChatClient.complete",
    "client.ChatClient.sample_trajectories", "client.ResponseCache.get",
    "client.ResponseCache.put", "pipeline.build_instance", "pipeline.parse_candidates",
    "pipeline.write_dataset", "bench.evaluate_item", "bench.extract_candidate",
    "bench.write_report", "rewards.score_completion", "rewards.reward_format",
    "rewards.reward_answer",
)

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(0, None))


class _ContextThreadPoolExecutor(ThreadPoolExecutor):
    """Runs each task in the submitter's context, so pool threads keep the parent span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _parse_mode(args, kwargs) -> str:
    return str(args[1] if len(args) > 1 else kwargs.get("mode", "strict"))


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id, item id, name, start ns, end ns, ok)
        self.spans: list[tuple] = []
        self.drops: Counter = Counter()
        self.absent: list[str] = []
        self.recording = True
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns
        item_attr = ITEM_ROOTS.get(name)
        split_mode = name == "codec.parse"
        count_drops = name == "merge.merge_deterministic"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent, item = _current.get()
            if item_attr and args:
                item = getattr(args[0], item_attr, item)
            span = next(ids)
            token = _current.set((span, item))
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                _current.reset(token)
                label = f"{name}.{_parse_mode(args, kwargs)}" if split_mode else name
                spans.append((span, parent, item, label, start, end, ok))
            if count_drops:
                for dropped in getattr(result, "dropped_edges", ()):
                    self.drops[getattr(dropped, "reason", "?")] += 1
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans, for checks that re-run the program."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        owners = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "graphreason" or n.startswith("graphreason."))]
        wrapped: dict[object, object] = {}
        names: set[str] = set()
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if obj is ThreadPoolExecutor:
                    self._patch(owner, attr, _ContextThreadPoolExecutor)
                    continue
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("graphreason.") or home not in MODULES:
                    continue
                name = f"{home}.{obj.__name__}"
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(name, obj)
                names.add(name)
                self._patch(owner, attr, wrapped[obj])
        for module, cls, method in METHODS:
            klass = getattr(sys.modules.get(f"graphreason.{module}"), cls, None)
            if klass is None or not inspect.isfunction(klass.__dict__.get(method)):
                continue
            name = f"{module}.{cls}.{method}"
            names.add(name)
            self._patch(klass, method, self._wrap(name, klass.__dict__[method]))
        self.absent = [name for name in USED if name not in names]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\titem\tname\tstart_ns\tend_ns\tok\n")
            for span in self.spans:
                out.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _union(intervals: list[tuple[int, int]]) -> int:
    covered, last = 0, None
    for start, end in sorted(intervals):
        if last is None or start > last:
            covered += end - start
            last = end
        elif end > last:
            covered += end - last
            last = end
    return covered


class SpanTable:
    """Durations and self times of recorded spans, by name."""

    def __init__(self, spans: list[tuple]) -> None:
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span, parent, _, _, start, end, _ in spans:
            if parent:
                children[parent].append((start, end))
        self.total: dict[str, list[float]] = defaultdict(list)
        self.self_: dict[str, list[float]] = defaultdict(list)
        self.ok: Counter = Counter()
        for span, _, _, name, start, end, ok in spans:
            self.total[name].append((end - start) / 1e3)
            self.self_[name].append((end - start - _union(children.get(span, []))) / 1e3)
            self.ok[name] += ok

    def calls(self, name: str) -> int:
        return len(self.total.get(name, ()))

    def us(self, name: str, q: int, self_time: bool = False) -> float:
        return _p((self.self_ if self_time else self.total).get(name, []), q)

    def module_self_us(self, module: str) -> float:
        return sum(sum(v) for name, v in self.self_.items() if name.startswith(module + "."))


def layer_metrics(table: SpanTable, drops: Counter, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run over ``items`` workload items."""
    per_item = (lambda n: n / items) if items else (lambda n: 0.0)
    strict, lenient = "codec.parse.strict", "codec.parse.lenient"
    parsed_ok = table.ok[strict] + table.ok[lenient]
    m: dict[str, tuple[float, str]] = {
        "codec.parse.strict.us.p50": (table.us(strict, 50), "us"),
        "codec.parse.strict.us.p99": (table.us(strict, 99), "us"),
        "codec.parse.lenient.us.p50": (table.us(lenient, 50), "us"),
        "codec.parse.lenient.us.p99": (table.us(lenient, 99), "us"),
        "codec.parse.calls_per_item": (per_item(table.calls(strict) + table.calls(lenient)), "calls/item"),
        "codec.lenient_only_ratio": (table.ok[lenient] / parsed_ok if parsed_ok else 0.0, "ratio"),
        "codec.render.us.p50": (table.us("codec.render", 50), "us"),
        "codec.render.calls_per_item": (per_item(table.calls("codec.render")), "calls/item"),
        "graph.validate.calls_per_item": (per_item(table.calls("graph.validate")), "calls/item"),
        "graph.validate.us.p50": (table.us("graph.validate", 50), "us"),
        "graph.scc.calls_per_item": (
            per_item(table.calls("graph.strongly_connected_components")), "calls/item"),
        "merge.deterministic.us.p50": (table.us("merge.merge_deterministic", 50), "us"),
        "merge.deterministic.us.p99": (table.us("merge.merge_deterministic", 99), "us"),
        "merge.cycle_break_drops_per_item": (per_item(drops["cycle-break"]), "drops/item"),
        "merge.pruned_drops_per_item": (per_item(drops["pruned-unreachable"]), "drops/item"),
        "answers.match.us.p50": (table.us("answers.answers_match", 50), "us"),
        "answers.match.calls_per_item": (per_item(table.calls("answers.answers_match")), "calls/item"),
    }
    trajectories = "client.ChatClient.sample_trajectories"
    complete = "client.ChatClient.complete"
    m.update({
        "client.sample_trajectories.self_ms.p50": (table.us(trajectories, 50, True) / 1e3, "ms"),
        "client.sample_trajectories.self_ms.p99": (table.us(trajectories, 99, True) / 1e3, "ms"),
        # complete's self time: its span less the backend send and cache calls under it.
        "client.queue_wait_ms.p50": (table.us(complete, 50, True) / 1e3, "ms"),
        "client.queue_wait_ms.p99": (table.us(complete, 99, True) / 1e3, "ms"),
        "client.cache.get_us.p50": (table.us("client.ResponseCache.get", 50), "us"),
        "client.cache.get_us.p99": (table.us("client.ResponseCache.get", 99), "us"),
        "client.cache.put_us.p50": (table.us("client.ResponseCache.put", 50), "us"),
        "client.cache.put_us.p99": (table.us("client.ResponseCache.put", 99), "us"),
        "pipeline.build_instance.ms.p50": (table.us("pipeline.build_instance", 50) / 1e3, "ms"),
        "pipeline.build_instance.ms.p99": (table.us("pipeline.build_instance", 99) / 1e3, "ms"),
        "pipeline.build_instance.self_ms.p50": (
            table.us("pipeline.build_instance", 50, True) / 1e3, "ms"),
        "pipeline.build_instance.self_ms.p99": (
            table.us("pipeline.build_instance", 99, True) / 1e3, "ms"),
        "pipeline.parse_candidates.us.p50": (table.us("pipeline.parse_candidates", 50), "us"),
        "pipeline.write_dataset.ms": (table.us("pipeline.write_dataset", 50) / 1e3, "ms"),
        "bench.evaluate_item.us.p50": (table.us("bench.evaluate_item", 50), "us"),
        "bench.evaluate_item.us.p99": (table.us("bench.evaluate_item", 99), "us"),
        "bench.extract_candidate.us.p50": (table.us("bench.extract_candidate", 50), "us"),
        "bench.write_report.ms": (table.us("bench.write_report", 50) / 1e3, "ms"),
        "rewards.score_completion.us.p50": (table.us("rewards.score_completion", 50), "us"),
        "rewards.score_completion.us.p99": (table.us("rewards.score_completion", 99), "us"),
        "rewards.reward_format.us.p50": (table.us("rewards.reward_format", 50), "us"),
        "rewards.reward_answer.us.p50": (table.us("rewards.reward_answer", 50), "us"),
    })
    for module in MODULES:
        m[f"{module}.self_us_per_item"] = (per_item(table.module_self_us(module)), "us/item")
    return m
