"""Benchmark for graphreason: build, eval and score on seeded mock traffic.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build-cpu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` makes a separate traced run: a few untraced rounds, then
rounds with every public function of the traced modules wrapped in
spans, then a parse-size sweep; it reports the per-layer metrics. Both
print a readable report and, as the last line, one JSON object. The
exit code is 1 when any correctness check failed or a CPU-clock run
waited, and 2 when the sources are not next to the benchmark.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("build-cpu", "build-latency", "eval-score")
# On the CPU clock, a run whose median round takes more than this many times
# its CPU time in wall time is refused: it waits, and CPU time cannot see that.
# Host steal alone has stretched wall time to 1.8 times CPU time.
MAX_WALL_PER_CPU = 3.0
# Enough traced items for a p99 with ten samples beyond it, few enough to keep
# the in-memory spans small.
TRACE_MAX_ITEMS = 1000
DISCARD_REASONS = ("answer-mismatch", "all-candidates-failed", "parse-failure")
NAMED_WALL_METRICS = (
    ("build_items_per_s", "items/s"),
    ("latency_bound_ratio", "x"),
    ("eval_items_per_s", "items/s"),
    ("score_completions_per_s", "completions/s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_rounds(workload, seed: int, work: Path, seconds: float, tag: str, inputs=None,
               max_items: int | None = None, quiet=contextlib.nullcontext) -> list:
    """Repeat identical rounds until ``seconds`` have passed or ``max_items`` are done.

    Without ``inputs``, each round first sets up afresh and times that
    set-up on every clock, so the set-up samples span the run as the
    rounds do. Stops early at a round that raised. A round's checks run
    inside ``quiet()``, so a tracer can leave them out of the per-layer
    figures.
    """
    from workloads import clocks

    rounds = []
    setup_each = inputs is None
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start < seconds
                         and (max_items is None or len(rounds) * workload.n < max_items)):
        setup = None
        if setup_each:
            # Kept until the run ends: deleting thousands of cache files slows
            # the file system for a while, which would leak into the rounds.
            began = clocks()
            inputs = workload.setup(seed, fresh_dir(work / f"setup-{len(rounds)}"))
            setup = {name: now - began[name] for name, now in clocks().items()}
        out = fresh_dir(work / f"{tag}-{len(rounds)}")
        rnd, result = workload.run_round(inputs, seed, out)
        rnd.setup = setup
        with quiet():
            workload.verify(inputs, rnd, out, result)
        shutil.rmtree(out)
        rounds.append(rnd)
        if rnd.raised:
            break  # never retried: the run ends with the round's items failed
    return rounds


def check_determinism(rounds: list) -> None:
    """Every round of one run must write the same bytes as the first."""
    reference = next((r.digests for r in rounds if r.digests), None)
    for i, rnd in enumerate(rounds):
        if rnd.digests and rnd.digests != reference:
            rnd.fail(rnd.items, f"round {i} output differs from round 0: {rnd.digests}")


def check_waiting(workload, rounds: list) -> float:
    """Median wall ÷ CPU time of the rounds; on the CPU clock, refuse a run that waits.

    A refused run counts every item as failed: its CPU-time figure would
    hide the waiting.
    """
    ratio = statistics.median(sum(r.wall.values()) / max(sum(r.cpu.values()), 1e-9) for r in rounds)
    if workload.clock == "cpu" and ratio > MAX_WALL_PER_CPU:
        rounds[0].fail(rounds[0].items, f"median round took {ratio:.2f}x its CPU time in wall "
                                        f"time (limit {MAX_WALL_PER_CPU}): it waits")
        for rnd in rounds[1:]:
            rnd.failed = rnd.items
    return ratio


def report_rounds(rounds: list) -> tuple[int, int]:
    attempted = sum(r.items for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"rounds: {len(rounds)}, operations attempted {attempted}, failed {failed}")
    for i, rnd in enumerate(rounds):
        for why in rnd.failures[:20]:
            print(f"  FAILED round {i}: {why}")
    if rounds and rounds[0].digests:
        for name, digest in sorted(rounds[0].digests.items()):
            print(f"  sha256 {name} {digest}")
    return attempted, failed


def median_wall(rounds: list) -> float:
    return statistics.median(sum(r.wall.values()) for r in rounds)


def emit(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> int:
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=False))
    return 0 if result["correct"] else 1


def end_to_end(workload, seed: int, seconds: float, work: Path) -> int:
    from workloads import median_rate

    rounds = run_rounds(workload, seed, work, seconds, "round")
    check_determinism(rounds)
    wall_per_cpu = check_waiting(workload, rounds)
    attempted, failed = report_rounds(rounds)
    # Throughput runs on the workload's own clock (wall or process CPU), set-up on user CPU time.
    metrics = {
        "items_per_s": (median_rate(workload.n, rounds, clock=workload.clock), "items/s"),
        "setup_s": (statistics.median(r.setup["user"] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = {
        **workload.named_metrics(rounds),
        **metrics,
        "wall_items_per_s": (median_rate(workload.n, rounds), "items/s"),
        "cpu_items_per_s": (median_rate(workload.n, rounds, clock="cpu"), "items/s"),
        "wall_per_cpu": (wall_per_cpu, "x"),
        "setup_wall_s": (statistics.median(r.setup["wall"] for r in rounds), "s"),
        "setup_cpu_s": (statistics.median(r.setup["cpu"] for r in rounds), "s"),
        "failed_ops_ratio": (failed / attempted, "ratio"),
    }
    print(f"  (items_per_s uses the {workload.clock} clock, setup_s user CPU time)")
    for name, (value, unit) in shown.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    return emit(attempted, failed, metrics)


def traced(workload, seed: int, seconds: float, work: Path) -> int:
    import sweep
    import tracing
    from workloads import median_rate

    inputs = workload.setup(seed, fresh_dir(work / "setup"))
    plain = run_rounds(workload, seed, work, seconds / 3, "plain", inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spanned = run_rounds(workload, seed, work, seconds * 2 / 3, "traced", inputs,
                             max_items=TRACE_MAX_ITEMS, quiet=tracer.paused)
    finally:
        tracer.uninstall()
    rows = sweep.run()
    rounds = plain + spanned
    check_determinism(rounds)
    attempted, failed = report_rounds(rounds)

    items = workload.n * len(spanned)
    metrics = tracing.layer_metrics(tracing.SpanTable(tracer.spans), tracer.drops, items)
    stats = [r.stats for r in spanned if r.stats]
    first = stats[0] if stats else {}
    completions = first.get("completions", 0)
    metrics.update({
        "client.backend.sends": (float(first.get("sends", 0)), "count"),
        "client.retries": (float(first.get("retries", 0)), "count"),
        "client.max_in_flight": (float(max((s.get("max_in_flight", 0) for s in stats), default=0)), "count"),
        "client.cache.hit_ratio": (first.get("cache_hits", 0) / completions if completions else 0.0, "ratio"),
        "pipeline.retained_ratio": (first.get("retained", 0) / workload.n, "ratio"),
        "bench.structured_ratio": (first.get("structured", 0) / workload.n, "ratio"),
    })
    for reason in DISCARD_REASONS:
        metrics[f"pipeline.discards.{reason}"] = (float(first.get(f"discards.{reason}", 0)), "count")
    metrics["trace.overhead_ratio"] = (median_wall(spanned) / median_wall(plain), "x")
    # Wall-clock figures of the untraced rounds, by name, for the record; not gated.
    metrics["wall_items_per_s"] = (median_rate(workload.n, plain), "items/s")
    metrics.update({name: (0.0, unit) for name, unit in NAMED_WALL_METRICS})
    metrics.update(workload.named_metrics(plain))
    metrics.update(sweep.metrics(rows))

    print(f"traced rounds: {len(spanned)} ({items} items, {len(tracer.spans)} spans); "
          f"untraced rounds: {len(plain)}")
    for name in tracer.absent:
        print(f"  absent: {name} is not bound at this commit; its metrics read 0")
    print("parse sweep (mode, text, steps, us/step, outcome, repeats):")
    for row in rows:
        print(f"  {row['mode']:8s} {row['text']:8s} {row['steps']:5d} "
              f"{row['us_per_step']:10.2f} {row['outcome']:18s} {row['repeats']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.tsv.gz")
    return emit(attempted, failed, metrics)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], check=False).returncode
        worst = max(worst, code)
    print(f"== all workloads {'passed' if worst == 0 else 'FAILED'}")
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphreason" / "__init__.py").is_file():
        print(f"perfbench: no graphreason package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, {platform.machine()}")
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    log = logging.FileHandler(work / "program.log", encoding="utf-8")
    logging.basicConfig(level=logging.WARNING, handlers=[log])
    try:
        workload = workloads.WORKLOADS[args.workload]
        run = traced if args.trace else end_to_end
        return run(workload, args.seed, args.seconds, work)
    finally:
        logging.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
