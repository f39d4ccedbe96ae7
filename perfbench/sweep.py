"""Parse cost per step against document size, strict and lenient.

Each row parses one strict-valid chain document of n steps and records
the median microseconds per step and the parse outcome. The unicode
rows put a case-changing character (``İ``) in the step text; a row whose
outcome is an error kind rather than "ok" shows a parser that rejects a
valid document, and its time then measures how fast it gave up.
"""
from __future__ import annotations

import random
import statistics
import time

from graphreason import codec

import gen

SIZES = (10, 100, 1000, 4000)
TEXTS = ("plain", "unicode")
BUDGET_S = 0.2  # repeat a row until this much time is spent, at most MAX_REPEATS times
MAX_REPEATS = 5


def document(n: int, unicode: bool) -> str:
    rng = random.Random(f"sweep:{n}:{unicode}")
    return gen.template(gen.chain(gen.facts(rng, n, unicode), "so the answer is C", 0, rng), "C")


def run() -> list[dict]:
    rows = []
    for text in TEXTS:
        for n in SIZES:
            doc = document(n, text == "unicode")
            for mode in (codec.STRICT, codec.LENIENT):
                times, outcome = [], "ok"
                while len(times) < MAX_REPEATS and sum(times) < BUDGET_S:
                    start = time.perf_counter()
                    try:
                        codec.parse(doc, mode)
                    except codec.TemplateParseError as err:
                        outcome = err.kind
                    times.append(time.perf_counter() - start)
                rows.append({
                    "mode": mode,
                    "text": text,
                    "steps": n,
                    "us_per_step": statistics.median(times) / n * 1e6,
                    "outcome": outcome,
                    "repeats": len(times),
                })
    return rows


def metrics(rows: list[dict]) -> dict[str, tuple[float, str]]:
    out = {}
    for row in rows:
        text = "" if row["text"] == "plain" else f"{row['text']}."
        out[f"codec.parse.{row['mode']}.us_per_step.{text}n{row['steps']}"] = (row["us_per_step"], "us/step")
    for mode in (codec.STRICT, codec.LENIENT):
        ok = sum(1 for row in rows if row["mode"] == mode and row["outcome"] == "ok")
        out[f"codec.sweep.{mode}.ok_rows"] = (float(ok), "count")
    return out
