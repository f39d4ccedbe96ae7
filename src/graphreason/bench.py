"""Benchmark ingestion and three-paradigm evaluation harness.

Adapters normalize six QA benchmarks from their published file formats
into a single item shape; the evaluator asks one deterministic
completion per item under a chosen prompting paradigm and scores the
extracted answer against the label. Reports are byte-deterministic:
same items, same scripted replies, same bytes out.
"""
from __future__ import annotations

import json
import logging
import re
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ._io import (
    Fields,
    SchemaError,
    atomic_write,
    check_non_empty,
    jsonl_lines,
    read_json,
    read_records,
    repeated_id,
)
from .answers import OPTION_LETTERS, answers_match
from .client import ChatClient, ClientError, CompletionRequest, SamplingConfig
from .codec import LENIENT, TemplateParseError, final_answer, parse
from .prompts import DIRECT_PROMPT, LINEAR_PROMPT, SELF_GRAPH_PROMPT, PromptTemplate

log = logging.getLogger(__name__)

PARADIGM_DIRECT = "direct"
PARADIGM_LINEAR = "linear"
PARADIGM_SELF_GRAPH = "self-graph"

PARADIGM_PROMPTS: dict[str, PromptTemplate] = {
    PARADIGM_DIRECT: DIRECT_PROMPT,
    PARADIGM_LINEAR: LINEAR_PROMPT,
    PARADIGM_SELF_GRAPH: SELF_GRAPH_PROMPT,
}
PARADIGMS = tuple(PARADIGM_PROMPTS)


def check_paradigm(name: str, value: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is one of PARADIGMS."""
    if value not in PARADIGMS:
        raise ValueError(f"{name} must be one of {PARADIGMS}, got {value!r}")


REPORT_TEXT_FILE = "report.txt"
REPORT_JSON_FILE = "report.json"
RECORDS_FILE = "records.jsonl"


@dataclass(frozen=True)
class BenchmarkItem:
    """One evaluation question, already formatted for prompting."""

    question: str
    label: str
    benchmark: str
    item_id: str

    def __post_init__(self) -> None:
        for name in ("question", "label", "item_id"):
            check_non_empty(name, getattr(self, name))


def format_options(options: Sequence[str], where: str) -> str:
    """Render answer options as lettered lines, one per option."""
    if not 0 < len(options) <= len(OPTION_LETTERS):
        raise SchemaError(f"{where}: field 'options' must hold 1 to {len(OPTION_LETTERS)} options")
    return "\n".join(f"{OPTION_LETTERS[i]}. {text.strip()}" for i, text in enumerate(options))


def compose_question(*blocks: str) -> str:
    """Join non-empty text blocks with blank lines."""
    return "\n\n".join(block.strip() for block in blocks if block and block.strip())


def _pick(record: Fields, key: str, letter: str, count: int) -> str:
    """``letter`` when it is one of the first ``count`` option letters; else ``key`` is at fault."""
    if letter not in list(OPTION_LETTERS[:count]):
        raise SchemaError(
            f"{record.where}: field '{key}' must name one of options A-{OPTION_LETTERS[count - 1]}"
        )
    return letter


def _index_letter(record: Fields, key: str, count: int) -> str:
    index = record.index(key)
    return _pick(record, key, OPTION_LETTERS[index] if 0 <= index < count else "", count)


def _text_letter(record: Fields, key: str, count: int) -> str:
    return _pick(record, key, record.text(key).strip().upper(), count)


def _entries(path: Path, kind: str, name: str) -> Iterator[tuple[int, Fields]]:
    """The numbered objects of a JSON file that holds an array of them."""
    data = read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a JSON array of {kind}")
    for n, raw in enumerate(data, start=1):
        yield n, Fields(raw, f"{path}: {name} {n}")


def load_logiqa(path: str | Path) -> list[BenchmarkItem]:
    """LogiQA split file: JSONL with text/question/options/answer-index."""
    items = []
    for lineno, record in read_records(path):
        options = record.texts("options")
        items.append(
            record.make(
                BenchmarkItem,
                question=compose_question(
                    record.text("text"), record.text("question"),
                    format_options(options, record.where),
                ),
                label=_index_letter(record, "answer", len(options)),
                benchmark="logiqa",
                item_id=record.id(f"logiqa-{lineno}"),
            )
        )
    return items


def _load_aiw_family(path: str | Path, benchmark: str) -> list[BenchmarkItem]:
    return [
        record.make(
            BenchmarkItem,
            question=record.text("prompt"),
            label=record.label("right_answer"),
            benchmark=benchmark,
            item_id=record.id(f"{benchmark}-{i}"),
        )
        for i, record in _entries(Path(path), "prompt records", "item")
    ]


def load_aiw(path: str | Path) -> list[BenchmarkItem]:
    """AIW prompt collection: JSON array of prompt/right_answer records."""
    return _load_aiw_family(path, "aiw")


def load_aiw_plus(path: str | Path) -> list[BenchmarkItem]:
    """AIW+ harder variant; same record shape as AIW."""
    return _load_aiw_family(path, "aiw_plus")


def load_arlsat(path: str | Path) -> list[BenchmarkItem]:
    """AR-LSAT: JSON array of passages, each with nested questions."""
    items = []
    for p, passage in _entries(Path(path), "passages", "passage"):
        text = passage.text("passage")
        questions = passage.list("questions")
        for q in questions.raw:
            record = Fields(questions.raw[q], f"{passage.where} question {q + 1}")
            options = record.texts("options")
            letter = _text_letter if isinstance(record.raw.get("answer"), str) else _index_letter
            items.append(
                record.make(
                    BenchmarkItem,
                    question=compose_question(
                        text, record.text("question"), format_options(options, record.where)
                    ),
                    label=letter(record, "answer", len(options)),
                    benchmark="arlsat",
                    item_id=record.id(f"arlsat-{p}-{q + 1}"),
                )
            )
    return items


def load_medqa(path: str | Path) -> list[BenchmarkItem]:
    """MedQA (US) split: JSONL with an options object keyed by letter."""
    items = []
    for lineno, record in read_records(path):
        question = record.text("question")
        options = record.object("options")
        letters = sorted(options.raw)
        if letters != list(OPTION_LETTERS[: len(letters)]):
            raise SchemaError(f"{record.where}: field 'options' must be keyed A, B, ... in turn")
        option_lines = format_options([options.text(letter) for letter in letters], record.where)
        items.append(
            record.make(
                BenchmarkItem,
                question=compose_question(question, option_lines),
                label=_text_letter(record, "answer_idx", len(letters)),
                benchmark="medqa",
                item_id=record.id(f"medqa-{lineno}"),
            )
        )
    return items


_MATHQA_OPTION_SPLIT = re.compile(r"\s*,\s*(?=[a-e]\s*\))")
_MATHQA_OPTION = re.compile(r"^([a-e])\s*\)\s*(.*)$", re.DOTALL)


def parse_packed_options(packed: str, where: str) -> list[str]:
    """Split a MathQA options string like "a ) 38 , b ) 27.6 , ..." into texts."""
    chunks = _MATHQA_OPTION_SPLIT.split(packed.strip())
    options = []
    for i, chunk in enumerate(chunks):
        match = _MATHQA_OPTION.match(chunk.strip())
        # Past "e" the slice is empty and matches no letter.
        if not match or match.group(1) != "abcde"[i:i + 1]:
            raise SchemaError(f"{where}: field 'options' must read 'a ) ... , b ) ...'")
        options.append(match.group(2).strip())
    return options


def load_mathqa(path: str | Path) -> list[BenchmarkItem]:
    """MathQA split: JSON array with a packed options string per problem."""
    items = []
    for i, record in _entries(Path(path), "problems", "item"):
        problem = record.text("Problem")
        options = parse_packed_options(record.text("options"), record.where)
        items.append(
            record.make(
                BenchmarkItem,
                question=compose_question(problem, format_options(options, record.where)),
                label=_text_letter(record, "correct", len(options)),
                benchmark="mathqa",
                item_id=record.id(f"mathqa-{i}"),
            )
        )
    return items


ADAPTERS: dict[str, Callable[[str | Path], list[BenchmarkItem]]] = {
    "logiqa": load_logiqa,
    "aiw": load_aiw,
    "aiw_plus": load_aiw_plus,
    "arlsat": load_arlsat,
    "medqa": load_medqa,
    "mathqa": load_mathqa,
}
BENCHMARKS = tuple(ADAPTERS)


def load_benchmark(name: str, path: str | Path) -> list[BenchmarkItem]:
    """Dispatch to the adapter registered under ``name``; item ids must not repeat."""
    if name not in ADAPTERS:
        raise SchemaError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}")
    return _unique_ids(ADAPTERS[name](path), path)


def _unique_ids(items: list[BenchmarkItem], path: str | Path) -> list[BenchmarkItem]:
    repeat = repeated_id("item", (item.item_id for item in items))
    if repeat is not None:
        raise SchemaError(f"{path}: {repeat}")
    return items


def write_items(items: Sequence[BenchmarkItem], path: str | Path) -> None:
    """Write normalized items as JSONL, one object per line."""
    atomic_write(
        Path(path),
        jsonl_lines(
            {
                "question": item.question,
                "label": item.label,
                "benchmark": item.benchmark,
                "item_id": item.item_id,
            }
            for item in items
        ),
    )


def read_items(path: str | Path) -> list[BenchmarkItem]:
    """Read items as ``write_items`` writes them: a label and three texts, ids unique."""
    items = [
        record.make(BenchmarkItem, record.text("question"), record.label("label"),
                    record.text("benchmark"), record.text("item_id"))
        for _, record in read_records(path)
    ]
    return _unique_ids(items, path)


@dataclass
class ItemRecord:
    """Outcome for one evaluated item."""

    item_id: str
    benchmark: str
    paradigm: str
    label: str
    candidate: str | None
    correct: bool
    error: str | None = None
    node_count: int | None = None
    edge_count: int | None = None

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "benchmark": self.benchmark,
            "paradigm": self.paradigm,
            "label": self.label,
            "candidate": self.candidate,
            "correct": self.correct,
            "error": self.error,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
        }


@dataclass(frozen=True)
class BenchmarkScore:
    n: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.n if self.n else 0.0


@dataclass
class EvalReport:
    """Scores per benchmark plus the unweighted mean across benchmarks."""

    paradigm: str
    model: str
    per_benchmark: dict[str, BenchmarkScore]
    records: list[ItemRecord] = field(repr=False, default_factory=list)

    @property
    def overall_accuracy(self) -> float:
        scores = list(self.per_benchmark.values())
        if not scores:
            return 0.0
        return sum(score.accuracy for score in scores) / len(scores)

    def to_dict(self) -> dict:
        return {
            "paradigm": self.paradigm,
            "model": self.model,
            "per_benchmark": {
                name: {
                    "n": score.n,
                    "correct": score.correct,
                    "accuracy_percent": percent(score.accuracy),
                }
                for name, score in self.per_benchmark.items()
            },
            "overall_accuracy_percent": percent(self.overall_accuracy),
        }


def percent(fraction: float) -> str:
    """Accuracy fraction as a two-decimal percent string."""
    return f"{fraction * 100:.2f}"


def extract_candidate(text: str, paradigm: str) -> tuple[str | None, int | None, int | None]:
    """The reply's answer, plus its graph's node and edge counts when structured.

    The answer of every paradigm is ``codec.final_answer``, the rule the
    answer reward applies too, so a reply that earns the reward is
    correct here. A self-graph reply is also parsed leniently, which
    agrees with strict parsing wherever strict succeeds, only for its
    counts; any other reply, or one that does not parse, has none.
    """
    candidate = final_answer(text)
    if paradigm == PARADIGM_SELF_GRAPH:
        try:
            graph = parse(text, LENIENT).graph
        except TemplateParseError:
            pass
        else:
            return candidate, graph.node_count, graph.edge_count
    return candidate, None, None


def evaluate_item(item: BenchmarkItem, paradigm: str, reply: str | ClientError) -> ItemRecord:
    """Score one item from its reply: the completion text, or its request's ClientError.

    Transport failures become records, not exceptions.
    """
    candidate = node_count = edge_count = error = None
    if isinstance(reply, ClientError):
        log.warning("item %s failed in transport: %s", item.item_id, reply)
        error = str(reply)
    else:
        candidate, node_count, edge_count = extract_candidate(reply, paradigm)
    return ItemRecord(
        item_id=item.item_id,
        benchmark=item.benchmark,
        paradigm=paradigm,
        label=item.label,
        candidate=candidate,
        correct=candidate is not None and answers_match(candidate, item.label),
        error=error,
        node_count=node_count,
        edge_count=edge_count,
    )


def eval_request(item: BenchmarkItem, paradigm: str, config: SamplingConfig) -> CompletionRequest:
    """The one completion request that evaluates ``item`` under ``paradigm``."""
    system, user = PARADIGM_PROMPTS[paradigm].fill(question=item.question)
    return CompletionRequest(system, user, config)


def evaluate(
    items: Sequence[BenchmarkItem],
    paradigm: str,
    client: ChatClient,
    config: SamplingConfig,
) -> EvalReport:
    """Evaluate items under one paradigm, one greedy completion each.

    Requests go through ``client.replies`` up to ``client.lookahead``
    items ahead (a warm-cache hit answers at once, in this thread),
    while this thread extracts and matches each reply in input order;
    ``client.concurrency`` is the one parallelism setting. The window
    closes before this returns or raises.
    """
    check_paradigm("paradigm", paradigm)
    repeat = repeated_id("item", (item.item_id for item in items))
    if repeat is not None:
        raise ValueError(repeat)

    eval_config = replace(config, temperature=0.0, k=1)
    replies = client.replies(items, lambda item: [eval_request(item, paradigm, eval_config)])
    with closing(replies):
        records = [evaluate_item(item, paradigm, reply) for item, (reply,) in replies]

    # Benchmarks in order of first appearance: a dict keeps insertion order.
    counts: dict[str, list[int]] = {}
    for record in records:
        tally = counts.setdefault(record.benchmark, [0, 0])
        tally[0] += 1
        tally[1] += record.correct

    return EvalReport(
        paradigm=paradigm,
        model=config.model_name,
        per_benchmark={name: BenchmarkScore(n=n, correct=correct)
                       for name, (n, correct) in counts.items()},
        records=records,
    )


def render_table(report: EvalReport) -> str:
    """Fixed-width accuracy table; the overall row is the unweighted mean."""
    rows = [(name, str(s.n), str(s.correct), percent(s.accuracy))
            for name, s in report.per_benchmark.items()]
    rows.append(("overall", "-", "-", percent(report.overall_accuracy)))
    header = ("benchmark", "n", "correct", "accuracy")
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) for col in range(4)
    ]

    def line(cells: tuple[str, str, str, str]) -> str:
        name = cells[0].ljust(widths[0])
        rest = "  ".join(cells[i].rjust(widths[i]) for i in range(1, 4))
        return f"{name}  {rest}".rstrip()

    out = [
        f"paradigm: {report.paradigm}",
        f"model: {report.model}",
        "",
        line(header),
        line(tuple("-" * w for w in widths)),
    ]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def write_report(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.txt, report.json and records.jsonl atomically."""
    out = Path(out_dir)
    paths = {
        "text": out / REPORT_TEXT_FILE,
        "json": out / REPORT_JSON_FILE,
        "records": out / RECORDS_FILE,
    }
    atomic_write(paths["text"], [render_table(report)])
    atomic_write(paths["json"], [json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"])
    atomic_write(paths["records"], jsonl_lines(r.to_dict() for r in report.records))
    return paths
