"""Dataset construction: sample trajectories, merge, filter, split, write.

The pipeline turns plain question/label pairs into training instances
whose reasoning is a serialized graph template. Every source item either
becomes exactly one retained instance or exactly one discard record, so
the final report satisfies total_in == retained + discarded.
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Generator, Sequence

from ._io import atomic_write, check_non_empty, jsonl_lines, read_records, repeated_id
from .answers import answers_match
from .client import (
    ChatClient,
    ClientError,
    CompletionRequest,
    SamplingConfig,
    all_failed_detail,
)
from .codec import LENIENT, STRICT, StructuredOutput, TemplateParseError, parse, render
from .graph import InvalidGraphError
from .merge import (
    MAX_INTEGRATION_REQUESTS,
    MODE_DETERMINISTIC,
    CandidateSet,
    EdgelessMergeError,
    LLMMergeFailedError,
    MergedResult,
    Pending,
    advance,
    check_merge_mode,
    merge_steps,
)
from .prompts import TRAJECTORY_PROMPT

log = logging.getLogger(__name__)

DISCARD_ANSWER_MISMATCH = "answer-mismatch"
DISCARD_ALL_CANDIDATES_FAILED = "all-candidates-failed"
DISCARD_PARSE_FAILURE = "parse-failure"
# The deterministic merge broke every edge into its conclusion.
DISCARD_EDGELESS_MERGE = "edgeless-merge"
# The step grammar cannot express the merge that matched the label
# (e.g. an answer holding "<").
DISCARD_UNRENDERABLE = "unrenderable"
DISCARD_REASONS = (
    DISCARD_ANSWER_MISMATCH,
    DISCARD_ALL_CANDIDATES_FAILED,
    DISCARD_PARSE_FAILURE,
    DISCARD_EDGELESS_MERGE,
    DISCARD_UNRENDERABLE,
)

DEFAULT_SPLIT_SEED = 42
TRAIN_FILE = "train.jsonl"
VALID_FILE = "valid.jsonl"
REPORT_FILE = "report.json"


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class SourceQA:
    """One input question with its reference label."""

    question: str
    label: str
    source_id: str

    def __post_init__(self) -> None:
        for name in ("question", "label", "source_id"):
            check_non_empty(name, getattr(self, name))


@dataclass(frozen=True)
class Provenance:
    """How a retained instance was produced."""

    source_id: str
    teacher_model: str
    k_used: int
    contributing_indices: tuple[int, ...]
    merge_mode: str
    # Read from merge_mode by the merge's own rule, so it is never stored.
    fell_back = MergedResult.fell_back

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "teacher_model": self.teacher_model,
            "k_used": self.k_used,
            "contributing_indices": list(self.contributing_indices),
            "merge_mode": self.merge_mode,
            "fell_back": self.fell_back,
        }


@dataclass(frozen=True)
class TrainingInstance:
    """One emitted dataset row: question, graph template text, label.

    ``lenient_only`` counts the item's samples that parsed only
    leniently. It is set when the record is made, and it is a run stat,
    so ``to_dict`` does not write it.
    """

    question: str
    graph_text: str
    label: str
    provenance: Provenance
    lenient_only: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "graph_reasoning": self.graph_text,
            "label": self.label,
            "provenance": self.provenance.to_dict(),
        }


@dataclass(frozen=True)
class DiscardRecord:
    """One dropped source item; ``lenient_only`` is as on TrainingInstance."""

    source_id: str
    reason: str
    detail: str = ""
    lenient_only: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.reason not in DISCARD_REASONS:
            raise ValueError(f"unknown discard reason {self.reason!r}")

    def to_dict(self) -> dict:
        return {"source_id": self.source_id, "reason": self.reason, "detail": self.detail}


@dataclass
class BuildReport:
    """Aggregate accounting for one dataset build."""

    total_in: int
    retained: int
    discarded_by_reason: dict[str, int]
    split_sizes: dict[str, int]

    def __post_init__(self) -> None:
        discarded = sum(self.discarded_by_reason.values())
        if self.total_in != self.retained + discarded:
            raise ValueError(
                f"accounting broken: {self.total_in} in != "
                f"{self.retained} retained + {discarded} discarded"
            )
        if self.split_sizes and sum(self.split_sizes.values()) != self.retained:
            raise ValueError("split sizes must sum to the retained count")

    def to_dict(self) -> dict:
        return {
            "total_in": self.total_in,
            "retained": self.retained,
            "discarded_by_reason": dict(self.discarded_by_reason),
            "split_sizes": dict(self.split_sizes),
        }


def read_sources(path: str | Path) -> list[SourceQA]:
    """Load question/label pairs from a JSONL file.

    Each record needs a text "question" and a "label" (or, without one,
    "answer"); an absent or null "id" defaults to item-<1-based line>.
    Any other record raises SchemaError naming the file, line and field.
    """
    items = []
    for lineno, record in read_records(path):
        label_key = "answer" if "answer" in record.raw and "label" not in record.raw else "label"
        items.append(record.make(
            SourceQA, record.text("question"), record.label(label_key), record.id(f"item-{lineno}")
        ))
    return items


def trajectory_requests(question: str, config: SamplingConfig) -> list[CompletionRequest]:
    """The k ``TRAJECTORY_PROMPT`` sampling requests for one question, by sample index.

    When config.seed is set, sample i is sent with seed + i so siblings
    stay distinct yet reproducible.
    """
    system, user = TRAJECTORY_PROMPT.fill(question=question)
    return [
        CompletionRequest(
            system, user, config if config.seed is None else replace(config, seed=config.seed + i),
            sample_index=i,
        )
        for i in range(config.k)
    ]


def parse_candidates(
    replies: Sequence[str | ClientError | None],
) -> tuple[list[tuple[StructuredOutput, int]], tuple[int, ...]]:
    """Strict-parse each sampled text, falling back to lenient per sample.

    An entry that is not a text (a failed sample's ClientError, or a
    null from ``merge`` input) is skipped. Returns ``(kept,
    lenient_only)``: the parsed samples with their indices, unparseable
    ones dropped, and the indices of the samples that parsed only
    leniently. Nothing is logged for those; callers report the count
    once.
    """
    kept: list[tuple[StructuredOutput, int]] = []
    lenient_only: list[int] = []
    for index, text in enumerate(replies):
        if not isinstance(text, str):
            continue
        try:
            kept.append((parse(text, STRICT), index))
            continue
        except TemplateParseError:
            pass
        try:
            kept.append((parse(text, LENIENT), index))
            lenient_only.append(index)
        except TemplateParseError as err:
            log.debug("sample %d unparseable: %s: %s", index, err.kind, err.detail)
    return kept, tuple(lenient_only)


def build_instance(
    item: SourceQA, replies: Sequence[str | ClientError], config: SamplingConfig, merge_mode: str
) -> TrainingInstance | DiscardRecord | Pending:
    """Finish one source item from its sample replies, each a text or a ClientError.

    Merges the parseable samples under ``merge_mode`` and keeps the
    result only when the merged answer matches the reference label; the
    merged graph is then rendered as the strict template document. The
    merged answer comes from the parsed documents' answer blocks, not
    from ``codec.final_answer`` of the replies, because a training row's
    graph must support the answer it carries. An
    item whose samples all failed or none parsed is discarded as
    all-candidates-failed, a merge whose conclusion keeps no edge as
    edgeless-merge, one the step grammar cannot express as
    unrenderable. An LLM merge sends nothing: the item comes back as a
    Pending on its next request, and resuming it with the reply gives
    the outcome or the next Pending.
    """
    check_merge_mode("merge_mode", merge_mode)
    return advance(_instance_steps(item, replies, config, merge_mode))


def _instance_steps(
    item: SourceQA, replies: Sequence[str | ClientError], config: SamplingConfig, merge_mode: str
) -> Generator[CompletionRequest, str | ClientError, TrainingInstance | DiscardRecord]:
    for i, reply in enumerate(replies, start=1):
        if isinstance(reply, ClientError):
            log.warning("sample %d/%d failed: %s", i, len(replies), reply)
    failure = all_failed_detail(replies)
    if failure is not None:
        return DiscardRecord(item.source_id, DISCARD_ALL_CANDIDATES_FAILED, failure)
    candidates, lenient_only = parse_candidates(replies)
    discard = partial(DiscardRecord, item.source_id, lenient_only=len(lenient_only))
    if not candidates:
        return discard(DISCARD_ALL_CANDIDATES_FAILED, "no sample parsed as a reasoning template")
    candidate_set = CandidateSet(candidates, question=item.question)

    try:
        merged = yield from merge_steps(candidate_set, config, merge_mode)
    except LLMMergeFailedError as err:
        return discard(DISCARD_PARSE_FAILURE, str(err))
    except EdgelessMergeError as err:
        return discard(DISCARD_EDGELESS_MERGE, str(err))

    if not answers_match(merged.answer, item.label):
        return discard(
            DISCARD_ANSWER_MISMATCH,
            f"merged answer {merged.answer!r} does not match label {item.label!r}",
        )

    try:
        graph_text = render(merged)
    except InvalidGraphError as err:
        return discard(DISCARD_UNRENDERABLE, str(err))

    provenance = Provenance(
        source_id=item.source_id,
        teacher_model=config.model_name,
        k_used=config.k,
        contributing_indices=merged.contributing_indices,
        merge_mode=merged.merge_mode,
    )
    return TrainingInstance(item.question, graph_text, item.label, provenance, len(lenient_only))


def split_instances(
    instances: Sequence[TrainingInstance], seed: int = DEFAULT_SPLIT_SEED
) -> tuple[list[TrainingInstance], list[TrainingInstance]]:
    """Deterministic 9:1 train/valid split, both halves in input order.

    Membership comes from a seeded shuffle of positions; n // 10 items
    go to the validation side.
    """
    positions = list(range(len(instances)))
    random.Random(seed).shuffle(positions)
    n_valid = len(instances) // 10
    valid_positions = set(positions[:n_valid])
    train = [inst for i, inst in enumerate(instances) if i not in valid_positions]
    valid = [inst for i, inst in enumerate(instances) if i in valid_positions]
    return train, valid


@dataclass
class BuildResult:
    """Everything a build produced, before and after splitting.

    ``lenient_only`` is the number of samples, over every item, that
    parsed only leniently. It is a run stat and not part of ``report``,
    which stays byte-deterministic.
    """

    instances: list[TrainingInstance]
    discards: list[DiscardRecord]
    train: list[TrainingInstance]
    valid: list[TrainingInstance]
    report: BuildReport = field(init=False)
    lenient_only: int = field(init=False)

    def __post_init__(self) -> None:
        counts = {reason: 0 for reason in DISCARD_REASONS}
        for record in self.discards:
            counts[record.reason] += 1
        self.report = BuildReport(
            total_in=len(self.instances) + len(self.discards),
            retained=len(self.instances),
            discarded_by_reason={k: v for k, v in counts.items() if v},
            split_sizes={"train": len(self.train), "valid": len(self.valid)},
        )
        self.lenient_only = sum(o.lenient_only for o in [*self.instances, *self.discards])


def build_dataset(
    items: Sequence[SourceQA],
    client: ChatClient,
    config: SamplingConfig,
    *,
    merge_mode: str = MODE_DETERMINISTIC,
    split_seed: int = DEFAULT_SPLIT_SEED,
) -> BuildResult:
    """Build a dataset from question/label pairs, preserving input order.

    This thread drives every item. Samples are requested through
    ``client.replies`` up to ``client.lookahead`` items ahead and handed
    to ``build_instance`` in input order; an LLM merge's integration
    request, then its repair, go through windows of their own, so that
    the requests of different items overlap. ``client.concurrency`` is
    the one parallelism setting, and every window closes before this
    returns or raises. An unknown ``merge_mode`` raises ValueError
    before anything is sent.
    """
    check_merge_mode("merge_mode", merge_mode)
    repeat = repeated_id("source", (item.source_id for item in items))
    if repeat is not None:
        raise PipelineError(repeat)

    windows = [client.replies(items, lambda item: trajectory_requests(item.question, config))]
    outcomes = (build_instance(item, replies, config, merge_mode) for item, replies in windows[0])
    # One window per request, chained: a single window waiting at its head
    # would send each item's repair only after the one before it came back.
    for _ in range(MAX_INTEGRATION_REQUESTS):
        windows.append(client.replies(
            outcomes, lambda outcome: [outcome.request] if isinstance(outcome, Pending) else []
        ))
        outcomes = (o.resume(*replies) if replies else o for o, replies in windows[-1])
    try:
        outcomes = list(outcomes)
    finally:
        for window in windows:
            window.close()

    instances = [o for o in outcomes if isinstance(o, TrainingInstance)]
    discards = [o for o in outcomes if isinstance(o, DiscardRecord)]
    train, valid = split_instances(instances, split_seed)
    return BuildResult(instances, discards, train, valid)


def write_dataset(result: BuildResult, out_dir: str | Path) -> dict[str, Path]:
    """Write train.jsonl, valid.jsonl and report.json (with every discard) atomically."""
    out = Path(out_dir)
    paths = {
        "train": out / TRAIN_FILE,
        "valid": out / VALID_FILE,
        "report": out / REPORT_FILE,
    }
    atomic_write(paths["train"], jsonl_lines(i.to_dict() for i in result.train))
    atomic_write(paths["valid"], jsonl_lines(i.to_dict() for i in result.valid))
    report = result.report.to_dict()
    report["discards"] = [d.to_dict() for d in result.discards]
    atomic_write(paths["report"], [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return paths
