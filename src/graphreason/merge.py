"""Merging candidate reasoning graphs into one consolidated graph.

Two roads: a fully specified deterministic majority merge (group by
normalized answer, union the winning group, break cycles by evidence
strength, prune to the conclusion's ancestry) and an LLM integration
that strict-parses the model's consolidation. ``merge_steps`` is the
one entry point that turns a merge mode into a merge; it yields the
integration's requests and sends none, so one thread can drive the
merges of many items. The graph of every :class:`MergedResult` has
exactly one sink, its conclusion, so ``sinks(result.graph)[0]`` names it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Any, Generator

from ._io import check_non_empty
from .answers import normalize_freeform
from .client import ClientError, CompletionRequest, SamplingConfig
from .codec import STRICT, StructuredOutput, TemplateParseError, parse, render
from .graph import (
    WARNING_MULTIPLE_SINKS,
    InvalidGraphError,
    ReasoningGraph,
    sinks,
    strongly_connected_components,
)
from .prompts import INTEGRATION_PROMPT, REPAIR_SUFFIX, format_candidates

log = logging.getLogger(__name__)

MODE_DETERMINISTIC = "deterministic"
MODE_LLM = "llm"
MODE_LLM_FALLBACK = "llm-with-fallback"
MERGE_MODES = (MODE_DETERMINISTIC, MODE_LLM, MODE_LLM_FALLBACK)

DROP_CYCLE_BREAK = "cycle-break"
DROP_PRUNED = "pruned-unreachable"


def check_merge_mode(name: str, value: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is one of MERGE_MODES."""
    if value not in MERGE_MODES:
        raise ValueError(f"{name} must be one of {MERGE_MODES}, got {value!r}")


class MergeError(Exception):
    """Base for merge failures."""


class LLMMergeFailedError(MergeError):
    """The integration model never produced a parseable single-conclusion document."""


class EdgelessMergeError(MergeError):
    """The conclusion kept no incoming edge, so the merge has no graph."""


@dataclass
class CandidateSet:
    """Ordered candidates for one question, tagged by sampling index."""

    candidates: list[tuple[StructuredOutput, int]]
    question: str

    def __post_init__(self) -> None:
        check_non_empty("question", self.question)
        if not self.candidates:
            raise ValueError("candidate set must be non-empty")
        indices = [idx for _, idx in self.candidates]
        if sorted(set(indices)) != indices:
            raise ValueError(f"source indices must be unique and ascending: {indices}")


@dataclass
class DroppedEdge:
    parent: str
    child: str
    reason: str
    multiplicity: int = 1


@dataclass
class MergedResult:
    """A merged graph and its answer; the graph has exactly one sink, its conclusion."""

    graph: ReasoningGraph
    answer: str
    contributing_indices: tuple[int, ...]
    dropped_edges: list[DroppedEdge] = field(default_factory=list)
    merge_mode: str = MODE_DETERMINISTIC

    @property
    def fell_back(self) -> bool:
        """Whether the integration failed and the deterministic merge stood in."""
        return self.merge_mode == MODE_LLM_FALLBACK


def _majority_group(
    candidates: list[tuple[StructuredOutput, int]],
) -> list[tuple[StructuredOutput, int]]:
    groups: dict[str, list[tuple[StructuredOutput, int]]] = {}
    for output, idx in candidates:
        groups.setdefault(normalize_freeform(output.answer), []).append((output, idx))
    # Groups meet lowest index first and max keeps the first of equal sizes.
    return max(groups.values(), key=len)


def _reachable(adjacency: dict[str, list[str]], start: str) -> set[str]:
    """Every key reachable from ``start`` along ``adjacency``, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _break_cycles(
    node_order: list[str],
    edge_order: list[tuple[str, str]],
    multiplicity: dict[tuple[str, str], int],
) -> list[tuple[str, str]]:
    """Edges to drop, in drop order, so that ``edge_order`` becomes acyclic.

    Each drop takes the weakest edge still on a cycle: lowest
    multiplicity, ties to the lexicographically greatest key. Dropping
    an edge never puts another edge on a cycle, so one ranking of the
    initially cyclic edges, skipping those no longer on a cycle, gives
    the drop order. An edge is still on a cycle while its child reaches
    its parent through the edges left.
    """
    component_of = {
        key: cid
        for cid, component in enumerate(strongly_connected_components(node_order, edge_order))
        for key in component
    }
    # Without self-loops, an edge inside one component lies on a cycle.
    ranked = sorted(
        (edge for edge in edge_order if component_of[edge[0]] == component_of[edge[1]]),
        reverse=True,
    )
    ranked.sort(key=multiplicity.__getitem__)
    adjacency: dict[str, list[str]] = {key: [] for key in component_of}
    for parent, child in ranked:
        adjacency[parent].append(child)
    dropped: list[tuple[str, str]] = []
    for parent, child in ranked:
        if parent in _reachable(adjacency, child):
            adjacency[parent].remove(child)
            dropped.append((parent, child))
    return dropped


def merge_deterministic(candidate_set: CandidateSet) -> MergedResult:
    """Majority-answer union merge with reproducible tie-breaking.

    Equal inputs give byte-identical results: grouping follows
    normalized answers, the union keeps first-seen order, cycle edges
    die lowest-multiplicity-first (ties to the lexicographically
    greatest (parent, child) key), and the conclusion is the first sink
    of the winning group's lowest-index candidate. Nodes that cannot
    reach the conclusion are pruned, with each dropped edge recorded.
    Raises EdgelessMergeError when the conclusion keeps no incoming
    edge. The result is built by the graph's checked constructor from
    keys the candidates already normalized.
    """
    members = _majority_group(candidate_set.candidates)
    answer = members[0][0].answer

    display: dict[str, str] = {}
    multiplicity: dict[tuple[str, str], int] = {}
    for output, _ in members:
        for key, text in output.graph.texts.items():
            display.setdefault(key, text)
        for edge in output.graph.edge_keys:
            multiplicity[edge] = multiplicity.get(edge, 0) + 1
    node_order = list(display)
    edge_order = list(multiplicity)

    victims = _break_cycles(node_order, edge_order, multiplicity)
    dropped = [
        DroppedEdge(parent, child, DROP_CYCLE_BREAK, multiplicity[(parent, child)])
        for parent, child in victims
    ]
    cut = set(victims)
    working = [edge for edge in edge_order if edge not in cut]

    conclusion = sinks(members[0][0].graph)[0]

    # Keep only structure that feeds the conclusion.
    incoming: dict[str, list[str]] = {key: [] for key in node_order}
    for parent, child in working:
        incoming[child].append(parent)
    keep = _reachable(incoming, conclusion)
    if len(keep) == 1:
        raise EdgelessMergeError(
            f"conclusion {conclusion!r} keeps no incoming edge "
            f"({len(victims)} edge(s) dropped to break cycles)"
        )

    kept_edges: list[tuple[str, str]] = []
    for parent, child in working:
        if parent in keep and child in keep:
            kept_edges.append((parent, child))
        else:
            dropped.append(
                DroppedEdge(parent, child, DROP_PRUNED, multiplicity[(parent, child)])
            )
    graph = ReasoningGraph({key: display[key] for key in node_order if key in keep}, kept_edges)

    return MergedResult(
        graph=graph,
        answer=answer,
        contributing_indices=tuple(idx for _, idx in members),
        dropped_edges=dropped,
        merge_mode=MODE_DETERMINISTIC,
    )


# Requests an LLM merge makes at most: the integration and one repair.
MAX_INTEGRATION_REQUESTS = 2


@dataclass(frozen=True)
class Pending:
    """A step generator waiting on the reply to ``request``.

    A step generator yields each request it needs, is sent the reply
    text or the ClientError the request raised, and returns its result.
    """

    request: CompletionRequest
    steps: Generator

    def resume(self, reply: str | ClientError) -> Any:
        """Go on with the request's reply: its text, or the ClientError it raised."""
        return advance(self.steps, reply)


def advance(steps: Generator, reply: str | ClientError | None = None) -> Any:
    """Run ``steps`` on to its next request, returned as a Pending, or to its result."""
    try:
        return Pending(steps.send(reply), steps)
    except StopIteration as done:
        return done.value


def merge_steps(
    candidate_set: CandidateSet, config: SamplingConfig, mode: str
) -> Generator[CompletionRequest, str | ClientError, MergedResult]:
    """Merge ``candidate_set`` under ``mode``, a step generator (see ``Pending``).

    ``deterministic`` returns ``merge_deterministic``'s result without
    yielding; a mode not in MERGE_MODES raises ValueError. The LLM modes
    have a model consolidate the candidates at temperature 0 and strict-parse
    its reply; a reply whose graph has several sinks fails like a parse
    failure, and one repair retry quotes the failure back. A candidate
    the template cannot quote (an answer holding "<") is left out of the
    prompt. When none can be quoted, both tries fail or transport dies,
    ``llm-with-fallback`` merges deterministically and ``llm`` raises
    LLMMergeFailedError. The result's graph has exactly one sink.
    """
    check_merge_mode("merge_mode", mode)
    if mode == MODE_DETERMINISTIC:
        return merge_deterministic(candidate_set)
    quoted: list[tuple[str, int]] = []
    failure: Exception | str | None = None
    for output, index in candidate_set.candidates:
        try:
            quoted.append((render(output), index))
        except InvalidGraphError as err:
            failure = f"no candidate can be quoted: {err}"
            log.warning("candidate %d left out of the integration prompt: %s", index, err)
    if quoted:
        system, user = INTEGRATION_PROMPT.fill(
            question=candidate_set.question,
            candidates=format_candidates([text for text, _ in quoted]),
        )
        merge_config = replace(config, temperature=0.0, k=1)
        request = CompletionRequest(system, user, merge_config)
        for _ in range(MAX_INTEGRATION_REQUESTS):
            reply = yield request
            if isinstance(reply, ClientError):
                failure = reply
                break
            try:
                output = parse(reply, STRICT)
            except TemplateParseError as err:
                failure, kind, detail = err, err.kind, err.detail
            else:
                ends = sinks(output.graph)
                if len(ends) == 1:
                    indices = tuple(index for _, index in quoted)
                    return MergedResult(output.graph, output.answer, indices, merge_mode=MODE_LLM)
                # Several sinks mean no single conclusion: a failure quoted back like a parse error.
                kind = WARNING_MULTIPLE_SINKS
                detail = "the graph ends at " + ", ".join(repr(output.graph.texts[e]) for e in ends)
                failure = f"{kind}: {detail}"
            request = CompletionRequest(
                system, user + REPAIR_SUFFIX.format(kind=kind, detail=detail), merge_config
            )

    if mode == MODE_LLM:
        raise LLMMergeFailedError(f"integration failed: {failure}")
    log.warning("LLM merge failed (%s); falling back to deterministic merge", failure)
    return replace(merge_deterministic(candidate_set), merge_mode=MODE_LLM_FALLBACK)

