"""Merging candidate reasoning graphs into one consolidated graph.

Two roads: a fully specified deterministic majority merge (group by
normalized answer, union the winning group, break cycles by evidence
strength, prune to the conclusion's ancestry) and an LLM-backed
integration call that strict-parses the model's consolidation and falls
back to the deterministic road when the model cannot produce a valid
document with a single conclusion. Every :class:`MergedResult` has
exactly one sink, its conclusion.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace

from .answers import normalize_freeform
from .client import ChatClient, ClientError, CompletionRequest, SamplingConfig
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
    """A merged graph, its answer and its conclusion: the key of the graph's only sink."""

    graph: ReasoningGraph
    answer: str
    conclusion: str
    contributing_indices: tuple[int, ...]
    dropped_edges: list[DroppedEdge] = field(default_factory=list)
    merge_mode: str = MODE_DETERMINISTIC
    fell_back: bool = False


def _majority_group(
    candidates: list[tuple[StructuredOutput, int]],
) -> list[tuple[StructuredOutput, int]]:
    groups: dict[str, list[tuple[StructuredOutput, int]]] = {}
    for output, idx in candidates:
        groups.setdefault(normalize_freeform(output.answer), []).append((output, idx))
    best: list[tuple[StructuredOutput, int]] | None = None
    for members in groups.values():
        if best is None:
            best = members
            continue
        # Bigger group wins; equal sizes go to the group holding the
        # lowest sampling index (members are already index-ascending).
        if len(members) > len(best) or (
            len(members) == len(best) and members[0][1] < best[0][1]
        ):
            best = members
    assert best is not None
    return best


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
    the drop order. A drop can only split the strongly connected
    component that held it (Tarjan 1972), so only that component is
    decomposed again.
    """
    component_of: dict[str, int] = {}  # node key -> id of its cyclic component
    members_of: dict[int, list[str]] = {}
    edges_of: dict[int, list[tuple[str, str]]] = {}
    ids = itertools.count()

    def assign(components: list[list[str]], edges: list[tuple[str, str]]) -> None:
        for component in components:
            if len(component) == 1:
                component_of.pop(component[0], None)
                continue
            cid = next(ids)
            members_of[cid] = component
            edges_of[cid] = []
            for key in component:
                component_of[key] = cid
        for edge in edges:
            cid = component_of.get(edge[0])
            if cid is not None and component_of.get(edge[1]) == cid:
                edges_of[cid].append(edge)

    assign(strongly_connected_components(node_order, edge_order), edge_order)
    ranked = sorted((e for edges in edges_of.values() for e in edges), reverse=True)
    ranked.sort(key=multiplicity.__getitem__)
    dropped: list[tuple[str, str]] = []
    for victim in ranked:
        cid = component_of.get(victim[0])
        if cid is None or component_of.get(victim[1]) != cid:
            continue
        dropped.append(victim)
        members = members_of.pop(cid)
        rest = [e for e in edges_of.pop(cid) if e != victim]
        assign(strongly_connected_components(members, rest), rest)
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
    keep = {conclusion}
    queue = [conclusion]
    while queue:
        for parent in incoming[queue.pop()]:
            if parent not in keep:
                keep.add(parent)
                queue.append(parent)
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
        conclusion=conclusion,
        contributing_indices=tuple(idx for _, idx in members),
        dropped_edges=dropped,
        merge_mode=MODE_DETERMINISTIC,
    )


def _integrate(
    question: str, rendered: list[str], client: ChatClient, config: SamplingConfig
) -> tuple[tuple[StructuredOutput, str] | None, Exception | str | None]:
    """The model's strict-parsed integration of ``rendered`` with its sink key, or None and why.

    A reply that parses but whose graph has more than one sink has no
    single conclusion, so it fails like a parse error and is quoted back
    in the repair retry with kind ``multiple-sinks`` and the sink texts.
    """
    system, user = INTEGRATION_PROMPT.fill(
        question=question, candidates=format_candidates(rendered)
    )
    merge_config = replace(config, temperature=0.0, k=1)
    request = CompletionRequest(system, user, merge_config)
    failure: Exception | str | None = None
    for _ in range(2):
        try:
            reply = client.complete(request)
        except ClientError as err:
            return None, err
        try:
            output = parse(reply.text, STRICT)
        except TemplateParseError as err:
            failure, kind, detail = err, err.kind, err.detail
        else:
            ends = sinks(output.graph)
            if len(ends) == 1:
                return (output, ends[0]), None
            kind = WARNING_MULTIPLE_SINKS
            detail = "the graph ends at " + ", ".join(repr(output.graph.texts[key]) for key in ends)
            failure = f"{kind}: {detail}"
        request = CompletionRequest(
            system, user + REPAIR_SUFFIX.format(kind=kind, detail=detail), merge_config
        )
    return None, failure


def merge_llm(
    candidate_set: CandidateSet,
    client: ChatClient,
    config: SamplingConfig,
    *,
    fallback: bool = True,
) -> MergedResult:
    """Ask a model to consolidate the candidates into one graph.

    Issues a single completion at temperature 0 and strict-parses the
    reply. A reply whose graph has more than one sink counts as failed,
    like a parse failure; one repair retry quotes the failure back to
    the model. A candidate the template cannot quote (an answer holding
    "<") is left out of the prompt. When no candidate can be quoted,
    both tries fail or transport dies, the deterministic merge takes
    over if ``fallback`` is set, flagged on the result; otherwise
    LLMMergeFailedError is raised. Either way the result's conclusion
    is the only sink of its graph.
    """
    quoted: list[tuple[str, int]] = []
    last_failure: Exception | str | None = None
    for output, index in candidate_set.candidates:
        try:
            quoted.append((render(output), index))
        except InvalidGraphError as err:
            last_failure = f"no candidate can be quoted: {err}"
            log.warning("candidate %d left out of the integration prompt: %s", index, err)
    if quoted:
        integrated, last_failure = _integrate(
            candidate_set.question, [text for text, _ in quoted], client, config
        )
        if integrated is not None:
            output, conclusion = integrated
            return MergedResult(
                graph=output.graph,
                answer=output.answer,
                conclusion=conclusion,
                contributing_indices=tuple(index for _, index in quoted),
                dropped_edges=[],
                merge_mode=MODE_LLM,
            )

    if not fallback:
        raise LLMMergeFailedError(f"integration failed: {last_failure}")
    log.warning(
        "LLM merge failed (%s); falling back to deterministic merge", last_failure
    )
    result = merge_deterministic(candidate_set)
    result.merge_mode = MODE_LLM_FALLBACK
    result.fell_back = True
    return result
