from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason.answers import normalize_freeform
from graphreason.client import ChatClient, MockBackend, SamplingConfig
from graphreason.codec import STRICT, StructuredOutput, TemplateParseError, parse, render
from graphreason.graph import (
    ReasoningGraph,
    sinks,
    strongly_connected_components,
)
from graphreason.merge import (
    DROP_CYCLE_BREAK,
    DROP_PRUNED,
    MERGE_MODES,
    MODE_DETERMINISTIC,
    MODE_LLM,
    MODE_LLM_FALLBACK,
    CandidateSet,
    EdgelessMergeError,
    LLMMergeFailedError,
    MergedResult,
    advance,
    merge_deterministic,
    merge_steps,
)
from graphreason.pipeline import Provenance

from _util import finish, random_candidate_output, random_graph, random_output


def output(edges: list[tuple[str, str]], answer: str) -> StructuredOutput:
    return StructuredOutput(ReasoningGraph.from_edges(edges), answer)


def cset(*outputs: StructuredOutput, question: str = "Q?") -> CandidateSet:
    return CandidateSet([(out, i) for i, out in enumerate(outputs)], question)


GOOD_REPLY = "<reasoning>\n<step> merged premise → merged conclusion </step>\n</reasoning>\n<answer> 7 </answer>"
BAD_REPLY = "no structure here at all"
# Parses, but ends at two steps in two separate chains.
MULTI_SINK_REPLY = (
    "<reasoning>\n<step> a → b </step>\n<step> x → y </step>\n</reasoning>\n<answer> b </answer>"
)


def mock_client(replies=None, default=None) -> ChatClient:
    return ChatClient(MockBackend(replies, default=default), sleep=lambda _: None)


CONFIG = SamplingConfig(model_name="mock-teacher")


def integrate(candidate_set: CandidateSet, client: ChatClient,
              mode: str = MODE_LLM_FALLBACK) -> MergedResult:
    """``merge_steps`` under an LLM mode, its requests sent through ``client``."""
    return finish(advance(merge_steps(candidate_set, CONFIG, mode)), client)


class TestCandidateSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CandidateSet([], "Q?")

    def test_rejects_unsorted_indices(self):
        a = output([("x", "y")], "4")
        with pytest.raises(ValueError):
            CandidateSet([(a, 1), (a, 0)], "Q?")

    def test_rejects_duplicate_indices(self):
        a = output([("x", "y")], "4")
        with pytest.raises(ValueError):
            CandidateSet([(a, 0), (a, 0)], "Q?")


class TestMajority:
    def test_two_vs_one(self):
        merged = merge_deterministic(
            cset(
                output([("a", "b")], "4"),
                output([("a", "c")], "4"),
                output([("a", "d")], "5"),
            )
        )
        assert merged.answer == "4"
        assert merged.contributing_indices == (0, 1)

    def test_tie_goes_to_lowest_index(self):
        merged = merge_deterministic(
            cset(output([("a", "b")], "5"), output([("a", "c")], "4"))
        )
        assert merged.answer == "5"
        assert merged.contributing_indices == (0,)

    def test_answer_text_comes_from_lowest_index_member(self):
        merged = merge_deterministic(
            cset(output([("a", "b")], "Yes!"), output([("a", "c")], "yes"))
        )
        assert merged.answer == "Yes!"

    def test_grouping_uses_normalized_answers(self):
        merged = merge_deterministic(
            cset(
                output([("a", "b")], "harry  potter MOVIE."),
                output([("a", "c")], "Harry Potter movie"),
                output([("a", "d")], "iPhone"),
            )
        )
        assert merged.contributing_indices == (0, 1)


class TestUnionAndCycles:
    def test_conflicting_edge_resolved_by_multiplicity(self):
        merged = merge_deterministic(
            cset(
                output([("A", "B"), ("B", "C")], "4"),
                output([("B", "A"), ("A", "C")], "4"),
                output([("A", "B"), ("B", "C")], "4"),
            )
        )
        assert len(sinks(merged.graph)) == 1
        edge_keys = merged.graph.edge_keys
        assert ("a", "b") in edge_keys
        assert ("b", "a") not in edge_keys
        drops = [(d.parent, d.child, d.reason) for d in merged.dropped_edges]
        assert ("b", "a", DROP_CYCLE_BREAK) in drops

    def test_equal_multiplicity_tie_drops_greatest_key(self):
        merged = merge_deterministic(
            cset(
                output([("A", "B"), ("B", "C")], "4"),
                output([("B", "A"), ("B", "C")], "4"),
            )
        )
        dropped = {(d.parent, d.child) for d in merged.dropped_edges if d.reason == DROP_CYCLE_BREAK}
        assert dropped == {("b", "a")}

    def test_drops_interleave_across_disjoint_cycles_in_rank_order(self):
        # Two components, m-n-o and a-b-c, each with two 2-cycles. The back
        # edges rank (o, n), (c, b) at multiplicity 1, then (n, m), (b, a) at
        # 2, so the drops alternate between the components; the forward
        # edges, at 3, are off every cycle by the time their turn comes.
        forward = [("m", "n"), ("n", "o"), ("a", "b"), ("b", "c"), ("o", "end"), ("c", "end")]
        merged = merge_deterministic(
            cset(
                output(forward, "4"),
                output(forward, "4"),
                output(forward, "4"),
                output([("o", "n"), ("n", "m"), ("c", "b"), ("b", "a")], "4"),
                output([("n", "m"), ("b", "a")], "4"),
            )
        )
        assert [(d.parent, d.child, d.reason, d.multiplicity) for d in merged.dropped_edges] == [
            ("o", "n", DROP_CYCLE_BREAK, 1),
            ("c", "b", DROP_CYCLE_BREAK, 1),
            ("n", "m", DROP_CYCLE_BREAK, 2),
            ("b", "a", DROP_CYCLE_BREAK, 2),
        ]
        assert set(merged.graph.edge_keys) == set(forward)

    def test_union_deduplicates_shared_structure(self):
        merged = merge_deterministic(
            cset(
                output([("a", "b"), ("b", "c")], "4"),
                output([("a", "b"), ("b", "c")], "4"),
            )
        )
        assert merged.graph.edge_count == 2
        assert merged.graph.node_count == 3

    def test_pruning_removes_structure_off_the_conclusion_path(self):
        # Candidate 1 continues past candidate 0's conclusion; that tail
        # cannot reach the conclusion and must be cut, recorded as pruned.
        merged = merge_deterministic(
            cset(
                output([("a", "b"), ("b", "c")], "4"),
                output([("c", "d"), ("d", "e")], "4"),
            )
        )
        assert sinks(merged.graph) == ["c"]
        assert set(merged.graph.texts) == {"a", "b", "c"}
        pruned = {(d.parent, d.child) for d in merged.dropped_edges if d.reason == DROP_PRUNED}
        assert pruned == {("c", "d"), ("d", "e")}

    def test_edgeless_conclusion_raises(self):
        # Regression: the cycle break cuts a -> b (multiplicity 1), and
        # conclusion b, the sink of candidate 0, keeps no edge at all.
        with pytest.raises(EdgelessMergeError, match="'b' keeps no incoming edge"):
            merge_deterministic(
                cset(output([("a", "b")], "4"), output([("b", "a")], "4"), output([("b", "a")], "4"))
            )

    def test_conclusion_is_first_sink_of_lowest_index_candidate(self):
        merged = merge_deterministic(
            cset(output([("root", "left"), ("root", "right")], "4"))
        )
        assert sinks(merged.graph) == ["left"]


class TestDeterminism:
    def _build(self) -> MergedResult:
        return merge_deterministic(
            cset(
                output([("A", "B"), ("B", "C"), ("A", "C")], "four"),
                output([("B", "A"), ("A", "C")], "Four"),
                output([("A", "B"), ("C", "B")], "five"),
            )
        )

    def test_byte_identical_repeats(self):
        first, second = self._build(), self._build()
        assert render(StructuredOutput(first.graph, first.answer)) == render(
            StructuredOutput(second.graph, second.answer)
        )
        assert sinks(first.graph) == sinks(second.graph)
        assert first.contributing_indices == second.contributing_indices
        assert [
            (d.parent, d.child, d.reason, d.multiplicity) for d in first.dropped_edges
        ] == [(d.parent, d.child, d.reason, d.multiplicity) for d in second.dropped_edges]

    def test_single_candidate_is_fixed_point(self):
        single = output([("a", "b"), ("b", "c"), ("a", "c")], "4")
        once = merge_deterministic(cset(single))
        again = merge_deterministic(cset(StructuredOutput(once.graph, once.answer)))
        assert again.graph == once.graph
        assert again.answer == once.answer
        assert sinks(again.graph) == sinks(once.graph)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_merge_properties_random(seed):
    rng = random.Random(seed)
    pool = [f"shared fact {i}" for i in range(10)]
    answers = ["4", "5", "B", "maybe"]
    k = rng.randint(1, 7)
    candidates = [
        (random_candidate_output(rng, pool, rng.choice(answers)), i) for i in range(k)
    ]
    try:
        merged = merge_deterministic(CandidateSet(candidates, "Q?"))
    except EdgelessMergeError:
        # Refused only when the conclusion really keeps no edge.
        assert whole_graph_merge(candidates)[1] == []
        return

    # Only the conclusion's ancestry is kept: one sink, one component. The
    # conclusion is the first sink of the lowest-index contributing candidate.
    first = candidates[merged.contributing_indices[0]][0]
    assert sinks(merged.graph) == sinks(first.graph)[:1]

    counts = Counter(normalize_freeform(out.answer) for out, _ in candidates)
    assert counts[normalize_freeform(merged.answer)] == max(counts.values())

    indices = {idx for _, idx in candidates}
    assert merged.contributing_indices
    assert set(merged.contributing_indices) <= indices


def whole_graph_merge(candidates):
    """Oracle: the deterministic merge with one whole-graph SCC pass per drop.

    Each drop recomputes the strongly connected components of the whole
    graph left and removes the weakest edge inside one of two or more
    nodes, until none is left; the rest is the merge as specified. It
    returns (key -> display text of the kept nodes in first-seen order,
    kept edges as display-text pairs, conclusion key, dropped edges as
    tuples).
    """
    groups = {}
    for out, idx in candidates:
        groups.setdefault(normalize_freeform(out.answer), []).append((out, idx))
    members = min(groups.values(), key=lambda group: (-len(group), group[0][1]))

    display, multiplicity = {}, {}
    for out, _ in members:
        for key, text in out.graph.texts.items():
            display.setdefault(key, text)
        for edge in out.graph.edge_keys:
            multiplicity[edge] = multiplicity.get(edge, 0) + 1
    node_order, working = list(display), list(multiplicity)

    dropped = []
    while True:
        component_of = {}
        for i, component in enumerate(strongly_connected_components(node_order, working)):
            if len(component) > 1:
                for key in component:
                    component_of[key] = i
        cyclic = [
            e for e in working
            if e[0] in component_of and component_of[e[0]] == component_of.get(e[1])
        ]
        if not cyclic:
            break
        weakest = min(multiplicity[e] for e in cyclic)
        victim = max(e for e in cyclic if multiplicity[e] == weakest)
        working.remove(victim)
        dropped.append((*victim, DROP_CYCLE_BREAK, multiplicity[victim]))

    conclusion = sinks(members[0][0].graph)[0]
    incoming = {key: [] for key in node_order}
    for parent, child in working:
        incoming[child].append(parent)
    keep, queue = {conclusion}, [conclusion]
    while queue:
        for parent in incoming[queue.pop()]:
            if parent not in keep:
                keep.add(parent)
                queue.append(parent)
    kept = []
    for parent, child in working:
        if parent in keep and child in keep:
            kept.append((parent, child))
        else:
            dropped.append((parent, child, DROP_PRUNED, multiplicity[(parent, child)]))
    texts = {key: display[key] for key in node_order if key in keep}
    edges = [(display[parent], display[child]) for parent, child in kept]
    return texts, edges, conclusion, dropped


def cyclic_candidates(rng: random.Random) -> list[tuple[StructuredOutput, int]]:
    """Candidates that each order a shared pool differently, so unions cycle."""
    pool = [f"Fact {w}" for w in "ABCDEFGHIJKL"[: rng.randint(3, 12)]]
    candidates = []
    for idx in range(rng.randint(1, 7)):
        order = rng.sample(pool, rng.randint(2, len(pool)))
        n = len(order)
        pairs = {(rng.randrange(j), j) for j in range(1, n)}
        pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))}
        edges = [(order[a], order[b]) for a, b in sorted(pairs)]
        rng.shuffle(edges)
        answer = rng.choice(["4", "4", "5"])
        candidates.append((output(edges, answer), idx))
    return candidates


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_localized_cycle_break_matches_whole_graph_oracle(seed):
    candidates = cyclic_candidates(random.Random(seed))
    texts, edges, conclusion, dropped = whole_graph_merge(candidates)
    try:
        merged = merge_deterministic(CandidateSet(candidates, "Q?"))
    except EdgelessMergeError:
        assert edges == []
        return
    assert edges
    graph = ReasoningGraph.from_edges(edges)
    assert sinks(merged.graph) == [conclusion]
    assert merged.graph == graph
    assert list(merged.graph.texts.items()) == list(texts.items())
    assert [
        (d.parent, d.child, d.reason, d.multiplicity) for d in merged.dropped_edges
    ] == dropped
    assert render(StructuredOutput(merged.graph, merged.answer)) == render(
        StructuredOutput(graph, merged.answer)
    )


class TestMergeSteps:
    def test_deterministic_mode_returns_without_a_request(self):
        candidates = cset(output([("a", "b")], "4"), output([("a", "c"), ("c", "b")], "4"))
        merged = advance(merge_steps(candidates, CONFIG, MODE_DETERMINISTIC))
        assert merged == merge_deterministic(candidates)
        assert (merged.merge_mode, merged.fell_back) == (MODE_DETERMINISTIC, False)

    def test_unknown_mode_raises_before_a_request(self):
        with pytest.raises(ValueError, match="merge_mode must be one of .*got 'vote'"):
            advance(merge_steps(cset(output([("a", "b")], "4")), CONFIG, "vote"))


@pytest.mark.parametrize("record", [
    merge_deterministic(cset(output([("a", "b")], "4"))),
    Provenance("s", "m", 3, (0,), MODE_DETERMINISTIC),
], ids=["MergedResult", "Provenance"])
def test_fell_back_is_read_from_the_merge_mode(record):
    assert "fell_back" not in {f.name for f in dataclasses.fields(record)}
    for mode in MERGE_MODES:
        assert dataclasses.replace(record, merge_mode=mode).fell_back == (mode == "llm-with-fallback")


class TestLLMMerge:
    def test_successful_integration(self):
        client = mock_client(default=GOOD_REPLY)
        merged = integrate(cset(output([("a", "b")], "4")), client)
        assert merged.merge_mode == MODE_LLM
        assert not merged.fell_back
        assert merged.answer == "7"
        assert sinks(merged.graph) == ["merged conclusion"]
        assert len(sinks(merged.graph)) == 1

    def test_repair_retry_after_bad_reply(self):
        backend = MockBackend(
            {"was rejected": GOOD_REPLY, "Question:": BAD_REPLY}
        )
        client = ChatClient(backend, sleep=lambda _: None)
        merged = integrate(cset(output([("a", "b")], "4")), client)
        assert merged.merge_mode == MODE_LLM
        assert merged.answer == "7"
        assert backend.calls == 2

    def test_cyclic_reply_triggers_repair(self):
        cyclic_reply = (
            "<reasoning>\n<step> a → b </step>\n<step> b → a </step>\n"
            "</reasoning>\n<answer> 9 </answer>"
        )
        backend = MockBackend(
            {"was rejected": GOOD_REPLY, "Question:": cyclic_reply}
        )
        client = ChatClient(backend, sleep=lambda _: None)
        merged = integrate(cset(output([("a", "b")], "4")), client)
        assert merged.answer == "7"
        assert backend.calls == 2

    def test_multi_sink_reply_falls_back_after_one_repair(self):
        # Regression: this reply was accepted as an llm merge concluding
        # at its first sink, with the x -> y chain left in the graph.
        prompts = []

        def responder(request):
            prompts.append(request.user_prompt)
            return MULTI_SINK_REPLY

        backend = MockBackend(responder=responder)
        client = ChatClient(backend, sleep=lambda _: None)
        merged = integrate(cset(output([("p", "q")], "4")), client)
        assert merged.merge_mode == MODE_LLM_FALLBACK
        assert merged.fell_back
        assert (merged.answer, sinks(merged.graph)) == ("4", ["q"])
        assert merged.graph.edge_keys == (("p", "q"),)
        assert backend.calls == 2
        assert "was rejected (multiple-sinks: the graph ends at 'b', 'y')" in prompts[1]
        assert "multiple-sinks" not in prompts[0]

    def test_multi_sink_reply_without_fallback_raises(self):
        backend = MockBackend(default=MULTI_SINK_REPLY)
        client = ChatClient(backend, sleep=lambda _: None)
        with pytest.raises(LLMMergeFailedError, match="multiple-sinks"):
            integrate(cset(output([("p", "q")], "4")), client, MODE_LLM)
        assert backend.calls == 2

    def test_multi_sink_reply_then_good_repair_is_accepted(self):
        backend = MockBackend(
            {"was rejected": GOOD_REPLY, "Question:": MULTI_SINK_REPLY}
        )
        client = ChatClient(backend, sleep=lambda _: None)
        merged = integrate(cset(output([("p", "q")], "4")), client, MODE_LLM)
        assert merged.merge_mode == MODE_LLM
        assert (merged.answer, sinks(merged.graph)) == ("7", ["merged conclusion"])
        assert backend.calls == 2

    def test_double_failure_falls_back_deterministic(self):
        client = mock_client(default=BAD_REPLY)
        merged = integrate(
            cset(output([("a", "b")], "4"), output([("a", "b")], "4")), client
        )
        assert merged.merge_mode == MODE_LLM_FALLBACK
        assert merged.fell_back
        assert merged.answer == "4"
        assert len(sinks(merged.graph)) == 1

    def test_double_failure_without_fallback_raises(self):
        client = mock_client(default=BAD_REPLY)
        with pytest.raises(LLMMergeFailedError):
            integrate(cset(output([("a", "b")], "4")), client, MODE_LLM)

    def test_integration_runs_at_temperature_zero(self):
        seen = {}

        def responder(request):
            seen["temperature"] = request.config.temperature
            return GOOD_REPLY

        client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
        integrate(cset(output([("a", "b")], "4")), client)
        assert seen["temperature"] == 0.0

    def test_prompt_carries_rendered_candidates(self):
        seen = {}

        def responder(request):
            seen["user"] = request.user_prompt
            return GOOD_REPLY

        client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
        candidate = output([("premise one", "conclusion two")], "4")
        integrate(cset(candidate, question="Which came first?"), client)
        assert "Which came first?" in seen["user"]
        assert "Candidate 1:" in seen["user"]
        assert render(candidate) in seen["user"]

    def test_unquotable_candidate_is_left_out_of_the_prompt(self):
        seen = {}

        def responder(request):
            seen["user"] = request.user_prompt
            return GOOD_REPLY

        client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
        quotable = output([("premise one", "conclusion two")], "4")
        merged = integrate(cset(quotable, output([("c", "d")], "x < y")), client)
        assert merged.merge_mode == MODE_LLM
        assert merged.contributing_indices == (0,)
        assert render(quotable) in seen["user"]
        assert "x < y" not in seen["user"]
        assert "Candidate 2:" not in seen["user"]

    def test_no_quotable_candidate_falls_back_without_a_send(self):
        backend = MockBackend(default=GOOD_REPLY)
        client = ChatClient(backend, sleep=lambda _: None)
        candidates = cset(output([("a", "b")], "x < y"), output([("a", "b")], "x < y"))
        merged = integrate(candidates, client)
        assert merged.merge_mode == MODE_LLM_FALLBACK
        assert merged.fell_back
        assert merged.answer == "x < y"
        with pytest.raises(LLMMergeFailedError, match="no candidate can be quoted"):
            integrate(candidates, client, MODE_LLM)
        assert backend.calls == 0


def random_integration_reply(rng: random.Random) -> str:
    """An unparseable reply, or a template document with one sink or several."""
    if rng.random() < 0.2:
        return BAD_REPLY
    # Two graphs drawn apart make a disconnected one.
    graphs = [random_graph(rng, max_nodes=5, tag=f"merged {i}") for i in range(rng.randint(1, 2))]
    edges = [(g.texts[parent], g.texts[child]) for g in graphs for parent, child in g.edge_keys]
    return render(StructuredOutput(ReasoningGraph.from_edges(edges), "7"))


def concludes_once(reply: str) -> bool:
    try:
        return len(sinks(parse(reply, STRICT).graph)) == 1
    except TemplateParseError:
        return False


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([MODE_LLM, MODE_LLM_FALLBACK]))
def test_llm_merge_never_returns_invalid_graph(seed, mode):
    rng = random.Random(seed)
    replies = []

    def responder(request):
        replies.append(random_integration_reply(rng))
        return replies[-1]

    client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
    candidates = cset(random_output(rng, max_nodes=6), random_output(rng, max_nodes=6))
    try:
        merged = integrate(candidates, client, mode)
    except LLMMergeFailedError:
        assert mode == MODE_LLM
        assert len(replies) == 2 and not any(map(concludes_once, replies))
        return
    # Accepted at the first reply that concludes once, else merged by majority.
    assert len(replies) == (1 if concludes_once(replies[0]) else 2)
    assert merged.fell_back == (not concludes_once(replies[-1]))
    assert len(sinks(merged.graph)) == 1
