"""Graph algorithms checked against networkx, used here as a test-only oracle."""
from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason.graph import (
    InvalidGraphError,
    ReasoningGraph,
    normalize_text,
    sinks,
    strongly_connected_components,
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_strongly_connected_components_match_networkx(seed):
    rng = random.Random(seed)
    keys = [f"n{i}" for i in range(rng.randint(1, 15))]
    rng.shuffle(keys)
    pairs = {(rng.choice(keys), rng.choice(keys)) for _ in range(rng.randint(0, 3 * len(keys)))}
    edges = sorted(pairs)
    rng.shuffle(edges)

    components = strongly_connected_components(keys, edges)

    oracle = nx.DiGraph()
    oracle.add_nodes_from(keys)
    oracle.add_edges_from(edges)
    assert {frozenset(c) for c in components} == {
        frozenset(c) for c in nx.strongly_connected_components(oracle)
    }
    position = {key: i for i, key in enumerate(keys)}
    for component in components:
        assert component == sorted(component, key=position.__getitem__)


# Several spellings per key, so distinct texts collide after normalization;
# pairs drawn from them repeat, self-loop and cycle.
SPELLINGS = ("A", "a.", " (a) ", "B", "b!", "C", "c", "  C  ", "Dee", "dee?", "E")
pairs_of_spellings = st.lists(
    st.tuples(st.sampled_from(SPELLINGS), st.sampled_from(SPELLINGS)), max_size=8
)


@settings(max_examples=500, deadline=None)
@given(pairs=pairs_of_spellings)
def test_from_edges_accepts_exactly_the_nonempty_networkx_dags(pairs):
    keyed = [(normalize_text(parent), normalize_text(child)) for parent, child in pairs]
    oracle = nx.DiGraph(keyed)
    repeats = len(set(keyed)) < len(keyed)
    valid = bool(keyed) and not repeats and nx.is_directed_acyclic_graph(oracle)

    if not valid:
        with pytest.raises(InvalidGraphError, match="duplicate edge" if repeats else None):
            ReasoningGraph.from_edges(pairs)
        return
    graph = ReasoningGraph.from_edges(pairs)
    assert graph.edge_keys == tuple(keyed)
    first_spelling: dict[str, str] = {}
    for pair in pairs:
        for text in pair:
            first_spelling.setdefault(normalize_text(text), text.strip())
    assert list(graph.texts.items()) == list(first_spelling.items())


# Edges between ten labelled nodes, each pair at most once and pointing from
# the earlier to the later node in a drawn order, so every draw is a DAG
# whose nodes all lie on an edge.
dag_edges = st.tuples(
    st.permutations(range(10)),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]).map(sorted),
        min_size=1, max_size=12, unique_by=tuple,
    ),
).map(lambda drawn: [(f"n{drawn[0][a]}", f"n{drawn[0][b]}") for a, b in drawn[1]])


@settings(max_examples=300, deadline=None)
@given(edges=dag_edges)
def test_a_disconnected_dag_has_a_sink_per_component(edges):
    graph = ReasoningGraph.from_edges(edges)
    oracle = nx.DiGraph(edges)
    assert sinks(graph) == [key for key in graph.texts if not oracle.out_degree(key)]
    components = nx.number_weakly_connected_components(oracle)
    # Each weak component of a DAG has a sink of its own.
    assert len(sinks(graph)) >= components
    if components > 1:
        assert len(sinks(graph)) >= 2


KEYS = ("a", "b", "c", "d", "e", "f")


@st.composite
def key_graphs(draw):
    """Node keys and edges among them: most point forward in key order, some back and a
    few to themselves; now and then one repeats or names a key that is not a node, and
    nodes may lie on no edge."""
    nodes = draw(st.lists(st.sampled_from(KEYS), min_size=1, unique=True))
    forward = [(p, c) for i, p in enumerate(nodes) for c in nodes[i + 1:]]
    back = [(c, p) for p, c in forward]
    loops = [(key, key) for key in nodes]
    edge = st.sampled_from(forward * 12 + back * 2 + loops)
    edges = draw(st.lists(edge, min_size=len(nodes) // 2, max_size=10, unique=True))
    if edges and draw(st.sampled_from(range(8))) == 7:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
    if draw(st.sampled_from(range(8))) == 7:
        anywhere = st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS))
        edges.insert(draw(st.integers(0, len(edges))), draw(anywhere))
    return {key: key.upper() for key in nodes}, edges


def _first_violation(texts: dict[str, str], edges: list[tuple[str, str]]):
    """The error message the documented precedence names, or None for a DAG."""
    seen = set()
    for parent, child in edges:
        if parent not in texts or child not in texts:
            return f"edge {parent!r} -> {child!r} names a missing node"
        if (parent, child) in seen:
            return f"duplicate edge {parent!r} -> {child!r}"
        seen.add((parent, child))
    isolated = [key for key in texts if not any(key in edge for edge in edges)]
    if isolated:
        return f"nodes on no edge: {', '.join(map(repr, isolated))}"
    oracle = nx.DiGraph(edges)
    if nx.is_directed_acyclic_graph(oracle):
        return None
    loops = [parent for parent, child in edges if parent == child]
    if loops:
        return f"self-loop on {loops[0]!r}"
    return "cycle through "


@settings(max_examples=500, deadline=None)
@given(drawn=key_graphs())
def test_the_constructor_accepts_exactly_the_dags_and_names_the_first_violation(drawn):
    texts, edges = drawn
    message = _first_violation(texts, edges)
    if message is None:
        graph = ReasoningGraph(texts, edges)
        assert dict(graph.texts) == texts and graph.edge_keys == tuple(edges)
        oracle = nx.DiGraph(edges)
        assert sinks(graph) == [key for key in texts if not oracle.out_degree(key)]
        return
    with pytest.raises(InvalidGraphError) as raised:
        ReasoningGraph(texts, edges)
    assert type(raised.value) is InvalidGraphError
    if message != "cycle through ":
        assert str(raised.value) == message
        return
    # A cycle of two or more nodes is named by one such strongly connected
    # component of networkx's, its members in key order.
    assert str(raised.value).startswith(message)
    named = str(raised.value)[len(message):].split(" -> ")
    position = list(texts).index
    assert named == sorted(named, key=position) and len(named) >= 2
    assert set(named) in [set(c) for c in nx.strongly_connected_components(nx.DiGraph(edges))]


def _outcome(texts, edges):
    try:
        graph = ReasoningGraph(texts, edges)
    except InvalidGraphError as error:
        return type(error), str(error)
    return sinks(graph), graph.edge_count


@settings(max_examples=200, deadline=None)
@given(drawn=key_graphs())
def test_edges_given_as_lists_build_as_tuples_do(drawn):
    # json.load yields each edge as a list; the constructor takes it as it takes a pair.
    texts, edges = drawn
    assert _outcome(texts, [list(edge) for edge in edges]) == _outcome(texts, edges)
