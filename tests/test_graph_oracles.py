"""Graph algorithms checked against networkx, used here as a test-only oracle."""
from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason.graph import (
    DuplicateEdgeError,
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
        with pytest.raises(DuplicateEdgeError if repeats else InvalidGraphError):
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
