"""Graph algorithms checked against networkx, used here as a test-only oracle."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason.graph import strongly_connected_components, topological_order

from _util import random_graph

nx = pytest.importorskip("networkx")


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_topological_order_matches_networkx(seed):
    graph = random_graph(random.Random(seed), min_nodes=2, max_nodes=30)
    keys = [node.id.key for node in graph.nodes]
    position = {key: i for i, key in enumerate(keys)}

    oracle = nx.DiGraph()
    oracle.add_nodes_from(keys)
    oracle.add_edges_from(edge.key for edge in graph.edges)
    expected = list(nx.lexicographical_topological_sort(oracle, key=position.__getitem__))

    assert [node.key for node in topological_order(graph)] == expected
