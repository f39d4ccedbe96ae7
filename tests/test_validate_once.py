"""The checked-DAG mark: set where a graph is built, cleared by any mutation.

Consumers that need a clean graph trust the mark instead of validating
again, so these properties pin the mark to ``validate``: every consumer
refuses exactly the graphs that ``validate`` reports errors for.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason.codec import (
    CYCLE_IN_STEPS,
    STRICT,
    StructuredOutput,
    TemplateParseError,
    parse,
    render,
)
from graphreason.graph import (
    InvalidGraphError,
    ReasoningGraph,
    export_dot,
    sinks,
    topological_order,
    validate,
)
from graphreason.merge import CandidateSet, merge_deterministic

KEYS = "abcde"
CONSUMERS = (sinks, topological_order, export_dot)

# Endpoints may name the node-less "ghost" so that from_parts edges dangle.
endpoints = st.sampled_from(KEYS + "g")


@st.composite
def hand_built(draw):
    """A zero-argument factory, so each consumer sees a fresh, unmarked graph."""
    if draw(st.booleans()):
        nodes = draw(st.lists(st.sampled_from(KEYS), max_size=5, unique=True))
        edges = draw(st.lists(st.tuples(endpoints, endpoints), max_size=8))  # may repeat
        return lambda: ReasoningGraph.from_parts(nodes, edges)
    edges = draw(st.lists(st.tuples(endpoints, endpoints), max_size=8, unique=True))
    return lambda: ReasoningGraph.from_edges(edges)  # may self-loop or cycle


def chain(n: int) -> str:
    steps = "\n".join(f"<step> s{i} → s{i + 1} </step>" for i in range(n))
    return f"<reasoning>\n{steps}\n</reasoning>\n<answer> 4 </answer>"


@settings(max_examples=300, deadline=None)
@given(make=hand_built())
def test_consumers_refuse_exactly_what_validate_rejects(make):
    dirty = bool(validate(make()).errors)
    for consumer in CONSUMERS:
        graph = make()
        if dirty:
            with pytest.raises(InvalidGraphError):
                consumer(graph)
            assert not graph.checked
        else:
            consumer(graph)
            assert graph.checked

    graph = make()
    on_edge = {key for edge in graph.edges for key in edge.key}
    unexpressible = graph.edge_count == 0 or any(
        node.id.key not in on_edge for node in graph.nodes
    )
    output = StructuredOutput(graph=graph, answer="4", step_count=1)
    if dirty or unexpressible:
        with pytest.raises(InvalidGraphError):
            render(output)
    else:
        assert parse(render(output), STRICT).graph == graph
    assert graph.check_dag() is not dirty


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_parsed_graph_mutated_into_a_cycle_is_rejected_again(n, data):
    output = parse(chain(n), STRICT)
    assert output.graph.checked
    back = data.draw(st.integers(0, n), label="back-edge target")
    output.graph.add_edge(f"s{n}", f"s{back}")
    assert not output.graph.checked
    assert validate(output.graph).errors
    for consumer in CONSUMERS:
        with pytest.raises(InvalidGraphError):
            consumer(output.graph)
    with pytest.raises(InvalidGraphError):
        render(output)
    merged = merge_deterministic(
        CandidateSet([(output, 0), (parse(chain(n), STRICT), 1)], "Q?")
    )
    assert merged.contributing_indices == (1,)


def test_every_mutation_clears_the_mark():
    graph = parse(chain(2), STRICT).graph
    assert graph.checked
    graph.add_node("s0")  # even a re-addition counts as a mutation
    assert not graph.checked
    assert graph.check_dag() and graph.checked
    graph.add_edge("s0", "s2")
    assert not graph.checked
    assert not ReasoningGraph.from_parts(["a", "b"], [("a", "b")]).checked


@pytest.mark.parametrize(
    "steps, detail",
    [
        (["a → b", "b → a"], "cycle through a -> b"),
        (["x → y", "A. → a"], "self-loop on 'a'"),
    ],
)
def test_failed_acyclicity_test_keeps_the_cycle_diagnosis(steps, detail):
    body = "\n".join(f"<step> {step} </step>" for step in steps)
    with pytest.raises(TemplateParseError) as caught:
        parse(f"<reasoning>\n{body}\n</reasoning>\n<answer> 4 </answer>", STRICT)
    assert (caught.value.kind, caught.value.location, caught.value.detail) == (
        CYCLE_IN_STEPS,
        len("<reasoning>"),
        detail,
    )
