from __future__ import annotations

import dataclasses
import importlib
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphreason
from graphreason import graph as graph_module
from graphreason.graph import (
    InvalidGraphError,
    ReasoningGraph,
    export_dot,
    normalize_text,
    sinks,
)

from _util import random_graph


def diamond() -> ReasoningGraph:
    return ReasoningGraph.from_edges(
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
    )


class TestNormalization:
    def test_lowercase_collapse_strip(self):
        assert (
            normalize_text(" first  iPhone  released in 2007.")
            == "first iphone released in 2007"
        )

    def test_inner_punctuation_kept(self):
        assert normalize_text("don't stop") == "don't stop"

    def test_strip_is_iterative_over_mixed_ends(self):
        assert normalize_text('"(B)."') == "b"

    @pytest.mark.parametrize("bad", ["", "   ", "...", "?!"])
    def test_unusable_text_rejected(self, bad):
        with pytest.raises(ValueError):
            ReasoningGraph.from_edges([(bad, "x")])
        with pytest.raises(ValueError):
            ReasoningGraph.from_edges([("x", bad)])

    def test_node_key_matches_normalization(self):
        text = "  Compare  Release YEARS "
        g = ReasoningGraph.from_edges([(text, "x")])
        assert list(g.texts.items())[0] == ("compare release years", text.strip())
        assert normalize_text(text) == "compare release years"


class TestConstruction:
    def test_nodes_dedup_by_key(self):
        g = ReasoningGraph.from_edges(
            [("First iPhone released in 2007", "x"), (" first  iPhone  released in 2007.", "y")]
        )
        assert g.node_count == 3
        assert [parent for parent, _ in g.edge_keys] == ["first iphone released in 2007"] * 2

    def test_first_spelling_wins(self):
        g = ReasoningGraph.from_edges(
            [("Compare Release Years", "x"), ("compare release years", "y")]
        )
        assert g.texts["compare release years"] == "Compare Release Years"

    def test_duplicate_edge_rejected_at_insertion(self):
        with pytest.raises(InvalidGraphError, match="duplicate edge 'a' -> 'b'"):
            ReasoningGraph.from_edges([("a", "b"), ("A", "b.")])
        with pytest.raises(InvalidGraphError, match="duplicate edge 'a' -> 'b'"):
            ReasoningGraph({"a": "a", "b": "b"}, [("a", "b"), ("a", "b")])

    def test_duplicate_edge_is_an_invalid_graph(self):
        with pytest.raises(InvalidGraphError) as raised:
            ReasoningGraph({"a": "a", "b": "b"}, [("a", "b"), ("a", "b")])
        assert type(raised.value) is InvalidGraphError
        assert str(raised.value) == "duplicate edge 'a' -> 'b'"

    def test_isolated_node_rejected(self):
        with pytest.raises(InvalidGraphError, match="'floating'"):
            ReasoningGraph({"a": "a", "b": "b", "floating": "Floating"}, [("a", "b")])
        with pytest.raises(InvalidGraphError):
            ReasoningGraph({"lonely thought": "lonely thought"}, [])

    def test_constructor_takes_keys_as_given(self):
        g = ReasoningGraph({"a": "A.", "b": " B "}, [("a", "b")])
        assert dict(g.texts) == {"a": "A.", "b": " B "}
        assert g.edge_keys == (("a", "b"),)

    def test_constructor_copies_its_inputs(self):
        texts, edges = {"a": "A", "b": "B"}, [("a", "b")]
        g = ReasoningGraph(texts, edges)
        texts["c"] = "C"
        edges.append(("b", "c"))
        assert g.node_count == 2 and g.edge_count == 1

    def test_edges_keep_insertion_order(self):
        g = diamond()
        assert g.edge_keys == (
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
        )

    def test_unknown_node_lookup(self):
        with pytest.raises(KeyError):
            diamond().texts["nope"]


class TestValidate:
    """The structural errors cannot be built; only the number of sinks is left open."""

    def test_diamond_is_clean(self):
        assert sinks(diamond()) == ["d"]

    def test_empty_graph(self):
        with pytest.raises(InvalidGraphError, match="no nodes"):
            ReasoningGraph({}, [])
        with pytest.raises(InvalidGraphError, match="no nodes"):
            ReasoningGraph.from_edges([])

    def test_two_cycle(self):
        with pytest.raises(InvalidGraphError) as caught:
            ReasoningGraph.from_edges([("A", "B"), ("B", "A")])
        assert str(caught.value) == "cycle through a -> b"

    def test_self_loop_reported_as_cycle(self):
        with pytest.raises(InvalidGraphError) as caught:
            ReasoningGraph.from_edges([("x", "y"), ("A", "a")])
        assert str(caught.value) == "self-loop on 'a'"

    def test_dangling_edge(self):
        with pytest.raises(InvalidGraphError, match="'ghost'"):
            ReasoningGraph({"a": "A"}, [("a", "ghost")])

    def test_duplicate_edge_detected_in_loose_assembly(self):
        with pytest.raises(InvalidGraphError, match="duplicate edge 'a' -> 'b'"):
            ReasoningGraph.from_edges([("A", "B"), ("B", "C"), ("a", "b")])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.text(), st.text()), min_size=1, max_size=6))
    def test_validation_never_raises_on_content(self, pairs):
        try:
            g = ReasoningGraph.from_edges(pairs)
        except (InvalidGraphError, ValueError):  # a cycle, a repeat or an empty key
            return
        # A DAG has a sink; a cycle, the one shape without, cannot be built.
        assert sinks(g) and set(sinks(g)) <= set(g.texts)

    def test_disjoint_chains_have_a_sink_each(self):
        assert sinks(ReasoningGraph.from_edges([("a", "b"), ("c", "d")])) == ["b", "d"]


class TestOps:
    def test_parents_of_join_node(self):
        assert [parent for parent, child in diamond().edge_keys if child == "d"] == ["b", "c"]

    def test_parents_of_source_is_empty(self):
        assert [parent for parent, child in diamond().edge_keys if child == "a"] == []

    def test_sinks_of_diamond(self):
        assert sinks(diamond()) == ["d"]

    def test_sinks_insertion_order(self):
        g = ReasoningGraph.from_edges([("root", "left"), ("root", "right")])
        assert sinks(g) == ["left", "right"]

    def test_sinks_requires_clean_graph(self):
        # A cyclic graph cannot be built, so it never reaches sinks().
        with pytest.raises(InvalidGraphError):
            sinks(ReasoningGraph.from_edges([("A", "B"), ("B", "A")]))


class TestDot:
    def test_deterministic_bytes(self):
        g = diamond()
        assert export_dot(g, answer="4") == export_dot(g, answer="4")

    def test_statement_counts(self):
        dot = export_dot(diamond())
        node_statements = [l for l in dot.splitlines() if "[label=" in l]
        edge_statements = [l for l in dot.splitlines() if "->" in l]
        assert len(node_statements) == 4
        assert len(edge_statements) == 4

    def test_branch_and_decision_classes(self):
        dot = export_dot(diamond(), answer="4")
        lines = {l.split(" [")[0].strip(): l for l in dot.splitlines() if "[label=" in l}
        assert 'fillcolor="lightblue"' in lines['"a"']
        assert 'fillcolor="palegreen"' in lines['"d"']
        assert "answer: 4" in lines['"d"']
        assert "fillcolor" not in lines['"b"'].replace('label="', "")

    def test_answer_only_on_unique_sink(self):
        g = ReasoningGraph.from_edges([("root", "left"), ("root", "right")])
        dot = export_dot(g, answer="4")
        assert "answer: 4" not in dot

    def test_rejects_invalid_graph(self):
        # A cyclic graph cannot be built, so it never reaches export_dot().
        with pytest.raises(InvalidGraphError):
            export_dot(ReasoningGraph.from_edges([("A", "B"), ("B", "A")]))

    def test_label_escaping(self):
        g = ReasoningGraph.from_edges([('say "hi"', "done")])
        dot = export_dot(g)
        assert '\\"hi\\"' in dot

    def test_distinct_graphs_distinct_dot(self):
        a = export_dot(ReasoningGraph.from_edges([("x", "y")]))
        b = export_dot(ReasoningGraph.from_edges([("x", "z")]))
        c = export_dot(ReasoningGraph.from_edges([("x", "y"), ("x", "z")]))
        assert len({a, b, c}) == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_graphs_validate_and_sort(seed):
    g = random_graph(random.Random(seed), max_nodes=30)
    # Each key ends in its index in random_graph's skeleton, whose edges all
    # point from a lower to a higher index: sorted that way, edges go forward.
    position = {key: int(key.rsplit(" ", 1)[1]) for key in g.texts}
    assert sorted(position.values()) == list(range(g.node_count))
    for parent, child in g.edge_keys:
        assert position[parent] < position[child]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parents_children_adjoint_random(seed):
    g = random_graph(random.Random(seed), max_nodes=20)
    parents = {key: [] for key in g.texts}
    children = {key: [] for key in g.texts}
    for parent, child in g.edge_keys:
        parents[child].append(parent)
        children[parent].append(child)
    assert len(set(g.edge_keys)) == g.edge_count
    for key in g.texts:
        assert parents[key] or children[key]
        for child in children[key]:
            assert key in parents[child]
        for parent in parents[key]:
            assert key in children[parent]
    assert sinks(g) == [key for key in g.texts if not children[key]]


# Names the graph redesign deleted; none may come back.
DELETED_GRAPH_NAMES = (
    "ERROR_CYCLE",
    "ERROR_DANGLING_EDGE",
    "ERROR_DUPLICATE_EDGE",
    "ERROR_EMPTY_GRAPH",
    "WARNING_ISOLATED_NODE",
    "_require_clean",
    "_well_formed_edges",
    "NodeId",
    "ReasoningNode",
    "ReasoningEdge",
    "UnknownNodeError",
    "parents",
    "children",
    "topological_order",
    "WARNING_DISCONNECTED",
    "GraphViolation",
    "GraphDiagnostics",
    "validate",
    "_weak_components",
    "GraphError",
    "DuplicateEdgeError",
)
DELETED_GRAPH_METHODS = (
    "add_node",
    "add_edge",
    "_add_text",
    "_coerce_new",
    "_put_node",
    "_put_edge",
    "from_parts",
    "checked",
    "check_dag",
    "nodes",
    "edges",
    "has_node",
    "node",
    "_key_of",
)
DELETED_EXPORTS = (
    "NoValidCandidateError",
    "NodeId",
    "ReasoningEdge",
    "ReasoningNode",
    "topological_order",
    "AllSamplesFailedError",
    "MODE_AUTO",
    "MODE_FREEFORM",
    "MODE_MCQ",
    "MODE_NUMERIC",
    "GraphDiagnostics",
    "GraphViolation",
    "validate",
    "extract_answer_lenient",
    "merge_llm",
    "CompletionResult",
    "TrajectorySamples",
    "GraphError",
    "DuplicateEdgeError",
    "BenchError",
)
# (module, name) pairs of the one-value options and second paths removed
# from the library; none may come back.
DELETED_MODULE_NAMES = (
    ("answers", "MODES"),
    ("answers", "MODE_AUTO"),
    ("answers", "MODE_FREEFORM"),
    ("answers", "MODE_MCQ"),
    ("answers", "MODE_NUMERIC"),
    ("client", "AllSamplesFailedError"),
    ("codec", "DEFAULT_ANSWER_CUES"),
    ("codec", "extract_answer_lenient"),
    ("pipeline", "read_instances"),
    ("pipeline", "run_merge"),
    ("merge", "merge_llm"),
    ("merge", "merge_llm_steps"),
    ("pipeline", "_check_merge_mode"),
    ("_io", "escape_surrogates"),
    ("client", "CompletionResult"),
    ("client", "TrajectorySamples"),
    ("bench", "BenchError"),
    ("client", "DEFAULT_TIMEOUT"),
    ("pipeline", "SourceFormatError"),
    ("_io", "record_id"),
    ("_io", "first_repeat"),
    ("client", "THREADS_PER_SLOT"),
    ("_io", "check_filled"),
)
# (module, class, attribute): methods and dataclass fields.
DELETED_ATTRIBUTES = (
    ("client", "ChatClient", "sample_trajectories"),
    ("pipeline", "TrainingInstance", "from_dict"),
    ("pipeline", "Provenance", "from_dict"),
    ("prompts", "PromptTemplate", "name"),
    ("codec", "StructuredOutput", "step_count"),
    ("codec", "StructuredOutput", "from_graph"),
    ("merge", "MergedResult", "conclusion"),
)
# (module, class, attribute) once set per instance; each class builds without arguments.
DELETED_INSTANCE_ATTRIBUTES = (("client", "MockBackend", "hash_replies"),)
# (module, function, parameter)
DELETED_PARAMETERS = (
    ("answers", "answers_match", "mode"),
    ("answers", "numbers_close", "rel_tol"),
    ("codec", "extract_untagged_answer", "cues"),
    ("pipeline", "write_dataset", "include_discards"),
    ("pipeline", "build_dataset", "prompt"),
    ("merge", "merge_steps", "fallback"),
    ("client", "ChatClient", "backoff_jitter"),
    ("client", "HttpBackend", "timeout"),
)


def _module(name: str):
    return importlib.import_module(f"graphreason.{name}")


def test_public_names_resolve_and_deleted_names_are_gone():
    for name in graphreason.__all__:
        assert getattr(graphreason, name) is not None, name
    assert len(set(graphreason.__all__)) == len(graphreason.__all__)
    for name in DELETED_EXPORTS:
        assert name not in graphreason.__all__
        assert not hasattr(graphreason, name)
    for name in DELETED_GRAPH_NAMES:
        assert not hasattr(graph_module, name), name
    for name in DELETED_GRAPH_METHODS:
        assert not hasattr(ReasoningGraph, name), name
    for module, name in DELETED_MODULE_NAMES:
        assert not hasattr(_module(module), name), (module, name)
    for module, cls, attr in DELETED_ATTRIBUTES:
        klass = getattr(_module(module), cls)
        fields = {f.name for f in dataclasses.fields(klass)} if dataclasses.is_dataclass(klass) else ()
        assert not hasattr(klass, attr) and attr not in fields, (cls, attr)
    for module, cls, attr in DELETED_INSTANCE_ATTRIBUTES:
        assert not hasattr(getattr(_module(module), cls)(), attr), (cls, attr)
    for module, function, parameter in DELETED_PARAMETERS:
        signature = inspect.signature(getattr(_module(module), function))
        assert parameter not in signature.parameters, (function, parameter)
