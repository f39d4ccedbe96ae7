"""Directed graphs of atomic reasoning steps.

Nodes are identified by their normalized text, edges express logical
dependency (parent must be established before child). A
:class:`ReasoningGraph` is immutable and is a DAG by construction: its
one constructor checks, in one O(V + E) pass, that the graph is
non-empty, repeats no edge, has no dangling edge, no node that lies on
no edge and no cycle, and raises :class:`InvalidGraphError` otherwise.
``codec.parse`` and ``merge.merge_deterministic`` hand it keys they
have already normalized; :meth:`ReasoningGraph.from_edges` normalizes
display-text pairs first. Every consumer (``codec.render``,
:func:`sinks`, :func:`export_dot`, the merge) relies on the type and
checks nothing again. A reasoning graph should converge on one
conclusion, and that is the one thing a DAG leaves open: ask for it with
:func:`sinks`, which has one key when it does. One sink also means one
weakly connected component, since each component of a DAG has a sink.

The API is string keys only: a graph exposes a key-to-display-text
mapping (:attr:`ReasoningGraph.texts`) and ``(parent key, child key)``
pairs (:attr:`ReasoningGraph.edge_keys`), both in insertion order, and
:func:`sinks` returns keys.
"""
from __future__ import annotations

import string
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping

WARNING_MULTIPLE_SINKS = "multiple-sinks"

_STRIP_CHARS = string.punctuation + string.whitespace


class InvalidGraphError(Exception):
    """A graph breaks a structural rule, or the template cannot express it."""


def normalize_text(text: str) -> str:
    """Normalize node text into its identity key.

    Lowercases, collapses runs of whitespace to single spaces and strips
    surrounding punctuation. Inner punctuation is preserved, so
    "don't" survives while "(B)." reduces to "b".
    """
    collapsed = " ".join(text.split()).lower()
    return collapsed.strip(_STRIP_CHARS)


def _node_key(text: str) -> str:
    key = normalize_text(text)
    if not key:
        raise ValueError(f"node text normalizes to nothing: {text!r}")
    return key


class ReasoningGraph:
    """An immutable, non-empty DAG of reasoning steps, checked once when built.

    The constructor takes node keys that are already normalized: a
    key-to-display-text mapping in insertion order and ``(parent key,
    child key)`` pairs. It raises :class:`InvalidGraphError` unless the
    graph has at least one node, every edge joins two of its nodes and
    appears once, every node lies on an edge, and no cycle, self-loops
    included, exists. The error names the first rule broken: the first
    edge in edge order that names a missing node or repeats (``duplicate
    edge 'a' -> 'b'``), else the nodes on no edge, else the cycle, as its
    first self-loop in edge order or else its first strongly connected
    component of two or more nodes. :meth:`from_edges` builds one from
    display-text pairs.
    """

    def __init__(self, texts: Mapping[str, str], edges: Iterable[tuple[str, str]]) -> None:
        text = dict(texts)
        pairs = tuple(edges)
        if not text:
            raise InvalidGraphError("graph has no nodes")
        children: dict[str, dict[str, None]] = {key: {} for key in text}
        in_deg = dict.fromkeys(text, 0)
        for parent, child in pairs:
            try:
                out = children[parent]
                in_deg[child] += 1
            except KeyError:
                raise InvalidGraphError(
                    f"edge {parent!r} -> {child!r} names a missing node"
                ) from None
            if child in out:
                raise InvalidGraphError(f"duplicate edge {parent!r} -> {child!r}")
            out[child] = None
        # Kahn's algorithm from the sources; a node on a cycle is never placed.
        ready = [key for key, deg in in_deg.items() if not deg]
        isolated = [key for key in ready if not children[key]]
        if isolated:
            raise InvalidGraphError(f"nodes on no edge: {', '.join(map(repr, isolated))}")
        placed = 0
        while ready:
            placed += 1
            for child in children[ready.pop()]:
                in_deg[child] -= 1
                if not in_deg[child]:
                    ready.append(child)
        if placed < len(text):
            raise InvalidGraphError(_name_cycle(text, pairs))
        self._text = text  # node key -> display text
        self._edges = pairs  # (parent key, child key)

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[str, str]]) -> "ReasoningGraph":
        """Build from display-text (parent, child) pairs; a step's first spelling wins."""
        texts: dict[str, str] = {}
        edges: list[tuple[str, str]] = []
        for parent, child in pairs:
            pkey, ckey = _node_key(parent), _node_key(child)
            texts.setdefault(pkey, parent.strip())
            texts.setdefault(ckey, child.strip())
            edges.append((pkey, ckey))
        return cls(texts, edges)

    # -- access -------------------------------------------------------

    @property
    def texts(self) -> Mapping[str, str]:
        """Read-only view of node key -> display text, in insertion order."""
        return MappingProxyType(self._text)

    @property
    def edge_keys(self) -> tuple[tuple[str, str], ...]:
        """(parent key, child key) pairs in insertion order."""
        return self._edges

    @property
    def node_count(self) -> int:
        return len(self._text)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        # Structural equality: same steps (by key) linked the same way in
        # the same order. Display spellings are deliberately ignored.
        if not isinstance(other, ReasoningGraph):
            return NotImplemented
        return self._text.keys() == other._text.keys() and self._edges == other._edges

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ReasoningGraph(nodes={self.node_count}, edges={self.edge_count})"


# -- analysis ----------------------------------------------------------


def strongly_connected_components(
    node_keys: Iterable[str], edge_keys: Iterable[tuple[str, str]]
) -> list[list[str]]:
    """Kosaraju's algorithm, iterative; component members keep input order."""
    order_index = {k: i for i, k in enumerate(node_keys)}
    fwd: dict[str, list[str]] = {k: [] for k in order_index}
    rev: dict[str, list[str]] = {k: [] for k in order_index}
    for parent, child in edge_keys:
        fwd[parent].append(child)
        rev[child].append(parent)

    finished: list[str] = []
    seen: set[str] = set()
    for start in order_index:
        if start in seen:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            node, i = stack[-1]
            if i < len(fwd[node]):
                stack[-1] = (node, i + 1)
                nxt = fwd[node][i]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                finished.append(node)

    assigned: set[str] = set()
    components: list[list[str]] = []
    for start in reversed(finished):
        if start in assigned:
            continue
        member_stack = [start]
        assigned.add(start)
        members = []
        while member_stack:
            node = member_stack.pop()
            members.append(node)
            for nxt in rev[node]:
                if nxt not in assigned:
                    assigned.add(nxt)
                    member_stack.append(nxt)
        members.sort(key=order_index.__getitem__)
        components.append(members)
    return components


def _name_cycle(node_keys: Iterable[str], edge_keys: tuple[tuple[str, str], ...]) -> str:
    """Name a cycle of a graph that has one: its first self-loop, else its first SCC."""
    for parent, child in edge_keys:
        if parent == child:
            return f"self-loop on {parent!r}"
    components = strongly_connected_components(node_keys, edge_keys)
    return "cycle through " + " -> ".join(next(c for c in components if len(c) > 1))


def sinks(graph: ReasoningGraph) -> list[str]:
    """Keys of the nodes with no outgoing edges, in first-insertion order."""
    parents = {parent for parent, _ in graph._edges}
    return [key for key in graph._text if key not in parents]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(graph: ReasoningGraph, answer: str | None = None) -> str:
    """Render a graph as Graphviz DOT text.

    Branch nodes (out-degree >= 2) are tinted blue; the decision node
    (the unique sink, when there is exactly one) is tinted green and,
    when ``answer`` is given, carries it in its label. Output is
    byte-deterministic: statements follow insertion order.
    """
    sink_keys = sinks(graph)
    out_degree = Counter(parent for parent, _ in graph._edges)
    decision_key = sink_keys[0] if len(sink_keys) == 1 else None

    lines = [
        "digraph reasoning {",
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fillcolor="white"];',
    ]
    for key, label in graph._text.items():
        attrs = []
        if key == decision_key:
            if answer is not None:
                label = f"{label}\nanswer: {answer}"
            attrs.append('fillcolor="palegreen"')
        elif out_degree[key] >= 2:
            attrs.append('fillcolor="lightblue"')
        attrs.insert(0, f'label="{_dot_escape(label)}"')
        lines.append(f'  "{_dot_escape(key)}" [{" ".join(attrs)}];')
    for parent, child in graph._edges:
        lines.append(f'  "{_dot_escape(parent)}" -> "{_dot_escape(child)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
