"""Directed graphs of atomic reasoning steps.

Nodes are identified by their normalized text, edges express logical
dependency (parent must be established before child). Structural rules
(acyclicity, endpoint presence, no repeated edge) are checked by
:func:`validate`, which reports violations as data so callers can
decide how to react.

The DAG guarantee is established once, where a graph is built, and the
graph carries it as its :attr:`ReasoningGraph.checked` mark. The mark
is set by :meth:`ReasoningGraph.check_dag`, one O(V + E) pass that
passes exactly when ``validate`` would report no error: at least one
node, no cycle (self-loops included), no dangling edge and no repeated
edge. ``codec.parse`` and ``merge.merge_deterministic`` run it on every
graph they build, so every graph they return is marked; a document
whose steps fail it is a cycle, and only then does ``parse`` call
``validate`` to name it.

Consumers that need a clean graph (``codec.render``, :func:`sinks`,
:func:`topological_order`, :func:`export_dot` and the merge's
candidate filter) ask ``check_dag``, which answers a marked graph at
once and tests an unmarked one; ``validate`` runs only to name the
errors of a graph that fails. Mutation clears the mark: every
``add_node`` and ``add_edge`` call does, and
:meth:`~ReasoningGraph.from_parts` returns an unmarked graph.

Internally a graph is string keys only: a key-to-display-text dict, an
insertion-ordered list of ``(parent key, child key)`` pairs and a
parent-to-children adjacency dict. Each endpoint is normalized once, on
insertion. :class:`NodeId`, :class:`ReasoningNode` and
:class:`ReasoningEdge` objects are built only by the public accessors.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

ERROR_CYCLE = "cycle"
ERROR_DANGLING_EDGE = "dangling-edge"
ERROR_EMPTY_GRAPH = "empty-graph"
ERROR_DUPLICATE_EDGE = "duplicate-edge"

WARNING_MULTIPLE_SINKS = "multiple-sinks"
WARNING_DISCONNECTED = "disconnected-components"
WARNING_ISOLATED_NODE = "isolated-node"

_STRIP_CHARS = string.punctuation + string.whitespace


class GraphError(Exception):
    """Base for all graph-level failures."""


class UnknownNodeError(GraphError):
    """A node was referenced that the graph does not contain."""


class DuplicateEdgeError(GraphError):
    """An identical (parent, child) edge was inserted twice."""


class InvalidGraphError(GraphError):
    """An operation requiring a clean graph was given one with errors."""


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


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of a reasoning step: its normalized text."""

    key: str

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("node key must be non-empty")

    @classmethod
    def from_text(cls, text: str) -> "NodeId":
        return cls(_node_key(text))


@dataclass(frozen=True)
class ReasoningNode:
    """A single atomic reasoning step with its display text."""

    id: NodeId
    text: str

    @classmethod
    def from_text(cls, text: str) -> "ReasoningNode":
        return cls(NodeId.from_text(text), text.strip())


@dataclass(frozen=True)
class ReasoningEdge:
    """Dependency between two steps: ``parent`` feeds ``child``."""

    parent: NodeId
    child: NodeId

    @property
    def key(self) -> tuple[str, str]:
        return (self.parent.key, self.child.key)


@dataclass
class GraphViolation:
    """One structural problem found by :func:`validate`."""

    kind: str
    detail: str
    nodes: tuple[str, ...] = ()


@dataclass
class GraphDiagnostics:
    """Outcome of validation; ``errors`` empty means the graph is usable."""

    errors: list[GraphViolation] = field(default_factory=list)
    warnings: list[GraphViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def kinds(self) -> tuple[set[str], set[str]]:
        return (
            {v.kind for v in self.errors},
            {v.kind for v in self.warnings},
        )


class ReasoningGraph:
    """Insertion-ordered node and edge container.

    ``add_edge`` rejects exact duplicates immediately (a duplicated
    dependency is almost always a generation bug worth surfacing), but
    everything else is representable and only reported by
    :func:`validate`. Deserializers use :meth:`from_parts` to build
    graphs that may carry dangling or duplicated edges for diagnosis.
    ``codec`` and ``merge`` insert through ``_put_node``/``_put_edge``
    with keys they have already normalized.
    """

    def __init__(self) -> None:
        self._text: dict[str, str] = {}  # node key -> display text
        self._edges: list[tuple[str, str]] = []  # (parent key, child key)
        self._children: dict[str, dict[str, None]] = {}  # parent key -> child keys
        self._checked = False

    # -- construction -------------------------------------------------

    def add_node(self, text: str) -> NodeId:
        """Insert a step, deduplicating by normalized key.

        The first spelling of a step wins; later re-additions return the
        existing id without touching the stored display text.
        """
        return NodeId(self._add_text(text))

    def add_edge(self, parent: str | NodeId, child: str | NodeId) -> ReasoningEdge:
        """Insert a dependency, adding endpoints as needed.

        Raises DuplicateEdgeError when the same (parent, child) pair is
        already present. Self-loops and cycles are accepted here and
        flagged by validate().
        """
        pkey = self._coerce_new(parent)
        ckey = self._coerce_new(child)
        if not self._put_edge(pkey, ckey):
            raise DuplicateEdgeError(f"duplicate edge {pkey!r} -> {ckey!r}")
        return ReasoningEdge(NodeId(pkey), NodeId(ckey))

    def _add_text(self, text: str) -> str:
        key = _node_key(text)
        self._put_node(key, text.strip())
        return key

    def _coerce_new(self, ref: str | NodeId) -> str:
        if isinstance(ref, NodeId):
            self._put_node(ref.key, ref.key)
            return ref.key
        return self._add_text(ref)

    def _put_node(self, key: str, text: str) -> None:
        """Insert a node under its normalized ``key`` unless present."""
        self._checked = False
        if key not in self._text:
            self._text[key] = text
            self._children[key] = {}

    def _put_edge(self, parent: str, child: str) -> bool:
        """Append an edge between present nodes; False if it already exists."""
        self._checked = False
        out = self._children[parent]
        if child in out:
            return False
        out[child] = None
        self._edges.append((parent, child))
        return True

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[str, str]]) -> "ReasoningGraph":
        graph = cls()
        for parent, child in pairs:
            graph.add_edge(parent, child)
        return graph

    @classmethod
    def from_parts(
        cls,
        node_texts: Iterable[str],
        edge_pairs: Iterable[tuple[str, str]] = (),
    ) -> "ReasoningGraph":
        """Unchecked assembly: edges may dangle, repeat or self-loop."""
        graph = cls()
        for text in node_texts:
            graph._add_text(text)
        for parent, child in edge_pairs:
            pkey, ckey = _node_key(parent), _node_key(child)
            graph._edges.append((pkey, ckey))
            graph._children.setdefault(pkey, {})[ckey] = None
        return graph

    # -- the clean-DAG mark --------------------------------------------

    @property
    def checked(self) -> bool:
        """True while the graph carries the clean-DAG mark; mutation clears it."""
        return self._checked

    def check_dag(self) -> bool:
        """Whether the graph is a clean DAG, marking it when it is.

        A marked graph answers at once. Otherwise one O(V + E) pass
        checks for at least one node and present endpoints, then places
        every node by Kahn's algorithm over the adjacency, which fails
        on a cycle or a repeated edge. The result is True exactly when
        ``validate(self)`` has no errors.
        """
        if self._checked:
            return True
        text, edges, children = self._text, self._edges, self._children
        if not text:
            return False
        in_deg = dict.fromkeys(text, 0)
        for parent, child in edges:
            if parent not in in_deg or child not in in_deg:
                return False
            in_deg[child] += 1
        # A repeated edge counts twice here but is one adjacency entry,
        # so its child, like every node on a cycle, is never placed.
        ready = [key for key, deg in in_deg.items() if not deg]
        placed = 0
        while ready:
            placed += 1
            for child in children[ready.pop()]:
                in_deg[child] -= 1
                if not in_deg[child]:
                    ready.append(child)
        self._checked = placed == len(text)
        return self._checked

    # -- access -------------------------------------------------------

    @property
    def nodes(self) -> tuple[ReasoningNode, ...]:
        return tuple(ReasoningNode(NodeId(key), text) for key, text in self._text.items())

    @property
    def edges(self) -> tuple[ReasoningEdge, ...]:
        return tuple(ReasoningEdge(NodeId(p), NodeId(c)) for p, c in self._edges)

    @property
    def texts(self) -> Mapping[str, str]:
        """Read-only view of node key -> display text, in insertion order."""
        return MappingProxyType(self._text)

    @property
    def edge_keys(self) -> tuple[tuple[str, str], ...]:
        """(parent key, child key) pairs in insertion order."""
        return tuple(self._edges)

    @property
    def node_count(self) -> int:
        return len(self._text)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_node(self, ref: str | NodeId) -> bool:
        return self._key_of(ref) in self._text

    def node(self, ref: str | NodeId) -> ReasoningNode:
        key = self._key_of(ref)
        try:
            text = self._text[key]
        except KeyError:
            raise UnknownNodeError(f"no such node: {key!r}") from None
        return ReasoningNode(NodeId(key), text)

    @staticmethod
    def _key_of(ref: str | NodeId) -> str:
        return ref.key if isinstance(ref, NodeId) else normalize_text(ref)

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


def _well_formed_edges(graph: ReasoningGraph) -> list[tuple[str, str]]:
    """Deduplicated edges with both endpoints present and no self-loops."""
    keys = set()
    out: list[tuple[str, str]] = []
    node_keys = graph._text
    for k in graph._edges:
        if k in keys or k[0] == k[1]:
            continue
        if k[0] not in node_keys or k[1] not in node_keys:
            continue
        keys.add(k)
        out.append(k)
    return out


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


def validate(graph: ReasoningGraph) -> GraphDiagnostics:
    """Check every structural rule; violations come back as data.

    Errors: empty graph, duplicate edges, dangling edges, cycles
    (self-loops included). Warnings: multiple sinks, weakly
    disconnected components, isolated nodes. This function never
    raises on graph content.
    """
    diag = GraphDiagnostics()
    if graph.node_count == 0:
        diag.errors.append(GraphViolation(ERROR_EMPTY_GRAPH, "graph has no nodes"))
        return diag

    node_keys = list(graph._text)
    node_set = set(node_keys)
    seen_edges: set[tuple[str, str]] = set()
    for k in graph._edges:
        if k in seen_edges:
            diag.errors.append(
                GraphViolation(ERROR_DUPLICATE_EDGE, f"edge repeated: {k[0]!r} -> {k[1]!r}", k)
            )
        seen_edges.add(k)
        missing = tuple(key for key in k if key not in node_set)
        if missing:
            diag.errors.append(
                GraphViolation(
                    ERROR_DANGLING_EDGE,
                    f"edge endpoint(s) not in node set: {', '.join(repr(m) for m in missing)}",
                    k,
                )
            )
        if k[0] == k[1] and not missing:
            diag.errors.append(
                GraphViolation(ERROR_CYCLE, f"self-loop on {k[0]!r}", (k[0],))
            )

    well_formed = _well_formed_edges(graph)
    for component in strongly_connected_components(node_keys, well_formed):
        if len(component) > 1:
            diag.errors.append(
                GraphViolation(
                    ERROR_CYCLE,
                    "cycle through " + " -> ".join(component),
                    tuple(component),
                )
            )

    out_deg = {k: 0 for k in node_keys}
    degree = {k: 0 for k in node_keys}
    for parent, child in well_formed:
        out_deg[parent] += 1
        degree[parent] += 1
        degree[child] += 1

    sink_keys = [k for k in node_keys if out_deg[k] == 0]
    if len(sink_keys) > 1:
        diag.warnings.append(
            GraphViolation(
                WARNING_MULTIPLE_SINKS,
                f"{len(sink_keys)} sinks present",
                tuple(sink_keys),
            )
        )

    components = _weak_components(node_keys, well_formed)
    if len(components) > 1:
        diag.warnings.append(
            GraphViolation(
                WARNING_DISCONNECTED,
                f"{len(components)} weakly connected components",
            )
        )

    for key in node_keys:
        if degree[key] == 0:
            diag.warnings.append(
                GraphViolation(WARNING_ISOLATED_NODE, f"node {key!r} touches no edge", (key,))
            )
    return diag


def _weak_components(
    node_keys: list[str], edge_keys: list[tuple[str, str]]
) -> list[list[str]]:
    neighbours: dict[str, list[str]] = {k: [] for k in node_keys}
    for parent, child in edge_keys:
        neighbours[parent].append(child)
        neighbours[child].append(parent)
    seen: set[str] = set()
    components = []
    for start in node_keys:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        members = []
        while stack:
            node = stack.pop()
            members.append(node)
            for nxt in neighbours[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(members)
    return components


def _require_clean(graph: ReasoningGraph, operation: str) -> None:
    if graph.check_dag():
        return
    kinds = sorted({v.kind for v in validate(graph).errors})
    raise InvalidGraphError(f"{operation} requires a clean graph, found: {', '.join(kinds)}")


def parents(graph: ReasoningGraph, node: str | NodeId) -> set[NodeId]:
    """Direct prerequisites of ``node``; empty for a source node."""
    target = graph.node(node).id.key
    return {NodeId(parent) for parent, child in graph._edges if child == target}


def children(graph: ReasoningGraph, node: str | NodeId) -> set[NodeId]:
    """Direct dependents of ``node``; empty for a sink."""
    source = graph.node(node).id.key
    return {NodeId(child) for child in graph._children[source]}


def sinks(graph: ReasoningGraph) -> list[NodeId]:
    """Nodes with no outgoing edges, in first-insertion order."""
    _require_clean(graph, "sinks")
    return [NodeId(key) for key in graph._text if not graph._children[key]]


def topological_order(graph: ReasoningGraph) -> list[NodeId]:
    """Kahn's algorithm; ties broken by node insertion order."""
    _require_clean(graph, "topological_order")
    position = {k: i for i, k in enumerate(graph._text)}
    in_deg = dict.fromkeys(position, 0)
    for _, child in graph._edges:
        in_deg[child] += 1

    ready = [k for k in position if in_deg[k] == 0]
    order: list[NodeId] = []
    while ready:
        key = ready.pop(0)
        order.append(NodeId(key))
        changed = False
        for child_key in graph._children[key]:
            in_deg[child_key] -= 1
            if in_deg[child_key] == 0:
                ready.append(child_key)
                changed = True
        if changed:
            ready.sort(key=position.__getitem__)
    return order


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(graph: ReasoningGraph, answer: str | None = None) -> str:
    """Render a clean graph as Graphviz DOT text.

    Branch nodes (out-degree >= 2) are tinted blue; the decision node
    (the unique sink, when there is exactly one) is tinted green and,
    when ``answer`` is given, carries it in its label. Output is
    byte-deterministic: statements follow insertion order.
    """
    _require_clean(graph, "export_dot")
    out_deg = {key: len(graph._children[key]) for key in graph._text}
    sink_keys = [k for k, d in out_deg.items() if d == 0]
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
        elif out_deg[key] >= 2:
            attrs.append('fillcolor="lightblue"')
        attrs.insert(0, f'label="{_dot_escape(label)}"')
        lines.append(f'  "{_dot_escape(key)}" [{" ".join(attrs)}];')
    for parent, child in graph._edges:
        lines.append(f'  "{_dot_escape(parent)}" -> "{_dot_escape(child)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
