"""Flow networks, conservation graphs, and their matrix representations.

A flow network is a digraph whose edges carry a conserved quantity: at every
node that is neither a source nor a sink, inflow equals outflow.  Merging all
sources and sinks into a single environment node yields the conservation
graph, on which a conservation equation holds at every node.  The reduced
incidence matrix and the fundamental-cutset matrices of that graph are the
linear models the rest of the toolkit learns from data.

Conventions, fixed across the whole package:

* node ids are 1-based integers; id 0 is reserved for the environment node;
* edge order is load bearing: position ``i`` of an edge list is flow
  variable ``i + 1``, and all matrices tie their columns to explicit
  edge-label lists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DisconnectedNetwork, InvalidArgument, NoInternalNodes, NotASpanningTree

ENVIRONMENT = 0


def _integer(name: str, value: object) -> int:
    """``value`` as an int; a float or another non-integral value raises
    ``InvalidArgument`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None


class _UnionFind:
    """Plain union-find over a fixed node universe."""

    __slots__ = ("parent", "rank")

    def __init__(self, nodes):
        self.parent = {v: v for v in nodes}
        self.rank = {v: 0 for v in nodes}

    def find(self, v):
        p = self.parent
        root = v
        while p[root] != root:
            root = p[root]
        while p[v] != root:
            p[v], v = root, p[v]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with designated sources and sinks.

    Attributes:
        node_count: number of nodes; valid ids are ``1..node_count``.
        edges: ordered ``(source_node, target_node)`` pairs.  Position ``i``
            is flow variable ``i + 1`` throughout the pipeline.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "node_count", _integer("node_count", self.node_count))
        try:
            edges = tuple((int(s), int(t)) for s, t in self.edges)
        except (TypeError, ValueError):
            raise InvalidArgument("edges must be (source, target) pairs of node ids") from None
        object.__setattr__(self, "edges", edges)
        if self.node_count < 1:
            raise InvalidArgument("node_count must be positive")
        if not self.edges:
            raise InvalidArgument("network must have at least one edge")
        for s, t in self.edges:
            if not (1 <= s <= self.node_count and 1 <= t <= self.node_count):
                raise InvalidArgument(f"edge ({s}, {t}) references an invalid node id")
            if s == t:
                raise InvalidArgument(f"self-loop on node {s} is not allowed")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def source_nodes(self) -> frozenset[int]:
        """Nodes with zero in-degree."""
        targets = {t for _, t in self.edges}
        return frozenset(v for v in range(1, self.node_count + 1) if v not in targets)

    @property
    def sink_nodes(self) -> frozenset[int]:
        """Nodes with zero out-degree."""
        sources = {s for s, _ in self.edges}
        return frozenset(v for v in range(1, self.node_count + 1) if v not in sources)

    @property
    def internal_nodes(self) -> tuple[int, ...]:
        boundary = self.source_nodes | self.sink_nodes
        return tuple(v for v in range(1, self.node_count + 1) if v not in boundary)

    def sink_edge_labels(self) -> tuple[int, ...]:
        """Labels of edges whose target is a sink node."""
        sinks = self.sink_nodes
        return tuple(i + 1 for i, (_, t) in enumerate(self.edges) if t in sinks)


@dataclass(frozen=True)
class ConservationGraph:
    """A flow network with all sources and sinks merged into node 0.

    The edge list keeps the original order and directions; only endpoints
    that were sources or sinks are remapped to the environment node.
    """

    internal_nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "internal_nodes", tuple(self.internal_nodes))
        object.__setattr__(self, "edges", tuple((int(s), int(t)) for s, t in self.edges))
        valid = set(self.internal_nodes) | {ENVIRONMENT}
        for s, t in self.edges:
            if s not in valid or t not in valid:
                raise InvalidArgument(f"edge ({s}, {t}) references a node outside the graph")

    @property
    def m(self) -> int:
        return len(self.internal_nodes)

    @property
    def node_count(self) -> int:
        return self.m + 1

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Reduced incidence matrix: rows are internal nodes, environment row
    omitted.  Entry is -1 where the edge leaves the row node and +1 where
    it enters."""

    entries: np.ndarray
    row_nodes: tuple[int, ...]

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_nodes", tuple(self.row_nodes))
        if entries.ndim != 2 or entries.shape[0] != len(self.row_nodes):
            raise InvalidArgument("entry shape does not match row_nodes")
        if not np.isin(entries, (-1, 0, 1)).all():
            raise InvalidArgument("incidence entries must be in {-1, 0, +1}")
        # a column may touch the omitted environment row, so "at most one"
        # of each sign per column, never two
        if ((entries == 1).sum(axis=0) > 1).any() or ((entries == -1).sum(axis=0) > 1).any():
            raise InvalidArgument("a column carries a repeated sign")


@dataclass(frozen=True)
class CutsetMatrix:
    """Integer matrix in ``[I | C]`` form tied to a branch/chord ordering.

    Attributes:
        entries: m x e integer matrix whose first m columns are the
            identity.
        branch_edges: labels of the identity columns, in column order.
        chord_edges: labels of the remaining columns, in column order.
    """

    entries: np.ndarray
    branch_edges: tuple[int, ...]
    chord_edges: tuple[int, ...]

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "branch_edges", tuple(int(b) for b in self.branch_edges))
        object.__setattr__(self, "chord_edges", tuple(int(c) for c in self.chord_edges))
        m = len(self.branch_edges)
        e = m + len(self.chord_edges)
        if entries.shape != (m, e):
            raise InvalidArgument(f"expected shape {(m, e)}, got {entries.shape}")
        if set(self.branch_edges) & set(self.chord_edges):
            raise InvalidArgument("branch and chord labels overlap")
        # two comparisons, not abs: np.abs leaves the most negative int64 negative
        if not ((entries >= -1) & (entries <= 1)).all():
            raise InvalidArgument("cutset entries must be in {-1, 0, +1}")
        if m and not np.array_equal(entries[:, :m], np.eye(m, dtype=np.int64)):
            raise InvalidArgument("leading columns do not form the identity")

    @property
    def m(self) -> int:
        return len(self.branch_edges)

    @property
    def edge_count(self) -> int:
        return self.entries.shape[1]

    @property
    def column_labels(self) -> tuple[int, ...]:
        return self.branch_edges + self.chord_edges


def build_conservation_graph(network: FlowNetwork) -> ConservationGraph:
    """Merge all sources and sinks of ``network`` into the environment node.

    Raises:
        DisconnectedNetwork: the underlying undirected graph is not
            connected, or no source/sink exists so the environment node
            would be isolated.
        NoInternalNodes: every node is a source or a sink (m = 0).
    """
    internal = network.internal_nodes
    if not internal:
        raise NoInternalNodes("network has no non-source, non-sink node")

    uf = _UnionFind(range(1, network.node_count + 1))
    components = network.node_count
    for s, t in network.edges:
        if uf.union(s, t):
            components -= 1
    if components != 1:
        raise DisconnectedNetwork(f"{components} connected components, expected 1")

    boundary = network.source_nodes | network.sink_nodes
    if not boundary:
        raise DisconnectedNetwork("no source or sink: environment node would be isolated")

    def remap(v: int) -> int:
        return ENVIRONMENT if v in boundary else v

    edges = tuple((remap(s), remap(t)) for s, t in network.edges)
    return ConservationGraph(internal_nodes=internal, edges=edges)


def reduced_incidence_matrix(cg: ConservationGraph) -> IncidenceMatrix:
    """Incidence matrix of the conservation graph with the environment row
    omitted; satisfies ``entries @ x == 0`` for every conserved flow x."""
    row_of = {v: i for i, v in enumerate(cg.internal_nodes)}
    entries = np.zeros((cg.m, cg.edge_count), dtype=np.int64)
    for j, (s, t) in enumerate(cg.edges):
        if s in row_of:
            entries[row_of[s], j] = -1
        if t in row_of:
            entries[row_of[t], j] = 1
    return IncidenceMatrix(entries=entries, row_nodes=cg.internal_nodes)


def fcutset_matrix(cg: ConservationGraph, branches: Sequence[int]) -> CutsetMatrix:
    """Fundamental-cutset matrix ``[I | C]`` with respect to a spanning tree.

    Args:
        cg: conservation graph.
        branches: edge labels (1-based) forming the spanning tree, in the
            column order desired for the identity block.  Chord columns
            follow in ascending label order.

    Raises:
        NotASpanningTree: the branch edges contain a cycle or fail to span
            every node of the conservation graph.
    """
    m, e = cg.m, cg.edge_count
    branches = tuple(int(b) for b in branches)
    if len(branches) != m or len(set(branches)) != m:
        raise NotASpanningTree(f"need {m} distinct branch labels, got {branches}")
    if any(not 1 <= b <= e for b in branches):
        raise NotASpanningTree("branch label out of range")

    nodes = set(cg.internal_nodes) | {ENVIRONMENT}
    uf = _UnionFind(nodes)
    for b in branches:
        s, t = cg.edges[b - 1]
        if not uf.union(s, t):
            raise NotASpanningTree(f"branch edges contain a cycle at edge {b}")
    roots = {uf.find(v) for v in nodes}
    if len(roots) != 1:
        raise NotASpanningTree("branch edges do not span all nodes")

    # adjacency of the tree, keyed by label so parallel edges stay distinct
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for b in branches:
        s, t = cg.edges[b - 1]
        adj[s].append((t, b))
        adj[t].append((s, b))

    branch_set = set(branches)
    chords = tuple(j for j in range(1, e + 1) if j not in branch_set)
    labels = branches + chords
    col_of = {lab: i for i, lab in enumerate(labels)}

    entries = np.zeros((m, e), dtype=np.int64)
    for row, b in enumerate(branches):
        u, v = cg.edges[b - 1]
        # component of v once branch b is removed from the tree
        far = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for nxt, lab in adj[w]:
                if lab != b and nxt not in far:
                    far.add(nxt)
                    stack.append(nxt)
        for j, (p, q) in enumerate(cg.edges):
            into = q in far and p not in far
            outof = p in far and q not in far
            if into:
                entries[row, col_of[j + 1]] = 1
            elif outof:
                entries[row, col_of[j + 1]] = -1
    return CutsetMatrix(entries=entries, branch_edges=branches, chord_edges=chords)


def _top_down(network: FlowNetwork) -> list[int] | None:
    """Edge indices, each after the edge entering its source node, or None
    when the network is not an arborescence."""
    indeg = [0] * (network.node_count + 1)
    out: dict[int, list[int]] = {}
    for i, (s, t) in enumerate(network.edges):
        indeg[t] += 1
        out.setdefault(s, []).append(i)
    roots = [v for v in range(1, network.node_count + 1) if indeg[v] == 0]
    # one root and every other node entered once; then the walk from the
    # root reaches every edge exactly when no cycle hides from it
    if len(roots) != 1 or max(indeg) > 1:
        return None
    order = list(out.get(roots[0], ()))
    for i in order:  # breadth first: the list grows as the loop reads it
        order.extend(out.get(network.edges[i][1], ()))
    return order if len(order) == network.edge_count else None


def is_arborescence(network: FlowNetwork) -> bool:
    """True iff the network is a directed tree with one source, every other
    node of in-degree one, and all edges pointing away from the source."""
    return _top_down(network) is not None


def to_label_convention(network: FlowNetwork) -> FlowNetwork:
    """Relabel an arborescence so nodes carry their incoming edge's label.

    The source becomes node ``e + 1``; the node entered by edge ``i``
    becomes node ``i``.  This is the naming scheme realization uses, so
    converting a ground-truth network through here makes the two directly
    comparable.
    """
    if not is_arborescence(network):
        raise InvalidArgument("label convention is defined for arborescences only")
    e = network.edge_count
    mapping: dict[int, int] = {}
    for i, (_, t) in enumerate(network.edges):
        mapping[t] = i + 1
    (root,) = set(range(1, network.node_count + 1)) - set(mapping)
    mapping[root] = e + 1
    edges = tuple((mapping[s], mapping[t]) for s, t in network.edges)
    return FlowNetwork(node_count=e + 1, edges=edges)
