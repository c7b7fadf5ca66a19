"""Flow networks, the arborescence check and relabelling, and cutset
matrices.

A flow network is a digraph whose edges carry a conserved quantity: at every
node that is neither a source nor a sink, inflow equals outflow.  The
fundamental-cutset matrix ``[I | C]`` of such a network, tied to explicit
branch and chord labels, is the linear model the rest of the toolkit
learns from data.

Conventions, fixed across the whole package:

* node ids are 1-based integers;
* edge order is load bearing: position ``i`` of an edge list is flow
  variable ``i + 1``, and all matrices tie their columns to explicit
  edge-label lists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


def _integer(name: str, value: object) -> int:
    """``value`` as an int; a bool, a float or another non-integral value
    raises ``InvalidArgument`` naming ``name``."""
    # operator.index takes True as 1, so a JSON true would pass as node id 1
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgument(f"{name} must be an integer, got {value!r}")


def _real(name: str, value: object) -> float:
    """``value`` as a float; a bool, a string, an int past the float range
    or another non-real value raises ``InvalidArgument`` naming ``name``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InvalidArgument(f"{name} must lie within the float range") from None
    raise InvalidArgument(f"{name} must be a real number, got {value!r}")


def _reals(name: str, value: object) -> np.ndarray:
    """``value`` as a read-only float64 array, the caller's own if it is one;
    anything but a regular nesting of finite integers or floats raises
    ``InvalidArgument`` naming ``name``."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise InvalidArgument(f"{name} must be an array of real numbers")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise InvalidArgument(f"{name} contains non-finite entries")
    array.setflags(write=False)
    return array


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
            pairs = tuple((s, t) for s, t in self.edges)
        except (TypeError, ValueError):
            raise InvalidArgument("edges must be (source, target) pairs of node ids") from None
        edges = tuple((_integer("edge source", s), _integer("edge target", t)) for s, t in pairs)
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
class CutsetMatrix:
    """Integer matrix in ``[I | C]`` form tied to a branch/chord ordering.

    Attributes:
        entries: m x e integer matrix whose first m columns are the
            identity.
        branch_edges: labels of the identity columns, in column order.
        chord_edges: labels of the remaining columns, in column order;
            with the branches, exactly 1..e.
    """

    entries: np.ndarray
    branch_edges: tuple[int, ...]
    chord_edges: tuple[int, ...]

    def __post_init__(self):
        try:
            raw = np.asarray(self.entries)
            entries = raw.astype(np.int64, copy=False)
        except (TypeError, ValueError, OverflowError):  # "a", None, a ragged list
            raise InvalidArgument("cutset entries must be in {-1, 0, +1}") from None
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        for name in ("branch_edges", "chord_edges"):
            labels = tuple(_integer(name, v) for v in getattr(self, name))
            object.__setattr__(self, name, labels)
        m = len(self.branch_edges)
        e = m + len(self.chord_edges)
        if entries.shape != (m, e):
            raise InvalidArgument(f"expected shape {(m, e)}, got {entries.shape}")
        if sorted(self.column_labels) != list(range(1, e + 1)):
            raise InvalidArgument(f"edge labels must be exactly 1..{e}")
        # the extremes, not abs: np.abs leaves the most negative int64 negative;
        # an entry the cast changed (-0.7 to 0) is not one of them either
        in_range = entries.min(initial=0) >= -1 and entries.max(initial=0) <= 1
        if not (in_range and np.array_equal(entries, raw)):
            raise InvalidArgument("cutset entries must be in {-1, 0, +1}")
        # with entries in {-1, 0, +1}, a unit diagonal and no other nonzero
        # is the identity
        lead = entries[:, :m]
        if not ((lead.diagonal() == 1).all() and np.count_nonzero(lead) == m):
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


def _top_down(network: FlowNetwork) -> tuple[list[int], dict[int, list[int]]] | None:
    """Edge indices, each after the edge entering its source node, and the
    map of each node to its outgoing edges, or None for a non-arborescence."""
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
    return (order, out) if len(order) == network.edge_count else None


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
