"""Rebuilding the arborescence edge list from a canonical cutset matrix.

Each canonical row pairs one non-sink branch with exactly the sink flows
that descend from it, so chord sets are nested along root-to-leaf paths:
an ancestor's chord set contains a descendant's.  Sorting rows by
descending nonzero count places ancestors first, the immediate parent of a
branch is the deepest earlier row whose chord set contains its own, and a
sink edge hangs off the deepest row that carries it as a chord.  A row
disjoint from every earlier row is another top-level branch out of the
source; single-top-branch inputs never hit that case.

:func:`realize_topology` finds all of these with a per-sink scan: a running
maximum of row number down each sink column (``np.maximum.accumulate``)
gives, for every row, the last earlier row that carries each of its sinks,
so a row's parent is the largest of those, the parent contains the row
when they all equal it, and the scan's last row gives each sink's parent.
That is O(m c) work and memory for m branches and c sinks; no m x m
matrix is formed.  It is the one way into realization: both lanes hand it
the canonical matrix their cutset step builds
(``nullspace.cutset_from_factor``), and it reads the chord membership off
that matrix.

Realization is also the one place that reports equal-flow chains: runs of
single-child edges carry identical flows, so no data orders them.  Their
rows hold the same chord set, and each takes the previous one as its
parent, so the ordered-label convention (the smaller label is the
shallower edge) settles the run.  A chain is a chord set held by two or
more rows, or by one row and its one sink; with the sets nested, a set is
named by its first sink and its size.

Node naming follows the incoming-edge convention: the node entered by edge
``i`` is node ``i`` and the source is node ``e + 1``, which makes a
reconstruction directly comparable to a ground-truth network relabeled the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .canonical_cutset import CanonicalCutsetMatrix
from .errors import LabelMismatch, NotArborescence
from .graph_model import FlowNetwork


@dataclass(frozen=True)
class ReconstructionResult:
    """Inferred edge list plus diagnostics.

    ``edges`` is ordered as the realization emits it (branches in sorted
    row order, then chords in column order); ``as_network`` reorders by
    edge label into the positional convention used everywhere else.
    """

    edges: tuple[tuple[int, int], ...]
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def root(self) -> int:
        return self.edge_count + 1

    def as_network(self) -> FlowNetwork:
        by_label = {t: (s, t) for s, t in self.edges}
        ordered = tuple(by_label[lab] for lab in range(1, self.edge_count + 1))
        return FlowNetwork(node_count=self.edge_count + 1, edges=ordered)


def realize_topology(canon: CanonicalCutsetMatrix) -> ReconstructionResult:
    """Realize the unique arborescence consistent with a canonical cutset
    matrix: the one way into realization, for both lanes and for callers.

    Each row's parent comes from one running maximum of row number down
    each sink column of the chord membership ``T``, read off ``canon``, in
    O(m c) work and memory for m branches and c sinks.

    ``diagnostics`` holds the ``canonical`` matrix and the
    ``chain_groups``: each equal-flow chain as its labels in ascending
    order, groups sorted by last label.  A group is a run of branches with
    one chord set, plus that chord when the set has one member.  The data
    cannot order a group's edges; the ordered-label convention does, and a
    caller that must refuse such an answer tests ``chain_groups``.

    ``canon`` holds the labels 1..e, so the result is a tree: each branch's
    parent is an earlier row or the source, each sink hangs off one row.

    Raises:
        NotArborescence: chord sets are not nested the way an arborescence
            requires.
    """
    e, m = canon.edge_count, canon.m
    if m == 0 or m == e:
        raise NotArborescence("need at least one branch and one chord")
    # every label once, as one array, with the source e + 1 after them so
    # that index -1 names it
    labels = np.fromiter((*canon.column_labels, e + 1), np.int64, e + 1)
    # canonical chord entries are 0 or -1, -1 where the row carries the sink
    chords = canon.entries[:, m:]
    size = -chords.sum(axis=1)

    # rows sorted by descending size then branch label, as one integer key
    order = np.argsort(labels[:m] - size * (e + 1))
    size = size[order]
    labels[:m] = labels[order]
    if size[0] == 0:
        raise NotArborescence("largest cutset row carries no sink edge")

    # last[k, j] is 1 + the last row before k that carries sink j, or 0: a
    # running maximum of row number down each sink column.  A row's parent
    # is the last earlier row it meets, the largest last[k, j] over its
    # sinks; as none exceeds it, the parent contains the row when they sum
    # to it times the row's size.  A sink hangs off the last row carrying it
    # marks[k, j] is k + 1 where row k carries sink j, else 0
    marks = chords.take(order, axis=0)
    marks *= np.arange(-1, -m - 1, -1)[:, None]
    last = np.empty_like(marks)
    last[0] = 0
    np.maximum.accumulate(marks[:-1], axis=0, out=last[1:])
    sink_parent = np.maximum(last[-1], marks[-1]) - 1
    # k + 1 exceeds last[k, j], so this keeps last[k, j] where row k
    # carries sink j and zeroes it elsewhere
    np.minimum(last, marks, out=last)
    parent = last.max(axis=1)
    # a row without a parent, empty or not, sums to 0 = 0 x size
    nested = last.sum(axis=1) == parent * size
    parent -= 1
    if not nested.all():
        k = int(np.argmin(nested))
        raise NotArborescence(
            f"chord sets of branches {labels[k]} and {labels[parent[k]]} "
            "intersect without containment"
        )
    # empty rows sort last, after every row the test above can fail
    if size[-1] == 0:
        k = int(np.argmin(size))
        raise NotArborescence(f"branch {labels[k]} carries no sink edge")
    if sink_parent.min() < 0:
        j = int(np.argmin(sink_parent))
        raise NotArborescence(f"sink edge {labels[m + j]} appears in no cutset")

    # each edge enters from its parent row's branch; a row meeting no
    # earlier row (parent -1) is a top-level branch out of the source e + 1
    src = labels[np.concatenate([parent, sink_parent])]
    edges = tuple(zip(src.tolist(), labels.tolist()))

    # equal-flow chains: a chord set held by two or more rows, or by one row
    # and its one sink.  Only rows with a parent of equal size (which holds
    # the same set) or of size 1 make them.  The sets are nested, so (first
    # sink, size) names a row's set; sink j, keyed (j, 1), joins the row
    # whose set is {j}.  A key held once is no chain
    linked = (parent >= 0) & (size[parent] == size)
    chains = ()
    if (linked | (size == 1)).any():
        c = e - m
        first = np.concatenate([marks.argmax(axis=1), np.arange(c)])
        key = first * (c + 1) + np.concatenate([size, np.ones(c, np.int64)])
        by_set = np.lexsort((labels[:e], key))
        ordered = labels[by_set].tolist()
        cuts = [0, *(np.flatnonzero(np.diff(key[by_set])) + 1).tolist(), e]
        groups = (tuple(ordered[a:b]) for a, b in zip(cuts, cuts[1:]) if b - a > 1)
        chains = tuple(sorted(groups, key=lambda g: g[-1]))
    return ReconstructionResult(edges, {"canonical": canon, "chain_groups": chains})


def verify_against_truth(result: ReconstructionResult, truth: FlowNetwork) -> bool:
    """Exact labeled-edge-set equality against a reference network.

    The reference must use the incoming-edge labeling convention (see
    ``graph_model.to_label_convention``).

    Raises:
        LabelMismatch: the two edge-label universes differ.
    """
    if truth.edge_count != result.edge_count or truth.node_count != result.edge_count + 1:
        raise LabelMismatch(
            f"reference has {truth.edge_count} edges over {truth.node_count} nodes, "
            f"result has {result.edge_count} edges"
        )
    return set(result.edges) == set(truth.edges)


def to_dot(result: ReconstructionResult) -> str:
    """Render the reconstruction as DOT text for external layout tools."""
    lines = ["digraph reconstruction {"]
    for s, t in sorted(result.edges, key=lambda st: st[1]):
        lines.append(f'    {s} -> {t} [label="x{t}"];')
    lines.append("}")
    return "\n".join(lines)
