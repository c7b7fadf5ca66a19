"""Rebuilding the arborescence edge list from a canonical cutset matrix.

Each canonical row pairs one non-sink branch with exactly the sink flows
that descend from it, so chord sets are nested along root-to-leaf paths:
an ancestor's chord set contains a descendant's.  Sorting rows by
descending nonzero count places ancestors first, the immediate parent of a
branch is the deepest earlier row whose chord set contains its own, and a
sink edge hangs off the deepest row that carries it as a chord.  A row
disjoint from every earlier row is another top-level branch out of the
source; single-top-branch inputs never hit that case.

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
from .errors import AmbiguousParent, InvalidArgument, LabelMismatch, NotArborescence
from .graph_model import FlowNetwork


@dataclass(frozen=True)
class ReconstructionResult:
    """Inferred edge list plus diagnostics.

    ``edges`` is ordered as the realization emits it (branches in sorted
    row order, then chords in column order); ``as_network`` reorders by
    edge label into the positional convention used everywhere else.
    """

    edges: tuple[tuple[int, int], ...]
    node_labels: Mapping[int, int] = field(default_factory=dict)
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


def realize_topology(
    canon: CanonicalCutsetMatrix, chain_policy: str = "row_order"
) -> ReconstructionResult:
    """Realize the unique arborescence consistent with a canonical cutset
    matrix.

    Args:
        canon: canonical cutset matrix.
        chain_policy: how to parent a branch when several candidate rows
            carry identical chord sets, which happens exactly on equal-flow
            chain segments.  "row_order" (default) trusts the ordered
            labeling convention and picks the deepest earlier row;
            "strict" raises instead.

    Raises:
        InvalidArgument: unknown ``chain_policy``, or the branch and chord
            labels are not exactly 1..e.
        NotArborescence: chord sets are not nested the way an arborescence
            requires.
        AmbiguousParent: under ``chain_policy="strict"``, a branch has the
            same chord set as its candidate parent.
    """
    if chain_policy not in ("row_order", "strict"):
        raise InvalidArgument(f"unknown chain_policy {chain_policy!r}")
    m, e = canon.m, canon.edge_count
    # with labels 1..e the result is a tree by construction: each branch's
    # parent is an earlier row or the source, each sink hangs off one row
    if sorted(canon.branch_edges + canon.chord_edges) != list(range(1, e + 1)):
        raise InvalidArgument(f"edge labels must be exactly 1..{e}")
    if m == 0 or e == m:
        raise NotArborescence("need at least one branch and one chord")

    # chord membership, rows sorted by descending size then branch label
    member = canon.entries[:, m:] == -1
    sizes = member.sum(axis=1)
    order = np.lexsort((canon.branch_edges, -sizes))
    member, size = member[order], sizes[order]
    branches = [canon.branch_edges[k] for k in order]
    if size[0] == 0:
        raise NotArborescence("largest cutset row carries no sink edge")

    # overlap[k, p] = |set k ∩ set p| (float, so the product runs in BLAS;
    # counts stay exact); a row's parent is the last earlier row it meets,
    # which must contain it
    counts = member.astype(np.float64)
    overlap = counts @ counts.T
    earlier = np.tril(overlap > 0, -1)
    has_parent = earlier.any(axis=1)
    parent = m - 1 - np.argmax(earlier[:, ::-1], axis=1)
    bad = (size == 0) | (has_parent & (overlap[np.arange(m), parent] != size))
    first_bad = int(np.argmax(bad)) if bad.any() else m

    if chain_policy == "strict":
        # a containing parent of equal size holds the same set.  An earlier
        # twin of row k meets it, so k's parent (the last earlier row meeting
        # k) lies at or after the twin; sizes descend, so the parent has k's
        # size and, if it contains k, is a twin itself: no pair escapes
        same = np.flatnonzero(has_parent[:first_bad] & (size[parent] == size)[:first_bad])
        if same.size:
            k = int(same[0])
            raise AmbiguousParent(
                f"branches {branches[k]} and {branches[parent[k]]} carry identical "
                "chord sets; their stacking order is not identifiable"
            )
    if first_bad < m:
        k = first_bad
        if size[k] == 0:
            raise NotArborescence(f"branch {branches[k]} carries no sink edge")
        raise NotArborescence(
            f"chord sets of branches {branches[k]} and {branches[parent[k]]} "
            "intersect without containment"
        )

    carried = member.any(axis=0)
    if not carried.all():
        j = int(np.argmin(carried))
        raise NotArborescence(f"sink edge {canon.chord_edges[j]} appears in no cutset")
    # a sink hangs off the last (deepest) row carrying it
    sink_parent = m - 1 - np.argmax(member[::-1], axis=0)

    # x_e: labels in realized column order, branches first; rows without
    # an earlier row meeting them are top-level branches out of the source
    x_e = branches + list(canon.chord_edges)
    src = [branches[p] if h else e + 1 for p, h in zip(parent.tolist(), has_parent.tolist())]
    src += [branches[p] for p in sink_parent.tolist()]

    edges = tuple((src[i], x_e[i]) for i in range(e))
    return ReconstructionResult(
        edges=edges,
        node_labels={lab: lab for lab in range(1, e + 1)},
        diagnostics={
            "m": m,
            "dependent_edges": canon.branch_edges,
            "independent_edges": canon.chord_edges,
            "canonical": canon,
        },
    )


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
