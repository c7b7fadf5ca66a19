"""Canonical cutset form: every branch a non-sink flow edge.

A learned cutset matrix ``[I | R]`` corresponds to some spanning tree of the
conservation graph, not necessarily the arborescence rooted at the
environment node.  Chord-branch interchanges (elementary tree
transformations) move the tree toward that arborescence: within each cutset
row of an arborescence conservation graph exactly one coefficient carries a
sign different from all the others, and the edge holding it is the cutset's
lowest-level non-sink flow, hence the branch the canonical form wants.
An equal-flow chain (a run of single-child edges) gives identical columns
that no sign tells apart; :func:`canonicalize` then puts the smaller label
above, the ordered-label convention that realization also applies when it
reports the chains.

The canonical form is itself a ``CutsetMatrix``: :class:`CanonicalCutsetMatrix`
adds the interchange history and checks the one property the canonical
form adds, no positive chord entry.  :func:`canonicalize` constructs it
once, through those checks.  ``nullspace.cutset_from_factor``, which
both lanes call, builds its ``[I | -T]`` with T 0/1 on labels that split
1..e, canonical by construction, so it skips the checks
(``CanonicalCutsetMatrix._canonical_by_construction``); a caller's
``CanonicalCutsetMatrix(...)`` still runs them all.

All arithmetic here is exact integer arithmetic on snapped matrices; row
operations on {-1, 0, +1} cutset matrices stay integral, so no float drift
can creep in after snapping.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InvalidArgument, NotCanonicalizable, NotUnique
from .graph_model import CutsetMatrix, _unchecked


@dataclass(frozen=True)
class CanonicalCutsetMatrix(CutsetMatrix):
    """A cutset matrix in canonical form plus the interchange history.

    Canonical means: identity entries are +1 and every chord entry is 0 or
    -1, so each row reads "branch flow minus the sum of its descendant sink
    flows equals zero".

    Attributes:
        provenance: ``(row, outgoing_branch, incoming_branch)`` label
            records, one per interchange, in application order.
    """

    provenance: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "provenance", tuple(tuple(p) for p in self.provenance))
        if self.entries[:, self.m :].max(initial=0) > 0:
            raise InvalidArgument("canonical form admits no positive chord entry")

    @classmethod
    def _canonical_by_construction(
        cls, entries: np.ndarray, branch_edges: tuple[int, ...], chord_edges: tuple[int, ...]
    ) -> CanonicalCutsetMatrix:
        """The matrix from parts its builder makes canonical, without the
        checks: ``entries`` a read-only int64 ``[I | -T]`` with T 0/1, and
        labels, Python ints, that split 1..e.  No interchange history."""
        return _unchecked(
            cls, entries=entries, branch_edges=branch_edges, chord_edges=chord_edges, provenance=()
        )


def _swap_and_reduce(entries: np.ndarray, labels: list[int], k: int, l: int) -> None:
    """Interchange branch column k with column l, then restore the identity
    block by integer row operations."""
    entries[:, [k, l]] = entries[:, [l, k]]
    labels[k], labels[l] = labels[l], labels[k]
    if entries[k, k] == -1:
        entries[k] = -entries[k]
    if entries[k, k] != 1:
        raise NotCanonicalizable(f"pivot {entries[k, k]} at row {k} after interchange")
    for r in range(entries.shape[0]):
        if r != k and entries[r, k] != 0:
            entries[r] -= entries[r, k] * entries[k]
    if np.abs(entries).max() > 1:
        raise NotCanonicalizable("row operations left the {-1, 0, +1} range")


def canonicalize(cutset: CutsetMatrix) -> CanonicalCutsetMatrix:
    """Transform a valid cutset matrix so all branches are non-sink edges.

    The interchange target of a row is found through its sign-unique
    coefficient.  A row whose branch label exceeds its only negative chord
    is repaired too: that branch and chord carry the same flow (an
    equal-flow chain, a single-child path), so sign logic cannot tell
    their columns apart, and under the ordered labeling convention the
    smaller label is the shallower edge, which the interchange restores.
    Rows with several negative chords carry different flows and keep
    their labels, so networks labelled in any order settle.

    Args:
        cutset: f-cutset matrix of an arborescence conservation graph.

    Raises:
        NotUnique: a row offers no unambiguous interchange target.
        NotCanonicalizable: interchanges failed to converge, or the matrix
            violates cutset structure along the way.
    """
    entries = cutset.entries.astype(np.int64, copy=True)
    labels = list(cutset.column_labels)
    m = cutset.m
    provenance: list[tuple[int, int, int]] = []

    # each pass acts on the first unsettled row, one with a positive chord
    # or with a single -1 chord, labelled below its branch, and makes one
    # interchange, since that can unsettle rows already visited
    max_swaps = 4 * m + 16
    for _ in range(max_swaps):
        chords = entries[:, m:]
        lab = np.asarray(labels)
        negative = chords == -1
        single = negative.sum(axis=1) == 1
        below = single & (negative & (lab[m:] < lab[:m, None])).any(axis=1)
        unsettled = (chords > 0).any(axis=1) | below
        if not unsettled.any():
            break
        k = int(np.argmax(unsettled))
        if not single[k]:
            raise NotUnique(
                f"row {k} has {negative[k].sum()} negative chords alongside positive ones"
            )
        # the row's one -1 chord: its sign-unique coefficient, or the chain
        # edge that carries the branch's flow under a smaller label
        l = m + int(np.argmax(negative[k]))
        outgoing, incoming = labels[k], labels[l]
        _swap_and_reduce(entries, labels, k, l)
        provenance.append((k, outgoing, incoming))
    else:
        raise NotCanonicalizable(f"no fixed point after {max_swaps} interchanges")

    return CanonicalCutsetMatrix(
        entries=entries,
        branch_edges=tuple(labels[:m]),
        chord_edges=tuple(labels[m:]),
        provenance=tuple(provenance),
    )
