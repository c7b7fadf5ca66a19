"""Canonical cutset form: every branch a non-sink flow edge.

A learned cutset matrix ``[I | R]`` corresponds to some spanning tree of the
conservation graph, not necessarily the arborescence rooted at the
environment node.  Chord-branch interchanges (elementary tree
transformations) move the tree toward that arborescence: within each cutset
row of an arborescence conservation graph exactly one coefficient carries a
sign different from all the others, and the edge holding it is the cutset's
lowest-level non-sink flow, hence the branch the canonical form wants.

The canonical form is itself a ``CutsetMatrix``: :class:`CanonicalCutsetMatrix`
adds the interchange history and checks the one property the canonical
form adds, no positive chord entry.  :func:`canonicalize` and
``nullspace.cutset_from_factor`` each construct it once, from entries that
have that property by construction.

All arithmetic here is exact integer arithmetic on snapped matrices; row
operations on {-1, 0, +1} cutset matrices stay integral, so no float drift
can creep in after snapping.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InvalidArgument, NotCanonicalizable, NotUnique
from .graph_model import CutsetMatrix


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


def canonicalize(cutset: CutsetMatrix, normalize_labels: bool = True) -> CanonicalCutsetMatrix:
    """Transform a valid cutset matrix so all branches are non-sink edges.

    The interchange target of a row is found through its sign-unique
    coefficient.

    Args:
        cutset: f-cutset matrix of an arborescence conservation graph.
        normalize_labels: also repair rows whose branch label exceeds one of
            its negative chords.  Equal-flow chain segments (single-child
            paths) produce structurally identical columns that sign logic
            cannot tell apart; under the ordered labeling convention the
            smaller label is the shallower edge, which this pass restores.

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
    # or, under normalize_labels, a -1 chord labelled below its branch, and
    # makes one interchange, since that can unsettle rows already visited
    max_swaps = 4 * m + 16
    for _ in range(max_swaps):
        chords = entries[:, m:]
        lab = np.asarray(labels)
        negative = chords == -1
        unsettled = (chords > 0).any(axis=1)
        if normalize_labels:
            unsettled |= (negative & (lab[m:] < lab[:m, None])).any(axis=1)
        if not unsettled.any():
            break
        k = int(np.argmax(unsettled))
        if (chords[k] > 0).any():
            neg = np.flatnonzero(negative[k])
            if neg.size != 1:
                raise NotUnique(
                    f"row {k} has {neg.size} negative chords alongside positive ones"
                )
            l = m + int(neg[0])
        else:
            below = np.flatnonzero(negative[k] & (lab[m:] < lab[k]))
            l = m + int(below[np.argmin(lab[m:][below])])
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
