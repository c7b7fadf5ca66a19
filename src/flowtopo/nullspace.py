"""Learning the conservation model from steady-state flow data.

Every edge flow is a 0/1 sum of sink flows, so after scaling each edge's
samples to unit total, a greedy pivot on the largest residual norm picks
the sink edges.  Neither lane needs a null basis.  The exact lane takes
one pivoted Cholesky factorization of the e x e Gram matrix of the scaled
rows: it makes those pivot choices and its diagonal gives the rank
(:func:`sink_cutset`).  The noisy lane picks its sinks the same way, by a
pivoted QR of the signal part of the whitened covariance
(``noise_pipeline``).  Either triangular factor also says which sinks lie
below every other edge: :func:`cutset_from_factor` reads the shares off
it, snaps them and emits the canonical cutset matrix ``[I | -T]``.

The staged route, which neither lane takes any more, works from a basis
of the conservation laws.  The samples of a conserved network lie in the
null space of its incidence matrix, so the left singular vectors of the
data matrix that belong to zero singular values span exactly the row
space of that incidence matrix (:func:`estimate_null_basis` finds them by
QR of the samples, then SVD of the e x e triangular factor).
:func:`find_valid_partition` picks a nonsingular set of dependent columns
by one QR with column pivoting, and :func:`to_fcutset_form` reduces the
basis on it to a fundamental-cutset matrix ``[I | R]``; the reduced
matrix is the same for every basis of the subspace, which is what makes
the approach usable on an estimate rather than the true incidence matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .canonical_cutset import CanonicalCutsetMatrix
from .errors import (
    FullDeficiency,
    InvalidArgument,
    NonIntegerCutset,
    NonPositiveFlow,
    NoValidPartition,
    RankZero,
)
from .graph_model import CutsetMatrix

DEFAULT_ZERO_TOL = 1e-10
# The exact lane's cutoff on |U_kk| / |U_00| of the pivoted Cholesky factor.
# Forming the Gram matrix squares the condition number, so a pivot that is
# zero in exact arithmetic comes out near sqrt(eps), about 2-5e-8 of the
# first; true sink pivots stay above 5e-2 of it on the generator families.
EXACT_ZERO_TOL = 1e-6
# cutoffs below this would count rounding in the Gram matrix as rank
ZERO_TOL_FLOOR = 1e-7
DEFAULT_ROUND_TOL = 0.1
# rref takes a column as pivot only above this fraction of the largest
# entry left to reduce (threshold pivoting, u = 0.1)
PIVOT_THRESHOLD = 0.1
# entries (rref) or pivots (find_valid_partition) at or below this fraction
# of the largest count as zero
RANK_TOL = 1e-9


@dataclass(frozen=True)
class FlowDataMatrix:
    """Steady-state flow samples, one row per edge in label order (row i is
    edge i + 1), one column per sample.

    ``n_s > e`` is required; pass ``allow_undersampled=True`` to downgrade
    the violation to a warning for degenerate studies.
    """

    entries: np.ndarray
    allow_undersampled: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise InvalidArgument("data matrix must be two-dimensional")
        e, n_s = entries.shape
        if e == 0:
            raise InvalidArgument("data matrix needs at least one edge row")
        if not np.isfinite(entries).all():
            raise InvalidArgument("data matrix contains non-finite entries")
        if n_s <= e:
            if self.allow_undersampled:
                warnings.warn(f"only {n_s} samples for {e} edges", stacklevel=2)
            else:
                raise InvalidArgument(f"need more samples than edges, got {n_s} <= {e}")

    @property
    def edge_count(self) -> int:
        return self.entries.shape[0]

    @property
    def sample_count(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class NullBasis:
    """Estimated basis of the subspace orthogonal to the data.

    ``basis`` rows are orthonormal when produced by
    :func:`estimate_null_basis`; the type itself also accepts already
    reduced ``[I | R]`` matrices so reductions can be re-applied.
    """

    basis: np.ndarray
    estimated_rank_deficiency: int
    singular_values: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        basis.setflags(write=False)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        sv.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", sv)
        if basis.ndim != 2 or basis.shape[0] != self.estimated_rank_deficiency:
            raise InvalidArgument("basis row count must equal the rank deficiency")
        if sv.ndim != 1 or np.any(np.diff(sv) > 0):
            raise InvalidArgument("singular values must be nonincreasing")

    @property
    def m(self) -> int:
        return self.estimated_rank_deficiency


@dataclass(frozen=True)
class Partition:
    """Split of edge labels into dependent (``x_D``) and independent
    (``x_I``) sets; the dependent columns of the basis must be nonsingular."""

    dependent_edges: tuple[int, ...]
    independent_edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dependent_edges", tuple(int(v) for v in self.dependent_edges))
        object.__setattr__(self, "independent_edges", tuple(int(v) for v in self.independent_edges))
        if set(self.dependent_edges) & set(self.independent_edges):
            raise InvalidArgument("dependent and independent labels overlap")


def estimate_null_basis(data: FlowDataMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> NullBasis:
    """Estimate the left-null-space basis of the data by QR of the samples,
    then SVD of the e x e triangular factor.

    The rank deficiency m is the number of singular values at or below
    ``zero_tol`` relative to the largest one.  The default is tuned for
    noise-free data; quantized or lightly perturbed datasets need a looser
    tolerance matched to their precision.

    Raises:
        RankZero: no singular value qualifies as zero.
        FullDeficiency: the data matrix is identically zero.
    """
    if zero_tol <= 0:
        raise InvalidArgument("zero_tol must be positive")
    e = data.edge_count
    # X = R^T Q^T, so X's singular values are R's and X's left singular
    # vectors are R's right ones; neither Q nor an n_s-long factor is formed
    r = np.linalg.qr(data.entries.T, mode="r")
    _, s, vt = np.linalg.svd(r)
    sv = np.zeros(e)
    sv[: s.shape[0]] = s
    if sv[0] == 0.0:
        raise FullDeficiency("data matrix is all zeros")
    m = int(np.count_nonzero(sv <= zero_tol * sv[0]))
    if m == 0:
        raise RankZero("no conservation relation found at the given tolerance")
    basis = vt[e - m :]
    return NullBasis(basis=basis, estimated_rank_deficiency=m, singular_values=sv)


def sink_cutset(
    data: FlowDataMatrix, zero_tol: float = EXACT_ZERO_TOL
) -> tuple[CanonicalCutsetMatrix, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The canonical cutset of noise-free data from one pivoted Cholesky
    factorization.

    Every edge flow is a 0/1 sum of sink flows, ``X = T X_S``.  Scaled to
    unit l1 norm, the rows of X all lie in the simplex spanned by the sink
    rows, so pivoting on the largest residual norm takes the sinks first
    (the successive projection algorithm for separable NMF).  Those norms
    depend only on the Gram matrix ``G = Xn Xn^T`` of the scaled rows, and
    its pivoted Cholesky factorization ``P^T G P = U^T U`` (LAPACK
    ``dpstrf``) makes the same choices as QR with column pivoting of
    ``Xn^T``, with ``U`` equal to that QR's ``R`` up to signs.  It stops at
    the first pivot with ``U_kk`` at or below ``zero_tol`` times ``U_00``:
    the pivots before it are the sinks, the other m edges carry the laws,
    and :func:`cutset_from_factor` reads T off ``U`` and emits
    ``[I | -T]``; among equal flows the pivot follows rounding, and it
    settles which edge of an equal-flow chain is the sink.

    Squaring the condition number puts a pivot that is zero in exact
    arithmetic near ``sqrt(eps)`` of the first, so ``zero_tol`` must be at
    least ``ZERO_TOL_FLOOR``, and flows whose sink samples vary by less
    than about 1e-5 of their mean cannot be told apart from equal flows.

    Returns the canonical cutset, the pivot magnitudes ``U_kk`` with the
    refused pivot (the largest diagonal left in the trailing block) at
    index ``e - m`` and zeros after it, and the equal-flow groups
    (:func:`cutset_from_factor`).

    Raises:
        InvalidArgument: ``zero_tol`` is below ``ZERO_TOL_FLOOR`` or not
            below 1.
        NonPositiveFlow: some edge's samples do not sum to a positive flow
            (an ``InvalidArgument``).
        RankZero: every pivot clears the cutoff.
        NonIntegerCutset: an entry of T is farther than
            ``DEFAULT_ROUND_TOL`` from 0 or 1, or snaps to -1.
    """
    if not ZERO_TOL_FLOOR <= zero_tol < 1:
        raise InvalidArgument(
            f"zero_tol must lie in [{ZERO_TOL_FLOOR:g}, 1), got {zero_tol:g}; the Gram "
            "matrix resolves pivots only down to about 1e-8 of the first"
        )
    x = data.entries
    e = x.shape[0]
    sums = edge_totals(x)
    scaled = x / sums[:, None]
    gram = scaled @ scaled.T
    diag = gram.diagonal().copy()
    # gram is symmetric, so its transpose is the Fortran-ordered copy that
    # dpstrf overwrites without another copy
    u, piv, rank, _ = sla.lapack.dpstrf(
        gram.T, tol=zero_tol**2 * diag.max(), overwrite_a=True
    )
    if rank == e:
        raise RankZero("no conservation relation found at the given tolerance")
    piv = piv.astype(np.intp) - 1
    # dpstrf leaves the trailing block unfactored; the pivot it refused is
    # the largest diagonal of that block's Schur complement
    norms = np.zeros(e)
    norms[:rank] = np.diagonal(u)[:rank]
    norms[rank] = np.sqrt(max((diag[piv[rank:]] - (u[:rank, rank:] ** 2).sum(axis=0)).max(), 0.0))
    norms.setflags(write=False)
    canon, chains = cutset_from_factor(u, piv, rank, sums, DEFAULT_ROUND_TOL, NonIntegerCutset)
    return canon, norms, chains


def edge_totals(samples: np.ndarray) -> np.ndarray:
    """Each edge's total over the samples, the scale by which the sinks
    are picked.

    Raises:
        NonPositiveFlow: some edge's total is not positive.
    """
    sums = samples.sum(axis=1)
    if not (sums > 0).all():
        k = int(np.argmin(sums > 0))
        raise NonPositiveFlow(
            f"edge {k + 1} sums to {sums[k]:.6g}; picking the sinks needs every "
            "edge to carry a positive total flow"
        )
    return sums


def cutset_from_factor(
    r: np.ndarray, piv: np.ndarray, rank: int, totals: np.ndarray, band: float, error_cls: type
) -> tuple[CanonicalCutsetMatrix, tuple[tuple[int, ...], ...]]:
    """The canonical cutset ``[I | -T]`` from the pivoted triangular factor
    that picked the sinks, shared by both lanes.

    ``r`` factors the edges' flow rows scaled to unit total, columns in
    pivot order (the exact lane's Cholesky ``U``, the noisy lane's QR
    ``R``); ``piv`` gives each column's 0-based edge, ``totals`` each
    edge's total.  The first ``rank`` pivots are the sinks.  Scaled rows
    obey ``x_j / s_j = sum_i W_ij x_i / s_i`` with ``W = R11^-1 R12``, so
    non-sink j carries ``T_ji = s_j W_ij / s_i`` of sink i's flow; snapped,
    T is 1 where the sink lies below the edge and 0 elsewhere.  Branches
    and chords come out each in label order, with no interchanges.

    Among equal flows (an equal-flow chain: a run of single-child edges)
    the data cannot tell the edges apart.  A non-sink whose T row is the
    unit row of a sink shares that sink's flow; in each such group the
    largest label is taken as the sink, the ordered-label convention.
    Non-sinks with equal T rows above several sinks form a mid-tree chain,
    whose order realization settles by the same convention.

    Returns the canonical cutset and the equal-flow groups by last label,
    each a tuple of labels in ascending order (a sink's ends in the sink).

    Raises:
        error_cls: a share is farther than ``band`` from 0 or 1, is not
            finite, or snaps to -1.
    """
    sinks, others = piv[:rank].copy(), piv[rank:].copy()
    w = sla.solve_triangular(r[:rank, :rank], r[:rank, rank:], check_finite=False)
    shares = (w * totals[others] / totals[sinks, None]).T
    t = snap_signed_units(shares, band, error_cls)
    if (t < 0).any():
        i, j = np.argwhere(t < 0)[0]
        raise error_cls(f"edge {others[i] + 1} draws a negative share of sink flow {sinks[j] + 1}")

    # equal-flow groups: a non-sink with a single sink below carries that
    # sink's flow; the group's largest label becomes the sink
    sizes = t.sum(axis=1)
    single = np.flatnonzero(sizes == 1)
    groups: dict[int, list[tuple[int, int]]] = {}
    for row, i in zip(single.tolist(), t[single].argmax(axis=1).tolist()):
        groups.setdefault(i, []).append((int(others[row]), row))
    chains = []
    for i, members in groups.items():
        sink = int(sinks[i])
        chains.append(tuple(sorted([sink + 1] + [lab + 1 for lab, _ in members])))
        top, row = max(members)
        if top > sink:
            # X_top equals X_sink: the sink's column and top's row trade labels
            others[row], sinks[i] = sink, top
    # mid-tree chains: equal T rows above several sinks.  Equal rows share
    # their size and first sink, so only rows that share both are compared
    multi = np.flatnonzero(sizes > 1)
    key = sizes[multi] * t.shape[1] + t.argmax(axis=1)[multi]
    equal: dict[bytes, list[int]] = {}
    for row in multi[np.bincount(key)[key] > 1].tolist():
        equal.setdefault(t[row].tobytes(), []).append(int(others[row]) + 1)
    chains += [tuple(sorted(labels)) for labels in equal.values() if len(labels) > 1]
    chains.sort(key=lambda group: group[-1])

    # T is 0/1 and the labels split 1..e, so [I | -T] is canonical by construction
    rows, cols = np.argsort(others), np.argsort(sinks)
    canon = CanonicalCutsetMatrix(
        entries=np.hstack([np.eye(len(others), dtype=np.int64), -t[rows][:, cols]]),
        branch_edges=tuple(others[rows] + 1),
        chord_edges=tuple(sinks[cols] + 1),
    )
    return canon, tuple(chains)


def find_valid_partition(basis: NullBasis) -> Partition:
    """The first m pivot columns of one QR with column pivoting of the
    basis, in label order, as the dependent edges.

    Column pivoting reveals rank (Businger & Golub 1965), so on a basis of
    full row rank those m columns form a nonsingular block.

    Raises:
        NoValidPartition: m is 0, or ``|R[m-1, m-1]|`` is at or below
            ``RANK_TOL`` times ``|R[0, 0]|``.
    """
    b = basis.basis
    m = b.shape[0]
    r, piv = sla.qr(b, mode="r", pivoting=True, check_finite=False)
    diag = np.abs(np.diagonal(r))
    if m == 0 or diag.size < m or not diag[m - 1] > RANK_TOL * diag[0]:
        raise NoValidPartition(f"basis of shape {b.shape} has no {m} independent columns")
    return Partition(
        dependent_edges=tuple(np.sort(piv[:m]) + 1),
        independent_edges=tuple(np.sort(piv[m:]) + 1),
    )


def to_fcutset_form(basis: NullBasis, partition: Partition) -> CutsetMatrix:
    """Reduce the basis to ``[I | R]`` on the given partition and snap R to
    integers.

    Raises:
        NoValidPartition: the partition does not fit the basis, or the
            dependent submatrix is singular.
        NonIntegerCutset: some reduced entry is farther than
            ``DEFAULT_ROUND_TOL`` from the nearest of -1, 0, +1.
    """
    b = basis.basis
    m, e = b.shape
    labels = partition.dependent_edges + partition.independent_edges
    if len(partition.dependent_edges) != m or sorted(labels) != list(range(1, e + 1)):
        raise NoValidPartition("partition does not cover the edge set with m dependent labels")
    dep_idx = [lab - 1 for lab in partition.dependent_edges]
    ind_idx = [lab - 1 for lab in partition.independent_edges]
    a_d = b[:, dep_idx]
    a_i = b[:, ind_idx]
    try:
        r = np.linalg.solve(a_d, a_i)
    except np.linalg.LinAlgError as exc:
        raise NoValidPartition(f"dependent submatrix is singular: {exc}") from None
    snapped = snap_signed_units(r, DEFAULT_ROUND_TOL, NonIntegerCutset)
    entries = np.hstack([np.eye(m, dtype=np.int64), snapped])
    return CutsetMatrix(
        entries=entries,
        branch_edges=partition.dependent_edges,
        chord_edges=partition.independent_edges,
    )


def snap_signed_units(values: np.ndarray, band: float, error_cls: type) -> np.ndarray:
    """Round entries to the nearest of {-1, 0, +1}; any entry farther than
    ``band`` from its target, or not finite, raises ``error_cls``."""
    values = np.asarray(values, dtype=np.float64)
    nearest = np.clip(np.rint(values), -1, 1)
    delta = np.abs(values - nearest)
    worst = float(delta.max()) if delta.size else 0.0
    # a NaN fails this test too, and argmax finds it
    if not worst <= band:
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        off = f"{worst:.4f} from the nearest of -1/0/+1, beyond the {band} band"
        raise error_cls(
            f"entry {values[i, j]:+.4f} at ({i}, {j}) is "
            + (off if np.isfinite(values[i, j]) else "not finite")
        )
    return nearest.astype(np.int64)


def rref(matrix: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with threshold partial pivoting.

    Returns the reduced matrix and the pivot column indices (0-based).
    Columns are scanned left to right.  A column becomes a pivot only if its
    largest entry among the rows not yet pivoted exceeds ``PIVOT_THRESHOLD``
    times the largest entry those rows hold in it and every later column;
    otherwise it stays a free column, so no tiny pivot can blow up the
    reduction of an approximate basis.  Entries at or below ``RANK_TOL``
    times the input's largest entry never become pivots.
    """
    work = np.asarray(matrix, dtype=np.float64).copy()
    m, e = work.shape
    floor = RANK_TOL * np.abs(work).max(initial=0.0)
    pivots: list[int] = []
    row = 0
    for col in range(e):
        if row == m:
            break
        rest = np.abs(work[row:, col:])
        r = int(np.argmax(rest[:, 0]))
        if rest[r, 0] <= max(PIVOT_THRESHOLD * rest.max(), floor):
            continue
        # move the pivot row up, scale it to 1 and clear the column elsewhere
        work[[row, row + r]] = work[[row + r, row]]
        work[row] /= work[row, col]
        factors = work[:, col].copy()
        factors[row] = 0.0
        work -= np.outer(factors, work[row])
        pivots.append(col)
        row += 1
    return work, tuple(pivots)

