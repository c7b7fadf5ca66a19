"""Learning the conservation model from steady-state flow data.

Every edge flow is a 0/1 sum of sink flows, so after scaling each edge's
samples to unit total, a greedy pivot on the largest residual norm picks
the sink edges.  Both lanes read the samples once, in one front end
(:func:`sample_moments`), into the edge totals ``s``, which it checks,
and the Gram matrix ``G = X X^T``.  Neither
needs a null basis: both take one pivoted Cholesky factorization of an
e x e Gram matrix of the scaled rows (:func:`pivoted_cutset`), whose
pivots are the sinks, whose diagonal gives the rank, and whose factor
gives the canonical cutset ``[I | -T]`` (:func:`cutset_from_factor`),
the one thing the lanes hand on to realization; a share that does not
snap is named from the distances the snap test itself takes.  The exact lane's Gram matrix is
``G / (s s^T)`` (:func:`sink_cutset`), the noisy lane's the signal part of
``G`` whitened (``noise_pipeline``).  The data cannot order the edges of
an equal-flow chain; where one ends in a sink, the chain's largest label
takes the sink's seat, and realization orders and reports every chain by
that same ordered-label convention.
Both lanes call BLAS and LAPACK directly on checked inputs: ``dsyrk`` for
their Gram matrices, ``dpstrf`` for the factorization and ``dtrtrs``
(:func:`triangular_solve`) for the shares ``U11^-1 U12``.

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
    warn,
)
from .graph_model import CutsetMatrix, _integer, _real, _reals

DEFAULT_ZERO_TOL = 1e-10
# The cutoff on |U_kk| / |U_00| of the pivoted Cholesky factor, in both lanes.
# Forming the Gram matrix squares the condition number, so a pivot that is
# zero in exact arithmetic comes out near sqrt(eps), about 2-5e-8 of the
# first; true sink pivots stay above 5e-2 of it on the generator families
# without noise, and above 5e-4 of it in the noisy lane's signal part.
EXACT_ZERO_TOL = 1e-6
# cutoffs below this would count rounding in the Gram matrix as rank
ZERO_TOL_FLOOR = 1e-7
# the squared row norms within which the raw Gram product neither
# overflows nor loses digits to underflow (see :func:`sample_moments`)
GRAM_BAND = (2.0**-600, 2.0**600)
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
    the violation to a warning for degenerate studies, which names the
    line outside the package that built the matrix.
    """

    entries: np.ndarray
    allow_undersampled: bool = False

    def __post_init__(self):
        entries = _reals("data matrix", self.entries)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise InvalidArgument("data matrix must be two-dimensional")
        e, n_s = entries.shape
        if e == 0:
            raise InvalidArgument("data matrix needs at least one edge row")
        if n_s <= e:
            if self.allow_undersampled:
                warn(f"only {n_s} samples for {e} edges")
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
        basis = _reals("basis", self.basis)
        sv = _reals("singular_values", self.singular_values)
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
        for name in ("dependent_edges", "independent_edges"):
            object.__setattr__(self, name, tuple(_integer(name, v) for v in getattr(self, name)))
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
    if not _real("zero_tol", zero_tol) > 0:
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
) -> tuple[CanonicalCutsetMatrix, np.ndarray]:
    """The canonical cutset of noise-free data, by :func:`pivoted_cutset`
    on the Gram matrix ``Gn`` of the rows scaled to unit l1 norm.

    ``Gn`` is ``G / (s s^T)`` with ``G = X X^T`` and ``s`` the edge totals
    of :func:`sample_moments`, so it is taken from the raw samples with no
    e x n_s copy of them (only data beyond about 1e150 or below 1e-150 is
    copied, rescaled by powers of two, ``s`` alike).  Squaring the
    condition number puts a pivot that is zero in exact arithmetic near
    ``sqrt(eps)`` of the first, so ``zero_tol`` must be at least
    ``ZERO_TOL_FLOOR``, and flows whose sink samples vary by less than
    about 1e-5 of their mean cannot be told apart from equal flows.

    Returns the canonical cutset and the pivot magnitudes, the refused
    pivot at index ``e - m``.

    Raises:
        InvalidArgument: ``zero_tol`` is below ``ZERO_TOL_FLOOR`` or not
            below 1, or an edge's samples sum past the float range.
        NonPositiveFlow: some edge's samples do not sum to a positive flow
            (an ``InvalidArgument``).
        RankZero: every pivot clears the cutoff.
        NonIntegerCutset: an entry of T is farther than
            ``DEFAULT_ROUND_TOL`` from 0 or 1, or is not finite.
    """
    if not ZERO_TOL_FLOOR <= _real("zero_tol", zero_tol) < 1:
        raise InvalidArgument(
            f"zero_tol must lie in [{ZERO_TOL_FLOOR:g}, 1), got {zero_tol:g}; the Gram "
            "matrix resolves pivots only down to about 1e-8 of the first"
        )
    sums, gram, shift = sample_moments(data.entries)
    inv = 1.0 / (sums if shift is None else np.ldexp(sums, shift))
    gram *= inv[:, None]
    gram *= inv
    return pivoted_cutset(gram, sums, zero_tol, DEFAULT_ROUND_TOL, NonIntegerCutset)


def pivoted_cutset(
    gram: np.ndarray, totals: np.ndarray, zero_tol: float, band: float, error_cls: type,
    rank: int | None = None,
) -> tuple[CanonicalCutsetMatrix, np.ndarray]:
    """The canonical cutset from one pivoted Cholesky factorization of
    ``Gn``, the Gram matrix of the edges' unit-total flow rows up to a
    common factor (its upper triangle read and overwritten), in both lanes.

    Every edge flow is a 0/1 sum of sink flows, ``X = T X_S``, so the
    scaled rows all lie in the simplex spanned by the sink rows, and
    pivoting on the largest residual norm takes the sinks first (the
    successive projection algorithm for separable NMF).  LAPACK ``dpstrf``,
    ``P^T Gn P = U^T U``, makes the same choices as QR with column pivoting
    of the scaled rows, whose ``R`` its ``U`` equals up to signs; among
    equal flows the pivot follows rounding, and it settles which edge of
    an equal-flow chain is the sink.  It stops at the first ``U_kk`` at or
    below ``zero_tol`` times ``U_00``, and :func:`cutset_from_factor` reads
    the shares off ``U``.  ``rank`` is the sink count the caller already
    knows (the noisy lane's order test), which the cutoff must keep.

    Returns the cutset and the pivot magnitudes ``U_kk``: the sinks', the
    refused one (the trailing block's largest diagonal), then zeros.

    Raises:
        RankZero: every pivot clears the cutoff.
        error_cls: the cutoff keeps other than ``rank`` pivots, or a share
            does not snap within ``band`` (:func:`cutset_from_factor`).
    """
    e = gram.shape[0]
    diag = gram.diagonal().copy()
    u, piv, found, _ = sla.lapack.dpstrf(gram, tol=zero_tol**2 * diag.max(), overwrite_a=True)
    if found == e:
        raise RankZero("no conservation relation found at the given tolerance")
    if rank not in (None, found):
        raise error_cls(f"the pivot cutoff keeps {found} sinks, but the order test found {rank}")
    piv = piv.astype(np.intp) - 1
    # dpstrf leaves the trailing block unfactored; the pivot it refused is
    # the largest diagonal of that block's Schur complement
    norms = np.zeros(e)
    norms[:found] = np.diagonal(u)[:found]
    u12 = u[:found, found:]
    norms[found] = np.sqrt(max((diag[piv[found:]] - np.einsum("ij,ij->j", u12, u12)).max(), 0.0))
    norms.setflags(write=False)
    return cutset_from_factor(u, piv, found, totals, band, error_cls), norms


def sample_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Both lanes' one read of the e x n_s samples ``x``: their row totals
    ``s``, unscaled, and refused before anything else is computed unless
    positive (``NonPositiveFlow``) and finite (``InvalidArgument``; an
    overflow does not warn), and Gram matrix
    ``G = X X^T`` by one BLAS ``dsyrk`` on the uncopied view ``x.T``:
    Fortran order, upper triangle filled, lower zero.

    The raw product overflows past about 1e150 and loses digits below
    about 1e-150, so where a diagonal leaves ``GRAM_BAND`` (or is not
    finite) ``G`` is taken again on a copy of the rows scaled by the powers
    of two ``shift`` that bring each row's largest entry into [0.5, 1),
    else ``shift`` is None.  Powers of two round nothing, so a caller that
    scales alike what it pairs with ``G`` gets the raw product's answer.
    """
    with np.errstate(over="ignore"):
        sums = x.sum(axis=1)
    # both lanes scale rows by these totals
    if not (sums > 0).all():
        k = int(np.argmin(sums > 0))
        raise NonPositiveFlow(
            f"edge {k + 1} sums to {sums[k]:.6g}; picking the sinks needs every edge to carry "
            "a positive total flow: pass the raw, uncentred flows and declare a known error "
            "offset as NoiseModel.mean, not mean-removed rows"
        )
    if not np.isfinite(sums).all():
        raise InvalidArgument(f"edge {np.argmin(np.isfinite(sums)) + 1} sums past the float range")
    gram = sla.blas.dsyrk(1.0, x.T, trans=1)
    diag = gram.diagonal()
    if GRAM_BAND[0] <= diag.min() and diag.max() <= GRAM_BAND[1]:
        return sums, gram, None
    shift = -np.frexp(np.abs(x).max(axis=1))[1]
    return sums, sla.blas.dsyrk(1.0, np.ldexp(x, shift[:, None]).T, trans=1), shift


def cutset_from_factor(
    r: np.ndarray, piv: np.ndarray, rank: int, totals: np.ndarray, band: float, error_cls: type
) -> CanonicalCutsetMatrix:
    """The canonical cutset ``[I | -T]`` from the pivoted triangular factor
    that picked the sinks, shared by both lanes.

    ``r`` factors the edges' flow rows scaled to unit total, columns in
    pivot order (the Cholesky ``U`` of :func:`pivoted_cutset`); only the
    upper triangle of its first ``rank`` rows is read.  ``piv`` gives
    each column's 0-based edge, ``totals`` each edge's total.  The first
    ``rank`` pivots are the sinks.  Scaled rows
    obey ``x_j / s_j = sum_i W_ij x_i / s_i`` with ``W = R11^-1 R12``, so
    non-sink j carries ``T_ji = s_j W_ij / s_i`` of sink i's flow; snapped,
    T is 1 where the sink lies below the edge and 0 elsewhere, which a
    ``band`` below 1/2 decides by the side of 1/2 a share falls on.
    Branches and chords come out each in label order, with no
    interchanges, and ``[I | -T]`` on them is canonical by construction,
    so the matrix is built without the public constructor's checks.

    Among equal flows (an equal-flow chain: a run of single-child edges)
    the data cannot tell the edges apart.  A non-sink whose T row is the
    unit row of a sink shares that sink's flow; in each such run the
    largest label is taken as the sink, the ordered-label convention.
    Realization settles the rest of every chain by the same convention and
    reports the chains (``realize.realize_topology``).

    Raises:
        error_cls: a share is farther than ``band`` from 0 or 1, or is
            not finite; the message names the share farthest off, a
            negative one as negative, with its edge and sink flow.
    """
    labels = piv.copy()
    sinks, others = labels[:rank], labels[rank:]
    # W = R11^-1 R12 straight off the Fortran-ordered factor: its leading
    # columns go to LAPACK uncopied, which reads only R11's upper triangle
    w = triangular_solve(r[:, :rank], r[:rank, rank:], lower=False)
    w *= totals[others]
    w /= totals[sinks, None]
    # with a band below 1/2, a share that snaps to 0 or 1 lies within the
    # band of the side of 1/2 it falls on; any other (or a NaN) fails
    t = w.T > 0.5
    delta = w.T - t
    np.abs(delta, out=delta)
    worst = delta.max(initial=0.0)
    if not worst <= band:
        # argmax reaches a NaN first; a non-negative share lies as far from
        # 0 or 1 as from the nearest of -1/0/+1
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        edge, share, sink = others[i] + 1, w[j, i], sinks[j] + 1
        if -np.inf < share < 0:
            raise error_cls(f"edge {edge} draws a negative share {share:.4f} of sink flow {sink}")
        why = f"{worst:.4f} from the nearest of -1/0/+1, beyond the {band} band"
        why = why if np.isfinite(share) else "not finite"
        raise error_cls(
            f"edge {edge} draws a share {share:+.4f} of sink flow {sink}, which is {why}"
        )

    # an equal-flow chain ending in a sink: a non-sink whose T row is the
    # unit row of sink i carries that sink's flow, and X_j equals X_i; the
    # run's largest label takes the sink's seat, and the row that held it
    # the sink's old label.  Rows of one run are equal, so which of them
    # takes which label leaves the matrix unchanged
    chain = np.flatnonzero(t.sum(axis=1, dtype=np.int32) == 1)
    if chain.size:
        seat = t[chain].argmax(axis=1)
        old = sinks[seat]
        np.maximum.at(sinks, seat, others[chain])
        held = others[chain] == sinks[seat]
        others[chain[held]] = old[held]

    # T is 0/1 and the labels split 1..e, so [I | -T] is canonical by
    # construction and skips the public constructor's checks
    rows, cols = np.argsort(others), np.argsort(sinks)
    m, e = len(others), len(piv)
    entries = np.zeros((m, e), dtype=np.int64)
    entries.ravel()[:: e + 1] = 1
    # two takes run about 3x faster than one two-axis fancy index
    np.negative(t.view(np.int8).take(rows, axis=0).take(cols, axis=1), out=entries[:, m:])
    entries.setflags(write=False)
    ordered = np.concatenate([others[rows], sinks[cols]])
    ordered += 1
    column_labels = ordered.tolist()
    return CanonicalCutsetMatrix._canonical_by_construction(
        entries, tuple(column_labels[:m]), tuple(column_labels[m:])
    )


def triangular_solve(a: np.ndarray, b: np.ndarray, lower: bool = True) -> np.ndarray:
    """``a^-1 b``, reading only the lower triangle of ``a`` (the upper one
    with ``lower=False``): one LAPACK ``dtrtrs`` call, the one
    ``scipy.linalg.solve_triangular`` makes for such a system, without its
    argument checks.  ``a`` may have more rows than columns, as a leading
    column block of a Fortran-ordered factor does; its leading square
    block is the system.

    Raises:
        LinAlgError: a zero on the diagonal, with scipy's message.
    """
    x, info = sla.lapack.dtrtrs(a, b, lower=int(lower))
    if info > 0:
        raise sla.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


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
    nearest = np.clip(np.rint(values), -1.0, 1.0)
    delta = values - nearest
    np.abs(delta, out=delta)
    worst = float(delta.max(initial=0.0))
    # a NaN fails this test too, and argmax finds it
    if not worst <= band:
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        why = f"{worst:.4f} from the nearest of -1/0/+1, beyond the {band} band"
        why = why if np.isfinite(values[i, j]) else "not finite"
        raise error_cls(f"entry {values[i, j]:+.4f} at ({i}, {j}) is {why}")
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

