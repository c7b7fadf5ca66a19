"""Learning the conservation model from steady-state flow data.

The samples of a conserved network lie in the null space of its incidence
matrix, so the left singular vectors of the data matrix that belong to zero
singular values span exactly the row space of that incidence matrix.  Any
valid partition of the flow variables then reduces the learned basis to a
fundamental-cutset matrix ``[I | R]``; the reduced matrix is the same for
every basis of the subspace, which is what makes the approach usable on an
SVD estimate rather than the true incidence matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FullDeficiency, NonIntegerCutset, NoValidPartition, RankZero
from .graph_model import CutsetMatrix

DEFAULT_ZERO_TOL = 1e-10
DEFAULT_ROUND_TOL = 0.1
DEFAULT_COND_LIMIT = 1e8


@dataclass(frozen=True)
class FlowDataMatrix:
    """Steady-state flow samples, one row per edge, one column per sample.

    ``n_s > e`` is required; pass ``allow_undersampled=True`` to downgrade
    the violation to a warning for degenerate studies.
    """

    entries: np.ndarray
    edge_labels: tuple[int, ...] = ()
    allow_undersampled: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise ValueError("data matrix must be two-dimensional")
        e, n_s = entries.shape
        labels = tuple(int(v) for v in self.edge_labels) or tuple(range(1, e + 1))
        object.__setattr__(self, "edge_labels", labels)
        if len(labels) != e or len(set(labels)) != e:
            raise ValueError("edge_labels must assign one distinct label per row")
        if not np.isfinite(entries).all():
            raise ValueError("data matrix contains non-finite entries")
        if n_s <= e:
            if self.allow_undersampled:
                warnings.warn(f"only {n_s} samples for {e} edges", stacklevel=2)
            else:
                raise ValueError(f"need more samples than edges, got {n_s} <= {e}")

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
            raise ValueError("basis row count must equal the rank deficiency")
        if sv.ndim != 1 or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be nonincreasing")

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
            raise ValueError("dependent and independent labels overlap")


def estimate_null_basis(data: FlowDataMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> NullBasis:
    """Estimate the left-null-space basis of the data by SVD.

    The rank deficiency m is the number of singular values at or below
    ``zero_tol`` relative to the largest one.  The default is tuned for
    noise-free data; quantized or lightly perturbed datasets need a looser
    tolerance matched to their precision.

    Raises:
        RankZero: no singular value qualifies as zero.
        FullDeficiency: the data matrix is identically zero.
    """
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    x = data.entries
    e = data.edge_count
    # the thin U is all of U unless there are fewer samples than edges
    u, s, _ = np.linalg.svd(x, full_matrices=data.sample_count < e)
    sv = np.zeros(e)
    sv[: s.shape[0]] = s
    if sv[0] == 0.0:
        raise FullDeficiency("data matrix is all zeros")
    m = int(np.count_nonzero(sv <= zero_tol * sv[0]))
    if m == 0:
        raise RankZero("no conservation relation found at the given tolerance")
    basis = u[:, e - m :].T
    return NullBasis(basis=basis, estimated_rank_deficiency=m, singular_values=sv)


def _eliminate(work: np.ndarray, pivot_row: int, col: int, active: np.ndarray) -> None:
    piv = work[pivot_row, col]
    for r in np.flatnonzero(active):
        if r != pivot_row and work[r, col] != 0.0:
            work[r] -= (work[r, col] / piv) * work[pivot_row]


def _greedy_columns(basis: np.ndarray) -> list[int]:
    """Column picks of elimination with greedy largest-pivot selection."""
    m, e = basis.shape
    work = basis.astype(np.float64, copy=True)
    active = np.ones(m, dtype=bool)
    free = np.ones(e, dtype=bool)
    chosen: list[int] = []
    for _ in range(m):
        mag = np.abs(work)
        mag[~active, :] = -1.0
        mag[:, ~free] = -1.0
        r, c = np.unravel_index(int(np.argmax(mag)), mag.shape)
        if mag[r, c] <= 0.0:
            break
        _eliminate(work, r, c, active)
        active[r] = False
        free[c] = False
        chosen.append(int(c))
    return chosen

def _leftmost_columns(basis: np.ndarray, tol: float) -> list[int]:
    """Pivot columns of a left-to-right scan, the RREF column choice."""
    m, e = basis.shape
    work = basis.astype(np.float64, copy=True)
    active = np.ones(m, dtype=bool)
    scale = max(np.abs(basis).max(), 1e-300)
    chosen: list[int] = []
    for c in range(e):
        if len(chosen) == m:
            break
        rows = np.flatnonzero(active)
        r = rows[int(np.argmax(np.abs(work[rows, c])))]
        if abs(work[r, c]) <= tol * scale:
            continue
        _eliminate(work, r, c, active)
        active[r] = False
        chosen.append(c)
    return chosen


def find_valid_partition(basis: NullBasis, cond_limit: float = DEFAULT_COND_LIMIT) -> Partition:
    """Pick dependent columns by greedy largest-pivot elimination.

    Falls back to the leftmost-pivot column set when the greedy pick is too
    ill-conditioned, then gives up.

    Raises:
        NoValidPartition: no nonsingular m-column subset was found.
    """
    b = basis.basis
    m, e = b.shape
    if m == 0 or m > e:
        raise NoValidPartition(f"basis shape {b.shape} admits no partition")
    for picker in (_greedy_columns, lambda mat: _leftmost_columns(mat, 1e-12)):
        cols = picker(b)
        if len(cols) < m:
            continue
        cols = sorted(cols)
        if np.linalg.cond(b[:, cols]) <= cond_limit:
            dep = tuple(c + 1 for c in cols)
            indep = tuple(j for j in range(1, e + 1) if j not in set(dep))
            return Partition(dependent_edges=dep, independent_edges=indep)
    raise NoValidPartition("no column subset met the conditioning limit")


def to_fcutset_form(
    basis: NullBasis,
    partition: Partition,
    round_tol: float = DEFAULT_ROUND_TOL,
) -> CutsetMatrix:
    """Reduce the basis to ``[I | R]`` on the given partition and snap R to
    integers.

    Raises:
        NoValidPartition: the dependent submatrix is singular.
        NonIntegerCutset: some reduced entry is farther than ``round_tol``
            from the nearest of -1, 0, +1.
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
    snapped = snap_signed_units(r, round_tol, NonIntegerCutset)
    entries = np.hstack([np.eye(m, dtype=np.int64), snapped])
    return CutsetMatrix(
        entries=entries,
        branch_edges=partition.dependent_edges,
        chord_edges=partition.independent_edges,
    )


def snap_signed_units(values: np.ndarray, band: float, error_cls: type) -> np.ndarray:
    """Round entries to the nearest of {-1, 0, +1}; any entry farther than
    ``band`` from its target raises ``error_cls``."""
    values = np.asarray(values, dtype=np.float64)
    nearest = np.clip(np.rint(values), -1, 1)
    delta = np.abs(values - nearest)
    worst = float(delta.max()) if delta.size else 0.0
    if worst > band:
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        raise error_cls(
            f"entry {values[i, j]:+.4f} at ({i}, {j}) is {worst:.4f} from the nearest "
            f"of -1/0/+1, beyond the {band} band"
        )
    return nearest.astype(np.int64)


def rref(matrix: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with partial pivoting.

    Returns the reduced matrix and the pivot column indices (0-based).
    Columns whose remaining entries are all below ``tol`` relative to the
    largest entry of the input are skipped as free columns.
    """
    work = np.asarray(matrix, dtype=np.float64).copy()
    m, e = work.shape
    scale = max(np.abs(work).max(), 1e-300)
    pivots: list[int] = []
    row = 0
    for col in range(e):
        if row == m:
            break
        r = row + int(np.argmax(np.abs(work[row:, col])))
        if abs(work[r, col]) <= tol * scale:
            continue
        if r != row:
            work[[row, r]] = work[[r, row]]
        work[row] /= work[row, col]
        for other in range(m):
            if other != row and work[other, col] != 0.0:
                work[other] -= work[other, col] * work[row]
        pivots.append(col)
        row += 1
    return work, tuple(pivots)
