"""Measurement-noise lane: whitening, model-order testing, and the one
end-to-end entry point, ``reconstruct``.

Both lanes read the samples once, in one front end
(``nullspace.sample_moments``), into the edge totals and the e x e Gram
matrix, and work in e x e space from there.  Both pick the sink edges,
and read the canonical cutset ``[I | -T]`` off, through one pivoted
Cholesky factorization of an e x e Gram matrix of the flow rows scaled to
unit total (``nullspace.pivoted_cutset``); the exact lane's is the
samples' divided by the totals (``nullspace.sink_cutset``).  In the noisy
lane one Cholesky factor of the error covariance whitens it from both
sides, and one symmetric eigendecomposition of that whitened sample
covariance feeds a sequential eigenvalue-equality test, vectorized over
all candidates, that picks the conservation-law count m; the e - m largest
eigenpairs, less the unit noise floor, give the denoised signal's Gram
matrix.  Both lanes hand the canonical matrix alone to
``realize.realize_topology``, which reports the equal-flow chains whose
order the data cannot fix.  ``reconstruct_exact`` and ``reconstruct_noisy``
call ``reconstruct`` for one lane each.

The inputs are checked once, by ``FlowDataMatrix`` and ``NoiseModel``;
past that the noisy lane calls LAPACK directly, as ``scipy.linalg`` would
but without its argument checks: ``dpotrf`` for the Cholesky factor,
``dsygst`` to whiten the front end's Gram triangle and BLAS ``dsyrk`` for
the signal's Gram matrix.  The eigendecomposition is numpy's ``eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.special import chdtrc

from .canonical_cutset import CanonicalCutsetMatrix
from .errors import (
    InvalidArgument,
    NoStableOrder,
    NotPositiveDefinite,
    SnapFailure,
    warn,
)
from .graph_model import _integer, _real, _reals
from .nullspace import (
    EXACT_ZERO_TOL,
    FlowDataMatrix,
    pivoted_cutset,
    sample_moments,
    sink_cutset,
    triangular_solve,
)
from .realize import ReconstructionResult, realize_topology

DEFAULT_ALPHA = 0.05
DEFAULT_SNAP_BAND = 0.35
# Eigenvalues at or below this fraction of the largest are treated as
# numerically zero by the order test (1e-4 on singular values = 1e-8 on
# their squares).
ZERO_EIGENVALUE_RATIO = 1e-8
UNDERSAMPLE_WARN_FACTOR = 5
_BEYOND_FLOAT = "the samples exceed the noise covariance by more than floating point can hold"


@dataclass(frozen=True)
class NoiseModel:
    """Additive error description: covariance, optional mean.

    The covariance must be symmetric; positive definiteness is enforced
    where the Cholesky factor is actually taken.
    """

    covariance: np.ndarray
    mean: np.ndarray | None = None

    def __post_init__(self):
        cov = _reals("covariance", self.covariance)
        object.__setattr__(self, "covariance", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise InvalidArgument("covariance must be a square matrix")
        # np.allclose's rule (rtol 1e-8, atol 1e-12) on the finite entries
        if not (np.abs(cov - cov.T) <= 1e-12 + 1e-8 * np.abs(cov.T)).all():
            raise InvalidArgument("covariance must be symmetric")
        if self.mean is not None:
            mu = _reals("mean", self.mean)
            object.__setattr__(self, "mean", mu)
            if mu.shape != (cov.shape[0],):
                raise InvalidArgument("mean length must match covariance dimension")

    @property
    def edge_count(self) -> int:
        return self.covariance.shape[0]

    @classmethod
    def isotropic(cls, sigma2: float, edge_count: int) -> "NoiseModel":
        sigma2 = _real("sigma2", sigma2)
        if not math.isfinite(sigma2):
            raise InvalidArgument(f"sigma2 must be finite, got {sigma2}")
        if sigma2 <= 0:
            raise InvalidArgument("sigma2 must be positive")
        if _integer("edge_count", edge_count) < 1:
            raise InvalidArgument(f"edge_count must be >= 1, got {edge_count}")
        return cls(sigma2 * np.eye(edge_count))

    @classmethod
    def per_edge(cls, variances: np.ndarray) -> "NoiseModel":
        var = _reals("variances", variances)
        if var.ndim != 1 or np.any(var <= 0):
            raise InvalidArgument("need a vector of positive per-edge variances")
        return cls(np.diag(var))


@dataclass(frozen=True)
class RankTestReport:
    """Sequential equality-test trace over candidate conservation counts.

    Candidates are visited from the largest possible count downward; the
    chosen value is the first (hence largest) candidate not rejected at
    level alpha.

    ``eigenvalues`` is the clipped spectrum of the whitened sample
    covariance in descending order.  ``null_vectors`` holds, as e x m
    columns, its orthonormal eigenvectors for the ``chosen_m`` smallest
    eigenvalues: the estimated conservation laws in whitened coordinates.
    """

    candidates: tuple[int, ...]
    statistics: tuple[float, ...]
    p_values: tuple[float, ...]
    chosen_m: int
    alpha: float
    eigenvalues: tuple[float, ...] = ()
    null_vectors: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(map(int, self.candidates)))
        object.__setattr__(self, "statistics", tuple(map(float, self.statistics)))
        object.__setattr__(self, "p_values", tuple(map(float, self.p_values)))
        object.__setattr__(self, "eigenvalues", tuple(map(float, self.eigenvalues)))
        if len(self.candidates) != len(self.p_values) or len(self.candidates) != len(self.statistics):
            raise InvalidArgument("per-candidate lists must have equal length")
        if self.chosen_m not in self.candidates:
            raise InvalidArgument("chosen_m must be one of the tested candidates")
        if self.null_vectors is not None:
            vecs = _reals("null_vectors", self.null_vectors)
            object.__setattr__(self, "null_vectors", vecs)
            if vecs.ndim != 2 or vecs.shape[1] != self.chosen_m:
                raise InvalidArgument("null_vectors must have one column per conservation law")


def _check_alpha(alpha: float) -> None:
    """Refuse a test level outside (0, 1), a NaN too."""
    if not 0 < _real("alpha", alpha) < 1:
        raise InvalidArgument(f"alpha must lie in (0, 1), got {alpha}")


def _cholesky_lower(noise: NoiseModel) -> np.ndarray:
    # LAPACK dpotrf, the call scipy.linalg.cholesky makes, with its message
    lower, info = sla.lapack.dpotrf(noise.covariance, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"covariance is not positive definite: {info}-th leading minor "
            "of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return lower


def _centred_samples(data: FlowDataMatrix, noise: NoiseModel) -> np.ndarray:
    """The raw samples after a dimension check, less a declared nonzero
    error mean (with a warning), since the conservation model itself is
    offset-free."""
    if noise.edge_count != data.edge_count:
        raise InvalidArgument(
            f"covariance is {noise.edge_count}x{noise.edge_count} "
            f"but data has {data.edge_count} edges"
        )
    y = data.entries
    if noise.mean is not None and np.any(noise.mean != 0):
        warn("subtracting declared nonzero error mean")
        y = y - noise.mean[:, None]
    return y


def _gram(y: np.ndarray) -> np.ndarray:
    # estimate_model_order's covariance of whitened samples, which the lanes'
    # front end would rescale; the order test refuses an overflow, so it does
    # not warn.  The null eigenvalues sit at the noise floor, far above rounding.
    with np.errstate(over="ignore", invalid="ignore"):
        return (y @ y.T) / y.shape[1]


def whiten(data: FlowDataMatrix, noise: NoiseModel) -> FlowDataMatrix:
    """Premultiply the data by the inverse Cholesky factor of the error
    covariance so whitened errors share unit variance.

    A declared nonzero error mean is subtracted first, with a warning,
    since the conservation model itself is offset-free.

    Raises:
        NotPositiveDefinite: the covariance admits no Cholesky factor.
    """
    y = _centred_samples(data, noise)
    y_s = triangular_solve(_cholesky_lower(noise), y)
    return FlowDataMatrix(y_s, allow_undersampled=data.allow_undersampled)


def _order_test(
    s_y: np.ndarray, n_s: int, alpha: float
) -> tuple[RankTestReport, np.ndarray, np.ndarray]:
    """Sequential eigenvalue-equality test on the whitened sample covariance
    ``s_y`` (e x e, lower triangle read), all candidates at once.

    Returns the report and the eigendecomposition it was read from: the
    clipped eigenvalues in ascending order and their eigenvectors as
    columns.

    The statistic for the k smallest eigenvalues is
    ``n_s (k log mean - sum log)``, read off cumulative sums of the ascending
    spectrum and of its logs.  Exact numerical zeros short-circuit the
    likelihood-ratio form: a block of all-zero eigenvalues is perfectly
    equal (statistic 0, p 1), a mixed block cannot be (inf, p 0).  As the
    spectrum ascends, the zero eigenvalues form a prefix.

    Raises:
        InvalidArgument: ``alpha`` is outside (0, 1), or ``s_y`` or its
            spectrum's sum is not finite (the samples overflowed them).
        NoStableOrder: every candidate down to k = 2 is rejected.
    """
    _check_alpha(alpha)
    e = s_y.shape[0]
    if n_s < UNDERSAMPLE_WARN_FACTOR * e:
        warn(
            f"{n_s} samples for {e} edges is below the {UNDERSAMPLE_WARN_FACTOR}x "
            "guideline; the order test loses power"
        )
    if not np.isfinite(s_y).all():
        raise InvalidArgument(f"the whitened sample covariance is not finite: {_BEYOND_FLOAT}")
    lams, vecs = np.linalg.eigh(s_y)  # ascending
    lams = np.maximum(lams, 0.0)
    zeros = int(np.count_nonzero(lams <= ZERO_EIGENVALUE_RATIO * lams[-1]))

    ks = np.arange(e, 1, -1)
    if zeros:
        all_zero = ks <= zeros
        stats = np.where(all_zero, 0.0, math.inf)
        pvals = np.where(all_zero, 1.0, 0.0)
    else:
        with np.errstate(over="ignore"):
            sums = np.cumsum(lams)
        if not np.isfinite(sums[-1]):
            raise InvalidArgument(f"the whitened spectrum's sum is not finite: {_BEYOND_FLOAT}")
        mean = sums[ks - 1] / ks
        log_sum = np.cumsum(np.log(lams))[ks - 1]
        stats = np.maximum(n_s * (ks * np.log(mean) - log_sum), 0.0)
        pvals = chdtrc((ks - 1) * (ks + 2) // 2, stats)

    accepted = np.flatnonzero(pvals >= alpha)
    if accepted.size == 0:
        raise NoStableOrder(
            "no candidate eigenvalue block accepted as equal down to k = 2 "
            f"(alpha = {alpha}); the noise level is too high for a stable answer"
        )
    last = int(accepted[0]) + 1
    chosen = int(ks[last - 1])
    report = RankTestReport(
        candidates=tuple(ks[:last].tolist()),
        statistics=tuple(stats[:last].tolist()),
        p_values=tuple(pvals[:last].tolist()),
        chosen_m=chosen,
        alpha=alpha,
        eigenvalues=tuple(lams[::-1].tolist()),
        null_vectors=vecs[:, :chosen],
    )
    return report, lams, vecs


def estimate_model_order(whitened: FlowDataMatrix, alpha: float = DEFAULT_ALPHA) -> RankTestReport:
    """Estimate how many conservation laws the whitened data supports.

    Takes one symmetric eigendecomposition of the e x e sample covariance
    ``Y Y^T / n_s`` and tests equality of its k smallest eigenvalues for k
    descending from e, via a Bartlett-type likelihood-ratio statistic
    against chi-square with (k-1)(k+2)/2 degrees of freedom; the chosen
    count m is the largest k not rejected.  The report lists the candidates
    up to m and carries the eigenvectors of the m smallest eigenvalues as
    the null basis.

    Raises:
        InvalidArgument: ``alpha`` is outside (0, 1), or the sample
            covariance overflows.
        NoStableOrder: every candidate down to k = 2 is rejected.
    """
    return _order_test(_gram(whitened.entries), whitened.sample_count, alpha)[0]


def _noisy_cutset(
    totals: np.ndarray, lower: np.ndarray, lams: np.ndarray, vecs: np.ndarray, m: int
) -> tuple[CanonicalCutsetMatrix, np.ndarray]:
    """The canonical cutset and the pivot magnitudes
    (``nullspace.pivoted_cutset``) from the order test's eigendecomposition
    of the whitened sample covariance.

    The e - m largest eigenpairs, less the unit noise floor of whitened
    errors, estimate the signal: with D the edge ``totals``,
    ``F = D^-1 L U_s diag(sqrt(lam_s - 1))`` has ``F F^T`` close to the
    Gram matrix of the flow rows scaled to unit total (over n_s), which
    ``nullspace.pivoted_cutset`` factors with the exact lane's cutoff.

    Raises:
        SnapFailure: the order test left no signal eigenvalue (m = e), the
            weakest one is not above the unit noise floor, the cutoff keeps
            other than the order test's e - m pivots, or a share does not
            snap.
    """
    e = totals.shape[0]
    if m == e:
        raise SnapFailure(
            f"the order test found all {e} eigenvalues equal (m = {m}), leaving no "
            "signal eigenvalue: no sink can be told from noise"
        )
    if not lams[m] > 1.0:
        raise SnapFailure(
            f"the weakest of the {e - m} signal eigenvalues, {lams[m]:.4g}, does not "
            "clear the unit noise floor: no sink can be told from noise"
        )
    signal = vecs[:, m:] * np.sqrt(lams[m:] - 1.0)
    factor = (lower @ signal) / totals[:, None]
    # F F^T by BLAS dsyrk through F's Fortran-ordered view F^T, uncopied
    gram = sla.blas.dsyrk(1.0, factor.T, trans=1)
    return pivoted_cutset(gram, totals, EXACT_ZERO_TOL, DEFAULT_SNAP_BAND, SnapFailure, e - m)


def reconstruct(
    data: FlowDataMatrix,
    noise: NoiseModel | None = None,
    *,
    alpha: float | None = None,
    zero_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct the arborescence behind the samples.

    ``noise`` picks the lane.  Both read the samples once, in one front end
    (``nullspace.sample_moments``), into the edge totals, which it refuses
    unless positive and finite, and the Gram matrix ``G``.  Both pick the
    sinks by one pivoted Cholesky factorization of a Gram matrix of the
    edges' flow rows scaled to unit total (``nullspace.pivoted_cutset``):
    pivots whose ``U_kk`` exceeds a cutoff times ``U_00`` are the sink
    edges, the rest the branches, and ``diagnostics`` adds those
    ``pivot_norms`` (with the refused pivot after them).  Without a noise
    model that Gram matrix is ``G`` over the totals
    (``nullspace.sink_cutset``) and the cutoff is ``zero_tol`` (default
    ``EXACT_ZERO_TOL = 1e-6``, at least ``ZERO_TOL_FLOOR = 1e-7``); forming
    it squares the condition number, so flows whose sink samples vary by
    less than about 1e-5 of their mean look equal and fail to snap.  With
    a noise model, ``G = Y Y^T`` (less any declared mean, as in ``whiten``),
    which one LAPACK ``dsygst`` call on its upper triangle whitens from
    both sides with the Cholesky factor ``L`` of the error covariance:
    ``L^-1 G L^-T / n_s`` is ``estimate_model_order``'s covariance of
    ``whiten(data, noise)`` without the e x n_s whitened samples.  The
    order test at level ``alpha`` picks the law count m (``diagnostics``
    adds its ``rank_test``), its e - m largest eigenpairs, less the noise
    floor, give the Gram matrix, and the cutoff ``EXACT_ZERO_TOL`` must
    keep e - m pivots.  Where the front end takes ``G`` again on rows
    scaled by powers of two (samples past about 1e150 or below 1e-150),
    the exact lane scales its totals alike and the noisy lane its ``L``.
    Both lanes realize the tree through ``realize_topology``, whose
    ``canonical`` matrix and ``chain_groups`` (the equal-flow edges, whose
    order the data cannot fix and the ordered-label convention settles; a
    caller that must refuse such an answer tests them) the diagnostics
    keep.

    Raises:
        InvalidArgument: ``alpha`` without a noise model, ``zero_tol``
            with one or outside ``[ZERO_TOL_FLOOR, 1)``, a covariance
            whose size differs from the data's, samples so far above the
            noise covariance that the whitened matrix or its spectrum's
            sum is not finite, or an edge total past the float range.
        NonPositiveFlow: an edge whose samples (less any declared mean)
            do not sum to a positive flow, as after removing each edge's
            mean.
        RankZero: the exact lane finds no conservation law.
        NotPositiveDefinite: bad covariance.
        NoStableOrder: the order test rejects every candidate.
        NonIntegerCutset, SnapFailure: a sink share falls outside the
            exact or the noisy lane's snap band, is not finite, or snaps
            to -1; SnapFailure also when the order test finds all e
            eigenvalues equal, a noisy signal eigenvalue is not above the
            noise floor, or the cutoff keeps other than e - m.
        NotArborescence: the chord sets are not nested the way an
            arborescence requires.
    """
    if noise is None:
        if alpha is not None:
            raise InvalidArgument("alpha is the noisy lane's test level; it needs a noise model")
        canon, pivot_norms = sink_cutset(data, EXACT_ZERO_TOL if zero_tol is None else zero_tol)
        rank_test = {}
    else:
        if zero_tol is not None:
            raise InvalidArgument("zero_tol is the exact lane's cutoff; it takes no noise model")
        totals, gram, shift = sample_moments(_centred_samples(data, noise))
        lower = _cholesky_lower(noise)
        # the rows D y and the factor D L of D Sigma D, D a diagonal of
        # powers of two, whiten to the same L^-1 G L^-T, with no overflow
        white = lower if shift is None else np.ldexp(lower, shift[:, None])
        # whitened sample covariance L^-1 G L^-T / n_s: LAPACK dsygst with
        # U = L^T writes it over G's upper triangle, its transpose's lower
        s_y, info = sla.lapack.dsygst(gram, white.T, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal sygst")
        s_y /= data.sample_count
        report, lams, vecs = _order_test(
            s_y.T, data.sample_count, DEFAULT_ALPHA if alpha is None else alpha
        )
        canon, pivot_norms = _noisy_cutset(totals, lower, lams, vecs, report.chosen_m)
        rank_test = {"rank_test": report}
    result = realize_topology(canon)
    diagnostics = {**result.diagnostics, **rank_test, "pivot_norms": pivot_norms}
    return ReconstructionResult(result.edges, diagnostics)


def reconstruct_noisy(
    data: FlowDataMatrix,
    noise: NoiseModel,
    alpha: float = DEFAULT_ALPHA,
) -> ReconstructionResult:
    """The noisy lane of :func:`reconstruct`."""
    return reconstruct(data, noise, alpha=alpha)


def reconstruct_exact(
    data: FlowDataMatrix, zero_tol: float = EXACT_ZERO_TOL
) -> ReconstructionResult:
    """The exact (noise-free) lane of :func:`reconstruct`."""
    return reconstruct(data, zero_tol=zero_tol)
