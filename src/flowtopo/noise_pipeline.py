"""Measurement-noise lane: whitening, model-order testing, and the one
end-to-end entry point, ``reconstruct``.

Both lanes pick the sink edges first, by pivoting on the largest residual
norm of the edges' flow rows scaled to unit total, and read the canonical
cutset ``[I | -T]`` off the triangular factor of that pivoting, through
one reduction path (``nullspace.cutset_from_factor``).  The exact lane
takes one pivoted Cholesky factorization of the scaled rows' e x e Gram
matrix (``nullspace.sink_cutset``), whose diagonal gives the rank.  The
noisy lane reads the samples once, into the e x e Gram matrix, and works
in e x e space from there: one Cholesky factor of the error covariance
whitens the Gram matrix from both sides, and one symmetric
eigendecomposition of that whitened sample covariance feeds a sequential
eigenvalue-equality test, vectorized over all candidates, that picks the
conservation-law count m.  The e - m largest eigenpairs, less the unit
noise floor, are the denoised signal that a pivoted QR picks the sinks
from.  Both lanes end in the same realization.  ``reconstruct_exact`` and
``reconstruct_noisy`` call ``reconstruct`` for one lane each.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg as sla
from scipy.special import chdtrc

from .canonical_cutset import CanonicalCutsetMatrix
from .errors import (
    AmbiguousParent,
    InvalidArgument,
    NonPositiveFlow,
    NoStableOrder,
    NotPositiveDefinite,
    SnapFailure,
)
from .nullspace import (
    EXACT_ZERO_TOL,
    FlowDataMatrix,
    cutset_from_factor,
    edge_totals,
    sink_cutset,
)
from .realize import ReconstructionResult, realize_topology

DEFAULT_ALPHA = 0.05
DEFAULT_SNAP_BAND = 0.35
# Eigenvalues at or below this fraction of the largest are treated as
# numerically zero by the order test (1e-4 on singular values = 1e-8 on
# their squares).
ZERO_EIGENVALUE_RATIO = 1e-8
UNDERSAMPLE_WARN_FACTOR = 5


@dataclass(frozen=True)
class NoiseModel:
    """Additive error description: kind, covariance, optional mean.

    The covariance must be symmetric; positive definiteness is enforced
    where the Cholesky factor is actually taken.
    """

    kind: str
    covariance: np.ndarray
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("homoscedastic", "heteroscedastic"):
            raise InvalidArgument(f"unknown noise kind {self.kind!r}")
        cov = np.asarray(self.covariance, dtype=np.float64)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise InvalidArgument("covariance must be a square matrix")
        if not np.isfinite(cov).all():
            raise InvalidArgument("covariance contains non-finite entries")
        if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12):
            raise InvalidArgument("covariance must be symmetric")
        if self.mean is not None:
            mu = np.asarray(self.mean, dtype=np.float64)
            mu.setflags(write=False)
            object.__setattr__(self, "mean", mu)
            if mu.shape != (cov.shape[0],):
                raise InvalidArgument("mean length must match covariance dimension")
            if not np.isfinite(mu).all():
                raise InvalidArgument("mean contains non-finite entries")

    @property
    def edge_count(self) -> int:
        return self.covariance.shape[0]

    @classmethod
    def isotropic(cls, sigma2: float, edge_count: int) -> "NoiseModel":
        if sigma2 <= 0:
            raise InvalidArgument("sigma2 must be positive")
        return cls(kind="homoscedastic", covariance=sigma2 * np.eye(edge_count))

    @classmethod
    def per_edge(cls, variances: np.ndarray) -> "NoiseModel":
        var = np.asarray(variances, dtype=np.float64)
        if var.ndim != 1 or np.any(var <= 0):
            raise InvalidArgument("need a vector of positive per-edge variances")
        return cls(kind="heteroscedastic", covariance=np.diag(var))


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
        object.__setattr__(self, "candidates", tuple(int(k) for k in self.candidates))
        object.__setattr__(self, "statistics", tuple(float(v) for v in self.statistics))
        object.__setattr__(self, "p_values", tuple(float(v) for v in self.p_values))
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
        if len(self.candidates) != len(self.p_values) or len(self.candidates) != len(self.statistics):
            raise InvalidArgument("per-candidate lists must have equal length")
        if self.chosen_m not in self.candidates:
            raise InvalidArgument("chosen_m must be one of the tested candidates")
        if self.null_vectors is not None:
            vecs = np.asarray(self.null_vectors, dtype=np.float64)
            vecs.setflags(write=False)
            object.__setattr__(self, "null_vectors", vecs)
            if vecs.ndim != 2 or vecs.shape[1] != self.chosen_m:
                raise InvalidArgument("null_vectors must have one column per conservation law")


def _cholesky_lower(noise: NoiseModel) -> np.ndarray:
    try:
        return sla.cholesky(noise.covariance, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc


def _warn(message: str) -> None:
    """Warn at the first frame outside this module, so that the warning
    names the caller's line through whichever entry point it came."""
    level, frame = 2, sys._getframe(1)
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


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
        _warn("subtracting declared nonzero error mean")
        y = y - noise.mean[:, None]
    return y


def _gram(y: np.ndarray) -> np.ndarray:
    # Forming the Gram matrix squares the condition number, which is why
    # the exact lane's cutoff cannot go below 1e-7; here the null
    # eigenvalues sit at the noise floor, far above rounding error.
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
    y_s = sla.solve_triangular(_cholesky_lower(noise), y, lower=True, check_finite=False)
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
    """
    if not 0 < alpha < 1:
        raise InvalidArgument("alpha must lie in (0, 1)")
    e = s_y.shape[0]
    if n_s < UNDERSAMPLE_WARN_FACTOR * e:
        _warn(
            f"{n_s} samples for {e} edges is below the {UNDERSAMPLE_WARN_FACTOR}x "
            "guideline; the order test loses power"
        )
    lams, vecs = np.linalg.eigh(s_y)  # ascending
    lams = np.clip(lams, 0.0, None)
    zeros = int(np.count_nonzero(lams <= ZERO_EIGENVALUE_RATIO * lams[-1]))

    ks = np.arange(e, 1, -1)
    if zeros:
        all_zero = ks <= zeros
        stats = np.where(all_zero, 0.0, math.inf)
        pvals = np.where(all_zero, 1.0, 0.0)
    else:
        mean = np.cumsum(lams)[ks - 1] / ks
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
        candidates=tuple(ks[:last]),
        statistics=tuple(stats[:last]),
        p_values=tuple(pvals[:last]),
        chosen_m=chosen,
        alpha=alpha,
        eigenvalues=tuple(lams[::-1]),
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
        NoStableOrder: every candidate down to k = 2 is rejected.
    """
    return _order_test(_gram(whitened.entries), whitened.sample_count, alpha)[0]


def _noisy_cutset(
    y: np.ndarray, lower: np.ndarray, lams: np.ndarray, vecs: np.ndarray, m: int
) -> tuple[CanonicalCutsetMatrix, tuple[tuple[int, ...], ...]]:
    """The canonical cutset from the order test's eigendecomposition of the
    whitened sample covariance, sinks first.

    The e - m largest eigenpairs, less the unit noise floor of whitened
    errors, estimate the signal: with D the edge totals,
    ``F = D^-1 L U_s diag(sqrt(lam_s - 1))`` has ``F F^T`` close to the
    Gram matrix of the flow rows scaled to unit total (over n_s), so QR
    with column pivoting of ``F^T`` picks the sinks as
    ``nullspace.sink_cutset``'s pivoted Cholesky factorization does on
    noise-free rows, and its ``R`` gives the shares of the sink flows
    (``nullspace.cutset_from_factor``), with the order test's e - m as rank.

    Raises:
        SnapFailure: the weakest signal eigenvalue is not above the unit
            noise floor, or a share does not snap.
    """
    e = y.shape[0]
    try:
        totals = edge_totals(y)
    except NonPositiveFlow as exc:
        raise NonPositiveFlow(
            f"{exc}; the noisy lane needs uncentred flows: pass the raw samples "
            "and declare a known error offset as NoiseModel.mean, not mean-removed rows"
        ) from None
    if not lams[m] > 1.0:
        raise SnapFailure(
            f"the weakest of the {e - m} signal eigenvalues, {lams[m]:.4g}, does not "
            "clear the unit noise floor: no sink can be told from noise"
        )
    signal = vecs[:, m:] * np.sqrt(lams[m:] - 1.0)
    factor = (lower @ signal) / totals[:, None]
    r, piv = sla.qr(factor.T, mode="r", pivoting=True, overwrite_a=True, check_finite=False)
    return cutset_from_factor(r, piv, e - m, totals, DEFAULT_SNAP_BAND, SnapFailure)


def reconstruct(
    data: FlowDataMatrix,
    noise: NoiseModel | None = None,
    *,
    alpha: float | None = None,
    zero_tol: float | None = None,
    chain_policy: str = "row_order",
) -> ReconstructionResult:
    """Reconstruct the arborescence behind the samples.

    ``noise`` picks the lane.  Without a noise model, one pivoted Cholesky
    factorization of the Gram matrix of the samples, each edge scaled to
    unit total, gives the canonical cutset directly
    (``nullspace.sink_cutset``): pivots whose ``U_kk`` exceeds ``zero_tol``
    (default ``EXACT_ZERO_TOL = 1e-6``, at least ``ZERO_TOL_FLOOR = 1e-7``)
    times ``U_00`` are the sink edges, the rest the branches.  The Gram
    matrix squares the condition number, so flows whose sink samples vary
    by less than about 1e-5 of their mean look equal and fail to snap.
    ``diagnostics`` adds those ``pivot_norms`` (with the refused pivot
    after them) and the ``chain_groups`` of equal-flow edges, whose order
    the data cannot fix and the ordered-label convention settles.  With a
    noise model, the samples are read once, into the e x e Gram matrix
    ``G = Y Y^T / n_s`` (less any declared mean, as in ``whiten``), which
    the one Cholesky factor ``L`` of the error covariance whitens from
    both sides: ``L^-1 G L^-T`` equals ``estimate_model_order``'s
    covariance of ``whiten(data, noise)`` without forming the e x n_s
    whitened samples.  The order test at level ``alpha`` picks the law
    count m; its e - m largest eigenpairs, less the noise floor, pick the
    sinks by a pivoted QR whose ``R`` gives the canonical cutset;
    ``diagnostics`` adds the order test's ``rank_test``, the
    ``singular_values`` and the ``chain_groups``.  Both lanes end in
    ``realize_topology``; under ``chain_policy="strict"`` a reported
    chain group raises ``AmbiguousParent`` first.

    Raises:
        InvalidArgument: ``alpha`` without a noise model, ``zero_tol``
            with one or outside ``[ZERO_TOL_FLOOR, 1)``, or a covariance
            whose size differs from the data's.
        NonPositiveFlow: an edge whose samples (less any declared mean)
            do not sum to a positive flow, as after removing each edge's
            mean.
        RankZero: the exact lane finds no conservation law.
        NotPositiveDefinite: bad covariance.
        NoStableOrder: the order test rejects every candidate.
        NonIntegerCutset, SnapFailure: a sink share falls outside the
            exact or the noisy lane's snap band, is not finite, or snaps
            to -1; SnapFailure also when a noisy signal eigenvalue is not
            above the noise floor.
        NotArborescence: the chord sets are not nested the way an
            arborescence requires.
        AmbiguousParent: under ``chain_policy="strict"``, an equal-flow
            chain whose order the data cannot fix.
    """
    if noise is None:
        if alpha is not None:
            raise InvalidArgument("alpha is the noisy lane's test level; it needs a noise model")
        canon, pivot_norms, chains = sink_cutset(
            data, EXACT_ZERO_TOL if zero_tol is None else zero_tol
        )
        extra = {"pivot_norms": pivot_norms, "chain_groups": chains}
    else:
        if zero_tol is not None:
            raise InvalidArgument("zero_tol is the exact lane's cutoff; it takes no noise model")
        y = _centred_samples(data, noise)
        lower = _cholesky_lower(noise)
        # whitened sample covariance L^-1 G L^-T, by two e x e triangular solves
        half = sla.solve_triangular(lower, _gram(y), lower=True, check_finite=False)
        s_y = sla.solve_triangular(lower, half.T, lower=True, check_finite=False)
        report, lams, vecs = _order_test(
            s_y, data.sample_count, DEFAULT_ALPHA if alpha is None else alpha
        )
        canon, chains = _noisy_cutset(y, lower, lams, vecs, report.chosen_m)
        # singular values of Y_s / sqrt(n_s), recovered from its Gram spectrum
        extra = {
            "rank_test": report,
            "singular_values": tuple(math.sqrt(v) for v in report.eigenvalues),
            "chain_groups": chains,
        }
    if chain_policy == "strict" and chains:
        raise AmbiguousParent(
            f"edges {chains[0]} carry equal flows; their stacking order is not identifiable"
        )
    result = realize_topology(canon, chain_policy=chain_policy)
    return replace(result, diagnostics={**result.diagnostics, **extra})


def reconstruct_noisy(
    data: FlowDataMatrix,
    noise: NoiseModel,
    alpha: float = DEFAULT_ALPHA,
    chain_policy: str = "row_order",
) -> ReconstructionResult:
    """The noisy lane of :func:`reconstruct`."""
    return reconstruct(data, noise, alpha=alpha, chain_policy=chain_policy)


def reconstruct_exact(
    data: FlowDataMatrix,
    zero_tol: float = EXACT_ZERO_TOL,
    chain_policy: str = "row_order",
) -> ReconstructionResult:
    """The exact (noise-free) lane of :func:`reconstruct`."""
    return reconstruct(data, zero_tol=zero_tol, chain_policy=chain_policy)
