import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.stats import chi2

import flowtopo as ft
from flowtopo import io as ftio
from flowtopo import noise_pipeline, nullspace
from flowtopo.cli import main
from flowtopo.noise_pipeline import (
    DEFAULT_ALPHA,
    DEFAULT_SNAP_BAND,
    ZERO_EIGENVALUE_RATIO,
    _order_test,
)
from flowtopo.nullspace import rref, snap_signed_units

from conftest import descendant_sink_labels


def binary_net() -> ft.FlowNetwork:
    return ft.generate_arborescence(ft.ArborescenceSpec("binary", (3, 3), (2, 2), seed=1))


def zeroed_edge_data() -> ft.FlowDataMatrix:
    x = ft.sample_flows(binary_net(), ft.FlowSamplerConfig(n_s=30, seed=1)).entries.copy()
    x[0] = 0.0
    return ft.FlowDataMatrix(x)


def relabelled(
    family: str, index: int, max_edges: int = 120, children: tuple[int, int] | None = None
) -> ft.FlowNetwork:
    """A generated network with its edges relabelled by a random
    permutation, so that labels no longer run ancestor before descendant."""
    net = ft.generate_within(family, 700 + index, max_edges=max_edges, children_range=children)
    e = net.edge_count
    # old label k -> new[k - 1]; the root, node e + 1, keeps its id
    new = np.append(np.random.default_rng(index).permutation(e) + 1, e + 1)
    edges = [None] * e
    for k, (s, t) in enumerate(net.edges):
        edges[new[k] - 1] = (int(new[s - 1]), int(new[t - 1]))
    return ft.FlowNetwork(e + 1, tuple(edges))


# a two-edge sink chain labelled descendant first: edge 1 hangs below edge 2
DESCENDANT_FIRST_CHAIN = ft.FlowNetwork(6, ((2, 1), (6, 2), (6, 3), (3, 4), (3, 5)))


def noisy_sample(net: ft.FlowNetwork, z: int, snr: float, seed: int):
    data = ft.sample_flows(
        net, ft.FlowSamplerConfig(n_s=z * net.edge_count, seed=seed), allow_undersampled=True
    )
    return ft.add_noise(data, ft.SnrSetting(snr), seed=seed + 100)


def same_up_to_chain_order(result: ft.ReconstructionResult, net: ft.FlowNetwork) -> bool:
    """Every edge has the true descendant sinks once each reported
    equal-flow group is named by its reported sink."""
    named = {lab: group[-1] for group in result.diagnostics["chain_groups"] for lab in group}
    got = result.as_network()
    return all(
        {named.get(lab, lab) for lab in descendant_sink_labels(got, k)}
        == {named.get(lab, lab) for lab in descendant_sink_labels(net, k)}
        for k in range(1, net.edge_count + 1)
    )


def chain_groups(net: ft.FlowNetwork) -> list[tuple[int, ...]]:
    """The equal-flow chains: edges with the same descendant sinks, ending
    in a sink or mid-tree, each in ascending label order; by last label."""
    by_sinks: dict[frozenset, list[int]] = {}
    for k in range(1, net.edge_count + 1):
        by_sinks.setdefault(frozenset(descendant_sink_labels(net, k)), []).append(k)
    return sorted((tuple(g) for g in by_sinks.values() if len(g) > 1), key=lambda g: g[-1])


def collapsed(net: ft.FlowNetwork, groups) -> set[tuple[int | None, int]]:
    """(parent edge, edge) pairs of the tree with each group's edges merged
    into one edge named by the group's last label; None is the root."""
    name = {lab: group[-1] for group in groups for lab in group}
    enters = {t: k for k, (_, t) in enumerate(net.edges, 1)}
    pairs = set()
    for k, (s, _) in enumerate(net.edges, 1):
        up, here = enters.get(s), name.get(k, k)
        up = name.get(up, up)
        if up != here:
            pairs.add((up, here))
    return pairs


def run_with_blas_threads(script: str, threads: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter with the
    BLAS thread count pinned."""
    src = str(Path(ft.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def equality_reference(lams: np.ndarray, n_s: int, lam_max: float) -> tuple[float, float]:
    """Statistic and p-value for 'these k eigenvalues are equal', one block
    at a time, with the chi-square tail from scipy.stats."""
    k = lams.size
    near_zero = lams <= ZERO_EIGENVALUE_RATIO * lam_max
    if near_zero.all():
        return 0.0, 1.0
    if near_zero.any():
        return math.inf, 0.0
    stat = max(n_s * (k * math.log(lams.mean()) - float(np.log(lams).sum())), 0.0)
    return stat, float(chi2.sf(stat, (k - 1) * (k + 2) // 2))


def order_reference(lams: np.ndarray, n_s: int, alpha: float = DEFAULT_ALPHA):
    """Scalar loop over k = e..2 on an ascending spectrum: candidates,
    statistics and p-values up to the first accepted k, and that k (0 when
    every candidate is rejected)."""
    candidates, stats, pvals = [], [], []
    for k in range(lams.size, 1, -1):
        stat, p = equality_reference(lams[:k], n_s, lams[-1])
        candidates.append(k)
        stats.append(stat)
        pvals.append(p)
        if p >= alpha:
            return candidates, stats, pvals, k
    return candidates, stats, pvals, 0


def assert_matches_reference(report: ft.RankTestReport, lams: np.ndarray, n_s: int) -> None:
    candidates, stats, pvals, chosen = order_reference(lams, n_s, report.alpha)
    assert report.candidates == tuple(candidates)
    assert report.chosen_m == chosen
    np.testing.assert_allclose(report.statistics, stats, rtol=1e-9, atol=0)
    np.testing.assert_allclose(report.p_values, pvals, rtol=1e-9, atol=0)


def staged_edges(null_vectors: np.ndarray, noise: ft.NoiseModel) -> tuple:
    """The staged noisy lane's tree from whitened null vectors: mapped back
    to laws, row-reduced, snapped, canonicalized and realized."""
    lower = np.linalg.cholesky(noise.covariance)
    a_hat = sla.solve_triangular(lower, null_vectors, lower=True, trans="T").T
    reduced, pivots = rref(a_hat)
    snapped = snap_signed_units(reduced, DEFAULT_SNAP_BAND, ft.SnapFailure)
    chords = [j for j in range(a_hat.shape[1]) if j not in set(pivots)]
    cutset = ft.CutsetMatrix(
        entries=np.hstack([snapped[:, list(pivots)], snapped[:, chords]]),
        branch_edges=tuple(j + 1 for j in pivots),
        chord_edges=tuple(j + 1 for j in chords),
    )
    return ft.realize_topology(ft.canonicalize(cutset)).edges


def whitened_reference(data: ft.FlowDataMatrix, noise: ft.NoiseModel):
    """The staged noisy lane through the public stages: the order test of
    the whitened samples, and the tree from its null vectors."""
    report = ft.estimate_model_order(ft.whiten(data, noise))
    return report, staged_edges(report.null_vectors, noise)


def distinct_spectrum_data() -> ft.FlowDataMatrix:
    # sample covariance with eigenvalues exactly 10, 20, ..., 60
    rng = np.random.default_rng(5)
    e, n_s = 6, 240
    q, _ = np.linalg.qr(rng.standard_normal((n_s, e)))
    scales = np.sqrt(n_s * np.arange(1.0, e + 1.0) * 10.0)
    return ft.FlowDataMatrix((q * scales).T)


def svd_reference(data: ft.FlowDataMatrix, noise: ft.NoiseModel) -> tuple[int, tuple]:
    """Noisy lane computed from a thin SVD of the scaled whitened samples:
    the order test on s**2 and the null basis u[:, e-m:]."""
    whitened = ft.whiten(data, noise)
    e, n_s = whitened.edge_count, whitened.sample_count
    u, s, _ = np.linalg.svd(whitened.entries / np.sqrt(n_s), full_matrices=False)
    lams = s[::-1] ** 2
    m = next(
        k for k in range(e, 1, -1)
        if equality_reference(lams[:k], n_s, lams[-1])[1] >= DEFAULT_ALPHA
    )
    return m, staged_edges(u[:, e - m:], noise)


class TestNoiseModel:
    def test_non_square(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(np.ones((2, 3)))

    def test_asymmetric(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("rel, accepted", [(5e-9, True), (1e-6, False)])
    def test_symmetry_tolerance(self, rel, accepted):
        cov = np.array([[4.0, 1.0], [1.0 + rel, 3.0]])
        if accepted:
            ft.NoiseModel(cov)
        else:
            with pytest.raises(ft.InvalidArgument, match="symmetric"):
                ft.NoiseModel(cov)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e6])
    def test_symmetry_rule_is_allclose(self, scale):
        # the boundary of np.allclose(C, C^T, rtol=1e-8, atol=1e-12), where
        # atol dominates (tiny entries) and where rtol does
        for rel in np.geomspace(1e-9, 1e-7, 81):
            cov = scale * np.array([[4.0, 1.0], [1.0 + rel, 3.0]])
            try:
                ft.NoiseModel(cov)
                accepted = True
            except ft.InvalidArgument:
                accepted = False
            assert accepted == np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12), rel

    def test_non_finite(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(np.array([[np.inf]]))

    def test_isotropic(self):
        model = ft.NoiseModel.isotropic(2.5, 4)
        assert model.edge_count == 4
        assert np.array_equal(model.covariance, 2.5 * np.eye(4))

    def test_isotropic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ft.NoiseModel.isotropic(0.0, 3)

    @pytest.mark.parametrize("count", [-1, 0, 2.5, True])
    def test_isotropic_refuses_edge_counts_below_one_or_not_integral(self, count):
        # -1 raised a bare ValueError, 2.5 a TypeError, and 0 and True built a model
        with pytest.raises(ft.InvalidArgument, match="edge_count must be"):
            ft.NoiseModel.isotropic(1.0, count)

    def test_per_edge(self):
        model = ft.NoiseModel.per_edge(np.array([1.0, 4.0]))
        assert np.array_equal(model.covariance, np.diag([1.0, 4.0]))

    def test_per_edge_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ft.NoiseModel.per_edge(np.array([1.0, -1.0]))

    def test_mean_length_checked(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(np.eye(2), mean=np.zeros(3))


class TestWhiten:
    def test_diagonal_scaling(self):
        data = ft.FlowDataMatrix(np.array([[2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]))
        model = ft.NoiseModel.per_edge(np.array([4.0, 9.0]))
        out = ft.whiten(data, model)
        assert np.allclose(out.entries, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_full_covariance_statistics(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        model = ft.NoiseModel(cov)
        noise = rng.multivariate_normal(np.zeros(4), cov, size=6000).T
        out = ft.whiten(ft.FlowDataMatrix(noise), model)
        sample_cov = out.entries @ out.entries.T / 6000
        assert np.allclose(sample_cov, np.eye(4), atol=0.1)

    def test_nonzero_mean_subtracted_with_warning(self):
        data = ft.FlowDataMatrix(np.full((2, 5), 7.0))
        model = ft.NoiseModel(np.eye(2), mean=np.array([7.0, 7.0])
        )
        with pytest.warns(UserWarning):
            out = ft.whiten(data, model)
        assert np.allclose(out.entries, 0.0)

    def test_dimension_mismatch(self):
        data = ft.FlowDataMatrix(np.ones((2, 5)))
        with pytest.raises(ValueError):
            ft.whiten(data, ft.NoiseModel.isotropic(1.0, 3))

    def test_degenerate_covariance(self):
        data = ft.FlowDataMatrix(np.ones((2, 5)))
        model = ft.NoiseModel(np.ones((2, 2)))
        with pytest.raises(ft.NotPositiveDefinite):
            ft.whiten(data, model)

    def test_degenerate_covariance_message_is_scipys(self):
        cov = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            sla.cholesky(cov, lower=True)
        model = ft.NoiseModel(cov)
        want = f"covariance is not positive definite: {scipy_error.value}"
        with pytest.raises(ft.NotPositiveDefinite, match=re.escape(want)):
            ft.whiten(ft.FlowDataMatrix(np.ones((3, 5))), model)


class TestModelOrder:
    def test_alpha_validated(self):
        data = ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30)))
        with pytest.raises(ValueError):
            ft.estimate_model_order(data, alpha=1.0)

    def test_recovers_known_count(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=3))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=4)
        report = ft.estimate_model_order(ft.whiten(noisy, model))
        assert report.chosen_m == len(net.internal_nodes)

    def test_report_is_coherent(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=3))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=4)
        report = ft.estimate_model_order(ft.whiten(noisy, model))
        assert report.candidates[0] == e
        assert all(a > b for a, b in zip(report.candidates, report.candidates[1:]))
        assert len(report.statistics) == len(report.candidates)
        assert report.p_values[report.candidates.index(report.chosen_m)] >= report.alpha

    def test_noise_free_data_uses_exact_zero_branch(self):
        # without noise the small eigenvalues are numerical zeros: every
        # mixed block is rejected outright, the all-zero block accepted
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=5 * e, seed=9))
        report = ft.estimate_model_order(data)
        m = len(net.internal_nodes)
        assert report.chosen_m == m
        assert report.p_values[0] == 0.0
        assert report.p_values[report.candidates.index(m)] == 1.0

    def test_distinct_spectrum_has_no_stable_order(self):
        with pytest.raises(ft.NoStableOrder):
            ft.estimate_model_order(distinct_spectrum_data())

    def test_undersampled_warns(self):
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=9))
        with pytest.warns(UserWarning):
            ft.estimate_model_order(data)


class TestOrderTestMatchesScalarLoop:
    """The vectorized order test against a per-candidate loop built on
    scipy.stats.chi2.sf."""

    def test_noisy_data(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=3))
        noisy, model = ft.add_noise(data, ft.SnrSetting(10.0), seed=4)
        whitened = ft.whiten(noisy, model)
        report = ft.estimate_model_order(whitened)
        # rejections by the chi-square tail, not only by underflow to 0
        assert sum(0.0 < p < report.alpha for p in report.p_values) >= 3
        assert_matches_reference(report, np.array(report.eigenvalues[::-1]), whitened.sample_count)

    def test_noise_free_data(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=5 * e, seed=9))
        report = ft.estimate_model_order(data)
        assert report.statistics[0] == math.inf and report.p_values[0] == 0.0
        assert report.statistics[-1] == 0.0 and report.p_values[-1] == 1.0
        assert_matches_reference(report, np.array(report.eigenvalues[::-1]), data.sample_count)

    def test_distinct_spectrum(self):
        data = distinct_spectrum_data()
        lams = np.clip(np.linalg.eigvalsh(data.entries @ data.entries.T / data.sample_count), 0, None)
        candidates, _, pvals, chosen = order_reference(lams, data.sample_count)
        assert chosen == 0 and candidates == [6, 5, 4, 3, 2]
        with pytest.raises(ft.NoStableOrder):
            _order_test(data.entries @ data.entries.T / data.sample_count, data.sample_count, DEFAULT_ALPHA)
        # at a level just below the last p-value the whole trace is reported
        report, _, _ = _order_test(
            data.entries @ data.entries.T / data.sample_count, data.sample_count, pvals[-1] / 2
        )
        assert report.chosen_m == 2
        assert_matches_reference(report, lams, data.sample_count)


class TestReconstructNoisy:
    def test_high_snr_round_trip(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=21))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=22)
        result = ft.reconstruct_noisy(noisy, model)
        assert ft.verify_against_truth(result, net)

    def test_diagnostics_carry_order_report(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=21))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=22)
        result = ft.reconstruct_noisy(noisy, model)
        report = result.diagnostics["rank_test"]
        assert isinstance(report, ft.RankTestReport)
        assert report.chosen_m == len(net.internal_nodes)
        assert len(report.eigenvalues) == e
        assert set(result.diagnostics) == {"canonical", "chain_groups", "rank_test", "pivot_norms"}

    def test_warnings_name_the_caller(self):
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=21))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=22)
        for call in (ft.reconstruct, ft.reconstruct_noisy):
            with pytest.warns(UserWarning, match="guideline") as record:
                try:
                    call(noisy, model)
                except ft.FlowtopoError:
                    pass
            assert {w.filename for w in record} == {__file__}

    def test_heteroscedastic_noise_round_trip(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=31))
        noisy, model = ft.add_noise(
            data, ft.SnrSetting(500.0, kind="heteroscedastic"), seed=32
        )
        assert len(set(np.diag(model.covariance))) > 1
        result = ft.reconstruct_noisy(noisy, model)
        assert ft.verify_against_truth(result, net)

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_matches_thin_svd_reference(self, family):
        children = (3, 7) if family == "fat_short" else None
        for seed in (0, 1, 2):
            net = ft.generate_within(family, seed, max_edges=40, children_range=children)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=seed))
            noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=seed + 100)
            result = ft.reconstruct_noisy(noisy, model)
            assert (result.diagnostics["rank_test"].chosen_m, result.edges) == svd_reference(
                noisy, model
            )

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_shares_match_law_solve(self, family, monkeypatch):
        # the shares read off the pivoted Cholesky factor equal -N_B^-1 N_C
        # on the laws N, the null vectors mapped back by L^-T
        seen = {}
        real_factor, real_solve = nullspace.cutset_from_factor, nullspace.triangular_solve

        def factor(r, piv, rank, totals, *args):
            seen["sinks"], seen["others"] = piv[:rank].copy(), piv[rank:].copy()
            seen["totals"] = totals.copy()
            return real_factor(r, piv, rank, totals, *args)

        def solve(*args, **kwargs):
            # W = R11^-1 R12, copied before the lane scales it in place
            w = real_solve(*args, **kwargs)
            seen["w"] = w.copy()
            return w

        monkeypatch.setattr(nullspace, "cutset_from_factor", factor)
        monkeypatch.setattr(nullspace, "triangular_solve", solve)
        children = (3, 7) if family == "fat_short" else None
        for seed in (0, 1, 2):
            net = ft.generate_within(family, seed, max_edges=40, children_range=children)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=seed))
            noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=seed + 100)
            report = ft.reconstruct_noisy(noisy, model).diagnostics["rank_test"]
            lower = np.linalg.cholesky(model.covariance)
            laws = sla.solve_triangular(lower, report.null_vectors, lower=True, trans="T").T
            want = -np.linalg.solve(laws[:, seen["others"]], laws[:, seen["sinks"]])
            # non-sink j carries s_j W_ij / s_i of sink i's flow
            totals = seen["totals"]
            shares = (seen["w"] * totals[seen["others"]] / totals[seen["sinks"], None]).T
            np.testing.assert_allclose(shares, want, rtol=0, atol=1e-9)

    def test_one_pivoted_cholesky_and_no_solve(self, monkeypatch):
        # both lanes pick their sinks by one dpstrf call, with no pivoted QR
        real, calls = sla.lapack.dpstrf, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(sla.lapack, "dpstrf", counted)
        monkeypatch.setattr(sla.lapack, "dgeqp3", lambda *a, **k: pytest.fail("dgeqp3 called"))
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: pytest.fail("solve called"))
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=3))
        noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=103)
        for lane in (lambda: ft.reconstruct_exact(data), lambda: ft.reconstruct_noisy(noisy, model)):
            calls.clear()
            assert ft.verify_against_truth(lane(), net)
            assert calls == [(e, e)]

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_pivot_norms_straddle_the_cutoff(self, family):
        # the sinks' pivots clear the cutoff, the refused one after them
        # does not, and it falls at the order test's e - m
        children = (3, 7) if family == "fat_short" else None
        for seed in (0, 1, 2):
            net = ft.generate_within(family, seed, max_edges=40, children_range=children)
            noisy, model = noisy_sample(net, 50, 100.0, seed)
            result = ft.reconstruct_noisy(noisy, model)
            norms = result.diagnostics["pivot_norms"]
            e, m = net.edge_count, result.diagnostics["rank_test"].chosen_m
            assert m == len(net.internal_nodes)
            assert norms.shape == (e,)
            cutoff = ft.nullspace.EXACT_ZERO_TOL * norms[0]
            assert norms[e - m - 1] > cutoff >= norms[e - m] > 0
            assert not norms[e - m + 1 :].any()

    def test_cutoff_must_keep_the_order_tests_count(self):
        # two signal directions, one of them 1e-7 of the other: three
        # rows are parallel and a fourth nearly so, so the pivot cutoff
        # keeps one sink where the order test left two
        e, m = 4, 2
        f = 1e4 * np.array([[1.0, 0.0], [1.0, 1e-7], [1.0, 0.0], [1.0, 0.0]])
        u, s, _ = np.linalg.svd(f)
        lams = np.concatenate([[0.9, 0.95], 1.0 + s[::-1] ** 2])
        vecs = np.concatenate([u[:, m:], u[:, m - 1 :: -1]], axis=1)
        assert lams[m] > 1.0
        with pytest.raises(ft.SnapFailure, match="keeps 1 sinks, but the order test found 2"):
            noise_pipeline._noisy_cutset(np.ones(e), np.eye(e), lams, vecs, m)

    def test_no_scipy_wrapper_on_either_lane(self, monkeypatch):
        # both lanes and whiten call LAPACK directly, never the checked
        # scipy.linalg wrappers
        for name in ("qr", "cholesky", "solve_triangular"):
            monkeypatch.setattr(sla, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} called"))
        net = binary_net()
        noisy, model = noisy_sample(net, 50, 100.0, seed=3)
        assert ft.verify_against_truth(ft.reconstruct_noisy(noisy, model), net)
        assert ft.whiten(noisy, model).entries.shape == noisy.entries.shape
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=3))
        assert ft.verify_against_truth(ft.reconstruct_exact(data), net)

    @pytest.mark.parametrize("sigma2", [1e6, 1e8, 1e12])
    def test_overstated_variance_hits_noise_floor(self, sigma2):
        # every signal eigenvalue sits below the unit floor of whitened
        # noise: a typed refusal, not a singular triangular solve
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=4))
        with pytest.raises(ft.SnapFailure, match="noise floor"):
            ft.reconstruct_noisy(data, ft.NoiseModel.isotropic(sigma2, net.edge_count))

    def test_memory_linear_in_data(self):
        # no n_s x n_s intermediate: the peak stays a small multiple of the data
        net = ft.binary_network_with_edges(62)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * 62, seed=5))
        noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=6)
        tracemalloc.start()
        try:
            ft.reconstruct_noisy(noisy, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * noisy.entries.nbytes

    def test_full_covariance_matches_whitened_samples(self):
        # whitening the Gram matrix equals the order test on whitened samples
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=31))
        rng = np.random.default_rng(42)
        a = rng.standard_normal((e, e))
        cov = a @ a.T + e * np.eye(e)
        # SNR 100 against the mean per-edge variance, as add_noise defines it;
        # both paths round the spectrum at eps times its largest eigenvalue
        cov *= data.entries.var(axis=1).mean() / (100.0 * np.diag(cov).mean())
        noise = np.linalg.cholesky(cov) @ rng.standard_normal((e, data.sample_count))
        noisy = ft.FlowDataMatrix(data.entries + noise)
        model = ft.NoiseModel(cov)
        assert np.count_nonzero(cov - np.diag(np.diag(cov))) == e * (e - 1)
        result = ft.reconstruct_noisy(noisy, model)
        report, edges = whitened_reference(noisy, model)
        got = result.diagnostics["rank_test"]
        assert got.chosen_m == report.chosen_m == len(net.internal_nodes)
        np.testing.assert_allclose(got.eigenvalues, report.eigenvalues, rtol=1e-9)
        assert result.edges == edges
        assert ft.verify_against_truth(result, net)

    def test_declared_mean_matches_whitened_samples(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=51))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=52)
        mean = np.linspace(0.5, 2.0, e)
        offset = ft.FlowDataMatrix(noisy.entries + mean[:, None])
        model = ft.NoiseModel(model.covariance, mean=mean)
        with pytest.warns(UserWarning, match="nonzero error mean"):
            result = ft.reconstruct_noisy(offset, model)
        with pytest.warns(UserWarning, match="nonzero error mean"):
            report, edges = whitened_reference(offset, model)
        got = result.diagnostics["rank_test"]
        assert got.chosen_m == report.chosen_m
        np.testing.assert_allclose(got.eigenvalues, report.eigenvalues, rtol=1e-9)
        assert result.edges == edges
        assert ft.verify_against_truth(result, net)

    def test_degenerate_covariance(self):
        data = ft.FlowDataMatrix(np.ones((2, 5)), allow_undersampled=True)
        model = ft.NoiseModel(np.ones((2, 2)))
        with pytest.raises(ft.NotPositiveDefinite):
            ft.reconstruct_noisy(data, model)

    def test_sink_first_matches_staged_route(self):
        # wherever the staged route (rref, snap, canonicalize) recovers the
        # network, picking the sinks first returns the same edges; thin_long
        # at SNR 10 and z <= 5 is where the two part most
        recovered = 0
        for family in ft.synth.FAMILIES:
            children = (3, 7) if family == "fat_short" else None
            for seed in range(4):
                net = ft.generate_within(family, 60 + seed, max_edges=40, children_range=children)
                for z in (2, 5, 50):
                    for snr in (100.0, 10.0):
                        noisy, model = noisy_sample(net, z, snr, seed)
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            try:
                                _, staged = whitened_reference(noisy, model)
                            except ft.FlowtopoError:
                                continue
                            if set(staged) != set(net.edges):
                                continue
                            recovered += 1
                            result = ft.reconstruct_noisy(noisy, model)
                        assert set(result.edges) == set(staged), (family, seed, z, snr)
        assert recovered >= 33

    @pytest.mark.parametrize("family", ["binary", "fat_short"])
    def test_any_labelling_recovered(self, family):
        # the staged route's rref and canonicalize leaned on label order and
        # recovered none of these; the misses are SnapFailure, never a wrong
        # topology
        children = (3, 7) if family == "fat_short" else None
        hits = 0
        for index in range(30):
            net = relabelled(family, index, max_edges=60, children=children)
            noisy, model = noisy_sample(net, 50, 100.0, index)
            try:
                result = ft.reconstruct_noisy(noisy, model)
            except ft.SnapFailure:
                continue
            assert ft.verify_against_truth(result, net), index
            hits += 1
        assert hits >= {"binary": 27, "fat_short": 28}[family]

    def test_relabelled_chains_recovered_up_to_order(self):
        hits = 0
        for index in range(30):
            net = relabelled("thin_long", index, max_edges=60)
            noisy, model = noisy_sample(net, 50, 100.0, index)
            try:
                result = ft.reconstruct_noisy(noisy, model)
            except ft.SnapFailure:
                continue
            assert same_up_to_chain_order(result, net), index
            hits += 1
        assert hits >= 27

    def test_descendant_first_chain_reported(self):
        noisy, model = noisy_sample(DESCENDANT_FIRST_CHAIN, 50, 1000.0, 7)
        result = ft.reconstruct_noisy(noisy, model)
        assert result.diagnostics["chain_groups"] == ((1, 2),)

    def test_outcome_independent_of_blas_threads(self):
        net = ft.generate_within("thin_long", 13, max_edges=60)
        assert len(chain_groups(net)) >= 10
        script = (
            "import json, flowtopo as ft\n"
            "net = ft.generate_within('thin_long', 13, max_edges=60)\n"
            "data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=4))\n"
            "noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=5)\n"
            "r = ft.reconstruct_noisy(noisy, model)\n"
            "c = r.diagnostics['canonical']\n"
            "print(json.dumps([sorted(r.edges), c.entries.tolist(), c.branch_edges,\n"
            "                  c.chord_edges, r.diagnostics['chain_groups']]))\n"
        )
        outputs = [run_with_blas_threads(script, threads) for threads in ("1", "2")]
        assert outputs[0] == outputs[1]
        edges, _, _, _, groups = json.loads(outputs[0])
        assert [tuple(g) for g in groups] == chain_groups(net)
        assert {tuple(st) for st in edges} == set(net.edges)

    def test_dimension_mismatch(self):
        data = ft.FlowDataMatrix(np.ones((2, 5)))
        with pytest.raises(ValueError, match="2 edges"):
            ft.reconstruct_noisy(data, ft.NoiseModel.isotropic(1.0, 3))

    def test_structureless_data_rejected(self):
        rng = np.random.default_rng(40)
        data = ft.FlowDataMatrix(rng.standard_normal((6, 300)))
        with pytest.raises(ft.FlowtopoError):
            ft.reconstruct_noisy(data, ft.NoiseModel.isotropic(1.0, 6))

    def test_mean_removed_data_explained(self):
        # the sinks are picked on flows scaled by their totals, which vanish
        # once each edge's mean is removed; the error says what to pass,
        # in the same words in both lanes
        net = ft.generate_within("binary", 0, max_edges=40)
        noisy, model = noisy_sample(net, 50, 100.0, 0)
        centred = ft.FlowDataMatrix(noisy.entries - noisy.entries.mean(axis=1, keepdims=True))
        remedy = r"uncentred flows.*NoiseModel\.mean"
        with pytest.raises(ft.NonPositiveFlow, match=remedy) as noisy_exc:
            ft.reconstruct_noisy(centred, model)
        with pytest.raises(ft.NonPositiveFlow) as exact_exc:
            ft.reconstruct_exact(centred)
        assert str(exact_exc.value) == str(noisy_exc.value)

    def test_samples_read_once(self, monkeypatch):
        # one call of the front end forms the sample Gram matrix, and the
        # lane forms no second one with _gram
        calls = []

        def moments(x):
            calls.append(x.shape)
            return nullspace.sample_moments(x)

        def no_gram(y):
            pytest.fail("the lane formed a second Gram matrix of the samples")

        monkeypatch.setattr(noise_pipeline, "sample_moments", moments)
        monkeypatch.setattr(noise_pipeline, "_gram", no_gram)
        net = binary_net()
        noisy, model = noisy_sample(net, 50, 100.0, seed=3)
        assert ft.verify_against_truth(ft.reconstruct_noisy(noisy, model), net)
        assert calls == [noisy.entries.shape]

    def test_one_realization_per_reconstruction(self, monkeypatch):
        # both lanes realize the tree through realize_topology, once, from
        # the canonical matrix the result reports
        calls = []

        def realize(canon):
            calls.append(canon)
            return ft.realize_topology(canon)

        monkeypatch.setattr(noise_pipeline, "realize_topology", realize)
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=3))
        noisy, model = noisy_sample(net, 50, 100.0, seed=3)
        for lane in (lambda: ft.reconstruct(data), lambda: ft.reconstruct(noisy, model)):
            calls.clear()
            result = lane()
            assert ft.verify_against_truth(result, net)
            assert len(calls) == 1 and calls[0] is result.diagnostics["canonical"]

    def test_front_end_statistics(self):
        # the totals and the upper triangle of X X^T, Fortran-ordered with
        # the lower triangle zero; rescued rows give the same G / (s s^T)
        x = np.random.default_rng(0).random((5, 40))
        want = np.triu(x @ x.T / np.outer(x.sum(axis=1), x.sum(axis=1)))
        for scale, rescued in ((1.0, False), (1e160, True), (1e-160, True)):
            sums, gram, shift = nullspace.sample_moments(x * scale)
            assert (shift is not None) == rescued
            np.testing.assert_allclose(sums, (x * scale).sum(axis=1), rtol=1e-14)
            assert gram.flags.f_contiguous and not np.tril(gram, -1).any()
            if rescued:
                sums = np.ldexp(sums, shift)
            np.testing.assert_allclose(gram / np.outer(sums, sums), want, rtol=1e-13)

    @pytest.mark.parametrize("row, error, match", [
        (np.zeros(40), ft.NonPositiveFlow, "edge 2 sums to 0"),
        (np.full(40, 1e307), ft.InvalidArgument, "edge 2 sums past the float range"),
    ])
    def test_front_end_refuses_unusable_totals(self, row, error, match):
        # the front end that takes the totals refuses them, in both lanes
        # before anything else: the noisy lane ahead of the covariance's
        # Cholesky factor, which this one would fail
        x = np.random.default_rng(0).random((3, 40)) + 1.0
        x[1] = row
        with pytest.raises(error, match=match):
            nullspace.sample_moments(x)
        with pytest.raises(error, match=match):
            ft.reconstruct(ft.FlowDataMatrix(x), ft.NoiseModel(-np.eye(3)))

    def test_order_test_keeping_every_eigenvalue_is_typed(self):
        # m = e leaves no signal eigenpair; this raised a bare IndexError
        data = ft.FlowDataMatrix(np.random.default_rng(0).random((3, 4)))
        with pytest.warns(UserWarning, match="guideline"):
            with pytest.raises(ft.SnapFailure, match=r"all 3 eigenvalues equal \(m = 3\)"):
                ft.reconstruct(data, ft.NoiseModel.isotropic(1e-5, 3))

    @pytest.mark.parametrize("scale", [1e-160, 1e140, 1e150])
    def test_magnitude_outside_the_gram_band_recovered(self, scale, monkeypatch):
        # samples scaled by 1e150 and covariance by 1e300 overflowed the
        # sample Gram matrix, and eigh raised LinAlgError; the rows and the
        # Cholesky factor rescaled by powers of two whiten to the same
        # matrix.  The exact lane, its totals rescaled alike, runs on the
        # noise-free samples; the front end rescues in both lanes
        shifts, original = [], nullspace.sample_moments

        def moments(x):
            shifts.append(original(x)[2])
            return original(x)

        monkeypatch.setattr(noise_pipeline, "sample_moments", moments)
        monkeypatch.setattr(nullspace, "sample_moments", moments)
        net = ft.generate_within("binary", 3, max_edges=30)
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=1))
        noisy, model = ft.add_noise(data, ft.SnrSetting(100.0), seed=2)
        result = ft.reconstruct(
            ft.FlowDataMatrix(noisy.entries * scale), ft.NoiseModel(model.covariance * scale**2)
        )
        assert ft.verify_against_truth(result, net)
        assert ft.verify_against_truth(ft.reconstruct(ft.FlowDataMatrix(data.entries * scale)), net)
        assert len(shifts) == 2 and all(shift is not None for shift in shifts)

    def test_whitened_overflow_is_typed(self):
        # samples 1e250 times a unit noise model whiten past the float range
        net = ft.binary_network_with_edges(6)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=60, seed=1))
        with pytest.raises(ft.InvalidArgument, match="whitened sample covariance is not finite"):
            ft.reconstruct(ft.FlowDataMatrix(data.entries * 1e250), ft.NoiseModel.isotropic(1.0, 6))


class TestReconstructExact:
    def test_pure_chain(self):
        net = ft.generate_arborescence(ft.ArborescenceSpec("thin_long", (4, 4), (1, 1), seed=2))
        assert net.edge_count == 4
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=10, seed=2))
        result = ft.reconstruct_exact(data)
        assert ft.verify_against_truth(result, net)

    def test_diagnostics_carry_pivot_norms(self):
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=3))
        for zero_tol, result in (
            (ft.nullspace.EXACT_ZERO_TOL, ft.reconstruct_exact(data)),
            (1e-3, ft.reconstruct_exact(data, zero_tol=1e-3)),
        ):
            norms = result.diagnostics["pivot_norms"]
            e, m = net.edge_count, result.diagnostics["canonical"].m
            assert m == len(net.internal_nodes)
            assert set(result.diagnostics) == {"canonical", "chain_groups", "pivot_norms"}
            # the rank gap at the chosen m: the sinks' pivots clear the
            # cutoff, the refused pivot after them does not, zeros pad the rest
            assert norms.shape == (e,)
            assert norms[e - m - 1] > zero_tol * norms[0] >= norms[e - m] > 0
            assert not norms[e - m + 1 :].any()
            assert result.diagnostics["chain_groups"] == ()

    @pytest.mark.parametrize("family", ["binary", "fat_short"])
    def test_any_labelling_recovered(self, family):
        # no chains: the data fixes the answer whatever the labels
        for index in range(40):
            net = relabelled(family, index)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=index))
            assert ft.verify_against_truth(ft.reconstruct_exact(data), net), index

    def test_relabelled_chains_recovered_up_to_order(self):
        # the order inside an equal-flow chain is not identifiable; the
        # groups are reported, and every edge has the true descendant sinks
        # once each group is named by its reported sink
        for index in range(40):
            net = relabelled("thin_long", index)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=index))
            result = ft.reconstruct_exact(data)
            assert list(result.diagnostics["chain_groups"]) == chain_groups(net), index
            assert same_up_to_chain_order(result, net), index

    def test_relabelled_chains_collapse_to_truth(self):
        # mid-tree chains are reported as well as those ending in a sink, so
        # merging each reported group into one edge leaves the true tree
        for index in range(40):
            net = relabelled("thin_long", index)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=index))
            result = ft.reconstruct_exact(data)
            groups = result.diagnostics["chain_groups"]
            assert collapsed(result.as_network(), groups) == collapsed(net, groups), index

    def test_descendant_first_chain_reported(self):
        data = ft.sample_flows(DESCENDANT_FIRST_CHAIN, ft.FlowSamplerConfig(n_s=10, seed=3))
        result = ft.reconstruct_exact(data)
        assert result.diagnostics["chain_groups"] == ((1, 2),)

    def test_chain_groups_independent_of_blas_threads(self):
        # among equal flows LAPACK's pivot follows rounding, which the
        # thread count sets; the reported answer must not
        net = ft.generate_within("thin_long", 13, max_edges=300)
        assert len(chain_groups(net)) >= 10
        script = (
            "import json, flowtopo as ft\n"
            "net = ft.generate_within('thin_long', 13, max_edges=300)\n"
            "data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=4))\n"
            "r = ft.reconstruct_exact(data)\n"
            "c = r.diagnostics['canonical']\n"
            "print(json.dumps([sorted(r.edges), c.entries.tolist(), c.branch_edges,\n"
            "                  c.chord_edges, r.diagnostics['chain_groups']]))\n"
        )
        outputs = [run_with_blas_threads(script, threads) for threads in ("1", "2")]
        assert outputs[0] == outputs[1]
        edges, _, _, _, groups = json.loads(outputs[0])
        assert [tuple(g) for g in groups] == chain_groups(net)
        assert {tuple(st) for st in edges} == set(net.edges)

    def test_memory_linear_in_data(self):
        # tracemalloc sees numpy-array allocations only, not the buffers
        # numpy's linalg routines take from malloc for LAPACK, so this
        # bounds the arrays the exact lane builds, not its whole footprint
        net = ft.binary_network_with_edges(254)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * 254, seed=5))
        tracemalloc.start()
        try:
            ft.reconstruct_exact(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * data.entries.nbytes


def same_diagnostic(a, b) -> bool:
    if isinstance(a, ft.CanonicalCutsetMatrix):
        return np.array_equal(a.entries, b.entries) and (
            a.branch_edges, a.chord_edges, a.provenance
        ) == (b.branch_edges, b.chord_edges, b.provenance)
    if isinstance(a, (np.ndarray, tuple)):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("family", ft.synth.FAMILIES)
def test_reconstruct_matches_lane_wrappers(family):
    net = ft.generate_within(family, 3, max_edges=120)
    e = net.edge_count
    data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=41))
    noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=42)
    for got, want in (
        (ft.reconstruct(data), ft.reconstruct_exact(data)),
        (ft.reconstruct(noisy, model), ft.reconstruct_noisy(noisy, model)),
    ):
        assert ft.verify_against_truth(got, net)
        assert got.edges == want.edges
        assert list(got.diagnostics) == list(want.diagnostics)
        for key, value in got.diagnostics.items():
            assert same_diagnostic(value, want.diagnostics[key]), key
    assert "rank_test" in got.diagnostics


def lane_results(family: str, index: int):
    """The exact lane at z = 2 and the noisy lane at z = 50, SNR 100, on a
    generated network and on a relabelled one; a lane that refuses its
    input gives nothing."""
    children = (3, 7) if family == "fat_short" else None
    for net in (
        ft.generate_within(family, 500 + index, max_edges=60, children_range=children),
        relabelled(family, index, max_edges=60, children=children),
    ):
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=index))
        noisy, model = noisy_sample(net, 50, 100.0, index)
        for run in (lambda: ft.reconstruct(data), lambda: ft.reconstruct(noisy, model)):
            try:
                yield run()
            except ft.SnapFailure:
                pass


@pytest.mark.parametrize("family", ft.synth.FAMILIES)
def test_lanes_match_the_public_realization(family):
    # both lanes realize through the public realize_topology, so what they
    # report is its output: node ids and chain labels as Python ints, and
    # equal-flow chains where thin_long trees have single-child runs.  The
    # lanes build their canonical matrix without the public constructor's
    # checks; the constructor accepts it and rebuilds the same matrix
    results = [r for index in range(6) for r in lane_results(family, index)]
    assert len(results) >= 20
    for result in results:
        labels = [v for edge in result.edges for v in edge]
        labels += [v for group in result.diagnostics["chain_groups"] for v in group]
        assert all(type(v) is int for v in labels)
        canon = result.diagnostics["canonical"]
        assert canon.entries.dtype == np.int64 and not canon.entries.flags.writeable
        assert all(type(v) is int for v in canon.column_labels)
        rebuilt = ft.CanonicalCutsetMatrix(
            entries=canon.entries, branch_edges=canon.branch_edges, chord_edges=canon.chord_edges
        )
        assert np.array_equal(rebuilt.entries, canon.entries)
        assert rebuilt.column_labels == canon.column_labels
        assert rebuilt.branch_edges == canon.branch_edges
        assert rebuilt.provenance == canon.provenance == ()
    if family == "thin_long":
        assert any(r.diagnostics["chain_groups"] for r in results)


@pytest.mark.parametrize("family", ft.synth.FAMILIES)
def test_rank_test_matches_its_public_twin(family):
    # the order test builds its report without the constructor's checks;
    # the constructor accepts the same fields and gives an equal report
    reports = [r.diagnostics["rank_test"] for index in range(3) for r in lane_results(family, index)
               if "rank_test" in r.diagnostics]
    net = ft.generate_within(family, 3, max_edges=40, children_range=(3, 7) if family == "fat_short" else None)
    noisy, model = noisy_sample(net, 20, 10.0, 3)
    reports.append(ft.estimate_model_order(ft.whiten(noisy, model)))
    assert len(reports) >= 3
    for report in reports:
        twin = ft.RankTestReport(
            candidates=report.candidates, statistics=report.statistics,
            p_values=report.p_values, chosen_m=report.chosen_m, alpha=report.alpha,
            eigenvalues=report.eigenvalues, null_vectors=report.null_vectors,
        )
        assert twin == report and repr(twin) == repr(report)
        assert twin.null_vectors is report.null_vectors
        vectors = report.null_vectors
        assert vectors.dtype == np.float64 and not vectors.flags.writeable
        assert vectors.shape[1] == report.chosen_m and np.isfinite(vectors).all()
        assert all(type(k) is int for k in report.candidates) and type(report.chosen_m) is int
        values = report.statistics + report.p_values + report.eigenvalues
        assert all(type(v) is float for v in values)


def fuzz_samples(kind: str, e: int, n_s: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "tree":
        # a random arborescence, each edge below the source or an earlier edge
        parents = [e + 1] + [int(rng.choice([e + 1, *range(1, k)])) for k in range(2, e + 1)]
        net = ft.FlowNetwork(e + 1, tuple((p, k) for k, p in enumerate(parents, start=1)))
        cfg = ft.FlowSamplerConfig(n_s=n_s, seed=int(rng.integers(2**31)))
        return ft.sample_flows(net, cfg).entries
    if kind == "uniform":
        return rng.random((e, n_s))
    return rng.standard_normal((e, n_s))


@given(
    st.sampled_from(["tree", "uniform", "gaussian"]),
    st.integers(1, 11),
    st.floats(-300.0, 300.0),
    st.floats(-8.0, 2.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
# the whitened spectrum of these samples sums past the float range, and
# its cumulative sum warned of an overflow ahead of the refusal
@example(kind="gaussian", e=3, log_scale=154.0, log_sigma2=0.0, seed=0)
def test_only_typed_errors_escape(kind, e, log_scale, log_sigma2, seed):
    # both lanes, on trees and on structureless data from 1e-300 to 1e300
    # with noise variances from 1e-8 to 1e2: reconstruct raises nothing
    # but a FlowtopoError, and the CLI exits non-zero exactly when it does
    rng = np.random.default_rng(seed)
    n_s = int(rng.integers(e + 1, 4 * e + 8))
    entries = fuzz_samples(kind, e, n_s, rng) * 10.0**log_scale
    sigma2 = 10.0**log_sigma2
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        path = Path(tmp) / "run.csv"
        ftio.dump_data_csv(ft.FlowDataMatrix(entries), path)
        data = ftio.load_data_csv(path)
        lanes = ((None, []), (ft.NoiseModel.isotropic(sigma2, e), ["--sigma2", repr(sigma2)]))
        for noise, flags in lanes:
            try:
                ft.reconstruct(data, noise)
                refused = False
            except ft.FlowtopoError:
                refused = True
            code = main(["reconstruct", "--data", str(path), *flags])
            assert (code != 0) == refused, (noise is not None, code)


STAGED_STAGES = (
    "estimate_null_basis", "find_valid_partition", "to_fcutset_form", "rref",
    "canonicalize", "whiten", "estimate_model_order",
)


def test_lanes_run_none_of_the_staged_stages(monkeypatch):
    # both lanes pick the sinks first; a staged stage creeping back into
    # either would fail here wherever flowtopo binds it
    for name, module in list(sys.modules.items()):
        if name == "flowtopo" or name.startswith("flowtopo."):
            for stage in STAGED_STAGES:
                if hasattr(module, stage):
                    monkeypatch.setattr(
                        module, stage, lambda *a, _stage=stage, **k: pytest.fail(_stage)
                    )
    for family in ft.synth.FAMILIES:
        net = ft.generate_within(family, 3, max_edges=120)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=41))
        noisy, model = ft.add_noise(data, ft.SnrSetting(1000.0), seed=42)
        assert ft.verify_against_truth(ft.reconstruct(data), net), family
        assert ft.verify_against_truth(ft.reconstruct(noisy, model), net), family


@pytest.mark.parametrize("call", [
    lambda: ft.whiten(ft.FlowDataMatrix(np.ones((2, 5))), ft.NoiseModel.isotropic(1.0, 3)),
    lambda: ft.reconstruct_noisy(ft.FlowDataMatrix(np.ones((2, 5))), ft.NoiseModel.isotropic(1.0, 3)),
    lambda: ft.estimate_model_order(
        ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30))), alpha=1.0
    ),
    lambda: ft.reconstruct_exact(
        ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30))), zero_tol=-1.0
    ),
    lambda: ft.reconstruct(
        ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30))), alpha=0.01
    ),
    lambda: ft.reconstruct(
        ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30))),
        ft.NoiseModel.isotropic(1.0, 3),
        zero_tol=1e-6,
    ),
    lambda: ft.FlowDataMatrix(np.full((2, 5), np.nan)),
    lambda: ft.NoiseModel.isotropic(0.0, 3),
    lambda: ft.NoiseModel.per_edge(np.array([1.0, -1.0])),
    lambda: ft.SnrSetting(10.0, kind="pink"),
    lambda: ft.FlowSamplerConfig(n_s=0, seed=1),
    lambda: ft.SnrSetting(0.0),
    lambda: ft.ArborescenceSpec("binary", (3, 1), (2, 2), seed=0),
    lambda: ft.family_spec("oak", 0),
    lambda: ft.binary_network_with_edges(1),
    lambda: ft.add_noise(ft.FlowDataMatrix(np.ones((2, 5))), ft.SnrSetting(10.0), seed=0),
    lambda: ft.SweepConfig(trials=0),
    lambda: ft.run_scaling_bench(sizes=(16, 8)),
    lambda: ft.reconstruct_exact(
        ft.FlowDataMatrix(np.random.default_rng(0).standard_normal((3, 30)))
    ),
    lambda: ft.reconstruct_exact(zeroed_edge_data()),
    lambda: ft.FlowNetwork(3, ((1, 1),)),
    lambda: ft.FlowNetwork(3, ((1, 4),)),
    lambda: ft.FlowNetwork(3, ()),
    lambda: ft.Partition((1, 2), (2, 3)),
    lambda: ft.CutsetMatrix(np.eye(2, dtype=int), (1,), (2, 3)),
    lambda: ft.CutsetMatrix(np.array([[1, 2]]), (1,), (2,)),
    lambda: ft.CutsetMatrix(np.array([[1, 1, -1]]), (1, 2), (3,)),
    lambda: ft.generate_within("binary", -1),
    lambda: ft.ArborescenceSpec("binary", (3, 3), (2, 2), seed=-1),
    lambda: ft.FlowSamplerConfig(n_s=30, seed=-1),
    lambda: ft.add_noise(
        ft.sample_flows(binary_net(), ft.FlowSamplerConfig(n_s=30, seed=1)),
        ft.SnrSetting(10.0),
        seed=-1,
    ),
    lambda: ft.run_scaling_bench(sizes=(8,), seed=-1),
    lambda: ft.find_min_z(binary_net(), ft.SnrSetting(10.0), (2,), trials=1, base_seed=-1),
    lambda: ft.SweepConfig(base_seed=-1),
    lambda: ft.SweepConfig(trials=2.5),
    lambda: ft.SweepConfig(networks_per_family=1.5),
    lambda: ft.SweepConfig(z_list=(2.5,)),
    lambda: ft.SweepConfig(max_edges=20.5),
    lambda: ft.SweepConfig(families=("bogus",)),
    lambda: ft.run_scaling_bench(sizes=(3.5, 8)),
    lambda: ft.binary_network_with_edges(2.5),
    lambda: ft.FlowNetwork(3, ((1,),)),
    lambda: ft.FlowNetwork(2.5, ((1, 2),)),
    lambda: ft.run_scaling_bench(sizes=(8, 8), repeats=1),
], ids=["whiten-size", "reconstruct-size", "alpha", "zero-tol", "alpha-without-noise",
        "zero-tol-with-noise", "data", "sigma2", "per-edge", "noise-kind",
        "sampler", "snr", "spec", "family", "bench-network", "add-noise", "sweep", "bench-sizes",
        "gaussian-data", "zeroed-row", "self-loop", "node-id", "no-edges", "partition",
        "cutset-shape", "cutset-entries", "cutset-identity", "seed-within", "seed-spec",
        "seed-sampler", "seed-add-noise", "seed-bench", "seed-min-z", "seed-sweep",
        "sweep-trials-float", "sweep-networks-float", "sweep-z-float",
        "sweep-max-edges-float", "sweep-family", "bench-sizes-float", "bench-network-float",
        "edge-not-pair", "node-count-float", "bench-sizes-repeated"])
def test_argument_errors_are_typed(call):
    # still a ValueError for callers that catch that, and a FlowtopoError
    with pytest.raises(ft.InvalidArgument) as exc:
        call()
    assert isinstance(exc.value, ft.FlowtopoError)
    assert isinstance(exc.value, ValueError)



def binary_data() -> ft.FlowDataMatrix:
    return ft.sample_flows(binary_net(), ft.FlowSamplerConfig(n_s=60, seed=1))


@pytest.mark.parametrize("call, field", [
    (lambda: ft.FlowDataMatrix([["a"]]), "data matrix"),
    (lambda: ft.FlowDataMatrix([[1.0, 2.0], [3.0]]), "data matrix"),
    (lambda: ft.FlowDataMatrix(np.ones((2, 5)) + 1j), "data matrix"),
    (lambda: ft.NoiseModel(np.eye(2) * (1 + 1j)), "covariance"),
    (lambda: ft.NoiseModel([["a"]]), "covariance"),
    (lambda: ft.NoiseModel(np.eye(2), mean=["a", 1.0]), "mean"),
    (lambda: ft.NoiseModel.per_edge(["a"]), "variances"),
    (lambda: ft.NullBasis([[np.nan, 1.0]], 1, [1.0, 0.0]), "basis"),
    (lambda: ft.NullBasis([[0.0, 1.0]], 1, [np.inf, 0.0]), "singular_values"),
    (lambda: ft.RankTestReport((2,), (0.0,), (1.0,), 1 * 2, 0.05, null_vectors=[[np.nan] * 2]),
     "null_vectors"),
    (lambda: ft.reconstruct(
        binary_data(), ft.NoiseModel.isotropic(1.0, binary_net().edge_count), alpha="0.1"
    ), "alpha"),
    (lambda: ft.reconstruct(binary_data(), zero_tol="0.1"), "zero_tol"),
    (lambda: ft.estimate_null_basis(binary_data(), zero_tol=np.nan), "zero_tol"),
    (lambda: ft.NoiseModel.isotropic("1", 3), "sigma2"),
    (lambda: ft.NoiseModel.isotropic(np.nan, 3), "sigma2"),
    (lambda: ft.NoiseModel.isotropic(np.inf, 3), "sigma2"),
    (lambda: ft.NoiseModel.isotropic(10**400, 3), "sigma2"),
    (lambda: ft.SweepConfig(cell_budget_s="1"), "cell_budget_s"),
    (lambda: ft.generate_within("binary", 0, max_edges="40"), "max_edges"),
], ids=["data-strings", "data-ragged", "data-complex", "covariance-complex",
        "covariance-strings", "mean-strings", "variances-strings", "basis-nan",
        "singular-values-inf", "null-vectors-nan", "alpha-string", "zero-tol-string",
        "null-basis-zero-tol-nan", "sigma2-string", "sigma2-nan", "sigma2-inf",
        "sigma2-past-float-range", "cell-budget-string",
        "max-edges-string"])
def test_input_it_cannot_use_refused_naming_it(call, field):
    # each raised a bare ValueError, TypeError or OverflowError, named no
    # field, or was accepted (a NaN basis, a complex part dropped)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ft.InvalidArgument, match=field):
            call()
