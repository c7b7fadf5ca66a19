import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

import flowtopo as ft
from flowtopo.noise_pipeline import DEFAULT_ALPHA, DEFAULT_SNAP_BAND, _equality_p_value
from flowtopo.nullspace import snap_signed_units


def binary_net() -> ft.FlowNetwork:
    return ft.generate_arborescence(ft.ArborescenceSpec("binary", (3, 3), (2, 2), seed=1))


def svd_reference(data: ft.FlowDataMatrix, noise: ft.NoiseModel) -> tuple[int, tuple]:
    """Noisy lane computed from a thin SVD of the scaled whitened samples:
    the order test on s**2 and the null basis u[:, e-m:]."""
    whitened = ft.whiten(data, noise)
    e, n_s = whitened.edge_count, whitened.sample_count
    u, s, _ = np.linalg.svd(whitened.entries / np.sqrt(n_s), full_matrices=False)
    lams = s[::-1] ** 2
    m = next(
        k for k in range(e, 1, -1)
        if _equality_p_value(lams[:k], n_s, lams[-1])[1] >= DEFAULT_ALPHA
    )
    lower = np.linalg.cholesky(noise.covariance)
    a_hat = sla.solve_triangular(lower, u[:, e - m:], lower=True, trans="T").T
    reduced, pivots = ft.rref(a_hat)
    snapped = snap_signed_units(reduced, DEFAULT_SNAP_BAND, ft.SnapFailure)
    chords = [j for j in range(e) if j not in set(pivots)]
    cutset = ft.CutsetMatrix(
        entries=np.hstack([snapped[:, list(pivots)], snapped[:, chords]]),
        branch_edges=tuple(j + 1 for j in pivots),
        chord_edges=tuple(j + 1 for j in chords),
    )
    return m, ft.realize_topology(ft.canonicalize(cutset)).edges


class TestNoiseModel:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(kind="colored", covariance=np.eye(2))

    def test_non_square(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(kind="homoscedastic", covariance=np.ones((2, 3)))

    def test_asymmetric(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(kind="homoscedastic", covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(kind="homoscedastic", covariance=np.array([[np.inf]]))

    def test_isotropic(self):
        model = ft.NoiseModel.isotropic(2.5, 4)
        assert model.kind == "homoscedastic"
        assert model.edge_count == 4
        assert np.array_equal(model.covariance, 2.5 * np.eye(4))

    def test_isotropic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ft.NoiseModel.isotropic(0.0, 3)

    def test_per_edge(self):
        model = ft.NoiseModel.per_edge(np.array([1.0, 4.0]))
        assert model.kind == "heteroscedastic"
        assert np.array_equal(model.covariance, np.diag([1.0, 4.0]))

    def test_per_edge_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ft.NoiseModel.per_edge(np.array([1.0, -1.0]))

    def test_mean_length_checked(self):
        with pytest.raises(ValueError):
            ft.NoiseModel(kind="homoscedastic", covariance=np.eye(2), mean=np.zeros(3))


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
        model = ft.NoiseModel(kind="heteroscedastic", covariance=cov)
        noise = rng.multivariate_normal(np.zeros(4), cov, size=6000).T
        out = ft.whiten(ft.FlowDataMatrix(noise), model)
        sample_cov = out.entries @ out.entries.T / 6000
        assert np.allclose(sample_cov, np.eye(4), atol=0.1)

    def test_nonzero_mean_subtracted_with_warning(self):
        data = ft.FlowDataMatrix(np.full((2, 5), 7.0))
        model = ft.NoiseModel(
            kind="homoscedastic", covariance=np.eye(2), mean=np.array([7.0, 7.0])
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
        model = ft.NoiseModel(kind="homoscedastic", covariance=np.ones((2, 2)))
        with pytest.raises(ft.NotPositiveDefinite):
            ft.whiten(data, model)


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
        rng = np.random.default_rng(5)
        e, n_s = 6, 240
        q, _ = np.linalg.qr(rng.standard_normal((n_s, e)))
        scales = np.sqrt(n_s * np.arange(1.0, e + 1.0) * 10.0)
        y = (q * scales).T
        with pytest.raises(ft.NoStableOrder):
            ft.estimate_model_order(ft.FlowDataMatrix(y))

    def test_undersampled_warns(self):
        net = binary_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=9))
        with pytest.warns(UserWarning):
            ft.estimate_model_order(data)


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
        assert len(result.diagnostics["singular_values"]) == e

    def test_heteroscedastic_noise_round_trip(self):
        net = binary_net()
        e = net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * e, seed=31))
        noisy, model = ft.add_noise(
            data, ft.SnrSetting(500.0, kind="heteroscedastic"), seed=32
        )
        assert model.kind == "heteroscedastic"
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

    def test_structureless_data_rejected(self):
        rng = np.random.default_rng(40)
        data = ft.FlowDataMatrix(rng.standard_normal((6, 300)))
        with pytest.raises(ft.FlowtopoError):
            ft.reconstruct_noisy(data, ft.NoiseModel.isotropic(1.0, 6))


class TestReconstructExact:
    def test_pure_chain(self):
        net = ft.generate_arborescence(ft.ArborescenceSpec("thin_long", (4, 4), (1, 1), seed=2))
        assert net.edge_count == 4
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=10, seed=2))
        result = ft.reconstruct_exact(data)
        assert ft.verify_against_truth(result, net)

    def test_chain_policy_forwarded(self):
        net = ft.generate_arborescence(ft.ArborescenceSpec("thin_long", (4, 4), (1, 1), seed=2))
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=10, seed=2))
        with pytest.raises(ft.AmbiguousParent):
            ft.reconstruct_exact(data, chain_policy="strict")
