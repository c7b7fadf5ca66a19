import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowtopo as ft
from flowtopo.synth import DEFAULT_MEANS, DEFAULT_STDS, FAMILIES, FAMILY_DEFAULTS

from conftest import ancestor_labels, conservation_residual


class TestSpecs:
    def test_families(self):
        assert FAMILIES == ("binary", "thin_long", "fat_short")
        assert set(FAMILY_DEFAULTS) == set(FAMILIES)

    def test_family_spec_defaults(self):
        spec = ft.family_spec("thin_long", seed=5)
        assert spec.layer_range == FAMILY_DEFAULTS["thin_long"][0]
        assert spec.children_range == FAMILY_DEFAULTS["thin_long"][1]

    def test_family_spec_override(self):
        spec = ft.family_spec("fat_short", seed=5, children_range=(4, 6))
        assert spec.children_range == (4, 6)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ft.family_spec("ternary", seed=0)

    def test_range_order_validated(self):
        with pytest.raises(ValueError):
            ft.ArborescenceSpec("thin_long", (5, 3), (1, 2), seed=0)

    @pytest.mark.parametrize("call, field", [
        (lambda: ft.ArborescenceSpec("thin_long", (2.7, 3.9), (1, 2), seed=0), "layer_range"),
        (lambda: ft.family_spec("thin_long", 0, layer_range=(True, 3)), "layer_range"),
        (lambda: ft.family_spec("fat_short", 0, children_range=(4, 6.0)), "children_range"),
    ], ids=["fractional", "bool", "float_children"])
    def test_ranges_must_be_integral(self, call, field):
        # int() would truncate (2.7, 3.9) to (2, 3) and take True as 1
        with pytest.raises(ft.InvalidArgument, match=f"{field} must be an integer"):
            call()

    @pytest.mark.parametrize("layers", [(1,), 5, (2, 3, 9)])
    def test_ranges_must_be_pairs(self, layers):
        # (1,) raised IndexError and 5 TypeError; (2, 3, 9) became (2, 3)
        message = r"layer_range must be a \(low, high\) pair"
        with pytest.raises(ft.InvalidArgument, match=message):
            ft.ArborescenceSpec("thin_long", layers, (1, 2), seed=0)
        with pytest.raises(ft.InvalidArgument, match=message):
            ft.generate_within("thin_long", 0, layer_range=layers)

    def test_children_floor_validated(self):
        with pytest.raises(ValueError):
            ft.ArborescenceSpec("thin_long", (2, 3), (0, 2), seed=0)

    def test_binary_children_pinned(self):
        with pytest.raises(ValueError):
            ft.ArborescenceSpec("binary", (2, 3), (2, 3), seed=0)

    def test_sampler_config_validated(self):
        with pytest.raises(ValueError):
            ft.FlowSamplerConfig(n_s=0, seed=1)

    def test_snr_setting_validated(self):
        with pytest.raises(ValueError):
            ft.SnrSetting(0.0)
        with pytest.raises(ValueError):
            ft.SnrSetting(10.0, kind="pink")

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), -1.0])
    def test_snr_must_be_finite_and_positive(self, snr):
        with pytest.raises(ft.InvalidArgument, match="snr must be a finite number > 0"):
            ft.SnrSetting(snr)

    @pytest.mark.parametrize("snr", ["5", True, None])
    def test_snr_must_be_a_real_number(self, snr):
        # "5" and None raised a bare TypeError, and True was an SNR of 1
        with pytest.raises(ft.InvalidArgument, match="snr must be a real number"):
            ft.SnrSetting(snr)

    def test_add_noise_takes_a_bare_number(self):
        # a bare number raised AttributeError: 'float' object has no attribute 'kind'
        net = ft.generate_within("binary", 3, max_edges=20)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=60, seed=1))
        bare, bare_model = ft.add_noise(data, 10.0, seed=2)
        noisy, model = ft.add_noise(data, ft.SnrSetting(10.0), seed=2)
        assert np.array_equal(bare.entries, noisy.entries)
        assert np.array_equal(bare_model.covariance, model.covariance)

    @pytest.mark.parametrize("n_s", [2.5, 30.0, "30"])
    def test_sampler_n_s_must_be_integral(self, n_s):
        with pytest.raises(ft.InvalidArgument, match="n_s must be an integer"):
            ft.FlowSamplerConfig(n_s=n_s, seed=1)

    @pytest.mark.parametrize("call", [
        lambda: ft.FlowSamplerConfig(n_s=30, seed=2.5),
        lambda: ft.generate_within("binary", 2.5),
    ], ids=["sampler_config", "generate_within"])
    def test_float_seed_refused(self, call):
        with pytest.raises(ft.InvalidArgument, match="seed must be an integer"):
            call()

    @pytest.mark.parametrize("kwargs, field", [
        ({"n_s": True, "seed": 1}, "n_s"),
        ({"n_s": 30, "seed": False}, "seed"),
    ], ids=["n_s", "seed"])
    def test_sampler_bool_refused(self, kwargs, field):
        # operator.index takes a bool as 0 or 1
        with pytest.raises(ft.InvalidArgument, match=f"{field} must be an integer"):
            ft.FlowSamplerConfig(**kwargs)

    def test_sampler_accepts_numpy_integers(self):
        cfg = ft.FlowSamplerConfig(n_s=np.int64(30), seed=1)
        assert type(cfg.n_s) is int and cfg.n_s == 30
        net = ft.generate_within("binary", 3, max_edges=20)
        data = ft.sample_flows(net, cfg)
        assert data.sample_count == 30


class TestGeneration:
    def test_binary_two_layers(self):
        net = ft.generate_arborescence(ft.ArborescenceSpec("binary", (2, 2), (2, 2), seed=0))
        assert net.edge_count == 6
        assert ft.is_arborescence(net)
        assert net.source_nodes == {7}

    def test_labels_increase_toward_leaves(self):
        net = ft.generate_arborescence(ft.family_spec("thin_long", seed=13))
        for lab in range(1, net.edge_count + 1):
            assert all(anc < lab for anc in ancestor_labels(net, lab))

    def test_sinks_carry_largest_labels(self):
        net = ft.generate_arborescence(ft.family_spec("binary", seed=4))
        sinks = net.sink_edge_labels()
        non_sinks = set(range(1, net.edge_count + 1)) - set(sinks)
        assert min(sinks) > max(non_sinks)

    def test_deterministic_per_seed(self):
        a = ft.generate_arborescence(ft.family_spec("fat_short", seed=8))
        b = ft.generate_arborescence(ft.family_spec("fat_short", seed=8))
        assert a == b

    def test_empty_layer_draw(self):
        with pytest.raises(ft.EmptySpec):
            ft.generate_arborescence(ft.ArborescenceSpec("thin_long", (0, 0), (1, 1), seed=0))

    @given(st.sampled_from(FAMILIES), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_generate_within_respects_budget(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=200)
        assert net.edge_count <= 200
        assert ft.is_arborescence(net)

    def test_generate_within_impossible_budget(self):
        with pytest.raises(ft.EmptySpec):
            ft.generate_within("fat_short", 0, max_edges=4)


class TestBenchmarkNetwork:
    @pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 7, 14, 30, 31, 100])
    def test_exact_edge_count(self, e):
        net = ft.binary_network_with_edges(e)
        assert net.edge_count == e
        assert ft.is_arborescence(net)
        assert net.source_nodes == {e + 1}

    def test_full_binary_unpadded(self):
        net = ft.binary_network_with_edges(14)
        kids: dict[int, int] = {}
        for s, _ in net.edges:
            kids[s] = kids.get(s, 0) + 1
        assert set(kids.values()) == {2}

    def test_padded_edge_list(self):
        # 14 edges of full binary tree, then three sinks under edge 6
        assert ft.binary_network_with_edges(17) == ft.FlowNetwork(18, (
            (18, 1), (18, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9),
            (4, 10), (5, 11), (5, 12), (6, 13), (6, 14), (6, 15), (6, 16), (6, 17),
        ))

    def test_breadth_first_labels_and_padding(self):
        for e in range(6, 301):
            depth = max(d for d in range(2, 10) if 2 ** (d + 1) - 2 <= e)
            base = 2 ** (depth + 1) - 2
            edges = ft.binary_network_with_edges(e).edges
            assert [t for _, t in edges] == list(range(1, e + 1))
            assert [s for s, _ in edges[:2]] == [e + 1, e + 1]
            assert all(s == (t - 1) // 2 for s, t in edges[2:base])
            assert all(s == base - 2 ** depth for s, _ in edges[base:])

    def test_exact_lane_recovers_every_size(self):
        # below 6 edges the padding named node 0 (e = 3-5) or left a star
        # with no conservation law (e = 2)
        missed = []
        for e in range(2, 41):
            net = ft.binary_network_with_edges(e)
            result = ft.reconstruct(ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * e, seed=0)))
            if not ft.verify_against_truth(result, net):
                missed.append(e)
        assert missed == []

    def test_two_edges_are_one_chain(self):
        net = ft.binary_network_with_edges(2)
        result = ft.reconstruct(ft.sample_flows(net, ft.FlowSamplerConfig(n_s=4, seed=0)))
        assert result.diagnostics["chain_groups"] == ((1, 2),)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ft.binary_network_with_edges(1)


class TestSampleFlows:
    def test_conservation_holds(self):
        net = ft.generate_within("binary", 3, max_edges=60)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=3))
        assert conservation_residual(net, data.entries) < 1e-9

    def test_shape_and_labels(self):
        net = ft.generate_within("thin_long", 3, max_edges=60)
        n_s = 2 * net.edge_count
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=n_s, seed=3))
        assert data.entries.shape == (net.edge_count, n_s)

    def test_seed_reproducibility(self):
        net = ft.generate_within("fat_short", 3, max_edges=200)
        cfg = ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=11)
        a = ft.sample_flows(net, cfg)
        b = ft.sample_flows(net, cfg)
        assert np.array_equal(a.entries, b.entries)

    def test_non_arborescence_rejected(self, mesh_network):
        with pytest.raises(ft.NotArborescence):
            ft.sample_flows(mesh_network, ft.FlowSamplerConfig(n_s=20, seed=0))

    def test_undersampled_needs_flag(self):
        net = ft.generate_within("binary", 3, max_edges=60)
        with pytest.raises(ValueError):
            ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2, seed=0))
        with pytest.warns(UserWarning):
            data = ft.sample_flows(
                net, ft.FlowSamplerConfig(n_s=2, seed=0), allow_undersampled=True
            )
        assert data.sample_count == 2

    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, seed):
        net = ft.generate_within("thin_long", seed, max_edges=50)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
        assert conservation_residual(net, data.entries) < 1e-9


def relabelled(net: ft.FlowNetwork, seed: int) -> ft.FlowNetwork:
    """The same tree with its edges in random order and random node ids."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(net.node_count) + 1
    order = rng.permutation(net.edge_count)
    edges = tuple((int(ids[s - 1]), int(ids[t - 1])) for s, t in (net.edges[i] for i in order))
    return ft.FlowNetwork(net.node_count, edges)


class TestSamplerBits:
    """Every sampled bit, from an oracle that walks the edge list: the sink
    rows replay the sampler's two draws, and every other row is its
    children's rows added one at a time in label order."""

    @staticmethod
    def check_bits(net: ft.FlowNetwork, cfg: ft.FlowSamplerConfig) -> None:
        data = ft.sample_flows(net, cfg).entries
        children = {}
        for i, (s, _) in enumerate(net.edges):
            children.setdefault(s, []).append(i)
        sinks = [i for i, (_, t) in enumerate(net.edges) if t not in children]
        rng = np.random.default_rng(cfg.seed)
        comp = rng.integers(0, len(DEFAULT_MEANS), size=len(sinks))
        draws = rng.normal(
            np.asarray(DEFAULT_MEANS)[comp, None],
            np.asarray(DEFAULT_STDS)[comp, None],
            size=(len(sinks), cfg.n_s),
        )
        assert np.array_equal(data[sinks], draws)
        for i, (_, t) in enumerate(net.edges):
            if t in children:
                below = children[t]
                total = data[below[0]].copy()
                for j in below[1:]:
                    total = total + data[j]
                assert np.array_equal(data[i], total), f"edge {i + 1}"

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_generated_and_relabelled(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=80)
        cfg = ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed + 100)
        self.check_bits(net, cfg)
        self.check_bits(relabelled(net, seed), cfg)


class TestSamplerDigests:
    """SHA-256 of sampled and noisy bits, frozen from a reference run: any
    change to the draws or the order of the float operations shows.  The
    binary net adds two children per row, the fat_short net four, and the
    thin_long net also copies single children."""

    DIGESTS = {
        "binary": (
            "aa3aadd36db514f3622497d49df238f3c0cc8e16679274be4078b2b10b5ebed5",
            "bcb3ec15f0cbc08f89b2b9aa6d0ab2ff4935f86b054b430ce093ef7cc5730b72",
            "f96aff631f27f4c17ad0f489bec073c0b8180cc720656f424ed34570d7cbd260",
        ),
        "fat_short": (
            "43039efe1f9d98c0761a5283fdb01c17f0e772d9d897ac3dbdc490e13515e952",
            "a62df808d098ea74e0502b5927ab19f92170212e11413df94bc2d15661467d5e",
            "22e43ca13d3c1864f4d44f2db678aba985e58d2835862c45382f9fa33ea99c85",
        ),
        "thin_long": (
            "c5a01b8f6511843448b675d998e8b0ff161e8324861088ddcfe390610d8107f3",
            "cc8b68c8f5182319cc4881420434acd3d6a371f51b7a37315fc931274b8fc85a",
            "c32ef3ff62c031e008f3de7dff9346b0fa08a8a68127313e350452f638daacb1",
        ),
    }

    @pytest.mark.parametrize("family, seed, children", [
        ("binary", 11, None), ("fat_short", 12, (3, 7)), ("thin_long", 13, None),
    ])
    def test_digests(self, family, seed, children):
        net = ft.generate_within(family, seed, max_edges=40, children_range=children)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=5 * net.edge_count, seed=21))
        digests = [hashlib.sha256(data.entries.tobytes()).hexdigest()]
        for kind in ("homoscedastic", "heteroscedastic"):
            noisy, model = ft.add_noise(data, ft.SnrSetting(20.0, kind), seed=22)
            blob = noisy.entries.tobytes() + model.covariance.tobytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert tuple(digests) == self.DIGESTS[family]


class TestAddNoise:
    def make_data(self, seed: int = 5):
        net = ft.generate_within("binary", seed, max_edges=40)
        return ft.sample_flows(net, ft.FlowSamplerConfig(n_s=4 * net.edge_count, seed=seed))

    def test_homoscedastic_variance_definition(self):
        data = self.make_data()
        noisy, model = ft.add_noise(data, ft.SnrSetting(25.0), seed=1)
        signal_var = data.entries.var(axis=1, ddof=1)
        expect = float(signal_var.mean()) / 25.0
        assert model.covariance[0, 0] == pytest.approx(expect)
        assert np.array_equal(model.covariance, model.covariance[0, 0] * np.eye(data.edge_count))

    def test_heteroscedastic_variance_definition(self):
        data = self.make_data()
        noisy, model = ft.add_noise(data, ft.SnrSetting(25.0, kind="heteroscedastic"), seed=1)
        signal_var = data.entries.var(axis=1, ddof=1)
        assert np.array_equal(model.covariance, np.diag(np.diag(model.covariance)))
        assert np.allclose(np.diag(model.covariance), signal_var / 25.0)

    def test_additive_and_reproducible(self):
        data = self.make_data()
        a, _ = ft.add_noise(data, ft.SnrSetting(10.0), seed=9)
        b, _ = ft.add_noise(data, ft.SnrSetting(10.0), seed=9)
        c, _ = ft.add_noise(data, ft.SnrSetting(10.0), seed=10)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)
        assert not np.array_equal(a.entries, data.entries)

    def test_noise_scale_tracks_snr(self):
        data = self.make_data()
        low, _ = ft.add_noise(data, ft.SnrSetting(5.0), seed=3)
        high, _ = ft.add_noise(data, ft.SnrSetting(500.0), seed=3)
        dev_low = np.abs(low.entries - data.entries).mean()
        dev_high = np.abs(high.entries - data.entries).mean()
        assert dev_low > 5 * dev_high

    def test_constant_signal_rejected(self):
        flat = ft.FlowDataMatrix(np.ones((3, 10)))
        with pytest.raises(ValueError):
            ft.add_noise(flat, ft.SnrSetting(10.0), seed=0)
