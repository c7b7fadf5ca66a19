import numpy as np
import pytest

import flowtopo as ft
from flowtopo import harness


def tiny_net() -> ft.FlowNetwork:
    return ft.binary_network_with_edges(6)


class TestRunTrial:
    def test_deterministic(self):
        net = tiny_net()
        a = harness.run_trial(net, ft.SnrSetting(1e6), 60, flow_seed=1, noise_seed=2)
        b = harness.run_trial(net, ft.SnrSetting(1e6), 60, flow_seed=1, noise_seed=2)
        assert a[0] is True and b[0] is True
        assert a[1] > 0

    def test_failure_is_reported_not_raised(self):
        net = tiny_net()
        ok, _ = harness.run_trial(net, ft.SnrSetting(0.01), 12, flow_seed=1, noise_seed=2)
        assert ok is False

    def test_accepts_bare_number(self):
        ok, _ = harness.run_trial(tiny_net(), 1e6, 60, flow_seed=1, noise_seed=2)
        assert ok is True


class TestFindMinZ:
    def test_immediate_at_high_snr(self):
        z = harness.find_min_z(tiny_net(), ft.SnrSetting(1e9), (1, 2, 4), trials=3)
        assert z == 1

    def test_none_when_unreachable(self):
        z = harness.find_min_z(tiny_net(), ft.SnrSetting(0.01), (1, 2), trials=3)
        assert z is None


class TestSweep:
    def test_config_validated(self):
        with pytest.raises(ValueError):
            harness.SweepConfig(families=())
        with pytest.raises(ValueError):
            harness.SweepConfig(trials=0)

    def test_cell_budget_with_threads_rejected(self):
        # the threaded trial loop cannot stop early, so the budget would be ignored
        with pytest.raises(ValueError):
            harness.SweepConfig(threads=2, cell_budget_s=1.0)

    def test_small_sweep_finds_min_z(self, tmp_path):
        config = harness.SweepConfig(
            families=("binary",),
            networks_per_family=1,
            snr_list=(1e9,),
            z_list=(1, 2),
            trials=2,
            base_seed=3,
            max_edges=20,
        )
        out = tmp_path / "sweep.csv"
        result = harness.run_sweep(config, out_path=out)
        assert result.min_z("binary", 0, 1e9) == 1
        # early stop: one row per (family, network, snr)
        assert len(result.rows) == 1
        assert out.read_text().count("\n") == 2

    def test_to_csv_matches_streamed_file(self, tmp_path):
        config = harness.SweepConfig(
            families=("binary",),
            networks_per_family=1,
            snr_list=(1e9,),
            z_list=(2,),
            trials=2,
            base_seed=3,
            max_edges=20,
        )
        streamed = tmp_path / "a.csv"
        result = harness.run_sweep(config, out_path=streamed)
        rewritten = tmp_path / "b.csv"
        result.to_csv(rewritten)
        assert streamed.read_text() == rewritten.read_text()


class TestScalingBench:
    def test_small_sizes(self):
        bench = ft.run_scaling_bench(sizes=(8, 16), repeats=1)
        assert bench.sizes == (8, 16)
        assert set(bench.stage_seconds) == {"cutset", "alg2", "total"}
        assert all(len(v) == 2 for v in bench.stage_seconds.values())
        assert np.isfinite(bench.slope_total) and np.isfinite(bench.slope_cutset)
        assert bench.m_values == (2, 6)
