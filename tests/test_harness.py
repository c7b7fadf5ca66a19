import csv
import math
import warnings

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

    def test_alpha_outside_unit_interval_raises(self):
        # before, the lane's refusal was counted as a missed trial
        with pytest.raises(ft.InvalidArgument, match="alpha must lie in"):
            harness.run_trial(tiny_net(), ft.SnrSetting(1e6), 60, 1, 2, alpha=2.0)

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

    @pytest.mark.parametrize("z_list, trials, message", [
        ((1, 2, 3), 0, "trials must be >= 1, got 0"),
        ((1, 2, 3), -1, "trials must be >= 1, got -1"),
        ((), 2, "z_list must be nonempty"),
        ((2.5,), 1, "z_list"),
        ((0, 1), 1, "z_list values must be >= 1, got 0"),
        ((3, -1), 1, "z_list values must be >= 1, got -1"),
        ((1,), 2.5, "trials must be an integer"),
    ])
    def test_settings_sweep_config_refuses(self, z_list, trials, message):
        # with no trials every z would pass vacuously
        net = ft.generate_within("binary", 1, max_edges=20)
        with pytest.raises(ft.InvalidArgument, match=message):
            harness.find_min_z(net, ft.SnrSetting(0.01), z_list, trials=trials)

    def test_stops_at_the_first_miss(self, monkeypatch):
        # running every cell whole would slow criterion 6's searches with no
        # other test failing
        calls = []

        def two_hits_then_misses(*args):
            calls.append(args)
            return len(calls) <= 2, 0.0

        monkeypatch.setattr(harness, "run_trial", two_hits_then_misses)
        assert harness.find_min_z(tiny_net(), ft.SnrSetting(1e9), (1, 2, 4), trials=5) is None
        # z = 1 stops at its third trial, then z = 2 and z = 4 at their first
        assert len(calls) == 5
        assert [args[2] for args in calls] == [6, 6, 6, 12, 24]

    def test_one_shot_empty_iterator_refused(self):
        # an iterator is truthy, so only its tuple shows it empty
        with pytest.raises(ft.InvalidArgument, match="z_list must be nonempty"):
            harness.find_min_z(tiny_net(), ft.SnrSetting(1e9), iter([]), trials=1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, float("nan")])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        # run_trial would count every refused trial as a miss and return None
        with pytest.raises(ft.InvalidArgument, match=r"alpha must lie in \(0, 1\)"):
            harness.find_min_z(tiny_net(), ft.SnrSetting(1e9), (1, 2), trials=1, alpha=alpha)


class TestSweep:
    def test_config_validated(self):
        with pytest.raises(ValueError):
            harness.SweepConfig(families=())
        with pytest.raises(ValueError):
            harness.SweepConfig(trials=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # each trial would catch the refusal and the sweep would report 0.0
        with pytest.raises(ft.InvalidArgument, match="alpha must lie in"):
            harness.SweepConfig(alpha=alpha)

    @pytest.mark.parametrize("setting, message", [
        ({"snr_list": (10.0, -1.0)}, "snr must be a finite number > 0"),
        ({"snr_list": (float("nan"),)}, "snr must be a finite number > 0"),
        ({"z_list": (0, 1)}, "z_list values must be >= 1"),
    ])
    def test_values_no_trial_can_use_rejected_before_the_run(self, setting, message):
        # run_sweep would raise only after writing the CSV header
        with pytest.raises(ft.InvalidArgument, match=message):
            harness.SweepConfig(**setting)

    @pytest.mark.parametrize("budget", [-1.0, 0.0, float("inf"), float("nan")])
    def test_cell_budget_must_be_finite_and_positive(self, budget):
        # a negative budget would stop every cell after its first trial
        with pytest.raises(ft.InvalidArgument, match="cell_budget_s must be a finite number > 0"):
            harness.SweepConfig(cell_budget_s=budget)

    def test_draw_that_cannot_fit_leaves_no_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        with pytest.raises(ft.EmptySpec):
            harness.run_sweep(harness.SweepConfig(max_edges=1), out_path=out)
        assert not out.exists()

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
        # early stop: one row per (family, network, snr)
        (row,) = harness.run_sweep(config, out_path=out)
        assert (row.family, row.network_index, row.snr, row.z) == ("binary", 0, 1e9, 1)
        assert row.is_min_z
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4:] == ["1", "1.000000", "2", f"{row.median_seconds:.6g}", "1", "0"]

    @pytest.mark.parametrize("setting", [{"families": None}, {"snr_list": 100.0}, {"z_list": 5}])
    def test_list_that_is_not_iterable_refused(self, setting):
        (name,) = setting
        with pytest.raises(ft.InvalidArgument, match=f"{name} must be an iterable"):
            harness.SweepConfig(**setting)

    def test_iterators_run_the_same_cells_as_tuples(self):
        # the checks once used up one-shot iterators, and the sweep ran nothing
        def cells(**lists):
            config = harness.SweepConfig(networks_per_family=1, trials=1, max_edges=20, **lists)
            rows = harness.run_sweep(config)
            return [(r.family, r.snr, r.z, r.accuracy, r.is_min_z) for r in rows]

        lists = {"families": ["binary"], "snr_list": [1e9, 0.01], "z_list": [1, 2]}
        expected = cells(**{name: tuple(v) for name, v in lists.items()})
        assert len(expected) == 3
        assert cells(**{name: iter(v) for name, v in lists.items()}) == expected

    def test_cell_budget_cuts_every_cell_short(self, tmp_path):
        config = harness.SweepConfig(
            families=("binary",),
            networks_per_family=1,
            snr_list=(1e9,),
            z_list=(1, 2, 3),
            trials=3,
            base_seed=3,
            max_edges=20,
            cell_budget_s=1e-9,
        )
        out = tmp_path / "sweep.csv"
        rows = harness.run_sweep(config, out_path=out)
        # a short-counted cell never counts as the minimum, so every z runs
        assert [row.z for row in rows] == [1, 2, 3]
        assert all(row.trials_done == 1 and row.aborted for row in rows)
        assert not any(row.is_min_z for row in rows)
        table = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["trials"], r["min_z_flag"], r["aborted"]) for r in table] == [("1", "0", "1")] * 3

    def test_trial_warnings_stay_inside_the_sweep(self):
        # z = 1 is undersampled: every trial's lane warns, and the sweep
        # must neither show those warnings nor leave its filter behind
        config = harness.SweepConfig(
            families=("binary",),
            networks_per_family=1,
            snr_list=(100.0,),
            z_list=(1,),
            trials=2,
            max_edges=20,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            harness.run_sweep(config)
            assert warnings.filters == filters
        assert caught == []


class TestScalingBench:
    @pytest.mark.parametrize("setting", [{"repeats": 0}, {"z": 0}, {"repeats": -2}])
    def test_counts_below_one_refused(self, setting):
        # repeats=0 returned NaN stage times and slopes
        (name,) = setting
        with pytest.raises(ft.InvalidArgument, match=f"{name} must be >= 1"):
            ft.run_scaling_bench(sizes=(8,), **setting)

    @pytest.mark.filterwarnings("error")
    def test_one_law_count_has_no_alg2_slope(self):
        # e = 6 and 7 both have m = 2: polyfit warned and gave a made-up slope
        bench = ft.run_scaling_bench(sizes=(6, 7), repeats=1)
        assert bench.m_values == (2, 2)
        assert math.isnan(bench.slope_alg2_vs_m)
        assert np.isfinite(bench.slope_total)

    def test_small_sizes(self):
        bench = ft.run_scaling_bench(sizes=(8, 16), repeats=1)
        assert bench.sizes == (8, 16)
        assert set(bench.stage_seconds) == {"cutset", "alg2", "total"}
        assert all(len(v) == 2 for v in bench.stage_seconds.values())
        assert np.isfinite(bench.slope_total) and np.isfinite(bench.slope_cutset)
        assert bench.m_values == (2, 6)
