"""Experiment harness: seeded draw-and-reconstruct trials, the
SNR-by-sample-size sweep, and polynomial-runtime scaling checks.

Every trial derives its own random seed from the base seed and the trial
coordinates, so results are independent of execution order and identical
across reruns.  Flow and noise seeds exclude the SNR coordinate on
purpose: cells that differ only in SNR see the same underlying draws,
which makes cross-SNR comparisons paired.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from .errors import FlowtopoError, InvalidArgument
from .graph_model import FlowNetwork, _integer, _real
from .noise_pipeline import DEFAULT_ALPHA, _check_alpha, reconstruct_exact, reconstruct_noisy
from .nullspace import sink_cutset
from .realize import realize_topology, verify_against_truth
from .synth import (
    FAMILIES,
    FlowSamplerConfig,
    SnrSetting,
    _check_seed,
    _seeds,
    add_noise,
    binary_network_with_edges,
    generate_within,
    sample_flows,
)

DEFAULT_SNR_LIST = (100.0, 50.0, 30.0, 10.0, 5.0)


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
    networks_per_family: int = 8
    snr_list: tuple[float, ...] = DEFAULT_SNR_LIST
    z_list: tuple[int, ...] = tuple(range(1, 51))
    trials: int = 100
    alpha: float = DEFAULT_ALPHA
    base_seed: int = 0
    max_edges: int = 300
    # wall-clock allowance per cell; pathological low-SNR cells get cut off
    cell_budget_s: float | None = None

    def __post_init__(self):
        # each message names the fields it is about, so the CLI can name flags;
        # a one-shot iterator is kept as a tuple before any check uses it up
        for name in ("families", "snr_list", "z_list"):
            value = getattr(self, name)
            try:
                value = tuple(value)
            except TypeError:
                raise InvalidArgument(f"{name} must be an iterable, got {value!r}") from None
            if not value:
                raise InvalidArgument(f"{name} must be nonempty")
            object.__setattr__(self, name, value)
        for family in self.families:
            if family not in FAMILIES:
                raise InvalidArgument(f"unknown family {family!r} in families")
        for name in ("trials", "networks_per_family", "max_edges"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("trials", "networks_per_family"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1, got {getattr(self, name)}")
        # a value no trial can use fails here, not after the CSV header is out
        for snr in self.snr_list:
            SnrSetting(snr)
        object.__setattr__(self, "z_list", tuple(_integer("z_list", z) for z in self.z_list))
        if min(self.z_list) < 1:
            raise InvalidArgument(f"z_list values must be >= 1, got {min(self.z_list)}")
        _check_alpha(self.alpha)
        _check_seed("base_seed", self.base_seed)
        if self.cell_budget_s is not None:
            object.__setattr__(self, "cell_budget_s", _real("cell_budget_s", self.cell_budget_s))
            if not (math.isfinite(self.cell_budget_s) and self.cell_budget_s > 0):
                raise InvalidArgument(
                    f"cell_budget_s must be a finite number > 0, got {self.cell_budget_s}"
                )


@dataclass(frozen=True)
class SweepRow:
    family: str
    network_index: int
    edge_count: int
    snr: float
    z: int
    accuracy: float
    trials_done: int
    median_seconds: float
    is_min_z: bool
    aborted: bool = False


def run_trial(
    network: FlowNetwork,
    snr: SnrSetting | float,
    n_s: int,
    flow_seed: int,
    noise_seed: int,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[bool, float]:
    """One seeded draw-and-reconstruct; returns (exact?, seconds).

    Raises:
        InvalidArgument: ``alpha`` outside (0, 1); errors of the trial
            itself count as a miss instead.
    """
    # a trial counts the lane's refusal of alpha as a miss, so check it first
    _check_alpha(alpha)
    # catch_warnings saves and restores the process-wide filter list, so
    # trials must not overlap in one interpreter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = FlowSamplerConfig(n_s=n_s, seed=flow_seed)
        data = sample_flows(network, cfg, allow_undersampled=True)
        noisy, model = add_noise(data, snr, seed=noise_seed)
        start = time.perf_counter()
        try:
            result = reconstruct_noisy(noisy, model, alpha=alpha)
            ok = verify_against_truth(result, network)
        except FlowtopoError:
            ok = False
        return ok, time.perf_counter() - start


def _trials(
    network: FlowNetwork, snr: SnrSetting, z: int, config: SweepConfig, coord: tuple[int, int]
) -> Iterator[tuple[bool, float]]:
    """The cell's trials as (exact?, seconds), each run only when asked for;
    its seeds come from the base seed, ``coord``, z and the trial index."""
    n_s = z * network.edge_count
    for trial in range(config.trials):
        flow_seed, noise_seed = _seeds(config.base_seed, *coord, z, trial)
        yield run_trial(network, snr, n_s, flow_seed, noise_seed, config.alpha)


def _run_cell(
    network: FlowNetwork,
    snr: SnrSetting,
    z: int,
    config: SweepConfig,
    coord: tuple[int, int],
) -> tuple[float, int, float, bool]:
    """Accuracy, completed trials, median seconds, aborted flag."""
    timings: list[float] = []
    hits = 0
    aborted = False
    start = time.perf_counter()
    for ok, secs in _trials(network, snr, z, config, coord):
        hits += ok
        timings.append(secs)
        if (
            config.cell_budget_s is not None
            and time.perf_counter() - start > config.cell_budget_s
            and len(timings) < config.trials
        ):
            aborted = True
            break
    # config.trials >= 1, so at least one trial ran
    return hits / len(timings), len(timings), float(np.median(timings)), aborted


def find_min_z(
    network: FlowNetwork,
    snr: SnrSetting,
    z_list: tuple[int, ...],
    trials: int,
    alpha: float = DEFAULT_ALPHA,
    base_seed: int = 0,
) -> int | None:
    """Scan z ascending; return the first z whose every trial is exact.
    The settings are checked as ``SweepConfig`` checks them."""
    config = SweepConfig(z_list=z_list, trials=trials, alpha=alpha, base_seed=base_seed)
    for z in sorted(config.z_list):
        # all() stops at the first inexact trial
        if all(ok for ok, _ in _trials(network, snr, z, config, (0, 0))):
            return z
    return None


def run_sweep(config: SweepConfig, out_path: str | Path | None = None) -> tuple[SweepRow, ...]:
    """Full protocol: per family, draw networks, scan SNR and z ascending
    with early stop at the first all-exact z; the noise is homoscedastic,
    one shared variance per SNR.  When out_path is given,
    rows stream to the CSV as they finish so an interrupted run leaves a
    usable partial file.  Every network is drawn before the file is
    opened, so a draw that cannot fit (``EmptySpec``) leaves no file."""
    networks = [
        (fam_i, family, net_i, generate_within(family, seed, max_edges=config.max_edges))
        for fam_i, family in enumerate(config.families)
        for net_i in range(config.networks_per_family)
        for seed in _seeds(config.base_seed, fam_i, net_i, count=1)
    ]
    rows: list[SweepRow] = []
    sink = open(out_path, "w", encoding="utf-8", newline="") if out_path else None
    writer = csv.writer(sink) if sink else None
    try:
        if writer:
            writer.writerow(
                ["family", "network", "e", "snr", "z", "accuracy", "trials",
                 "median_seconds", "min_z_flag", "aborted"]
            )
        for fam_i, family, net_i, network in networks:
            for snr_value in config.snr_list:
                snr = SnrSetting(snr_value)
                for z in sorted(config.z_list):
                    acc, done, med, aborted = _run_cell(network, snr, z, config, (fam_i, net_i))
                    is_min = done == config.trials and acc == 1.0
                    row = SweepRow(
                        family=family,
                        network_index=net_i,
                        edge_count=network.edge_count,
                        snr=snr_value,
                        z=z,
                        accuracy=acc,
                        trials_done=done,
                        median_seconds=med,
                        is_min_z=is_min,
                        aborted=aborted,
                    )
                    rows.append(row)
                    if writer:
                        writer.writerow([
                            family, net_i, network.edge_count, f"{snr_value:g}", z,
                            f"{acc:.6f}", done, f"{med:.6g}", int(is_min), int(aborted),
                        ])
                        sink.flush()
                    if is_min:
                        break
    finally:
        if sink:
            sink.close()
    return tuple(rows)


@dataclass(frozen=True)
class ScalingBench:
    sizes: tuple[int, ...]
    m_values: tuple[int, ...]
    stage_seconds: dict[str, tuple[float, ...]] = field(default_factory=dict)
    slope_total: float = math.nan
    slope_alg2_vs_m: float = math.nan
    slope_cutset: float = math.nan


def _timed(fn: Callable[[], Any], min_duration: float = 0.01) -> float:
    """Per-call seconds, looped until the measurement exceeds a floor so
    microsecond stages do not drown in timer noise."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    if once >= min_duration:
        return once
    loops = max(3, int(math.ceil(min_duration / max(once, 1e-7))))
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - start) / loops


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    mask = (np.asarray(x) > 0) & (np.asarray(y) > 0)
    # sizes that share one law count m leave alg2-vs-m no slope to fit
    if np.unique(np.asarray(x)[mask]).size < 2:
        return math.nan
    return float(np.polyfit(np.log(np.asarray(x)[mask]), np.log(np.asarray(y)[mask]), 1)[0])


def run_scaling_bench(
    sizes: tuple[int, ...] = (32, 64, 128, 256),
    repeats: int = 3,
    z: int = 2,
    seed: int = 0,
) -> ScalingBench:
    """Time the exact lane's stages on benchmark networks of exact edge
    counts and fit log-log growth slopes.

    ``cutset`` times ``sink_cutset`` (the Gram matrix, its pivoted Cholesky
    factorization and the canonical cutset), ``alg2`` realization and
    ``total`` the whole ``reconstruct_exact``.
    """
    sizes = tuple(_integer("each of sizes", v) for v in sizes)
    # a repeated size leaves the log-log fit without a slope to find
    if not sizes or sizes[0] < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise InvalidArgument("sizes must be strictly ascending edge counts of at least 2")
    for name, value in (("repeats", repeats), ("z", z)):
        if _integer(name, value) < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {value}")
    _check_seed("seed", seed)
    stage_names = ("cutset", "alg2", "total")
    per_stage: dict[str, list[float]] = {name: [] for name in stage_names}
    m_values: list[int] = []
    for e in sizes:
        network = binary_network_with_edges(e)
        m_values.append(len(network.internal_nodes))
        cfg = FlowSamplerConfig(n_s=z * e, seed=_seeds(seed, e, count=1)[0])
        data = sample_flows(network, cfg, allow_undersampled=z * e <= e)
        canon, _ = sink_cutset(data)
        samples = {name: [] for name in stage_names}
        for _ in range(repeats):
            samples["cutset"].append(_timed(lambda: sink_cutset(data)))
            samples["alg2"].append(_timed(lambda: realize_topology(canon)))
            samples["total"].append(_timed(lambda: reconstruct_exact(data)))
        for name in stage_names:
            per_stage[name].append(float(np.median(samples[name])))
    sizes_arr = np.array(sizes, dtype=float)
    return ScalingBench(
        sizes=tuple(sizes),
        m_values=tuple(m_values),
        stage_seconds={name: tuple(vals) for name, vals in per_stage.items()},
        slope_total=_loglog_slope(sizes_arr, np.array(per_stage["total"])),
        slope_alg2_vs_m=_loglog_slope(
            np.array(m_values, dtype=float), np.array(per_stage["alg2"])
        ),
        slope_cutset=_loglog_slope(sizes_arr, np.array(per_stage["cutset"])),
    )
