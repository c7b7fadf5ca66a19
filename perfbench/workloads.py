"""Workloads: the input pool each one draws from a seed, and the operation
it times.

A workload draws its pool once, during set-up, and is then measured in
whole passes over that pool.  Every pass therefore does the same work, and
for a given seed its outcome counts repeat exactly, whatever the speed of
the code under test.

Pools are stratified by edge count: each family contributes networks whose
edge counts sit as close as the seeded draws allow to fixed targets.
Operation cost grows steeply with edge count, so a plain random pool would
let the seed, not the code, move the timings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import flowtopo as ft

# seed streams, so that no two kinds of draw share a seed
REFERENCE_STREAM, NETWORK_STREAM, FLOW_STREAM, NOISE_STREAM = 0, 1, 2, 3
# seeds the draw that fixes the edge-count targets of every pool
REFERENCE_SEED = 0

# draws per kept network in a stratified pick
DRAWS_PER_PICK = 5
# the fat_short defaults (8-20 children) cannot fit the small noisy networks
SMALL_FAT_SHORT_CHILDREN = (3, 7)

SWEEP_Z = (2, 5, 10, 20)
SWEEP_SNR = (100.0, 10.0)


def derive_seed(seed: int, *coords: int) -> int:
    """Generator or sampler seed for one draw, from the workload seed."""
    state = np.random.SeedSequence([int(seed), *(int(c) for c in coords)])
    return int(state.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class Case:
    """One operation's input and the ground truth it must recover.

    Exact and noisy cases carry pre-sampled data.  Sweep cases carry the
    sampling coordinates instead, because sampling is part of their op.
    """

    family: str
    network: ft.FlowNetwork
    data: ft.FlowDataMatrix | None = None
    noise: ft.NoiseModel | None = None
    z: int = 0
    snr: float = 0.0
    flow_seed: int = 0
    noise_seed: int = 0

    @property
    def cells(self) -> int:
        """Entries of the sample matrix the op works on."""
        e = self.network.edge_count
        return self.data.entries.size if self.data is not None else e * self.z * e


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list[Case]]
    run: Callable[[Case], ft.ReconstructionResult]


def _draws(family: str, seed: int, stream: int, count: int, max_edges: int,
           min_edges: int, children_range: tuple[int, int] | None) -> list[ft.FlowNetwork]:
    family_index = ft.synth.FAMILIES.index(family)
    draws: list[ft.FlowNetwork] = []
    attempt = 0
    while len(draws) < count:
        net = ft.generate_within(
            family,
            derive_seed(seed, stream, family_index, attempt),
            max_edges=max_edges,
            children_range=children_range,
        )
        attempt += 1
        if net.edge_count >= min_edges:
            draws.append(net)
    return draws


def stratified_networks(
    family: str,
    seed: int,
    count: int,
    max_edges: int,
    min_edges: int = 1,
    children_range: tuple[int, int] | None = None,
) -> list[ft.FlowNetwork]:
    """``count`` seeded networks, one per edge-count target.

    The targets are evenly spaced quantiles of the edge counts in a draw
    made with a fixed seed, so they are the same for every workload seed.
    Each target takes the unused seeded draw with the nearest edge count.
    """
    bounds = (max_edges, min_edges, children_range)
    reference = sorted(net.edge_count for net in
                       _draws(family, REFERENCE_SEED, REFERENCE_STREAM, DRAWS_PER_PICK * count, *bounds))
    n = len(reference)
    targets = [reference[(2 * j + 1) * n // (2 * count)] for j in range(count)]
    unused = _draws(family, seed, NETWORK_STREAM, DRAWS_PER_PICK * count, *bounds)
    picks = []
    for target in targets:
        best = min(range(len(unused)), key=lambda i: abs(unused[i].edge_count - target))
        picks.append(unused.pop(best))
    return picks


def _sampled(net: ft.FlowNetwork, z: int, seed: int, index: int) -> ft.FlowDataMatrix:
    cfg = ft.FlowSamplerConfig(n_s=z * net.edge_count, seed=derive_seed(seed, FLOW_STREAM, index))
    return ft.sample_flows(net, cfg)


def build_exact_corpus(seed: int, tiny: bool) -> list[Case]:
    per_family, max_edges = (1, 100) if tiny else (17, 300)
    cases = []
    for family in ft.synth.FAMILIES:
        for net in stratified_networks(family, seed, per_family, max_edges):
            cases.append(Case(family, net, data=_sampled(net, 2, seed, len(cases))))
    return cases


def build_noisy_meters(seed: int, tiny: bool) -> list[Case]:
    per_family, max_edges = (1, 30) if tiny else (8, 64)
    cases = []
    for family in ft.synth.FAMILIES:
        children = SMALL_FAT_SHORT_CHILDREN if family == "fat_short" else None
        for net in stratified_networks(
            family, seed, per_family, max_edges, min_edges=12, children_range=children
        ):
            index = len(cases)
            noisy, model = ft.add_noise(
                _sampled(net, 50, seed, index),
                ft.SnrSetting(100.0),
                seed=derive_seed(seed, NOISE_STREAM, index),
            )
            cases.append(Case(family, net, data=noisy, noise=model))
    return cases


def build_sweep_scan(seed: int, tiny: bool) -> list[Case]:
    per_family, trials = (1, 1) if tiny else (4, 4)
    cases = []
    for family_index, family in enumerate(ft.synth.FAMILIES):
        children = SMALL_FAT_SHORT_CHILDREN if family == "fat_short" else None
        nets = stratified_networks(family, seed, per_family, 40, children_range=children)
        for net_index, net in enumerate(nets):
            for z in SWEEP_Z:
                for trial in range(trials):
                    # like the harness, the SNR is left out of the seeds, so
                    # the two SNR levels see the same draws
                    coords = (family_index, net_index, z, trial)
                    for snr in SWEEP_SNR:
                        cases.append(
                            Case(
                                family,
                                net,
                                z=z,
                                snr=snr,
                                flow_seed=derive_seed(seed, FLOW_STREAM, *coords),
                                noise_seed=derive_seed(seed, NOISE_STREAM, *coords),
                            )
                        )
    return cases


# The ops look flowtopo's functions up on the package at call time, so the
# traced run's wrappers see them.
def run_exact(case: Case) -> ft.ReconstructionResult:
    return ft.reconstruct_exact(case.data)


def run_noisy(case: Case) -> ft.ReconstructionResult:
    return ft.reconstruct_noisy(case.data, case.noise)


def run_sweep_trial(case: Case) -> ft.ReconstructionResult:
    """The per-trial path of ``harness.run_trial``: sample, add noise,
    reconstruct."""
    cfg = ft.FlowSamplerConfig(n_s=case.z * case.network.edge_count, seed=case.flow_seed)
    data = ft.sample_flows(case.network, cfg, allow_undersampled=True)
    noisy, model = ft.add_noise(data, ft.SnrSetting(case.snr), seed=case.noise_seed)
    return ft.reconstruct_noisy(noisy, model)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("exact_corpus", build_exact_corpus, run_exact),
        Workload("noisy_meters", build_noisy_meters, run_noisy),
        Workload("sweep_scan", build_sweep_scan, run_sweep_trial),
    )
}


def pool_digest(cases: list[Case]) -> str:
    """Hash of every input in the pool, to check that a seed reproduces it."""
    h = hashlib.sha256()
    for case in cases:
        h.update(repr((case.family, case.network.edges, case.z, case.snr,
                       case.flow_seed, case.noise_seed)).encode())
        if case.data is not None:
            h.update(case.data.entries.tobytes())
        if case.noise is not None:
            h.update(case.noise.covariance.tobytes())
    return h.hexdigest()
