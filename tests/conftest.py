"""Shared fixtures and independent oracles.

The oracles in this module recompute structural facts (descendant sinks,
ancestor chains, conservation residuals) by direct traversal of an edge
list, so tests can compare pipeline output against code that shares none
of its linear-algebra machinery.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import flowtopo as ft

# Measured flows for the eight-edge demonstration network: one row per
# edge 1..8, ten samples each, quantized to three decimals.
DEMO_TABLE = np.array([
    [49.697, 48.544, 50.089, 51.141, 51.021, 50.295, 46.709, 57.293, 48.351, 54.665],
    [31.221, 30.750, 28.302, 32.230, 28.874, 27.453, 28.401, 32.244, 29.580, 33.775],
    [8.327, 9.849, 7.587, 13.217, 8.144, 6.638, 8.898, 12.890, 10.402, 13.158],
    [10.899, 10.413, 10.858, 10.431, 10.385, 11.147, 10.298, 10.437, 9.114, 12.606],
    [11.995, 10.487, 9.857, 8.582, 10.345, 9.668, 9.205, 8.917, 10.063, 8.011],
    [18.476, 17.794, 21.787, 18.911, 22.147, 22.842, 18.307, 25.049, 18.771, 20.890],
    [8.156, 9.529, 13.673, 10.566, 10.904, 9.733, 7.306, 12.143, 10.319, 12.834],
    [10.320, 8.266, 8.114, 8.345, 11.243, 13.109, 11.001, 12.906, 8.452, 8.056],
])

# Quantization to three decimals leaves conservation residuals around 1e-3,
# far above the noise-free default, so the demonstration data needs this
# looser rank cutoff.
DEMO_ZERO_TOL = 1e-4

# Ground truth for the demonstration data in incoming-edge labeling: node i
# is the node entered by edge i, the root is e + 1 = 9.
DEMO_EDGES = frozenset({
    (9, 1), (1, 2), (1, 6), (2, 3), (2, 4), (2, 5), (6, 7), (6, 8),
})

# Reduced form on dependent edges (2, 5, 6), frozen from the hand-checked
# run; chord order (1, 3, 4, 7, 8).
DEMO_REDUCED = np.array([
    [1, 0, 0, -1, 0, 0, 1, 1],
    [0, 1, 0, -1, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 0, -1, -1],
])

# Canonical form: branches (1, 2, 6), chords (5, 3, 4, 7, 8).
DEMO_CANONICAL = np.array([
    [1, 0, 0, -1, -1, -1, -1, -1],
    [0, 1, 0, -1, -1, -1, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, -1],
])


@pytest.fixture
def demo_flows() -> ft.FlowDataMatrix:
    return ft.FlowDataMatrix(DEMO_TABLE.copy())


@pytest.fixture
def demo_truth() -> ft.FlowNetwork:
    edges = tuple(sorted(DEMO_EDGES, key=lambda st: st[1]))
    return ft.FlowNetwork(9, edges)


@pytest.fixture
def star_network() -> ft.FlowNetwork:
    # one feed, one junction, two outlets
    return ft.FlowNetwork(4, ((2, 1), (1, 3), (1, 4)))


@pytest.fixture
def mesh_network() -> ft.FlowNetwork:
    # non-tree conserved network: two feeds, two outlets, four junctions
    return ft.FlowNetwork(
        8,
        ((1, 4), (2, 6), (3, 4), (2, 3), (7, 1), (5, 1), (5, 2), (8, 3), (8, 5)),
    )


def children_map(network: ft.FlowNetwork) -> dict[int, list[int]]:
    """Node id -> labels of edges leaving it, in label order."""
    out: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(network.edges):
        out.setdefault(s, []).append(i + 1)
    return out


def descendant_sink_labels(network: ft.FlowNetwork, label: int) -> set[int]:
    """Sink-edge labels in the subtree hanging off the given edge.

    The edge's own label is included when it enters a childless node.
    Pure stack traversal of the edge list.
    """
    by_source = children_map(network)
    _, head = network.edges[label - 1]
    if not by_source.get(head):
        return {label}
    out: set[int] = set()
    stack = list(by_source[head])
    while stack:
        lab = stack.pop()
        _, node = network.edges[lab - 1]
        kids = by_source.get(node, [])
        if kids:
            stack.extend(kids)
        else:
            out.add(lab)
    return out


def ancestor_labels(network: ft.FlowNetwork, label: int) -> set[int]:
    """Labels of edges strictly above the given edge on its root path."""
    enters = {t: i + 1 for i, (_, t) in enumerate(network.edges)}
    src, _ = network.edges[label - 1]
    out: set[int] = set()
    while src in enters:
        lab = enters[src]
        out.add(lab)
        src, _ = network.edges[lab - 1]
    return out


def conservation_residual(network: ft.FlowNetwork, samples: np.ndarray) -> float:
    """Worst node imbalance over internal nodes, straight from the edge list."""
    samples = np.atleast_2d(samples)
    worst = 0.0
    for v in network.internal_nodes:
        inflow = sum(samples[i] for i, (_, t) in enumerate(network.edges) if t == v)
        outflow = sum(samples[i] for i, (s, _) in enumerate(network.edges) if s == v)
        worst = max(worst, float(np.max(np.abs(inflow - outflow))))
    return worst


def nonsingular_partitions(basis: ft.NullBasis) -> list[tuple[int, ...]]:
    """Every m-subset of columns whose submatrix is comfortably invertible
    (1-based labels).  Brute force; only for small test networks.

    The condition cap matters: the reference table is quantized to three
    decimals, and a near-singular dependent block amplifies that rounding
    noise past any snap band.  On the reference data conditions split
    cleanly below 3 or above 50.
    """
    b = basis.basis
    m, e = b.shape
    out = []
    for cols in itertools.combinations(range(e), m):
        sub = b[:, list(cols)]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[-1] > 0.0 and sv[0] / sv[-1] <= 50.0:
            out.append(tuple(c + 1 for c in cols))
    return out


def staged_cutset(basis: ft.NullBasis) -> ft.CutsetMatrix:
    """The staged route's ``[I | R]``: the basis reduced on its pivoted-QR
    partition, before any chord-branch interchange."""
    return ft.to_fcutset_form(basis, ft.find_valid_partition(basis))


def chord_set_of_row(canon: ft.CanonicalCutsetMatrix, row: int) -> set[int]:
    """Chord labels carried (entry -1) by one branch row."""
    m = len(canon.branch_edges)
    cols = np.flatnonzero(canon.entries[row, m:] == -1)
    return {canon.chord_edges[j] for j in cols}
