"""Random arborescence generation and conserved-flow synthesis.

Networks are grown layer by layer from a single root; the children count
for a layer is drawn once and shared by every parent in that layer, so all
leaves sit in the final layer.  Edges are labeled in generation order,
which gives the ordered-labeling guarantee the realization lane leans on:
every ancestor edge carries a smaller label than its descendants, and sink
edges (final layer) carry the largest labels overall.

Generated networks use the incoming-edge node convention directly: the
node entered by edge i is node i and the root is node e + 1, so a
reconstruction can be compared against the generator output without any
relabeling step.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpec, InvalidArgument, NotArborescence
from .graph_model import FlowNetwork, _integer, _real, _top_down
from .noise_pipeline import NoiseModel
from .nullspace import FlowDataMatrix

# (layer range, children-per-layer range) defaults, sized so typical draws
# stay within a few hundred edges
FAMILY_DEFAULTS = {
    "binary": ((3, 7), (2, 2)),
    "thin_long": ((6, 12), (1, 3)),
    "fat_short": ((2, 3), (8, 20)),
}
# in this order: callers derive seeds from a family's index
FAMILIES = tuple(FAMILY_DEFAULTS)

DEFAULT_MEANS = (100.0, 200.0, 300.0)
DEFAULT_STDS = (10.0, 20.0, 30.0)
# draws generate_within makes before it gives up on the edge budget
MAX_DRAW_ATTEMPTS = 200


def _check_seed(name: str, seed: int) -> None:
    """Refuse a non-integral or negative seed: numpy's seeding rejects
    either untyped, and ``int()`` would truncate a float silently."""
    if _integer(name, seed) < 0:
        raise InvalidArgument(f"{name} must be a non-negative integer, got {seed}")


def _seeds(*parts: int, count: int = 2) -> tuple[int, ...]:
    """``count`` seeds drawn from the integer coordinates ``parts``."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return tuple(int(v) for v in ss.generate_state(count, dtype=np.uint64))


@dataclass(frozen=True)
class ArborescenceSpec:
    family: str
    layer_range: tuple[int, int]
    children_range: tuple[int, int]
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidArgument(f"unknown family {self.family!r}")
        _check_seed("seed", self.seed)
        # each message names its field, so the CLI can name the flag; int()
        # would truncate 2.7 to 2 and take True as 1
        for name in ("layer_range", "children_range"):
            pair = getattr(self, name)
            try:
                low, high = pair
            except (TypeError, ValueError):
                raise InvalidArgument(f"{name} must be a (low, high) pair, got {pair!r}") from None
            low, high = _integer(name, low), _integer(name, high)
            object.__setattr__(self, name, (low, high))
            if low > high:
                raise InvalidArgument(f"{name} must satisfy low <= high, got {(low, high)}")
        if self.children_range[0] < 1:
            raise InvalidArgument("children_range must start at 1 or more children per layer")
        if self.family == "binary" and self.children_range != (2, 2):
            raise InvalidArgument("children_range must be (2, 2) for the binary family")


@dataclass(frozen=True)
class FlowSamplerConfig:
    """Sample count and seed for ``sample_flows``.

    Sink flows follow a fixed Gaussian mixture, component ``k`` with mean
    ``DEFAULT_MEANS[k]`` and standard deviation ``DEFAULT_STDS[k]``.  Each
    sink edge is assigned one component uniformly at random, once per
    network, and keeps it across all samples.
    """

    n_s: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_s", _integer("n_s", self.n_s))
        if self.n_s < 1:
            raise InvalidArgument("n_s must be positive")
        _check_seed("seed", self.seed)


@dataclass(frozen=True)
class SnrSetting:
    """Per-edge signal-variance to noise-variance ratio."""

    snr: float
    kind: str = "homoscedastic"

    def __post_init__(self):
        object.__setattr__(self, "snr", _real("snr", self.snr))
        if not (math.isfinite(self.snr) and self.snr > 0):
            raise InvalidArgument(f"snr must be a finite number > 0, got {self.snr}")
        if self.kind not in ("homoscedastic", "heteroscedastic"):
            raise InvalidArgument(f"unknown noise kind {self.kind!r}")


def family_spec(
    family: str,
    seed: int,
    layer_range: tuple[int, int] | None = None,
    children_range: tuple[int, int] | None = None,
) -> ArborescenceSpec:
    """Spec with family defaults, overridable per range."""
    # an unknown family has no defaults, and the spec refuses it
    default_layers, default_children = FAMILY_DEFAULTS.get(family, (None, None))
    return ArborescenceSpec(
        family=family,
        layer_range=default_layers if layer_range is None else layer_range,
        children_range=default_children if children_range is None else children_range,
        seed=seed,
    )


def _grow(spec: ArborescenceSpec, budget: int | None) -> FlowNetwork | None:
    """The spec's draw, or None once a layer would pass ``budget`` edges."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.layer_range
    layers = int(rng.integers(lo, hi + 1))
    if layers <= 0:
        raise EmptySpec(f"layer range {spec.layer_range} drew {layers} layers")
    clo, chi = spec.children_range
    edges: list[tuple[int, int]] = []
    frontier = [0]  # 0 stands in for the root until e is known
    label = 0
    for _ in range(layers):
        children = int(rng.integers(clo, chi + 1))
        if budget is not None and label + len(frontier) * children > budget:
            return None
        next_frontier = []
        for parent in frontier:
            for _ in range(children):
                label += 1
                edges.append((parent, label))
                next_frontier.append(label)
        frontier = next_frontier
    e = label
    fixed = tuple((e + 1 if s == 0 else s, t) for s, t in edges)
    return FlowNetwork(node_count=e + 1, edges=fixed)


def generate_arborescence(spec: ArborescenceSpec) -> FlowNetwork:
    """Draw one arborescence for the spec; deterministic per seed.

    Raises:
        EmptySpec: the layer range produced zero layers.
    """
    return _grow(spec, budget=None)


def generate_within(
    family: str,
    seed: int,
    max_edges: int = 300,
    layer_range: tuple[int, int] | None = None,
    children_range: tuple[int, int] | None = None,
) -> FlowNetwork:
    """Deterministic rejection sampling: redraw until the network fits the
    edge budget.  A draw is abandoned before it builds the layer that
    would overflow the budget.

    Raises:
        EmptySpec: ``max_edges`` is below the smallest tree the ranges can
            draw (refused before any draw), c + c^2 + ... + c^L edges for
            the least children count c and the least layer count L, 1 at
            least; or no draw fit within ``MAX_DRAW_ATTEMPTS`` attempts.
    """
    _check_seed("seed", seed)
    max_edges = _integer("max_edges", max_edges)
    spec = family_spec(family, seed, layer_range, children_range)
    # c + c^2 + ... + c^L edges, counted to 64 layers at most: past 2^64
    # edges a lower bound is enough
    layers, c = max(spec.layer_range[0], 1), spec.children_range[0]
    smallest = layers if c == 1 else (c ** (min(layers, 64) + 1) - c) // (c - 1)
    if max_edges < smallest:
        raise EmptySpec(
            f"no {family} draw fits within {max_edges} edges: "
            f"every tree these ranges draw has at least {smallest}"
        )
    for attempt in range(MAX_DRAW_ATTEMPTS):
        (draw_seed,) = _seeds(seed, attempt, count=1)
        spec = family_spec(family, draw_seed, layer_range, children_range)
        network = _grow(spec, budget=max_edges)
        if network is not None:
            return network
    raise EmptySpec(
        f"no {family} draw within {max_edges} edges after {MAX_DRAW_ATTEMPTS} attempts"
    )


def binary_network_with_edges(e: int) -> FlowNetwork:
    """Deterministic benchmark network with exactly e edges: the deepest
    full binary tree with at most e edges, labelled breadth first (edges 1
    and 2 leave the source, edge t > 2 enters from the head of edge
    (t - 1) // 2), padded to the exact count by extra sink children on the
    last internal edge, so every ancestor carries a smaller label.  Fewer
    than 6 edges (the smallest full binary tree with a conservation law)
    give one top edge whose head carries the other e - 1 edges as sinks."""
    e = _integer("e", e)
    if e < 2:
        raise InvalidArgument("need at least 2 edges")
    if e < 6:
        return FlowNetwork(e + 1, ((e + 1, 1),) + tuple((1, t) for t in range(2, e + 1)))
    depth = (e + 2).bit_length() - 2
    base = 2 ** (depth + 1) - 2
    # (t - 1) // 2 is 0 for edges 1 and 2, which leave the source e + 1
    edges = [((t - 1) // 2 or e + 1, t) for t in range(1, base + 1)]
    edges += [(base - 2 ** depth, t) for t in range(base + 1, e + 1)]
    return FlowNetwork(e + 1, tuple(edges))


@functools.lru_cache(maxsize=64)
def _sampling_plan(network: FlowNetwork) -> tuple[np.ndarray, tuple] | None:
    """The sink edge indices and the bottom-up sums of ``sample_flows``, or
    None for a non-arborescence.

    The sums come one depth at a time, deepest first, as the indices of the
    internal edges at that depth, of their first child edges and, for
    k = 1, 2, ..., of the k-th child edge of each.  The internal edges are
    sorted by child count, most first, so those with a k-th child are a
    prefix.  The cache hands the same arrays to every call, so they are
    read-only.
    """
    walk = _top_down(network)
    if walk is None:
        return None
    order, children = walk
    depth = [0] * network.edge_count
    by_depth: dict[int, list[list[int]]] = {}
    for idx in order:  # every edge after the edge above it
        below = children.get(network.edges[idx][1])
        if below:
            for child in below:
                depth[child] = depth[idx] + 1
            by_depth.setdefault(depth[idx], []).append([idx, *below])

    def indices(column) -> np.ndarray:
        array = np.array([i for i in column if i is not None], dtype=np.intp)
        array.setflags(write=False)
        return array

    levels = []
    for d in sorted(by_depth, reverse=True):
        group = sorted(by_depth[d], key=len, reverse=True)
        parents, first, *rest = map(indices, itertools.zip_longest(*group))
        levels.append((parents, first, tuple(rest)))
    sinks = indices(idx for idx, (_, dst) in enumerate(network.edges) if dst not in children)
    return sinks, tuple(levels)


def sample_flows(network: FlowNetwork, cfg: FlowSamplerConfig, allow_undersampled: bool = False) -> FlowDataMatrix:
    """Synthesize conserved steady-state samples for an arborescence.

    Sink edges draw from their assigned mixture component; every other
    edge is the sum of its child edges' rows, added in label order, so the
    conservation equations hold to float addition error.

    The plan of those sums is a function of the network alone, a frozen
    value, so it is built once per network and kept in a small cache: a
    sweep samples each network many times.  The samples are finite by
    construction, so the matrix skips ``FlowDataMatrix``'s array check;
    its sample-count rule still applies.

    Raises:
        NotArborescence: the network is not an arborescence.
    """
    plan = _sampling_plan(network)
    if plan is None:
        raise NotArborescence("flow sampling requires an arborescence")
    sinks, levels = plan
    rng = np.random.default_rng(cfg.seed)
    components = rng.integers(0, len(DEFAULT_MEANS), size=len(sinks))

    data = np.empty((network.edge_count, cfg.n_s), dtype=np.float64)
    # what Generator.normal computes per entry, loc + scale * z, from the
    # same stream of standard normals
    draws = rng.standard_normal((len(sinks), cfg.n_s))
    draws *= np.asarray(DEFAULT_STDS)[components, None]
    draws += np.asarray(DEFAULT_MEANS)[components, None]
    data[sinks] = draws

    # bottom-up, a depth at a time: each internal edge's row is its first
    # child's, plus each further child's in label order
    for parents, first, rest in levels:
        rows = data[first]
        for kth in rest:
            rows[: len(kth)] += data[kth]
        data[parents] = rows

    return FlowDataMatrix._finite_by_construction(data, allow_undersampled)


def add_noise(
    data: FlowDataMatrix, snr: SnrSetting | float, seed: int
) -> tuple[FlowDataMatrix, NoiseModel]:
    """Add zero-mean Gaussian noise at the requested signal-to-noise ratio.

    Homoscedastic mode shares one variance, the mean per-edge signal
    variance divided by snr; heteroscedastic mode scales each edge's own
    variance.  Returns the exact model used, for downstream whitening.  A
    bare number is a homoscedastic ``SnrSetting``.

    One e x n_s buffer holds the deviations behind the signal variance,
    then the noise, then the noisy samples: the standard normals are drawn
    into it and scaled and added in place, the bits of
    ``rng.normal(0, sigma)`` plus the samples.  The caller's samples could
    be large enough to overflow, so the result keeps ``FlowDataMatrix``'s
    finiteness check.
    """
    _check_seed("seed", seed)
    if not isinstance(snr, SnrSetting):
        snr = SnrSetting(snr)
    rng = np.random.default_rng(seed)
    # np.var(ddof=1)'s own operations, without its dispatch
    y, n = data.entries, data.sample_count
    buffer = y - y.sum(axis=1, keepdims=True) / n
    buffer *= buffer
    signal_var = buffer.sum(axis=1) / (n - 1)
    if np.all(signal_var <= 0):
        raise InvalidArgument("signal variance is zero on every edge")
    if snr.kind == "homoscedastic":
        sigma2 = float(signal_var.mean()) / snr.snr
        model = NoiseModel.isotropic(sigma2, data.edge_count)
        scale = np.sqrt(sigma2)
    else:
        per_edge = np.maximum(signal_var, 1e-12 * signal_var.max()) / snr.snr
        model = NoiseModel.per_edge(per_edge)
        scale = np.sqrt(per_edge)[:, None]
    # Generator.normal(0, scale) draws 0 + scale * z from the same stream
    rng.standard_normal(out=buffer)
    buffer *= scale
    buffer += y
    return FlowDataMatrix(buffer, allow_undersampled=data.allow_undersampled), model
