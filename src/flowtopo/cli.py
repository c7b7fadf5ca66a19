"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 input/parse problems
or an output file that cannot be written, 3 model-order failures, 4 snap
failures, 5 realization failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable

from . import harness, io
from .errors import (
    EmptySpec,
    FlowtopoError,
    InvalidArgument,
    LabelMismatch,
    NonIntegerCutset,
    NonPositiveFlow,
    NoStableOrder,
    NotArborescence,
    NotPositiveDefinite,
    ParseError,
    RankZero,
    SnapFailure,
)
from .graph_model import to_label_convention
from .noise_pipeline import DEFAULT_ALPHA, NoiseModel, reconstruct
from .nullspace import EXACT_ZERO_TOL, ZERO_TOL_FLOOR
from .realize import to_dot, verify_against_truth
from .synth import (
    FAMILIES,
    FlowSamplerConfig,
    SnrSetting,
    add_noise,
    family_spec,
    generate_arborescence,
    generate_within,
    sample_flows,
)

_EXIT_PARSE = 2
_EXIT_ORDER = 3
_EXIT_SNAP = 4
_EXIT_REALIZE = 5

_ERROR_CODES: tuple[tuple[type, int], ...] = (
    (ParseError, _EXIT_PARSE),
    (EmptySpec, _EXIT_PARSE),
    (NotPositiveDefinite, _EXIT_PARSE),
    (NonPositiveFlow, _EXIT_ORDER),
    (RankZero, _EXIT_ORDER),
    (NoStableOrder, _EXIT_ORDER),
    (NonIntegerCutset, _EXIT_SNAP),
    (SnapFailure, _EXIT_SNAP),
    (NotArborescence, _EXIT_REALIZE),
    (LabelMismatch, _EXIT_REALIZE),
)


def _exit_code(exc: FlowtopoError) -> int:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return _EXIT_PARSE


# per command, library setting -> the flag that sets it; an InvalidArgument
# message names its settings, so the CLI can name the flags
_FLAGS = {
    "generate": {
        "layer_range": "--layers",
        "children_range": "--children",
    },
    "sweep": {
        "z_list": "--z-max",
        "trials": "--trials",
        "networks_per_family": "--networks",
        "cell_budget_s": "--cell-budget",
    },
    "bench": {"sizes": "--sizes"},
    "reconstruct": {"zero_tol": "--zero-tol"},
}


def _message(command: str, exc: FlowtopoError) -> str:
    """The error text, led by the flags behind a rejected setting."""
    if not isinstance(exc, InvalidArgument):
        return str(exc)
    table = _FLAGS.get(command, {})
    flags = [flag for name, flag in table.items() if re.search(rf"\b{name}\b", str(exc))]
    return f"{command}: {', '.join(flags)}: {exc}" if flags else str(exc)


def _level(text: str) -> float:
    """Test level for --alpha: a number strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _positive(kind: type, zero: bool = False) -> Callable[[str], float]:
    """Argument type for a flag that takes a finite ``kind`` value above 0,
    or at 0 too when ``zero`` is set."""
    noun = ("non-negative " if zero else "positive ") + ("integer" if kind is int else "number")

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
            raise argparse.ArgumentTypeError(f"must be a {noun}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    seed = _positive(int, zero=True)
    parser = argparse.ArgumentParser(
        prog="flowtopo",
        description="Reconstruct conserved-network topology from steady-state edge flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a random arborescence network")
    gen.add_argument("--family", choices=FAMILIES, default="binary")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--layers", type=int, nargs=2, metavar=("LO", "HI"))
    gen.add_argument("--children", type=int, nargs=2, metavar=("LO", "HI"))
    gen.add_argument("--max-edges", type=int, help="redraw until the network fits")
    gen.add_argument("--out", type=Path, required=True, help="network JSON path")

    smp = sub.add_parser("sample", help="synthesize flow samples for a network")
    smp.add_argument("--network", type=Path, required=True)
    smp.add_argument("--seed", type=seed, default=0)
    group = smp.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-s", type=_positive(int), help="sample count")
    group.add_argument("--z", type=_positive(int), help="sample count as a multiple of e")
    smp.add_argument("--snr", type=_positive(float), help="add noise at this ratio")
    smp.add_argument(
        "--noise-kind", choices=("homoscedastic", "heteroscedastic"),
        help="noise added with --snr; default homoscedastic",
    )
    smp.add_argument("--out", type=Path, required=True, help="output prefix")

    rec = sub.add_parser("reconstruct", help="infer topology from a sample CSV")
    rec.add_argument("--data", type=Path, required=True)
    source = rec.add_mutually_exclusive_group()
    source.add_argument("--noise", type=Path, help="noise-model JSON")
    source.add_argument("--sigma2", type=_positive(float), help="shared noise variance")
    rec.add_argument("--alpha", type=_level, help=f"noisy-lane test level, default {DEFAULT_ALPHA}")
    rec.add_argument(
        "--zero-tol", type=_positive(float),
        help="exact-lane rank cutoff on |U_kk| / |U_00| of the pivoted Cholesky factor of "
        f"the scaled samples' Gram matrix; default {EXACT_ZERO_TOL:g}, at least "
        f"{ZERO_TOL_FLOOR:g}, below 1",
    )
    rec.add_argument("--transposed", action="store_true")
    rec.add_argument("--allow-undersampled", action="store_true")
    rec.add_argument("--out", type=Path, help="output prefix for JSON + DOT")
    rec.add_argument("--format", choices=("json", "csv", "dot"), default="json")

    ver = sub.add_parser("verify", help="compare a result against a reference network")
    ver.add_argument("--result", type=Path, required=True)
    ver.add_argument("--network", type=Path, required=True)

    swp = sub.add_parser("sweep", help="accuracy sweep over SNR and sample size")
    swp.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    swp.add_argument("--networks", type=int, default=8)
    swp.add_argument(
        "--snr", type=_positive(float), nargs="+", default=list(harness.DEFAULT_SNR_LIST)
    )
    swp.add_argument("--z-max", type=int, default=50)
    swp.add_argument("--trials", type=int, default=100)
    swp.add_argument("--alpha", type=_level, default=DEFAULT_ALPHA)
    swp.add_argument("--seed", type=seed, default=0)
    swp.add_argument("--max-edges", type=int, default=300)
    swp.add_argument("--cell-budget", type=float, help="seconds allowed per cell")
    swp.add_argument("--out", type=Path, required=True, help="sweep CSV path")

    ben = sub.add_parser("bench", help="runtime scaling over edge counts")
    ben.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128, 256])
    ben.add_argument("--repeats", type=_positive(int), default=3)
    ben.add_argument("--z", type=_positive(int), default=2)
    ben.add_argument("--seed", type=seed, default=0)
    ben.add_argument("--out", type=Path, help="bench JSON path")
    return parser


def _cmd_generate(args) -> int:
    ranges = {
        "layer_range": tuple(args.layers) if args.layers else None,
        "children_range": tuple(args.children) if args.children else None,
    }
    if args.max_edges is not None:
        network = generate_within(args.family, args.seed, max_edges=args.max_edges, **ranges)
    else:
        network = generate_arborescence(family_spec(args.family, args.seed, **ranges))
    io.dump_network(network, args.out)
    print(f"{args.family}: {network.edge_count} edges, root {network.node_count}")
    return 0


def _cmd_sample(args) -> int:
    if args.noise_kind is not None and args.snr is None:
        raise ParseError("sample: --noise-kind sets the noise that --snr adds; it needs --snr")
    network = io.load_network(args.network)
    n_s = args.n_s if args.n_s is not None else args.z * network.edge_count
    cfg = FlowSamplerConfig(n_s=n_s, seed=args.seed)
    data = sample_flows(network, cfg, allow_undersampled=True)
    kind = "exact"
    if args.snr is not None:
        snr = SnrSetting(args.snr, args.noise_kind or "homoscedastic")
        data, model = add_noise(data, snr, seed=args.seed + 1)
        io.dump_noise_model(model, args.out.with_suffix(".noise.json"))
        kind = "noisy"
    io.dump_data_csv(data, args.out.with_suffix(".csv"))
    print(f"wrote {n_s} {kind} samples for {network.edge_count} edges")
    return 0


def _cmd_reconstruct(args) -> int:
    # a noise source picks the noisy lane; a flag for the other lane is an error
    noisy = args.noise is not None or args.sigma2 is not None
    source = "--noise" if args.noise is not None else "--sigma2"
    if noisy and args.zero_tol is not None:
        raise ParseError(f"reconstruct: --zero-tol (exact lane) conflicts with {source}")
    if not noisy and args.alpha is not None:
        raise ParseError("reconstruct: --alpha (noisy lane) needs --noise or --sigma2")
    data = io.load_data_csv(
        args.data, transposed=args.transposed, allow_undersampled=args.allow_undersampled
    )
    noise = None
    if args.noise is not None:
        noise = io.load_noise_model(args.noise, data.edge_count)
    elif args.sigma2 is not None:
        noise = NoiseModel.isotropic(args.sigma2, data.edge_count)
    result = reconstruct(data, noise, alpha=args.alpha, zero_tol=args.zero_tol)
    if args.out is not None:
        io.dump_result(result, args.out.with_suffix(".json"))
        args.out.with_suffix(".dot").write_text(to_dot(result) + "\n", encoding="utf-8")
    if args.format == "dot":
        print(to_dot(result))
    elif args.format == "csv":
        for s, t in result.edges:
            print(f"{s},{t}")
    else:
        print(json.dumps(io.result_to_json(result)))
    return 0


def _cmd_verify(args) -> int:
    result = io.load_result(args.result)
    # any 1-based node numbering: relabel to the result's convention
    network = to_label_convention(io.load_network(args.network))
    if verify_against_truth(result, network):
        print("match")
        return 0
    print("mismatch")
    return 1


def _cmd_sweep(args) -> int:
    config = harness.SweepConfig(
        families=tuple(args.families),
        networks_per_family=args.networks,
        snr_list=tuple(args.snr),
        z_list=tuple(range(1, args.z_max + 1)),
        trials=args.trials,
        alpha=args.alpha,
        base_seed=args.seed,
        max_edges=args.max_edges,
        cell_budget_s=args.cell_budget,
    )
    rows = harness.run_sweep(config, out_path=args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    bench = harness.run_scaling_bench(
        sizes=tuple(args.sizes), repeats=args.repeats, z=args.z, seed=args.seed
    )
    if args.out:
        # JSON has no NaN: an undefined slope is written as null
        doc = {
            name: None if isinstance(value, float) and math.isnan(value) else value
            for name, value in dataclasses.asdict(bench).items()
        }
        io.write_json(doc, args.out)
    print(
        f"total slope {bench.slope_total:.2f}, "
        f"alg2-vs-m slope {bench.slope_alg2_vs_m:.2f}, "
        f"cutset slope {bench.slope_cutset:.2f}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FlowtopoError as exc:
        print(f"error: {_message(args.command, exc)}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        # reads raise ParseError, so this is an output file that cannot be written
        print(f"error: {args.command}: cannot write: {exc}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
