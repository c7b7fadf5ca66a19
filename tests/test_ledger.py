"""The outcome ledger: the same answers on frozen inputs.

``outcome_ledger.txt`` records one outcome per reconstruction for every op
of perfbench's three pools at seeds 0 and 7, and for criterion 6's 200
noisy reconstructions on the acceptance seeds.  An outcome is ``ok:`` with
a short hash of the edges in emitted order and the chain groups, ``wrong``
for a tree that differs from the truth, or the class of the
``FlowtopoError`` raised.  Only discrete outcomes are kept: float bits and
messages that print floats can move in the last digit with the BLAS build.

The pools are built by ``perfbench/workloads.py`` itself, loaded by path,
and each pool's ``pool_digest`` is recorded with it, so the ledger covers
exactly the inputs perfbench times.  A wrong tree fails the test whatever
the ledger says, so one can never be recorded as expected.

A change that moves outcomes on purpose rewrites the ledger, from the
repository root, with

    PYTHONPATH=src python tests/test_ledger.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

# one BLAS thread, as the suite runs, before numpy loads when run as a script
import conftest  # noqa: F401
import flowtopo as ft

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("outcome_ledger.txt")
POOL_SEEDS = (0, 7)
POOLS = ("exact_corpus", "noisy_meters", "sweep_scan")
CRITERION_6_SNRS = (100.0, 5.0)


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def outcome(run, truth: ft.FlowNetwork) -> str:
    """One reconstruction's ledger entry."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run()
    except ft.FlowtopoError as exc:
        return type(exc).__name__
    if not ft.verify_against_truth(result, truth):
        return "wrong"
    key = repr((result.edges, result.diagnostics["chain_groups"]))
    return "ok:" + hashlib.sha256(key.encode()).hexdigest()[:12]


def pool_outcomes(pool: str, seed: int) -> tuple[str, list[str]]:
    """The pool's digest and the outcome of each of its ops, in pool order."""
    workloads = _workloads()
    workload = workloads.WORKLOADS[pool]
    cases = workload.build(seed, False)
    return workloads.pool_digest(cases), [
        outcome(lambda: workload.run(case), case.network) for case in cases
    ]


def criterion_6_outcomes(snr: float) -> list[str]:
    """Criterion 6's 100 reconstructions at one SNR, on its seeds."""
    from test_acceptance import NOISY_FLOW_SEED, NOISY_NET_SPEC, NOISY_NOISE_SEED

    net = ft.generate_arborescence(NOISY_NET_SPEC)
    rows = []
    for trial in range(100):
        cfg = ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=NOISY_FLOW_SEED + trial)
        noisy, model = ft.add_noise(
            ft.sample_flows(net, cfg), ft.SnrSetting(snr), seed=NOISY_NOISE_SEED + trial
        )
        rows.append(outcome(lambda: ft.reconstruct_noisy(noisy, model), net))
    return rows


def sources() -> list[str]:
    return [f"{pool}/{seed}" for pool in POOLS for seed in POOL_SEEDS] + [
        f"criterion_6/snr{snr:g}" for snr in CRITERION_6_SNRS
    ]


def outcomes_of(source: str) -> tuple[str | None, list[str]]:
    """The digest (None for criterion 6) and the outcomes of one source."""
    name, _, arg = source.partition("/")
    if name == "criterion_6":
        return None, criterion_6_outcomes(float(arg.removeprefix("snr")))
    return pool_outcomes(name, int(arg))


def read_ledger() -> dict[str, list]:
    """Source -> (digest, outcomes by op index)."""
    ledger: dict[str, list] = {}
    for line in LEDGER.read_text().splitlines():
        if line.startswith("#"):
            continue
        source, index, value = line.split()
        entry = ledger.setdefault(source, [None, []])
        if index == "digest":
            entry[0] = value
        else:
            entry[1].append(value)
    return ledger


def write_ledger() -> None:
    lines = [
        "# source index outcome; rewrite with: PYTHONPATH=src python tests/test_ledger.py",
    ]
    for source in sources():
        digest, rows = outcomes_of(source)
        if digest is not None:
            lines.append(f"{source} digest {digest}")
        lines += [f"{source} {i} {row}" for i, row in enumerate(rows)]
    LEDGER.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("source", sources())
def test_outcomes_match_the_ledger(source):
    want_digest, want = read_ledger()[source]
    digest, got = outcomes_of(source)
    assert digest == want_digest, f"{source}: the pool's inputs changed (pool_digest)"
    wrong = [i for i, row in enumerate(got) if row == "wrong"]
    assert not wrong, f"{source}: ops {wrong} returned a wrong tree"
    assert len(got) == len(want)
    moved = [i for i, (old, new) in enumerate(zip(want, got)) if old != new]
    counts = Counter(f"{want[i].partition(':')[0]} -> {got[i].partition(':')[0]}" for i in moved)
    assert not moved, f"{source}: ops {moved} moved, by old -> new outcome: {dict(counts)}"


if __name__ == "__main__":
    write_ledger()
