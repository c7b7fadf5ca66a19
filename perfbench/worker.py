"""Run one workload in this process and print its measurements as one JSON
line.

run.py starts this script in a fresh process with the BLAS thread count
pinned in the environment, so numpy is first imported under the pin.  With
``--setup-only`` the script stops as soon as its input pool is ready, which
lets run.py time the set-up several times.

Measurement is closed-loop with one caller: ops run back to back in whole
passes over the pool until the time is up.  Only the op is timed; checking
its answer against the ground truth happens outside the timed region.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
import traceback
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import flowtopo as ft

from tracing import Tracer
from workloads import WORKLOADS, pool_digest

WARMUP_OPS = 3


def blas_threads() -> dict[str, int]:
    """Thread count each bundled OpenBLAS reports, confirming the pin."""
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in symbols:
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = int(fn())
                    break
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads_reported": blas_threads(),
    }


def run_op(workload, case, reported: set[str], tracer: Tracer | None) -> tuple[float, str]:
    """Seconds the op took and its outcome: ``recovered``, ``wrong``,
    ``error:<class>`` for a FlowtopoError, ``untyped:<class>`` otherwise.

    The first untyped exception of each class has its traceback printed to
    stderr and its class added to ``reported``.
    """
    if tracer is not None:
        tracer.timed = True
    start = time.perf_counter()
    try:
        result = workload.run(case)
    except ft.FlowtopoError as exc:
        return time.perf_counter() - start, f"error:{type(exc).__name__}"
    except Exception as exc:  # counted as a defect; the run goes on
        elapsed = time.perf_counter() - start
        name = type(exc).__name__
        if name not in reported:
            reported.add(name)
            traceback.print_exception(exc, file=sys.stderr)
        return elapsed, f"untyped:{name}"
    finally:
        if tracer is not None:
            tracer.timed = False
    elapsed = time.perf_counter() - start
    try:
        ok = ft.verify_against_truth(result, case.network)
    except ft.LabelMismatch:
        ok = False
    return elapsed, "recovered" if ok else "wrong"


def measure(workload, pool, seconds: float, reported: set[str],
            tracer: Tracer | None = None) -> tuple[list[list[float]], Counter]:
    """Whole passes over the pool, stopping when the next pass would end
    more than half a pass past ``seconds``.  At least one pass runs."""
    passes: list[list[float]] = []
    outcomes: Counter = Counter()
    start = time.perf_counter()
    while True:
        latencies = []
        for index, case in enumerate(pool):
            if tracer is not None:
                tracer.current_pass, tracer.current_op = len(passes), index
            elapsed, outcome = run_op(workload, case, reported, tracer)
            latencies.append(elapsed)
            outcomes[outcome] += 1
        passes.append(latencies)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) / 2 > seconds:
            return passes, outcomes


def best_of_passes(passes: list[list[float]]) -> np.ndarray:
    """Each op's fastest time over the passes.

    Contention from other tenants of a shared machine slows whole stretches
    of a run by up to about half; the best of several passes measures what
    the code costs rather than how busy the machine was.
    """
    return np.min(np.array(passes), axis=0)


def ops_per_s(passes: list[list[float]]) -> float:
    """Pool size over the summed best-of-passes op times."""
    return len(passes[0]) / float(best_of_passes(passes).sum())


def summarize(passes: list[list[float]], outcomes: Counter) -> dict:
    best_ms = 1e3 * best_of_passes(passes)
    attempted = len(passes) * best_ms.size
    p50, p90 = np.percentile(best_ms, [50, 90])

    def share(prefix: str) -> float:
        return sum(n for key, n in outcomes.items() if key.startswith(prefix)) / attempted

    return {
        "passes": len(passes),
        "pass_seconds": [sum(latencies) for latencies in passes],
        "attempted": attempted,
        "outcomes": dict(sorted(outcomes.items())),
        "metrics": {
            "setup_s": None,  # filled in by run.py, which sees the process start
            "ops_per_s": ops_per_s(passes),
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "recovered_frac": share("recovered"),
            "wrong_frac": share("wrong"),
            "error_frac": share("error:"),
            "untyped_error_frac": share("untyped:"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "latency_samples": best_ms.size,
        "samples_beyond_p90": int((best_ms > p90).sum()),
    }


def peak_allocations(workload, pool, reported: set[str]) -> dict[str, float]:
    """tracemalloc peaks from one op on the largest input of each family.

    tracemalloc slows every Python allocation several times over, so it runs
    apart from the timed passes, on the inputs that set the peak.
    """
    largest = {}
    for case in pool:
        if case.family not in largest or case.cells > largest[case.family].cells:
            largest[case.family] = case
    tracer = Tracer(peak_alloc=True)
    tracer.install()
    tracemalloc.start()
    try:
        for case in largest.values():
            run_op(workload, case, reported, tracer)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return tracer.peak_alloc_mb()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest pools, for the smoke test")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    # undersampled sweep cells warn on every call; the warnings are not measured
    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload]
    pool = workload.build(args.seed, args.tiny)
    ready = time.monotonic()
    out = {"ready": ready, "digest": pool_digest(pool), "pool_size": len(pool)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    reported: set[str] = set()
    for case in pool[:WARMUP_OPS]:
        run_op(workload, case, reported, None)

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    passes, outcomes = measure(workload, pool, untraced_s, reported)
    out.update(summarize(passes, outcomes))
    out["environment"] = environment()

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = measure(workload, pool, args.seconds / 2, reported, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.per_layer([sum(p) for p in traced])
        layers.update(peak_allocations(workload, pool, reported))
        layers["trace.ops_per_s_untraced"] = out["metrics"]["ops_per_s"]
        layers["trace.ops_per_s_traced"] = ops_per_s(traced)
        out["per_layer"] = layers
        out["traced_passes"] = len(traced)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
