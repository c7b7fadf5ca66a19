"""Layered benchmark of flowtopo's two reconstruction lanes.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --workload exact_corpus --seed 3 --seconds 30 --trace 1

Each workload runs in fresh processes started from this script, with the
BLAS thread count pinned in their environment.  flowtopo is imported from
``src/`` of the checkout this script sits in; nothing is installed.

Set-up time is taken ``SETUP_REPEATS`` times, from process start to the
input pool being ready, and reported as the median.  The last of those
processes goes on to measure.  The script prints a table of every metric
with its unit, writes a results file with the environment under
``.perfbench_out/``, and prints as its last line one JSON object: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  It exits
non-zero, without that line, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the seed of the recorded baseline; re-check any claim on another seed too
DEFAULT_SEED = 0
SETUP_REPEATS = 3
BLAS_THREADS = 1  # one closed-loop caller; at most nproc = 2 on the reference box
# a run must end within 180 s; a worker still running at this point is killed
RUN_DEADLINE_S = 175
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# printed with the end-to-end metrics but not bounded: the latency
# percentiles swing with load from other tenants by more than any allowed
# bound, and the rest are 0 whenever the code is right (wrong_frac,
# untyped_error_frac) or on some workload (error_frac)
EXTRA_METRICS = (("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
                 ("wrong_frac", "fraction"), ("error_frac", "fraction"),
                 ("untyped_error_frac", "fraction"))
COVERAGE_TOLERANCE = 0.10


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, return its set-up time and its JSON line.

    ``subprocess.run`` kills the worker at the deadline and waits for it.
    """
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    out = json.loads(lines[-1])
    return out["ready"] - started, out


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS - 1):
        setup_s, out = run_child([*common, "--seconds", "0", "--setup-only"], deadline)
        setups.append(setup_s)
        digests.add(out["digest"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    spans = OUT_DIR / f"spans-{stem}.json"
    setup_s, out = run_child([*common, "--seconds", str(seconds), "--trace", str(trace),
                              "--spans", str(spans)], deadline)
    setups.append(setup_s)
    digests.add(out["digest"])
    out["metrics"]["setup_s"] = statistics.median(setups)
    out["setup_samples_s"] = setups
    out["environment"].update({
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    })

    problems = []
    if len(digests) != 1:
        problems.append("the same seed gave different inputs in different processes")
    metrics = out["metrics"]
    if name == "exact_corpus" and metrics["recovered_frac"] < 1:
        problems.append("exact_corpus did not recover every network")
    if metrics["wrong_frac"] > 0:
        problems.append("some ops returned a wrong topology")
    if metrics["untyped_error_frac"] > 0:
        problems.append("some ops raised an exception that is not a FlowtopoError")
    if trace and abs(out["per_layer"]["trace.self_time_coverage"] - 1) > COVERAGE_TOLERANCE:
        problems.append("per-layer self times do not sum to within 10% of op wall time")
    out["problems"] = problems
    # a typed refusal is a correct answer in the noisy lanes, not on exact data
    out["failed"] = sum(n for key, n in out["outcomes"].items()
                        if key == "wrong" or key.startswith("untyped:")
                        or (name == "exact_corpus" and key != "recovered"))
    out.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(out, indent=1) + "\n")
    return out


def print_table(out: dict) -> None:
    metrics = out["metrics"]
    print(f"== {out['workload']}  seed {out['seed']}  "
          f"({out['passes']} passes over {out['pool_size']} inputs)")
    units = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + list(EXTRA_METRICS)
    for name, unit in units:
        print(f"  {name:<24} {metrics[name]:>14.6g} {unit}")
    print(f"  {'latency_samples':<24} {out['latency_samples']:>14d} count "
          f"(inputs, each its best of {out['passes']} passes; "
          f"{out['samples_beyond_p90']} beyond p90)")
    print(f"  outcomes: {out['outcomes']}")
    for name in sorted(out.get("per_layer", {})):
        unit = next(m["unit"] for m in SPEC["per_layer"] if m["name"] == name)
        print(f"  {name:<52} {out['per_layer'][name]:>14.6g} {unit}")
    for problem in out["problems"]:
        print(f"  FAILED CHECK: {problem}")


def result_line(out: dict) -> dict:
    kind = "per_layer" if out["trace"] else "end_to_end"
    values = out["per_layer"] if out["trace"] else out["metrics"]
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in SPEC[kind]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest pools, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowtopo" / "__init__.py").is_file():
        print(f"flowtopo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        print_table(out)
        lines[name] = result_line(out)
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
