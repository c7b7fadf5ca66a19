"""Smoke test of the benchmark itself.

Runs every workload at its tiny size, untraced and traced, and checks that
the last line names every metric of BENCHMARK.json with its unit, that the
table shows all nine end-to-end metrics, and that every check passed.  Then
checks that the benchmark refuses to run without the flowtopo sources.

    python3 perfbench/smoke.py

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TABLE_METRICS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "recovered_frac",
                 "wrong_frac", "error_frac", "untyped_error_frac", "peak_rss_mb")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, stdout=subprocess.PIPE, text=True, timeout=180)


def check_workload(name: str, trace: int) -> None:
    proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    check(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{name} trace {trace}: a check failed")
    check(result["attempted"] >= 1, f"{name}: nothing attempted")
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {key: value["unit"] for key, value in result["metrics"].items()}
    check(got == expected, f"{name} trace {trace}: metrics or units differ from BENCHMARK.json")
    for key, value in result["metrics"].items():
        check(isinstance(value["value"], (int, float)), f"{name}: {key} is not a number")
    table = "\n".join(lines[:-1])
    for metric in TABLE_METRICS:
        check(f" {metric} " in table, f"{name}: table lacks {metric}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seconds", "1")
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without the flowtopo sources")
    check(not proc.stdout.strip(), "printed a result without the flowtopo sources")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)
    check_refuses_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
