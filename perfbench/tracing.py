"""Spans around flowtopo's public functions, for the traced run.

Each traced function is replaced, in every flowtopo module that binds it,
by a wrapper that records one span per call: function, start, end, parent
span, the op it ran in, and the exception class if it raised.  A function
that calls another through its own module's globals therefore gets a child
span.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from typing import Any, Callable

# module.function, as looked up in the flowtopo package
TRACED = (
    "synth.sample_flows",
    "synth.add_noise",
    "nullspace.estimate_null_basis",
    "nullspace.find_valid_partition",
    "nullspace.to_fcutset_form",
    "nullspace.rref",
    "nullspace.snap_signed_units",
    "noise_pipeline.whiten",
    "noise_pipeline.estimate_model_order",
    "noise_pipeline.reconstruct_exact",
    "noise_pipeline.reconstruct_noisy",
    "canonical_cutset.canonicalize",
    "realize.realize_topology",
    "realize.verify_against_truth",
    "graph_model.is_arborescence",
)
# tracemalloc peaks are taken only for these; they never call each other, so
# resetting the single global peak on entry is safe
PEAK_ALLOC = ("noise_pipeline.reconstruct_noisy", "nullspace.estimate_null_basis")
# per-call work counts, summed into <function>.<counter>
COUNTERS = {
    "canonical_cutset.canonicalize": "interchanges",
    "noise_pipeline.estimate_model_order": "candidates",
}

# span fields
NAME, START, END, PARENT, PASS, OP, TIMED, ERROR, COUNT = range(9)


def _count_of(name: str, args: tuple, result: Any, error: BaseException | None) -> float:
    """The work count of one call to a function in ``COUNTERS``."""
    if name == "canonical_cutset.canonicalize":
        return len(result.provenance) if error is None else 0
    if error is None:
        return len(result.candidates)
    # NoStableOrder is raised after testing every candidate from e down to 2
    return args[0].edge_count - 1 if type(error).__name__ == "NoStableOrder" else 0


class Tracer:
    """Records spans.  The runner sets ``current_pass`` and ``current_op``
    to tag each span with the op it belongs to, and ``timed`` while the op's
    timed region runs."""

    def __init__(self, peak_alloc: bool = False) -> None:
        self.peak_alloc = peak_alloc
        self.spans: list[list] = []
        self.current_pass = 0
        self.current_op = 0
        self.timed = False
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        peak = self.peak_alloc and name in PEAK_ALLOC

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.current_pass, self.current_op, self.timed, None, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            error = result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if peak:
                    span[COUNT] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                elif name in COUNTERS:
                    span[COUNT] = _count_of(name, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all flowtopo modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "flowtopo" or key.startswith("flowtopo.")]
        for name in TRACED:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules["flowtopo." + module_name], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def per_layer(self, op_wall_per_pass: list[float]) -> dict[str, float]:
        """Per-pass layer metrics, each the lowest over the traced passes
        (counts repeat exactly from pass to pass; times are best-of-passes,
        like the end-to-end ones).

        ``self_s`` is a span's duration minus the time of its child spans.
        ``trace.self_time_coverage`` divides the self time of the spans
        inside timed ops by the ops' wall time.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        passes = len(op_wall_per_pass)
        blank = {f"{name}.{field}": 0.0 for name in TRACED for field in ("self_s", "calls", "errors")}
        blank.update({f"{name}.{counter}": 0.0 for name, counter in COUNTERS.items()})
        per_pass = [dict(blank) for _ in range(passes)]
        covered = [0.0] * passes
        for i, span in enumerate(self.spans):
            row = per_pass[span[PASS]]
            name = span[NAME]
            self_s = span[END] - span[START] - child_time[i]
            row[f"{name}.self_s"] += self_s
            row[f"{name}.calls"] += 1
            row[f"{name}.errors"] += span[ERROR] is not None
            if span[TIMED]:
                covered[span[PASS]] += self_s
            if name in COUNTERS:
                row[f"{name}.{COUNTERS[name]}"] += span[COUNT]
        for row, cover, wall in zip(per_pass, covered, op_wall_per_pass):
            calls = row["nullspace.snap_signed_units.calls"]
            errors = row["nullspace.snap_signed_units.errors"]
            row["nullspace.snap_signed_units.pass_ratio"] = (calls - errors) / calls if calls else 0.0
            row["trace.self_time_coverage"] = cover / wall
        return {key: min(row[key] for row in per_pass) for key in per_pass[0]}

    def peak_alloc_mb(self) -> dict[str, float]:
        """Largest tracemalloc peak of each ``PEAK_ALLOC`` function."""
        peaks = {f"{name}.peak_alloc_mb": 0.0 for name in PEAK_ALLOC}
        for span in self.spans:
            if span[NAME] in PEAK_ALLOC:
                key = f"{span[NAME]}.peak_alloc_mb"
                peaks[key] = max(peaks[key], span[COUNT])
        return peaks

    def write(self, path) -> None:
        names = list(TRACED)
        rows = [[names.index(s[NAME]), s[START], s[END], s[PARENT], s[PASS], s[OP],
                 int(s[TIMED]), s[ERROR], s[COUNT]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "pass", "op",
                                  "timed", "error", "count"],
                       "spans": rows}, fh)
