"""File formats: network JSON, sample CSV, noise-model JSON, result JSON,
and the rank-test report as JSON.  Sample tables and the covariance grid
go through numpy's text reader and writer, ``np.loadtxt``/``np.savetxt``.

Every loader raises ParseError for malformed input so the command line can
map file problems to one exit code.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ParseError
from .graph_model import FlowNetwork, _integer
from .noise_pipeline import NoiseModel, RankTestReport
from .nullspace import FlowDataMatrix
from .realize import ReconstructionResult

_KIND_ALIASES = {
    "homoscedastic": "homoscedastic",
    "homo": "homoscedastic",
    "heteroscedastic": "heteroscedastic",
    "hetero": "heteroscedastic",
}


def _read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_network(path: str | Path) -> FlowNetwork:
    """Network JSON: {"nodes": count, "edges": [[src, dst], ...],
    "labels": optional permutation of 1..e giving each row's edge label}."""
    doc = _read_json(path)
    try:
        # raw values: FlowNetwork refuses a fractional id, which int() would truncate
        nodes = doc["nodes"]
        raw_edges = [(s, t) for s, t in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: need integer 'nodes' and [src, dst] 'edges'") from exc
    e = len(raw_edges)
    labels = doc.get("labels")
    if labels is not None:
        try:
            labels = [_integer("labels", v) for v in labels]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: labels must be integers") from exc
        if sorted(labels) != list(range(1, e + 1)):
            raise ParseError(f"{path}: labels must be a permutation of 1..{e}")
        ordered: list[tuple[int, int]] = [(0, 0)] * e
        for lab, edge in zip(labels, raw_edges):
            ordered[lab - 1] = edge
        raw_edges = ordered
    try:
        return FlowNetwork(node_count=nodes, edges=tuple(raw_edges))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_json(doc: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def dump_network(network: FlowNetwork, path: str | Path) -> None:
    write_json({"nodes": network.node_count, "edges": [list(e) for e in network.edges]}, path)


def load_data_csv(
    path: str | Path, transposed: bool = False, allow_undersampled: bool = False
) -> FlowDataMatrix:
    """Sample CSV.  Default layout: header `edge,s1,...`, one row per edge
    with its label in the first column.  Transposed layout: header lists
    the edge labels, one row per sample.  Rows of only whitespace and
    commas are skipped; the rest stream through ``np.loadtxt``, with the
    labels read as Python integers (`1.0` is refused)."""
    cells = {"delimiter": ",", "comments": None, "quotechar": '"'}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = (line for line in fh if line.replace(",", "").strip())
            header, first = next(rows, None), next(rows, None)
            if first is None:
                raise ParseError(f"{path}: need a header row and at least one data row")
            ints = None if transposed else {0: int}
            values = np.loadtxt(itertools.chain([first], rows), ndmin=2, converters=ints, **cells)
        if transposed:
            labels = np.loadtxt([header], ndmin=1, converters=int, **cells)
            if len(labels) != values.shape[1]:
                raise ParseError(f"{path}: {len(labels)} edge labels for {values.shape[1]} columns")
            values = values.T
        else:
            labels, values = values[:, 0], values[:, 1:]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: malformed sample table: {exc}") from exc
    e = len(labels)
    order = np.argsort(labels)
    if not np.array_equal(labels[order], np.arange(1, e + 1)):
        raise ParseError(f"{path}: edge labels must be a permutation of 1..{e}")
    try:
        return FlowDataMatrix(values[order], allow_undersampled=allow_undersampled)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_data_csv(data: FlowDataMatrix, path: str | Path, transposed: bool = False) -> None:
    lines = {"delimiter": ",", "newline": "\r\n", "comments": ""}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if transposed:
            header = ",".join(str(lab) for lab in range(1, data.edge_count + 1))
            np.savetxt(fh, data.entries.T, fmt="%.12g", header=header, **lines)
        else:
            header = "edge," + ",".join(f"s{i}" for i in range(1, data.sample_count + 1))
            labelled = np.column_stack([np.arange(1, data.edge_count + 1), data.entries])
            fmt = ["%d"] + ["%.12g"] * data.sample_count
            np.savetxt(fh, labelled, fmt=fmt, header=header, **lines)


def load_noise_model(path: str | Path, edge_count: int | None = None) -> NoiseModel:
    """Noise JSON: {"kind": ..., "sigma2": v[, "edges": n]} for shared
    variance, or {"kind": "hetero", "cov_csv": file} with a covariance grid
    resolved relative to the JSON file; optional "mean".  When ``edge_count``
    is given, the covariance, the mean and any "edges" must have that many."""
    doc = _read_json(path)
    kind = _KIND_ALIASES.get(str(doc.get("kind", "")).lower())
    if kind is None:
        raise ParseError(f"{path}: 'kind' must be homoscedastic or heteroscedastic")
    mean = None
    if "mean" in doc:
        try:
            mean = np.array([float(v) for v in doc["mean"]])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: mean must be a number list") from exc
    try:
        if kind == "homoscedastic":
            sigma2 = float(doc["sigma2"])
            if edge_count is None:
                raise ParseError(f"{path}: edge count needed to expand sigma2")
            if doc.get("edges", edge_count) != edge_count:
                raise ParseError(f"{path}: sigma2 is for {doc['edges']} edges "
                                 f"but the data has {edge_count} edges")
            cov = sigma2 * np.eye(edge_count)
        else:
            cov_file = Path(path).parent / str(doc["cov_csv"])
            cov = np.loadtxt(cov_file, delimiter=",", ndmin=2)
        model = NoiseModel(cov, mean=mean)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    # NoiseModel already ties the mean's length to the covariance
    if edge_count is not None and model.edge_count != edge_count:
        raise ParseError(
            f"{path}: covariance is {model.edge_count}x{model.edge_count} "
            f"but the data has {edge_count} edges"
        )
    return model


def dump_noise_model(model: NoiseModel, path: str | Path) -> None:
    path = Path(path)
    cov = model.covariance
    # the shared-variance form only where it reloads as the same matrix
    if np.array_equal(cov, cov[0, 0] * np.eye(len(cov))):
        doc: dict[str, Any] = {"kind": "homoscedastic", "sigma2": float(cov[0, 0]), "edges": len(cov)}
    else:
        cov_file = path.with_suffix(".cov.csv")
        np.savetxt(cov_file, cov, delimiter=",", fmt="%.17g")  # reloads bit for bit
        doc = {"kind": "heteroscedastic", "cov_csv": cov_file.name}
    if model.mean is not None:
        doc["mean"] = [float(v) for v in model.mean]
    write_json(doc, path)


def result_to_json(result: ReconstructionResult) -> dict[str, Any]:
    return {"root": result.root, "edges": [list(edge) for edge in result.edges]}


def dump_result(result: ReconstructionResult, path: str | Path) -> None:
    write_json(result_to_json(result), path)


def load_result(path: str | Path) -> ReconstructionResult:
    doc = _read_json(path)
    try:
        edges = tuple((int(s), int(t)) for s, t in doc["edges"])
        root = int(doc["root"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: need 'root' and [src, dst] 'edges'") from exc
    if root != len(edges) + 1:
        raise ParseError(f"{path}: root must be edge count + 1, got {root}")
    if sorted(t for _, t in edges) != list(range(1, root)):
        raise ParseError(f"{path}: edge targets must be each of 1..{root - 1} exactly once")
    return ReconstructionResult(edges=edges)


def report_to_json(report: RankTestReport) -> dict[str, Any]:
    # non-finite statistics (degenerate eigenvalue blocks) become null
    return {
        "alpha": report.alpha,
        "chosen_m": report.chosen_m,
        "candidates": list(report.candidates),
        "statistics": [v if math.isfinite(v) else None for v in report.statistics],
        "p_values": list(report.p_values),
        "eigenvalues": list(report.eigenvalues),
    }

