"""File formats: network JSON, sample CSV, noise-model JSON, result JSON,
and the rank-test report as JSON.

Every loader raises ParseError for malformed input so the command line can
map file problems to one exit code.
"""

from __future__ import annotations

import csv
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


def dump_network(network: FlowNetwork, path: str | Path) -> None:
    doc = {"nodes": network.node_count, "edges": [list(edge) for edge in network.edges]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_data_csv(
    path: str | Path, transposed: bool = False, allow_undersampled: bool = False
) -> FlowDataMatrix:
    """Sample CSV.  Default layout: header `edge,s1,...`, one row per edge
    with its label in the first column.  Transposed layout: header lists
    the edge labels, one row per sample.  Rows are parsed as they are
    read, so no more than one row is held as text."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = (row for row in csv.reader(fh) if row and any(c.strip() for c in row))
            header = next(rows, None)
            labels: list[int] = []
            body = []
            for row in rows:
                if not transposed:
                    labels.append(int(row[0]))
                    row = row[1:]
                body.append(np.array(row, dtype=np.float64))
        if not body:
            raise ParseError(f"{path}: need a header row and at least one data row")
        values = np.array(body)
        if transposed:
            labels = [int(c) for c in header]
            if len(labels) != values.shape[1]:
                raise ParseError(f"{path}: {len(labels)} edge labels for {values.shape[1]} columns")
            values = values.T
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: malformed sample table: {exc}") from exc
    e = len(labels)
    if sorted(labels) != list(range(1, e + 1)):
        raise ParseError(f"{path}: edge labels must be a permutation of 1..{e}")
    order = np.argsort(labels)
    try:
        return FlowDataMatrix(values[order], allow_undersampled=allow_undersampled)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_data_csv(data: FlowDataMatrix, path: str | Path, transposed: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if transposed:
            writer.writerow(str(lab) for lab in range(1, data.edge_count + 1))
            for col in data.entries.T:
                writer.writerow(f"{v:.12g}" for v in col)
        else:
            writer.writerow(["edge"] + [f"s{i}" for i in range(1, data.sample_count + 1)])
            for lab, row in enumerate(data.entries, start=1):
                writer.writerow([str(lab)] + [f"{v:.12g}" for v in row])


def load_noise_model(path: str | Path, edge_count: int | None = None) -> NoiseModel:
    """Noise JSON: {"kind": ..., "sigma2": v} for shared variance, or
    {"kind": "hetero", "cov_csv": file} with a covariance grid resolved
    relative to the JSON file; optional "mean".  When ``edge_count`` is
    given, the covariance and the mean must have that many edges."""
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
            cov = sigma2 * np.eye(edge_count)
        else:
            cov_file = Path(path).parent / str(doc["cov_csv"])
            cov = np.loadtxt(cov_file, delimiter=",", ndmin=2)
        model = NoiseModel(kind=kind, covariance=cov, mean=mean)
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
    if model.kind == "homoscedastic" and np.allclose(cov, cov[0, 0] * np.eye(len(cov))):
        doc: dict[str, Any] = {"kind": model.kind, "sigma2": float(cov[0, 0])}
    else:
        cov_file = path.with_suffix(".cov.csv")
        np.savetxt(cov_file, cov, delimiter=",", fmt="%.12g")
        doc = {"kind": model.kind, "cov_csv": cov_file.name}
    if model.mean is not None:
        doc["mean"] = [float(v) for v in model.mean]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def result_to_json(result: ReconstructionResult) -> dict[str, Any]:
    return {"root": result.root, "edges": [list(edge) for edge in result.edges]}


def dump_result(result: ReconstructionResult, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_json(result), fh, indent=1)
        fh.write("\n")


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

