"""Traffic-graph representation and spectral machinery.

The graph convolution operates on Chebyshev polynomials of the scaled
Laplacian L~ = (2/lambda_max)(D - A) - I. lambda_max comes from one dense
symmetric eigensolve; the Chebyshev basis is dense N x N anyway.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import text_lines, write_rows
from .errors import ContractError, InputError, ShapeError

EDGELESS_LAMBDA = 2.0  # fallback so L~ stays defined for (near-)edgeless graphs


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrafficGraph:
    """Undirected weighted sensor graph: symmetric nonnegative adjacency, no
    self-loops, and every degree small enough that twice it, which bounds the
    Laplacian's spectrum, is finite."""

    adjacency: np.ndarray
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ShapeError(f"adjacency must be square, got shape {adj.shape}")
        if not np.isfinite(adj).all():
            raise InputError("adjacency contains non-finite weights")
        if (adj < 0).any():
            raise InputError("adjacency contains negative weights")
        if np.diagonal(adj).any():
            raise InputError("adjacency has self-loops; strip them before constructing the graph")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency is not symmetric")
        with np.errstate(over="ignore"):
            degree = adj.sum(axis=1)
            if not np.isfinite(2.0 * degree).all():
                raise InputError("adjacency weights overflow: twice a node's degree exceeds float64")
        object.__setattr__(self, "adjacency", _frozen(adj))
        object.__setattr__(self, "degree", _frozen(degree))

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degree) - self.adjacency


def scaled_laplacian(graph: TrafficGraph) -> tuple[np.ndarray, float]:
    """Return (L~, lambda_max) with L~ = (2/lambda_max) L - I."""
    lap = graph.laplacian()
    lam = float(np.linalg.eigvalsh(lap)[-1])
    if lam < 1e-12:
        lam = EDGELESS_LAMBDA
    return (2.0 / lam) * lap - np.eye(graph.n_nodes), lam


@dataclass(frozen=True)
class ChebyshevBasis:
    """Chebyshev polynomials T_0..T_{K-1} of the scaled Laplacian."""

    order: int
    matrices: tuple[np.ndarray, ...]


def chebyshev_basis(l_tilde: np.ndarray, order: int) -> ChebyshevBasis:
    """T_0 = I, T_1 = L~, T_k = 2 L~ T_{k-1} - T_{k-2}."""
    if order < 1:
        raise ContractError(f"Chebyshev order must be >= 1, got {order}")
    l_tilde = np.asarray(l_tilde, dtype=np.float64)
    n = l_tilde.shape[0]
    mats = [np.eye(n)]
    if order > 1:
        mats.append(l_tilde.copy())
    for _ in range(2, order):
        mats.append(2.0 * (l_tilde @ mats[-1]) - mats[-2])
    return ChebyshevBasis(order=order, matrices=tuple(_frozen(m) for m in mats))


def build_basis(graph: TrafficGraph, order: int) -> ChebyshevBasis:
    return chebyshev_basis(scaled_laplacian(graph)[0], order)


# -- adjacency file format ------------------------------------------------


def load_adjacency(path, n_nodes: int) -> TrafficGraph:
    """Read an edge-list CSV (header src,dst,weight) into a TrafficGraph.

    Blank and ``#`` lines are skipped, and an error names its line counted
    from the top of the file. Edges are symmetrized with max(A, A^T).
    Duplicate directed edges with conflicting weights are rejected rather
    than silently overwritten; self-loops are stripped.
    """
    adj = np.zeros((n_nodes, n_nodes))
    seen: dict[tuple[int, int], float] = {}
    # each line ends in a newline, as the file's did, for a quoted cell that spans lines
    lines = csv.reader(line + "\n" for line in text_lines(path))
    rows = [(lineno, row) for lineno, row in enumerate(lines, 1) if row and not row[0].startswith("#")]
    if not rows:
        raise InputError(f"{path}: missing header 'src,dst,weight'")
    (lineno, header), *edges = rows
    if [c.strip().lower() for c in header] != ["src", "dst", "weight"]:
        raise InputError(f"{path}: line {lineno}: expected header 'src,dst,weight'")
    for lineno, row in edges:
        if len(row) != 3:
            raise InputError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        try:
            src, dst = int(row[0]), int(row[1])
            weight = float(row[2])
        except ValueError:
            raise InputError(f"{path}: line {lineno}: malformed edge {row!r}") from None
        if not (0 <= src < n_nodes) or not (0 <= dst < n_nodes):
            raise InputError(f"{path}: line {lineno}: node id outside [0, {n_nodes})")
        if not np.isfinite(weight) or weight < 0:
            raise InputError(f"{path}: line {lineno}: weight must be finite and nonnegative")
        if src == dst:
            continue  # the Laplacian assumes no self-loops
        key = (src, dst)
        if key in seen and seen[key] != weight:
            raise InputError(
                f"{path}: line {lineno}: duplicate edge {src}->{dst} with conflicting weight"
            )
        seen[key] = weight
        adj[src, dst] = weight
    return TrafficGraph(np.maximum(adj, adj.T))


def save_adjacency(path, graph: TrafficGraph, comment: str | None = None) -> None:
    """Write ``load_adjacency``'s format: each edge once, i < j, in row-major order."""
    src, dst = np.nonzero(np.triu(graph.adjacency, 1))
    weights = graph.adjacency[src, dst].tolist()
    write_rows(path, [["src", "dst", "weight"]]
               + [[i, j, repr(w)] for i, j, w in zip(src.tolist(), dst.tolist(), weights)], comment)
