"""Metrics, statistical baselines, sensitivity sweeps, and ablation runs.

RMSE and MAPE are computed only over held-out positions (the evaluation
mask) in original data units. Baselines receive the same windows the
model sees, with held-out entries zeroed and m = 0, so nothing can read
ground truth it should not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import (IncompleteWindow, SeriesMatrix, draw_eval_mask, make_windows, node_means,
                   split, write_rows)
from .errors import ContractError, EmptyMaskError, InputError
from .graph import TrafficGraph
from .model import VARIANT_TOGGLES, MagiNet, ModelConfig
from .parallel import fork_map

MAPE_FLOOR = 1e-6  # |truth| below this is excluded from MAPE


def _select(yhat, y, mask):
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask) != 0
    if mask.shape == yhat.shape[:-1]:
        mask = np.broadcast_to(mask[..., None], yhat.shape)
    if mask.shape != yhat.shape or y.shape != yhat.shape:
        raise ContractError(
            f"metric shapes disagree: yhat {yhat.shape}, y {y.shape}, mask {mask.shape}"
        )
    if not mask.any():
        raise EmptyMaskError("metric requested over an empty mask")
    return yhat[mask], y[mask]


def _scores(predicted: np.ndarray, truth: np.ndarray) -> tuple[float, float | None]:
    """RMSE, and MAPE in percent over the truths of magnitude at least
    ``MAPE_FLOOR`` (None when there are none), of selected entries."""
    root = float(np.sqrt(np.mean((predicted - truth) ** 2)))
    keep = np.abs(truth) >= MAPE_FLOOR
    if not keep.any():
        return root, None
    return root, float(100.0 * np.mean(np.abs((predicted[keep] - truth[keep]) / truth[keep])))


def rmse(yhat, y, mask) -> float:
    return _scores(*_select(yhat, y, mask))[0]


def mape(yhat, y, mask) -> float:
    """Mean absolute percentage error (in percent) over the masked entries."""
    pct = _scores(*_select(yhat, y, mask))[1]
    if pct is None:
        raise EmptyMaskError("all ground-truth magnitudes below the MAPE floor")
    return pct


def pooled_metrics(preds, windows: list[IncompleteWindow]) -> tuple[float, float]:
    """RMSE/MAPE with every held-out entry pooled across windows.

    Each prediction is scored against its window's ground truth at its
    eval mask. Unlike ``mape``, MAPE reads 0.0 when no truth reaches the
    floor, so a report row always has a value.
    """
    chosen = [_select(yhat, w.ground_truth, w.eval_mask)
              for yhat, w in zip(preds, windows) if w.held_out_count()]
    if not chosen:
        raise EmptyMaskError("no held-out entries in any window")
    root, pct = _scores(*(np.concatenate(part) for part in zip(*chosen)))
    return root, 0.0 if pct is None else pct


# -- baselines ---------------------------------------------------------------


def mean_baseline(window: IncompleteWindow) -> np.ndarray:
    """Fill every hidden entry with its node's observed mean.

    Nodes with no observations fall back to the window-global observed
    mean; a window with no observations at all is an input error.
    """
    if not window.m.any():
        raise InputError("mean baseline needs at least one observed entry")
    return np.where(window.m[:, :, None] == 1.0, window.x, node_means(window.x, window.m)[:, None, :])


NODE_BLOCK = 16  # distance rows built at a time: bounds the (rows, N, W, C) temporaries


def node_distances(window: IncompleteWindow) -> np.ndarray:
    """Root-mean-square distance over co-observed steps; inf when none."""
    m, x = window.m, window.x
    n = window.n_nodes
    sq_sum = np.empty((n, n))
    count = np.empty((n, n))
    for lo in range(0, n, NODE_BLOCK):
        rows = slice(lo, lo + NODE_BLOCK)
        co = m[rows, None, :] * m[None, :, :]                 # (rows, N, W)
        diff = x[rows, None, :, :] - x[None, :, :, :]          # (rows, N, W, C)
        sq_sum[rows] = ((diff * diff).sum(axis=3) * co).sum(axis=2)
        count[rows] = co.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt(sq_sum / count)
    dist[count == 0] = np.inf
    np.fill_diagonal(dist, np.inf)  # a node is not its own neighbor
    return dist


def check_knn_k(k: int, n_nodes: int) -> None:
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if k >= n_nodes:
        raise ContractError(f"k must be below the node count ({n_nodes}), got {k}")


def knn_baseline(window: IncompleteWindow, k: int) -> np.ndarray:
    """Fill hidden entries from the k nearest nodes observed at that step.

    Each node ranks the others by ``node_distances``, ties broken by node
    index (a stable sort); nodes at infinite distance are never neighbours.
    A hidden entry (m = 0) takes the mean of its first k ranked neighbours
    with m = 1 at its step: their values added one by one to 0.0 in rank
    order (nearest first), then divided by their count. ``np.mean`` over up
    to 7 rows adds in that order, so for k <= 7 the result equals it bit
    for bit; from 8 rows numpy sums pairwise and the last bits may differ. An
    entry with no such neighbour takes ``mean_baseline``'s value, built
    only when some entry needs it.
    """
    check_knn_k(k, window.n_nodes)
    dist = node_distances(window)
    order = np.argsort(dist, axis=1, kind="stable")
    reachable = np.isfinite(np.take_along_axis(dist, order, axis=1))
    # (N, N, W): is node i's rank-r neighbour reachable and observed at step t
    ranked_observed = (window.m == 1.0)[order] & reachable[:, :, None]
    rows, steps = np.nonzero(window.m == 0.0)
    usable = ranked_observed[rows, :, steps]  # (hidden, N), a copy: consumed slot by slot
    found = np.minimum(usable.sum(axis=1), k)
    hidden = np.arange(len(rows))
    total = np.zeros((len(rows), window.n_features))
    for slot in range(1, k + 1):
        rank = np.argmax(usable, axis=1)  # the nearest usable neighbour not yet taken
        np.add(total, window.x[order[rows, rank], steps], out=total,
               where=(found >= slot)[:, None])
        usable[hidden, rank] = False
    out = np.array(window.x)
    near = found > 0
    out[rows[near], steps[near]] = total[near] / found[near, None]
    if not near.all():
        lonely = (rows[~near], steps[~near])
        out[lonely] = mean_baseline(window)[lonely]
    return out


BASELINES = ("mean", "knn")
METHODS = (*BASELINES, "maginet")


def check_methods(methods: list[str]) -> None:
    """Reject the first name in ``methods`` that is not one of ``METHODS``."""
    unknown = [method for method in methods if method not in METHODS]
    if unknown:
        raise InputError(f"unknown method {unknown[0]!r}")


def baseline_predictions(method: str, windows: list[IncompleteWindow],
                         knn_k: int = 3) -> list[np.ndarray]:
    """Each window filled by the named baseline, ``mean`` or ``knn``."""
    if method == "mean":
        return [mean_baseline(w) for w in windows]
    if method == "knn":
        return [knn_baseline(w, knn_k) for w in windows]
    raise InputError(f"unknown baseline {method!r}")


# -- reports -----------------------------------------------------------------


REPORT_COLUMNS = ["method", "dataset", "ratio", "seed", "rmse", "mape", "runtime_s"]


@dataclass
class ReportRow:
    method: str
    dataset: str
    ratio: float
    seed: int | None   # None: no seed drew the mask
    rmse: float
    mape: float
    runtime_s: float

    def as_list(self) -> list:
        return [self.method, self.dataset, repr(float(self.ratio)),
                "" if self.seed is None else self.seed, repr(float(self.rmse)),
                repr(float(self.mape)), repr(float(self.runtime_s))]


@dataclass
class EvalReport:
    rows: list[ReportRow] = field(default_factory=list)

    def to_csv(self, path, comment: str | None = None) -> None:
        write_rows(path, [REPORT_COLUMNS] + [row.as_list() for row in self.rows], comment)


def imputation_traces(windows: list[IncompleteWindow], imputed: list[np.ndarray],
                      feature: int = 0) -> dict[int, list[tuple]]:
    """Per-node plot data: (step, ground_truth, imputed, observed)."""
    traces: dict[int, list[tuple]] = {}
    for w, xhat in zip(windows, imputed):
        for node in range(w.n_nodes):
            rows = traces.setdefault(node, [])
            for t in range(w.width):
                if w.m[node, t] == 1.0:
                    truth = w.x[node, t, feature]
                elif w.eval_mask[node, t] == 1.0:
                    truth = w.ground_truth[node, t, feature]
                else:
                    truth = float("nan")
                rows.append((w.window_start + t, float(truth), float(xhat[node, t, feature]),
                             int(w.m[node, t])))
    for rows in traces.values():
        rows.sort(key=lambda r: r[0])
    return traces


# -- method runners ------------------------------------------------------------


def evaluate_baseline(method: str, windows: list[IncompleteWindow], knn_k: int = 3) -> tuple[float, float]:
    return pooled_metrics(baseline_predictions(method, windows, knn_k), windows)


def train_and_score(model_config: ModelConfig, train_config, graph: TrafficGraph,
                    splits: tuple[list, list, list], seed: int) -> tuple[float, float]:
    """Train on the first two splits, score pooled metrics on the third."""
    from .training import evaluate_model, train_model  # deferred: training imports our metrics

    train_ws, valid_ws, test_ws = splits
    model = MagiNet(model_config, graph, width=train_ws[0].width,
                    n_features=train_ws[0].n_features, seed=seed)
    train_model(model, train_ws, valid_ws, train_config)
    return evaluate_model(model, test_ws)


@dataclass(frozen=True)
class Cell:
    """A sweep or ablation row to make: a baseline's name or a model config."""
    label: str
    method: str | ModelConfig
    ratio: float
    mask_seed: int


def run_cell(cell: Cell, series: SeriesMatrix, graph: TrafficGraph, seed: int, *, width: int,
             stride: int, fractions: tuple[float, float, float], train_config, knn_k: int = 3,
             dataset: str = "synthetic") -> ReportRow:
    """Draw the cell's mask, window and split the series, and score the method
    on the test split (a model trains from ``seed``); only the scoring is timed."""
    mask = draw_eval_mask(series, cell.ratio, cell.mask_seed)
    splits = split(make_windows(series, mask, width, stride), fractions)
    if not splits[2]:
        raise InputError("no windows in the test split")
    start = time.perf_counter()
    if isinstance(cell.method, ModelConfig):
        cell_rmse, cell_mape = train_and_score(cell.method, train_config, graph, splits, seed)
    else:
        cell_rmse, cell_mape = evaluate_baseline(cell.method, splits[2], knn_k)
    return ReportRow(method=cell.label, dataset=dataset, ratio=cell.ratio, seed=cell.mask_seed,
                     rmse=cell_rmse, mape=cell_mape, runtime_s=time.perf_counter() - start)


def _run_cells(cells: list[Cell], **context) -> EvalReport:
    """``run_cell`` of each cell in order, through ``parallel.fork_map``: a
    forked cell inherits the context and predicts in its own process. Each
    cell draws from its own seeds, so the rows are the same for any CPU count."""
    return EvalReport(rows=fork_map(partial(run_cell, **context), cells))


def sensitivity_sweep(series: SeriesMatrix, graph: TrafficGraph, ratios: list[float],
                      methods: list[str], seed: int, *, model_config: ModelConfig,
                      knn_k: int = 3, **context) -> EvalReport:
    """Missing-ratio sweep: one report row per (ratio, method), ratio-major,
    each ratio's mask drawn from a seed made of ``seed`` and the ratio.
    ``context`` holds ``run_cell``'s other keywords."""
    check_methods(methods)
    if "knn" in methods:
        check_knn_k(knn_k, series.n_nodes)
    for ratio in ratios:
        if not 0.0 < ratio < 1.0:
            raise ContractError(f"sweep ratios must lie in (0, 1), got {ratio}")
    cells = [Cell(method, model_config if method == "maginet" else method, ratio,
                  (seed ^ hash(float(ratio))) & 0x7FFFFFFFFFFFFFFF)
             for ratio in ratios for method in methods]
    return _run_cells(cells, series=series, graph=graph, seed=seed, knn_k=knn_k, **context)


def sweep_pivot(report: EvalReport) -> list[list]:
    """Plot-data table: one row per ratio, one RMSE column per method."""
    methods = sorted({row.method for row in report.rows})
    ratios = sorted({row.ratio for row in report.rows})
    table = [["ratio"] + [f"rmse_{m}" for m in methods]]
    lookup = {(row.ratio, row.method): row.rmse for row in report.rows}
    for ratio in ratios:
        table.append([repr(float(ratio))] + [repr(float(lookup[(ratio, m)])) for m in methods])
    return table


def ablation_run(series: SeriesMatrix, graph: TrafficGraph, variants: list[str], seed: int, *,
                 ratio: float, model_config: ModelConfig, **context) -> EvalReport:
    """Train the full model plus each named variant under one mask and budget;
    ``context`` holds ``run_cell``'s other keywords."""
    unknown = [name for name in variants if name not in VARIANT_TOGGLES]
    if unknown:
        raise InputError(f"unknown ablation variant {unknown[0]!r}; known: {sorted(VARIANT_TOGGLES)}")
    cells = [Cell("MagiNet", model_config, ratio, seed)] + [
        Cell(name, model_config.with_ablations(VARIANT_TOGGLES[name]), ratio, seed)
        for name in variants]
    return _run_cells(cells, series=series, graph=graph, seed=seed, **context)
