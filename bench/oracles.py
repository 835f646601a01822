"""Independent checks of the program's outputs, in plain numpy.

Nothing here imports maginet. The references follow the definitions in
the docstrings of ``evaluation`` and ``data`` and in the README, so a
fault in the program cannot pass by being shared with its check:

* windows of width W and stride W start at 0, W, 2W, ...; the split is
  chronological, with validation and test counts floored and the rest
  going to training;
* in a window a node-step is observed (m = 1) when the raw series has a
  value there and the eval mask does not hide it;
* the mean baseline fills each node from its observed mean in the
  window, with the window-global observed mean for a node that has none;
* KNN ranks the other nodes by root-mean-square distance over the steps
  both observe (a node sharing no observed step is no neighbour), ties
  going to the lower node index, and fills each hidden step from the
  mean of the first k ranked neighbours observed at that step, or from
  the mean baseline when none is;
* RMSE and MAPE pool every held-out entry of the chosen windows; MAPE
  leaves out entries whose true magnitude is below 1e-6.
"""

from __future__ import annotations

import math
import re

import numpy as np

MAPE_FLOOR = 1e-6
SPLIT = (0.7, 0.2, 0.1)


def starts_of_test_split(n_steps: int, width: int) -> list[int]:
    """Start steps of the test split's windows (stride = width)."""
    starts = list(range(0, n_steps - width + 1, width))
    n_test = math.floor(SPLIT[2] * len(starts) + 1e-9)
    return starts[len(starts) - n_test:]


def mean_fill(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mean-baseline window: x (N, W, C) with observation mask m (N, W)."""
    obs = m == 1.0
    global_mean = x[obs].mean(axis=0)
    counts = obs.sum(axis=1)
    sums = np.where(obs[:, :, None], x, 0.0).sum(axis=1)
    node_mean = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], global_mean)
    return np.where(obs[:, :, None], x, node_mean[:, None, :])


def knn_fill(x: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """KNN-baseline window, vectorised over nodes and steps."""
    obs = m == 1.0
    co = obs[:, None, :] & obs[None, :, :]                       # (N, N, W)
    sq = ((x[:, None] - x[None, :]) ** 2).sum(axis=3)            # (N, N, W)
    count = co.sum(axis=2)
    dist = np.sqrt(np.where(co, sq, 0.0).sum(axis=2) / np.maximum(count, 1))
    dist[count == 0] = np.inf
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")              # rank -> node, per node
    finite = np.isfinite(np.take_along_axis(dist, order, axis=1))
    usable = obs[order] & finite[:, :, None]                     # (N, rank, W)
    chosen = usable & (np.cumsum(usable, axis=1) <= k)
    n_chosen = chosen.sum(axis=1)                                # (N, W)
    sums = np.where(chosen[..., None], x[order], 0.0).sum(axis=1)  # (N, W, C)
    fill = np.where(n_chosen[..., None] > 0, sums / np.maximum(n_chosen, 1)[..., None],
                    mean_fill(x, m))
    return np.where(obs[:, :, None], x, fill)


def pooled_scores(preds, truths, held_out) -> tuple[float, float]:
    """(RMSE, MAPE in percent) over every held-out entry of the windows."""
    p = np.concatenate([yhat[h] for yhat, h in zip(preds, held_out)]).ravel()
    t = np.concatenate([y[h] for y, h in zip(truths, held_out)]).ravel()
    keep = np.abs(t) >= MAPE_FLOOR
    return (math.sqrt(np.mean((p - t) ** 2)),
            100.0 * float(np.mean(np.abs((p[keep] - t[keep]) / t[keep]))))


def baseline_scores(values: np.ndarray, eval_mask: np.ndarray, width: int,
                    k: int) -> dict[str, tuple[float, float]]:
    """Mean and KNN (RMSE, MAPE) on the test split of a raw series (NaN = missing)."""
    preds: dict[str, list] = {"mean": [], "knn": []}
    truths, held_out = [], []
    for start in starts_of_test_split(values.shape[1], width):
        vals = values[:, start:start + width, :]
        hidden = eval_mask[:, start:start + width] == 1
        m = (~np.isnan(vals).any(axis=2) & ~hidden).astype(np.float64)
        x = np.where(m[:, :, None] == 1.0, vals, 0.0)
        preds["mean"].append(mean_fill(x, m))
        preds["knn"].append(knn_fill(x, m, k))
        truths.append(vals)
        held_out.append(hidden)
    return {name: pooled_scores(p, truths, held_out) for name, p in preds.items()}


def read_series(raw: bytes) -> np.ndarray:
    """(nodes, steps, features) from series CSV bytes; an empty cell is NaN.
    Parsed row by row, so that the check holds less memory than the
    program's own reader and does not set the run's peak."""
    lines = [line for line in raw.splitlines() if line and not line.startswith(b"#")]
    columns = [tuple(int(g) for g in re.fullmatch(rb"node(\d+)_f(\d+)", name).groups())
               for name in lines[0].split(b",")]
    cells = np.empty((len(lines) - 1, len(columns)))
    for t, line in enumerate(lines[1:]):
        cells[t] = [float(c) if c else math.nan for c in line.split(b",")]
    n = max(node for node, _ in columns) + 1
    c = max(feat for _, feat in columns) + 1
    out = np.full((n, cells.shape[0], c), math.nan)
    for col, (node, feat) in enumerate(columns):
        out[node, :, feat] = cells[:, col]
    return out


def read_report(raw: bytes) -> dict[str, tuple[float, float]]:
    """{method: (rmse, mape)} from the bytes of an eval report.csv."""
    lines = [line for line in raw.decode().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return {row["method"]: (float(row["rmse"]), float(row["mape"])) for row in rows}


def _split_by_tail(bad: np.ndarray, width: int) -> tuple[int, int]:
    """(count in steps a full window covers, count in the tail after them)."""
    covered = (bad.shape[1] // width) * width
    return int(bad[:, :covered].sum()), int(bad[:, covered:].sum())


def impute_violations(imputed: np.ndarray, values: np.ndarray, eval_mask: np.ndarray,
                      width: int) -> dict[str, tuple[int, int]]:
    """Entries of an imputed series that break a property of the method.

    ``values`` is the raw series (NaN = natively missing) with the
    held-out entries' ground truth in place; ``eval_mask`` (N, T) marks
    the held-out entries. Counts are split as in :func:`_split_by_tail`.
    """
    held_out = eval_mask == 1
    observed = ~np.isnan(values).any(axis=2) & ~held_out
    same_bits = (imputed.view(np.uint64) == values.view(np.uint64)).all(axis=2)
    bad = {
        "observed entries not returned bit-exact": observed & ~same_bits,
        "missing or held-out entries not finite": ~observed & ~np.isfinite(imputed).all(axis=2),
        "held-out entries equal to their ground truth": held_out & (imputed == values).all(axis=2),
    }
    return {name: _split_by_tail(mask, width) for name, mask in bad.items()}


def changed_entries(a: np.ndarray, b: np.ndarray, width: int) -> tuple[int, int]:
    """Entries whose bits differ between two imputed series, split by tail."""
    return _split_by_tail((a.view(np.uint64) != b.view(np.uint64)).any(axis=2), width)
