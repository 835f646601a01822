"""Ingestion, synthetic generation, masking, windowing, and normalization.

The masking protocol: a single evaluation mask is drawn over the whole
series (only at natively observed positions) and persisted, then windows
slice it. A window's observation mask m is 1 where a real value is
visible to the model; eval_mask is 1 at artificially hidden positions
whose ground truth is retained for supervision and scoring. Positions
that were missing in the raw data belong to neither.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError


@dataclass(frozen=True)
class SeriesMatrix:
    """Raw multivariate series, NaN marking natively missing entries."""

    values: np.ndarray  # (n_nodes, n_steps, n_features)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3:
            raise ContractError(f"series values must be (nodes, steps, features), got {vals.shape}")
        if np.isinf(vals).any():
            raise InputError("series contains infinite values")
        missing = np.isnan(vals)
        mixed = missing.any(axis=2) & ~missing.all(axis=2)
        if mixed.any():
            n, t = np.argwhere(mixed)[0]
            raise InputError(f"node {n} step {t}: features must be missing together")
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]

    def observed(self) -> np.ndarray:
        """(nodes, steps) boolean: True where the raw series has a value."""
        return ~np.isnan(self.values).any(axis=2)


@dataclass(frozen=True)
class IncompleteWindow:
    """One training/evaluation sample sliced from a series.

    x holds zeros wherever m = 0; the model contract is that those
    entries are never read, which the invariance tests fuzz.
    """

    x: np.ndarray            # (n_nodes, width, n_features)
    m: np.ndarray            # (n_nodes, width) in {0,1}: 1 = observed
    eval_mask: np.ndarray    # (n_nodes, width) in {0,1}: 1 = hidden, truth known
    ground_truth: np.ndarray  # (n_nodes, width, n_features), valid where eval_mask = 1
    window_start: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        m = np.asarray(self.m, dtype=np.float64)
        ev = np.asarray(self.eval_mask, dtype=np.float64)
        gt = np.asarray(self.ground_truth, dtype=np.float64)
        if x.ndim != 3 or gt.shape != x.shape or m.shape != x.shape[:2] or ev.shape != x.shape[:2]:
            raise ContractError(
                f"window shapes inconsistent: x {x.shape}, m {m.shape}, eval {ev.shape}, gt {gt.shape}"
            )
        for name, mask in (("m", m), ("eval_mask", ev)):
            if not np.isin(mask, (0.0, 1.0)).all():
                raise ContractError(f"{name} must be 0/1")
        if (m * ev).any():
            raise ContractError("a position cannot be both observed and held out")
        if not np.isfinite(x).all():
            raise InputError("window features must be finite (convert NaNs to masked entries upstream)")
        for key, val in (("x", x), ("m", m), ("eval_mask", ev), ("ground_truth", gt)):
            object.__setattr__(self, key, val)
            val.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def width(self) -> int:
        return self.x.shape[1]

    @property
    def n_features(self) -> int:
        return self.x.shape[2]

    def held_out_count(self) -> int:
        return int(self.eval_mask.sum())


# -- masking ---------------------------------------------------------------


def mcar_mask(n_entries: int, ratio: float, seed: int) -> np.ndarray:
    """0/1 vector hiding exactly floor(ratio * n_entries) positions.

    Exact-count sampling via a seeded permutation, not per-entry coin
    flips, so the realized ratio is exact and reruns are bit-identical.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ContractError(f"missing ratio must lie in [0, 1], got {ratio}")
    if n_entries < 0:
        raise ContractError("n_entries must be nonnegative")
    hide = int(math.floor(ratio * n_entries + 1e-9))
    keep = np.ones(n_entries, dtype=np.int8)
    order = np.random.default_rng(seed).permutation(n_entries)
    keep[order[:hide]] = 0
    return keep


def draw_eval_mask(series: SeriesMatrix, ratio: float, seed: int) -> np.ndarray:
    """(nodes, steps) 0/1 mask, 1 at positions hidden for evaluation."""
    observed = series.observed()
    flat_idx = np.flatnonzero(observed.ravel())
    keep = mcar_mask(flat_idx.size, ratio, seed)
    mask = np.zeros(observed.size, dtype=np.int8)
    mask[flat_idx[keep == 0]] = 1
    return mask.reshape(observed.shape)


# -- windowing ---------------------------------------------------------------


def make_windows(series: SeriesMatrix, eval_mask: np.ndarray, width: int, stride: int) -> list[IncompleteWindow]:
    """Slice the series and a whole-series eval mask into windows."""
    if width > series.n_steps:
        raise InputError(f"window width {width} exceeds {series.n_steps} steps")
    if stride < 1:
        raise ContractError(f"stride must be >= 1, got {stride}")
    eval_mask = np.asarray(eval_mask)
    if eval_mask.shape != (series.n_nodes, series.n_steps):
        raise ContractError(
            f"eval mask shape {eval_mask.shape} does not match series ({series.n_nodes}, {series.n_steps})"
        )
    observed = series.observed()
    if (eval_mask.astype(bool) & ~observed).any():
        raise ContractError("eval mask hides positions that were never observed")
    windows = []
    for start in range(0, series.n_steps - width + 1, stride):
        stop = start + width
        vals = series.values[:, start:stop, :]
        ev = eval_mask[:, start:stop].astype(np.float64)
        m = observed[:, start:stop].astype(np.float64) * (1.0 - ev)
        x = np.where(m[:, :, None] == 1.0, vals, 0.0)
        gt = np.where(ev[:, :, None] == 1.0, vals, 0.0)
        windows.append(IncompleteWindow(x=x, m=m, eval_mask=ev, ground_truth=gt, window_start=start))
    return windows


def hide_observed(w: IncompleteWindow, fraction: float, rng: np.random.Generator) -> IncompleteWindow:
    """Hide floor(fraction * observed) random m = 1 positions of a window.

    Hidden positions leave m and x (x is zeroed there) and join eval_mask
    with their observed values as ground truth, so they are supervised
    like the held-out ones. Held-out and natively missing positions are
    never drawn.
    """
    observed = np.flatnonzero(w.m.ravel() == 1.0)
    count = int(math.floor(fraction * observed.size + 1e-9))
    hidden = np.zeros(w.m.size)
    hidden[observed[rng.permutation(observed.size)[:count]]] = 1.0
    hidden = hidden.reshape(w.m.shape)
    keep = hidden[:, :, None] == 0.0
    return IncompleteWindow(x=np.where(keep, w.x, 0.0), m=w.m - hidden,
                            eval_mask=w.eval_mask + hidden,
                            ground_truth=np.where(keep, w.ground_truth, w.x),
                            window_start=w.window_start)


def mean_filled(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The features with each unobserved entry (m = 0) replaced by its node's
    mean over its observed steps: one window's (N, W, C) features and (N, W)
    mask, or a stack of them.

    A node with nothing observed takes its window's observed mean, and a
    window with nothing observed gives 0.
    """
    m3 = m[..., None]
    observed = x * m3
    node_cnt = m.sum(axis=-1)[..., None]                      # (..., N, 1)
    total_cnt = m.sum(axis=(-2, -1))[..., None, None]         # (..., 1, 1)
    total_sum = observed.sum(axis=(-3, -2))[..., None, :]     # (..., 1, C)
    window_mean = np.where(total_cnt > 0, total_sum / np.where(total_cnt > 0, total_cnt, 1.0), 0.0)
    means = np.where(node_cnt > 0, observed.sum(axis=-2) / np.where(node_cnt > 0, node_cnt, 1.0),
                     window_mean)
    return np.where(m3 == 1.0, x, means[..., None, :])


def split(windows: list, fractions: tuple[float, float, float]) -> tuple[list, list, list]:
    """Contiguous chronological train/valid/test split.

    Validation and test counts are floored; the remainder goes to train.
    """
    train_frac, valid_frac, test_frac = fractions
    if min(fractions) < 0:
        raise ContractError(f"split fractions must be nonnegative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split fractions must sum to 1, got {fractions}")
    n = len(windows)
    n_valid = int(math.floor(valid_frac * n + 1e-9))
    n_test = int(math.floor(test_frac * n + 1e-9))
    n_train = n - n_valid - n_test
    return (
        list(windows[:n_train]),
        list(windows[n_train:n_train + n_valid]),
        list(windows[n_train + n_valid:]),
    )


# -- normalization ------------------------------------------------------------


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score statistics from observed training entries only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        std = np.maximum(np.asarray(self.std, dtype=np.float64).reshape(-1), 1e-8)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def fit(cls, windows: list[IncompleteWindow]) -> "Normalizer":
        if not windows:
            raise ContractError("cannot fit a normalizer on an empty window list")
        n_features = windows[0].n_features
        mean = np.zeros(n_features)
        std = np.ones(n_features)
        for c in range(n_features):
            pooled = np.concatenate([w.x[:, :, c][w.m == 1.0] for w in windows])
            if pooled.size:
                mean[c] = pooled.mean()
                std[c] = pooled.std()
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean

    def normalize_window(self, w: IncompleteWindow) -> IncompleteWindow:
        x = np.where(w.m[:, :, None] == 1.0, self.transform(w.x), 0.0)
        gt = np.where(w.eval_mask[:, :, None] == 1.0, self.transform(w.ground_truth), 0.0)
        return IncompleteWindow(x=x, m=w.m, eval_mask=w.eval_mask, ground_truth=gt,
                                window_start=w.window_start)


# -- synthetic data ------------------------------------------------------------


def synthetic_graph(n_nodes: int, extra_edges: int = 0, seed: int = 0) -> TrafficGraph:
    """Ring lattice plus a few seeded random chords, unit weights."""
    from .graph import TrafficGraph  # deferred, as in every annotation here: graph imports this module
    if n_nodes < 2:
        raise ContractError(f"synthetic graph needs at least 2 nodes, got {n_nodes}")
    if extra_edges < 0:
        raise ContractError(f"extra_edges must be >= 0, got {extra_edges}")
    adj = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        adj[i, j] = adj[j, i] = 1.0
    rng = np.random.default_rng(seed)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50 * max(1, extra_edges):
        attempts += 1
        i, j = rng.integers(0, n_nodes, 2)
        if i != j and adj[i, j] == 0.0:
            adj[i, j] = adj[j, i] = 1.0
            added += 1
    return TrafficGraph(adj)


def generate_synthetic(n_nodes: int, n_steps: int, graph: TrafficGraph, seed: int, *,
                       period: int = 288, amplitude: float = 10.0, offset: float = 20.0,
                       noise: float = 0.05, phases: np.ndarray | None = None) -> SeriesMatrix:
    """Daily sinusoids with node phases, one diffusion step, seeded noise.

    Each node follows offset + amplitude*sin(2*pi*t/period + phase), then
    one smoothing step x <- 0.7x + 0.3*A_hat x with the row-normalized
    adjacency (isolated nodes keep their own signal), then Gaussian noise
    with sigma = noise * amplitude. The offset keeps values positive so
    MAPE stays defined.
    """
    if graph.n_nodes != n_nodes:
        raise ContractError(f"graph has {graph.n_nodes} nodes, expected {n_nodes}")
    if period < 1:
        raise ContractError(f"period must be >= 1, got {period}")
    if noise < 0:
        raise ContractError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    if phases is None:
        phases = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    t = np.arange(n_steps)
    base = offset + amplitude * np.sin(2.0 * np.pi * t[None, :] / period + np.asarray(phases)[:, None])
    deg = graph.degree
    a_hat = np.where(deg[:, None] > 0, graph.adjacency / np.where(deg[:, None] > 0, deg[:, None], 1.0), 0.0)
    isolated = deg == 0
    a_hat[isolated, :] = 0.0
    a_hat[isolated, isolated] = 1.0
    smooth = 0.7 * base + 0.3 * (a_hat @ base)
    if noise > 0:
        smooth = smooth + rng.normal(0.0, noise * amplitude, smooth.shape)
    return SeriesMatrix(values=smooth[:, :, None])


# -- text files ------------------------------------------------------------------


def text_lines(path) -> list[str]:
    """Every line of a UTF-8 text file, the ``#`` lines before its first other
    non-blank line blanked so that line numbers count from the top: how maginet
    reads its series, mask, adjacency, config and checkpoint files."""
    try:
        # universal newlines end lines where csv.reader ends rows
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    start = next((i for i, line in enumerate(lines) if line and not line.startswith("#")), len(lines))
    return [""] * start + lines[start:]


@contextmanager
def text_file(path, comment: str | None = None):
    """A UTF-8 text file open for writing, with no newline translation,
    after a ``# comment`` line when one is given: how maginet writes its files."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        yield handle


def json_settings(raw: dict, defaults: dict, what: str) -> dict:
    """``raw``, a JSON object of settings, once each of its keys is one of
    ``defaults`` and each value has the JSON type of that key's default.

    Booleans are not numbers, an integer is a valid float and a float must be
    finite. A list or tuple default takes a list (or tuple) of items of its
    items' type; the one that defaults to empty, the ablation names, takes strings.
    """
    unknown = set(raw) - set(defaults)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in raw.items():
        default = defaults[key]
        listed = isinstance(default, (list, tuple))
        kind = (type(default[0]) if default else str) if listed else type(default)
        accepted = (int, float) if kind is float else kind
        items = value if listed else [value]
        if (listed and not isinstance(value, (list, tuple))
                or not all(not isinstance(v, bool) and isinstance(v, accepted) for v in items)):
            expected = f"a list of {kind.__name__}" if listed else kind.__name__
            raise InputError(f"{what} key {key!r} must be {expected}, got {value!r}")
        # NaN fails every comparison, and an integer past float64's range fails this one
        if kind is float and not all(abs(v) <= np.finfo(np.float64).max for v in items):
            raise InputError(f"{what} key {key!r} must be a finite number, got {value!r}")
    return raw


# -- CSV formats ---------------------------------------------------------------


def write_rows(path, rows: list[list], comment: str | None = None) -> None:
    """A CSV of ``str`` of each cell, quoted where it needs to be, after a
    ``# comment`` line when one is given."""
    with text_file(path, comment) as handle:
        csv.writer(handle, lineterminator="\n").writerows([str(cell) for cell in row] for row in rows)


def save_series_csv(path, series: SeriesMatrix, comment: str | None = None) -> None:
    """Header node{i}_f{j} (nodes repeated per feature), one row per step.

    Cells hold ``repr`` of each value; a missing (NaN) value is an empty cell.
    """
    n, c = series.n_nodes, series.n_features
    with text_file(path, comment) as handle:
        header = [f"node{i}_f{j}" for j in range(c) for i in range(n)]
        handle.write(",".join(header) + "\n")
        # "nan" is the only repr of a float that contains that substring
        for step in series.values.transpose(1, 2, 0):  # (features, nodes) at each step
            handle.write(",".join(map(repr, step.ravel().tolist())).replace("nan", "") + "\n")


def _read_csv(path, kind: str) -> tuple[list[str], list[str]]:
    """A CSV's header's cells, from its first line neither blank nor ``#``, and the lines after it."""
    lines = text_lines(path)
    start = next((i for i, line in enumerate(lines) if line), len(lines))
    if start == len(lines):
        raise InputError(f"{path}: empty {kind} file")
    return next(csv.reader(lines[start:start + 1])), lines[start + 1:]


# in ",line," a comma starts every cell and another ends it
_MISSING_CELL = re.compile(r',(?=[\s,"])(?:"\s*")?\s*(?=,)')


def _cells(lines: list[str], width: int, kind: type) -> np.ndarray | None:
    """The (rows, width) cells of CSV lines from one np.loadtxt call, as
    ``float`` (series) or ``int`` (mask, 0 or 1), or None when it rejects one
    or a row is not ``width`` long, as when a quoted cell joins two lines.

    np.loadtxt reads what ``float`` and ``int`` read, to the same values,
    once empty and whitespace-only float cells, quoted or not, are spelled
    ``nan``; lines with an underscore or a non-ASCII character, which only
    ``kind`` may read (``1_000``, other scripts' digits), go to ``kind``."""
    rows = [line for line in lines if line]
    if kind is float:
        rows = [_MISSING_CELL.sub(",nan", f",{line},")[1:-1] for line in rows]
    if not rows:
        return np.empty((0, width), kind)
    plain = all(line.isascii() and "_" not in line for line in rows)
    with warnings.catch_warnings():
        # older numpy releases read "1.0" into an int dtype, with only a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            cells = np.loadtxt(rows, dtype=kind, delimiter=",", comments=None, ndmin=2, quotechar='"',
                               converters=None if plain else kind)
        except (ValueError, DeprecationWarning):
            return None
    if cells.shape != (len(rows), width) or kind is int and not np.isin(cells, (0, 1)).all():
        return None
    return cells


def _quoted(cells: list[str]) -> list[str]:
    """The lines of a CSV row whose cells are exactly ``cells``."""
    return ",".join('"' + cell.replace('"', '""') + '"' for cell in cells).split("\n")


def _first_bad_row(path, lines: list[str], width: int, kind: type) -> tuple[int, list[str]]:
    """The number, counting the header as row 1, and the cells of the first
    csv.reader row of ``lines`` that ``_cells`` rejects, which raises here
    if the row is not ``width`` cells long."""
    rows = (row for row in csv.reader(line + "\n" for line in lines) if row)
    number, row = next((number, row) for number, row in enumerate(rows, start=2)
                       if len(row) != width or _cells(_quoted(row), width, kind) is None)
    if len(row) != width:
        raise InputError(f"{path}: row {number} has {len(row)} cells, expected {width}")
    return number, row


_COLUMN = re.compile(r"^node(\d+)_f(\d+)$")


def _series_columns(path, header: list[str]) -> tuple[list[tuple[int, int]], int, int]:
    """(node, feature) of each column, and the node and feature counts; the
    header must cover the full grid."""
    parsed = []
    for col in (c.strip() for c in header):
        m = _COLUMN.match(col)
        if not m:
            raise InputError(f"{path}: unrecognized column name {col!r}")
        parsed.append((int(m.group(1)), int(m.group(2))))
    n = max(p[0] for p in parsed) + 1
    c = max(p[1] for p in parsed) + 1
    if len(parsed) != n * c or sorted(parsed) != [(i, j) for i in range(n) for j in range(c)]:
        raise InputError(f"{path}: header does not cover a full node x feature grid")
    return parsed, n, c


def load_series_csv(path) -> SeriesMatrix:
    """Read ``save_series_csv``'s format; README.md "File formats" gives the cell grammar.

    The values come from one np.loadtxt call; when it rejects the file, the
    error names the first bad row, and for a bad cell its column and text."""
    header, lines = _read_csv(path, "series")
    columns, n, c = _series_columns(path, header)
    cells = _cells(lines, len(columns), float)
    if cells is None:
        number, row = _first_bad_row(path, lines, len(columns), float)
        k = next(k for k, cell in enumerate(row) if _cells(_quoted([cell]), 1, float) is None)
        raise InputError(f"{path}: row {number} column {k + 1}: non-numeric cell {row[k]!r}")
    nodes, feats = (np.array(axis) for axis in zip(*columns))
    values = np.empty((n, len(cells), c))
    values[nodes, :, feats] = cells.T
    return SeriesMatrix(values=values)


def save_mask_csv(path, mask: np.ndarray, seed: int, ratio: float, comment: str | None = None) -> None:
    """Persist an eval mask (nodes x steps), one row per step like the series,
    after a comment line naming the ``seed`` and ``ratio`` it was drawn with
    for a reader (``load_mask_csv`` skips it)."""
    mask = np.asarray(mask)
    n, _ = mask.shape
    with text_file(path, comment) as handle:
        handle.write(f"# seed={seed} ratio={repr(float(ratio))}\n")
        handle.write(",".join(f"node{i}" for i in range(n)) + "\n")
        for row in mask.T:
            handle.write(",".join(map(str, map(int, row.tolist()))) + "\n")


def load_mask_csv(path) -> np.ndarray:
    """Read ``save_mask_csv``'s format: the (nodes, steps) int8 mask.

    The cells come from one np.loadtxt call, as ints checked for 0/1
    before narrowing. When that fails, the error names the first bad row.
    """
    header, lines = _read_csv(path, "mask")
    cells = _cells(lines, len(header), int)
    if cells is None:
        number, _ = _first_bad_row(path, lines, len(header), int)
        raise InputError(f"{path}: row {number}: mask cells must be 0/1")
    return cells.astype(np.int8).T
