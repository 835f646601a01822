"""The benchmark's workloads: their inputs, one timed operation each, and
the checks of that operation's outputs.

Every workload has the same shape:

* ``setup()`` makes or writes the inputs and builds the model; it is
  timed as ``setup_s`` and repeated (``setup_repeats`` times in all,
  ``setups_per_op`` after each operation), so it must be idempotent;
* ``prepare()`` runs once per run, untimed: the warm-up operation and
  the checks made once per run;
* ``operation()`` is the timed call into the program;
* ``check(output)`` returns None when the operation's output is right,
  or the reason it failed through a fault this file names; any other
  wrong output raises :class:`Incorrect`.

``windows_per_op`` is the number of windows one operation completes.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import oracles
from maginet import autodiff as ad
from maginet import cli, data, training
from maginet.graph import save_adjacency
from maginet.model import MagiNet, ModelConfig, save_checkpoint
from maginet.training import TrainConfig, masked_l1_loss

WIDTH = 12
RATIO = 0.5
KNN_K = 3

# Like a real sensor network, each workload's graph is fixed, and so are
# the METR-width series' sensor outages: the seed moves the readings and
# the eval mask. (graph.build_basis finds the largest Laplacian
# eigenvalue by power iteration, in a number of steps that depends on
# the graph, so a seeded graph would make setup_s vary with the seed;
# seeded outages moved KNN's work, and so eval_metr's windows_per_s, by
# up to 43% between seeds.)
NETWORK_SEED = 1

# METR-LA's width, over a day of 5-minute steps (288), a daily job's
# input: short operations, so that a run holds enough of them for the
# fastest to be a steady measure (README.md, "Steadiness"). Plus a
# 5-step tail no full window covers, as a feed cut at an arbitrary time
# has.
METR_NODES = 207
METR_STEPS = 288 + 5
METR_EXTRA_EDGES = 200
# METR-LA has 8.10% of its entries missing (Cini et al., "Filling the
# G_ap_s: Multivariate Time Series Imputation by Graph Neural Networks",
# ICLR 2022, dataset table), as sensor outages over consecutive steps
# rather than as lone entries. The outage lengths, 1 hour to 1 day, are
# chosen, not sourced (README.md shows what they move).
METR_MISSING = 0.081
OUTAGE_STEPS = (12, 288)

# The fault every impute_metr operation hits at the parent commit.
IMPUTE_TAIL_FAULT = "cli.cmd_impute copies the steps no full window covers from the raw series"


class Incorrect(Exception):
    """The program returned a wrong output that no named fault explains."""


def run_cli(argv: list[str]) -> int:
    """``maginet`` in-process, with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class TrainPinned:
    """Epochs of ``training.train_model`` on criterion 6's instance
    (16 nodes, 2016 steps, W=12, ratio 0.5, default model, lr 3e-3,
    batch 8, hide_fraction 0.5) on its graph; ``--seed 1`` gives that
    exact instance.
    One operation trains a fresh model for two epochs."""

    name = "train_pinned"
    setup_repeats = 40
    setups_per_op = 4
    epochs = 2
    parameters = 20961

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = TrainConfig(learning_rate=3e-3, epochs=self.epochs, batch_size=8,
                                  patience=200, seed=seed, hide_fraction=0.5)

    def setup(self) -> None:
        self.graph = data.synthetic_graph(16, extra_edges=4, seed=NETWORK_SEED)
        series = data.generate_synthetic(16, 2016, self.graph, seed=self.seed)
        mask = data.draw_eval_mask(series, RATIO, self.seed)
        windows = data.make_windows(series, mask, WIDTH, WIDTH)
        self.train_ws, self.valid_ws, _ = data.split(windows, oracles.SPLIT)
        self.model = self._fresh_model()
        self.windows_per_op = self.epochs * len(self.train_ws)

    def _fresh_model(self) -> MagiNet:
        return MagiNet(ModelConfig(), self.graph, width=WIDTH, n_features=1, seed=self.seed)

    def prepare(self) -> None:
        if self.model.params.n_parameters != self.parameters:
            raise Incorrect(f"model has {self.model.params.n_parameters} parameters, "
                            f"expected {self.parameters}")
        self.gradient_check()
        self.reference = None
        self.check(self.operation())

    def operation(self):
        return training.train_model(self._fresh_model(), self.train_ws, self.valid_ws,
                                    self.config)

    def check(self, result) -> None:
        history = np.array([[h["train_loss"], h["val_rmse"], h["val_mape"]]
                            for h in result.history])
        if result.diverged or history.shape != (self.epochs, 3) or not np.isfinite(history).all():
            raise Incorrect(f"training history is not {self.epochs} finite epochs: {history}")
        if not history[-1, 0] < history[0, 0]:
            raise Incorrect(f"training loss did not fall: {history[:, 0]}")
        if self.reference is None:
            self.reference = history.tobytes()
        elif history.tobytes() != self.reference:
            raise Incorrect("training history differs from the first run's from the same seed")
        return None

    def gradient_check(self, entries: int = 6, step: float = 1e-7, tol: float = 1e-4) -> None:
        """One batch's backward gradient against central finite differences
        at a few seeded parameter entries (relative error, floor 1e-2)."""
        model = self._fresh_model()
        model.normalizer = data.Normalizer.fit(self.train_ws)
        rng = np.random.default_rng(self.seed)
        batch = [data.hide_observed(model.normalizer.normalize_window(w), 0.5, rng)
                 for w in self.train_ws[:self.config.batch_size]]
        truth = np.concatenate([w.ground_truth for w in batch])
        held_out = np.concatenate([w.eval_mask for w in batch])

        def loss():  # the batch's pooled masked L1 loss, nodes of all windows stacked
            out = ad.concat([model.forward(w.x, w.m) for w in batch], axis=0)
            return masked_l1_loss(out, truth, held_out)

        model.params.zero_grads()
        loss().backward()
        names = model.params.names()
        for name in rng.choice(names, size=entries, replace=False):
            tensor = model.params[name]
            flat = tensor.data.reshape(-1)
            i = int(rng.integers(flat.size))
            analytic = 0.0 if tensor.grad is None else float(tensor.grad.reshape(-1)[i])
            keep = flat[i]
            with ad.no_grad():
                flat[i] = keep + step
                up = loss().item()
                flat[i] = keep - step
                down = loss().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-2)
            if error > tol:
                raise Incorrect(f"gradient of {name}[{i}]: backward {analytic!r}, "
                                f"finite differences {numeric!r} (relative error {error:.2e})")


def sensor_outages(nodes: int, steps: int, seed: int, share: float = METR_MISSING,
                   lengths: tuple[int, int] = OUTAGE_STEPS) -> np.ndarray:
    """(nodes, steps) bool, True where a sensor is out: seeded outages of
    one sensor over ``lengths`` consecutive steps (bounds included),
    placed until at least ``share`` of the entries are out."""
    rng = np.random.default_rng([seed, 1])
    out = np.zeros((nodes, steps), dtype=bool)
    target, covered = share * out.size, 0
    while covered < target:
        length = int(rng.integers(lengths[0], min(lengths[1], steps) + 1))
        node, start = int(rng.integers(nodes)), int(rng.integers(steps - length + 1))
        covered += int((~out[node, start:start + length]).sum())
        out[node, start:start + length] = True
    return out


def write_metr_inputs(work: Path, seed: int, nodes: int, steps: int, checkpoint: bool):
    """A METR-LA-sized synthetic series with sensor outages, its graph, a
    persisted eval mask and, when asked, a default-config checkpoint.
    Returns the raw values (NaN = missing) and the eval mask."""
    graph = data.synthetic_graph(nodes, extra_edges=min(METR_EXTRA_EDGES, nodes), seed=NETWORK_SEED)
    values = np.array(data.generate_synthetic(nodes, steps, graph, seed=seed).values)
    values[sensor_outages(nodes, steps, NETWORK_SEED)] = np.nan
    series = data.SeriesMatrix(values=values)
    data.save_series_csv(work / "series.csv", series)
    save_adjacency(work / "adjacency.csv", graph)
    mask = data.draw_eval_mask(series, RATIO, seed)
    data.save_mask_csv(work / "mask.csv", mask, seed=seed, ratio=RATIO)
    if checkpoint:
        train_ws = data.split(data.make_windows(series, mask, WIDTH, WIDTH), oracles.SPLIT)[0]
        model = MagiNet(ModelConfig(), graph, width=WIDTH, n_features=1, seed=seed,
                        normalizer=data.Normalizer.fit(train_ws))
        save_checkpoint(work / "checkpoint.json", model)
    return series.values, mask


class ImputeMetr:
    """``maginet impute`` in-process at METR-LA width: forward passes only.
    The untimed warm-up imputes a copy of the series whose held-out cells
    hold other values; every output must match it bit for bit."""

    name = "impute_metr"
    setup_repeats = 20
    setups_per_op = 1

    def __init__(self, seed: int, work: Path, nodes: int = METR_NODES, steps: int = METR_STEPS):
        self.seed, self.work, self.nodes, self.steps = seed, work, nodes, steps
        self.windows_per_op = steps // WIDTH

    def setup(self) -> None:
        self.values, self.mask = write_metr_inputs(self.work, self.seed, self.nodes, self.steps,
                                                   checkpoint=True)

    def _argv(self, series: Path) -> list[str]:
        w = self.work
        return ["impute", "--series", str(series), "--adj", str(w / "adjacency.csv"),
                "--mask", str(w / "mask.csv"), "--checkpoint", str(w / "checkpoint.json"),
                "--out", str(w / "out")]

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        other = np.where(self.mask[:, :, None] == 1,
                         self.values + rng.uniform(-100.0, 100.0, self.values.shape), self.values)
        data.save_series_csv(self.work / "overwritten.csv", data.SeriesMatrix(values=other))
        code = run_cli(self._argv(self.work / "overwritten.csv"))
        if code != 0:
            raise Incorrect(f"maginet impute exited with code {code}")
        self.overwritten = oracles.read_series((self.work / "out" / "imputed.csv").read_bytes())

    def operation(self) -> int:
        return run_cli(self._argv(self.work / "series.csv"))

    def check(self, code: int) -> str | None:
        if code != 0:
            return f"maginet impute exited with code {code}"
        return self.verdict(oracles.read_series((self.work / "out" / "imputed.csv").read_bytes()))

    def verdict(self, imputed: np.ndarray) -> str | None:
        found = oracles.impute_violations(imputed, self.values, self.mask, WIDTH)
        found["imputed entries changed by overwriting held-out inputs"] = (
            oracles.changed_entries(imputed, self.overwritten, WIDTH))
        covered = [f"{n} {what}" for what, (n, _) in found.items() if n]
        if covered:
            raise Incorrect("; ".join(covered))
        tail = [f"{n} {what}" for what, (_, n) in found.items() if n]
        if tail:
            return f"{IMPUTE_TAIL_FAULT} ({self.steps % WIDTH} steps): " + "; ".join(tail)
        return None


class EvalMetr:
    """``maginet eval --methods mean,knn`` in-process at METR-LA width on
    the test split; no model runs. Scores must match the numpy references
    in ``oracles`` to 1e-9 relative."""

    name = "eval_metr"
    setup_repeats = 20
    setups_per_op = 1

    def __init__(self, seed: int, work: Path, nodes: int = METR_NODES, steps: int = METR_STEPS):
        self.seed, self.work, self.nodes, self.steps = seed, work, nodes, steps
        self.windows_per_op = len(oracles.starts_of_test_split(steps, WIDTH))

    def setup(self) -> None:
        self.values, self.mask = write_metr_inputs(self.work, self.seed, self.nodes, self.steps,
                                                   checkpoint=False)

    def prepare(self) -> None:
        self.reference = oracles.baseline_scores(self.values, self.mask, WIDTH, KNN_K)
        self.check(self.operation())

    def operation(self) -> int:
        w = self.work
        return run_cli(["eval", "--series", str(w / "series.csv"),
                        "--adj", str(w / "adjacency.csv"), "--mask", str(w / "mask.csv"),
                        "--methods", "mean,knn", "--knn-k", str(KNN_K), "--out", str(w / "out")])

    def check(self, code: int) -> str | None:
        if code != 0:
            return f"maginet eval exited with code {code}"
        report = oracles.read_report((self.work / "out" / "report.csv").read_bytes())
        for method, expected in self.reference.items():
            got = report.get(method)
            if got is None or not np.allclose(got, expected, rtol=1e-9, atol=0.0):
                raise Incorrect(f"{method}: report (rmse, mape) {got}, reference {expected}")
        return None


WORKLOADS = {w.name: w for w in (TrainPinned, ImputeMetr, EvalMetr)}
