"""Masked L1 loss, Adam, and the epoch loop with early stopping.

The loss is the global masked mean: per held-out position the absolute
error is averaged over features, then the sum over positions is divided
once by the number of held-out positions. Batches pool their positions
before normalizing, so every held-out entry carries the same weight no
matter how windows are grouped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import IncompleteWindow, Normalizer, hide_observed
from .errors import ContractError, EmptyMaskError, NumericError
from .evaluation import pooled_metrics
from .model import MagiNet
from .parallel import fork_map

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Predicting, a forward pass takes at most EVAL_CHUNK windows and at most
# EVAL_PAIR_BUDGET node pairs (windows x N^2): at 207 nodes a second window
# doubles a pass's traced peak (2.88 -> 5.69 MB, default config) and saves
# under 1% of its CPU time; each prediction worker process holds one pass.
# Passes the pair budget limits (91 nodes and up) run through fork_map;
# passes of EVAL_CHUNK windows run in the calling process.
EVAL_CHUNK = 8
EVAL_PAIR_BUDGET = 65536


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    epochs: int = 200
    batch_size: int = 8
    patience: int = 200   # as many as the epochs: no early stop by default
    seed: int = 1
    grad_clip: float | None = None
    hide_fraction: float = 0.5  # observed entries hidden per training window, per batch

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ContractError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.patience < 0:
            raise ContractError("patience must be >= 0")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if not 0.0 <= self.hide_fraction < 1.0:
            raise ContractError("hide_fraction must lie in [0, 1)")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ContractError("grad_clip must be > 0, or 0 for no clipping (None in TrainConfig)")


def masked_l1_loss(xhat: Tensor, xtilde, eval_mask) -> Tensor:
    """Mean absolute error over held-out positions (feature-averaged).

    Takes one window, (N, W, C) with an (N, W) mask, or a stack of them,
    whose held-out positions pool into one mean.
    """
    xtilde = np.asarray(xtilde, dtype=np.float64)
    eval_mask = np.asarray(eval_mask, dtype=np.float64)
    count = int(eval_mask.sum())
    if count == 0:
        raise EmptyMaskError("no held-out positions in this batch")
    per_position = ad.absolute(xhat + ad.constant(-xtilde)).mean(axis=-1)
    return ad.masked_select(per_position, eval_mask).sum() * (1.0 / count)


class Adam:
    """Bias-corrected Adam over a named parameter dict; grads zero after step."""

    def __init__(self, params: dict, lr: float, clip: float | None = None):
        self.params = dict(params)
        self.lr = lr
        self.clip = clip
        self.step_count = 0
        self.moment1 = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.moment2 = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self) -> None:
        grads = {}
        for name, t in self.params.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            if np.isnan(g).any():
                raise NumericError(f"NaN gradient in parameter {name!r}")
            grads[name] = g
        if self.clip is not None:
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > self.clip:
                scale = self.clip / total
                grads = {name: g * scale for name, g in grads.items()}
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.step_count
        correct2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, t in self.params.items():
            g = grads[name]
            m = self.moment1[name]
            v = self.moment2[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            t.data = t.data - self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
            t.zero_grad()


@dataclass
class TrainResult:
    best_state: dict
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_rmse: float = float("inf")
    best_val_mape: float = float("inf")
    diverged: bool = False
    epochs_run: int = 0


def predict_windows(model: MagiNet, windows: list[IncompleteWindow]) -> list[np.ndarray]:
    """``model.predict`` of each window, in original units: the one path that
    predicts windows, for validation, ``eval`` and ``impute``. A forward pass
    takes ``EVAL_CHUNK`` windows, fewer past ``EVAL_PAIR_BUDGET`` node pairs
    (8 at 16 nodes, 1 at 207); no window's prediction depends on the others.

    When the pair budget sets the chunk (91 nodes and up), the chunks run
    through ``parallel.fork_map``, on forked worker processes: threads would
    share one GIL, which such a pass holds for much of its time. Either way
    predictions come in chunk order, the same bytes for any worker count.
    """
    per_pass = EVAL_PAIR_BUDGET // model.graph.n_nodes ** 2
    chunk = max(1, min(EVAL_CHUNK, per_pass))
    chunks = [windows[start:start + chunk] for start in range(0, len(windows), chunk)]
    parts = (fork_map(model.predict, chunks) if per_pass < EVAL_CHUNK
             else [model.predict(part) for part in chunks])
    return [pred for part in parts for pred in part]


def evaluate_model(model: MagiNet, windows: list[IncompleteWindow]) -> tuple[float, float]:
    """Pooled RMSE/MAPE over held-out positions, in original units."""
    return pooled_metrics(predict_windows(model, windows), windows)


def train_model(model: MagiNet, train_windows: list[IncompleteWindow],
                valid_windows: list[IncompleteWindow], cfg: TrainConfig) -> TrainResult:
    """Run the epoch loop; keeps the best-validation parameter state.

    Windows arrive in original units; the model's normalizer (fit on the
    training split) maps inputs and loss targets into normalized space,
    while validation metrics are computed in original units. With
    cfg.hide_fraction > 0, every training window of every batch also
    hides a fresh random share of its observed entries and is supervised
    on them (the GRIN/SPIN scheme); validation windows are never altered.
    """
    if not train_windows or not valid_windows:
        raise ContractError("training needs nonempty train and validation splits")
    if model.normalizer is None:
        model.normalizer = Normalizer.fit(train_windows)
    norm = model.normalizer
    train_norm = [norm.normalize_window(w) for w in train_windows]
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(dict(model.params.items()), lr=cfg.learning_rate, clip=cfg.grad_clip)
    result = TrainResult(best_state=model.params.state())
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_norm))
        epoch_abs_sum = 0.0
        epoch_count = 0
        diverged = False
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_norm[i] for i in order[start:start + cfg.batch_size]]
            if cfg.hide_fraction > 0.0:
                batch = [hide_observed(w, cfg.hide_fraction, rng) for w in batch]
            live = [w for w in batch if w.held_out_count()]
            if not live:
                continue  # nothing to supervise in this batch
            held_out = np.stack([w.eval_mask for w in live])
            out = model.forward(np.stack([w.x for w in live]), np.stack([w.m for w in live]))
            loss = masked_l1_loss(out, np.stack([w.ground_truth for w in live]), held_out)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                diverged = True
                break
            model.params.zero_grads()
            loss.backward()
            del out, loss  # free this batch's tape before the next one is built
            optimizer.step()
            total = int(held_out.sum())
            epoch_abs_sum += loss_value * total
            epoch_count += total
        if diverged:
            result.diverged = True
            result.epochs_run = epoch
            break
        train_loss = epoch_abs_sum / max(1, epoch_count)
        val_rmse, val_mape = evaluate_model(model, valid_windows)
        result.history.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "val_rmse": val_rmse,
            "val_mape": val_mape,
        })
        result.epochs_run = epoch
        if val_rmse < result.best_val_rmse:
            result.best_val_rmse = val_rmse
            result.best_val_mape = val_mape
            result.best_epoch = epoch
            result.best_state = model.params.state()
            stale = 0
        else:
            stale += 1
            if stale > cfg.patience:
                break
    model.params.load_state(result.best_state)
    return result


def history_rows(result: TrainResult) -> list[list]:
    rows = [["epoch", "train_loss", "val_rmse", "val_mape"]]
    for entry in result.history:
        rows.append([entry["epoch"], repr(entry["train_loss"]),
                     repr(entry["val_rmse"]), repr(entry["val_mape"])])
    return rows
