"""Command-line pipeline: generate | mask | train | impute | eval | sweep | ablate.

Each command takes only the flags it reads; any other flag is a usage
error. Settings come from an optional JSON file (--config) with flag
overrides on top; flags always win, and the file may hold keys a command
ignores. Every command is deterministic given its flags and writes its
files into --out (eval's traces into --traces); sweep and ablate run
their rows on one forked process per usable CPU, or in this one where
the platform has no fork. Each output file but train's config.json
(plain JSON) starts with a comment line naming the run by content: the
tool version, the subcommand, the non-path flags, a sha256 of each
input file, and the seed a command draws from. No path or CPU count is
recorded, so the same inputs and flags give the same bytes in any
directory.

Exit codes: 0 success, 1 usage, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, data, evaluation
from .errors import (
    ContractError,
    EmptyMaskError,
    InputError,
    MagiNetError,
    NumericError,
    ShapeError,
)
from .graph import load_adjacency, save_adjacency
from .model import MagiNet, ModelConfig, load_checkpoint, save_checkpoint
from .training import TrainConfig, evaluate_model, history_rows, predict_windows, train_model


class UsageError(MagiNetError):
    pass


@dataclass
class RunConfig:
    """Every knob of the pipeline; round-trips losslessly through JSON."""

    # windowing and masking
    width: int = 12
    stride: int = 0          # 0 means stride = width
    ratio: float = 0.5
    seed: int = 1
    train_frac: float = 0.7
    valid_frac: float = 0.2
    test_frac: float = 0.1
    knn_k: int = 3
    # synthetic generation
    nodes: int = 16
    steps: int = 2016
    period: int = 288
    amplitude: float = 10.0
    offset: float = 20.0
    noise: float = 0.05
    extra_edges: int = 4
    # model architecture
    d: int = 16
    heads: int = 3
    head_dim: int = 0
    spatial_dim: int = 16
    cheb_order: int = 3
    kernel_sizes: tuple = (3, 5)
    blocks: int = 2
    spatial_kernel: int = 3
    mask_mode: str = "neg_inf"
    ablations: tuple = ()
    # optimization
    learning_rate: float = 3e-3
    epochs: int = 200
    batch_size: int = 8
    patience: int = 200      # as many as the epochs: no early stop by default
    grad_clip: float = 0.0   # 0 disables clipping
    hide_fraction: float = 0.5  # observed entries hidden per training window

    def __post_init__(self):
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        self.ablations = tuple(str(a) for a in self.ablations)

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride else self.width

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.valid_frac, self.test_frac)

    def _fields_of(self, target) -> dict:
        """This config's values of the fields of dataclass ``target``, by name."""
        return {f.name: getattr(self, f.name) for f in fields(target)}

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self._fields_of(ModelConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{**self._fields_of(TrainConfig),
                              "grad_clip": self.grad_clip if self.grad_clip > 0 else None})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return cls(**data.json_settings(raw, {f.name: f.default for f in fields(cls)}, "config"))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = json.loads("\n".join(data.text_lines(path)))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise InputError(f"{path}: invalid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise InputError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_file(self, path) -> None:
        with data.text_file(path) as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)  # tuples as lists
            handle.write("\n")


# -- plumbing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


_INPUT_FILES = ("series", "adj", "mask", "checkpoint", "config")
# paths, the subcommand, and the seed (recorded last, as the effective value)
_NOT_FLAGS = set(_INPUT_FILES) | {"out", "traces", "command", "func", "seed"}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _flag_text(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _provenance(args: argparse.Namespace, seed: int | None = None) -> str:
    """Name the run by content: no path enters the line, so the same
    inputs and flags give the same bytes in any directory."""
    flags = " ".join(f"{name}={_flag_text(value)}" for name, value in sorted(vars(args).items())
                     if value is not None and name not in _NOT_FLAGS)
    # a missing input is not hashed here but reported by _require with its exit code
    digests = " ".join(f"{name}=sha256:{_sha256(Path(path))}" for name in _INPUT_FILES
                       if (path := getattr(args, name, None)) and Path(path).is_file())
    parts = [f"maginet v{__version__}", f"{args.command} {flags}".rstrip()]
    return " | ".join(parts + ([digests] if digests else [])
                      + ([f"seed={seed}"] if seed is not None else []))


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _csv_names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _listed(values, flag: str):
    """``values``, unless the comma-separated list given to ``flag`` named none."""
    if not values:
        raise UsageError(f"{flag} lists no entries")
    return values


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {f.name: value for f in fields(RunConfig) if (value := getattr(args, f.name, None)) is not None}
    return RunConfig.from_dict(asdict(replace(cfg, **flags)))  # flags pass the file's rule too


def _require(path, what: str) -> Path:
    if path is None:
        raise UsageError(f"missing required flag --{what}")
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} file not found: {p}")
    return p


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_series_graph(args):
    series = data.load_series_csv(_require(args.series, "series"))
    graph = load_adjacency(_require(args.adj, "adj"), series.n_nodes)
    return series, graph


def _load_mask(path, series):
    mask = data.load_mask_csv(_require(path, "mask"))
    if mask.shape != (series.n_nodes, series.n_steps):
        raise InputError(
            f"mask geometry {mask.shape} does not match series "
            f"({series.n_nodes}, {series.n_steps})"
        )
    return mask


def _load_or_draw_mask(args, cfg: RunConfig, series):
    """Load the persisted eval mask, or draw one."""
    if not args.mask:
        return data.draw_eval_mask(series, cfg.ratio, cfg.seed)
    return _load_mask(args.mask, series)


def _hidden_share(mask, series) -> float:
    """The ratio of a mask read from --mask: the share of observed entries it hides."""
    return int(mask.sum()) / max(1, int(series.observed().sum()))


def _dataset_tag(args) -> str:
    return Path(args.series).stem


# -- commands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    if cfg.nodes < 2:
        raise UsageError(f"--nodes must be >= 2, got {cfg.nodes}")
    if cfg.steps < cfg.width:
        raise UsageError(f"--steps must be >= window width ({cfg.width}), got {cfg.steps}")
    if cfg.period < 1:
        raise UsageError(f"--period must be >= 1, got {cfg.period}")
    graph = data.synthetic_graph(cfg.nodes, extra_edges=cfg.extra_edges, seed=cfg.seed)
    series = data.generate_synthetic(cfg.nodes, cfg.steps, graph, cfg.seed, period=cfg.period,
                                     amplitude=cfg.amplitude, offset=cfg.offset, noise=cfg.noise)
    out = _out_dir(args)
    note = _provenance(args, cfg.seed)
    series_path, adj_path = out / "series.csv", out / "adjacency.csv"
    data.save_series_csv(series_path, series, comment=note)
    save_adjacency(adj_path, graph, comment=note)
    vals = series.values
    print(f"generated {cfg.nodes} nodes x {cfg.steps} steps "
          f"(mean={vals.mean():.3f}, std={vals.std():.3f}) -> {series_path}, {adj_path}")
    return 0


def cmd_mask(args) -> int:
    cfg = _load_config(args)
    series = data.load_series_csv(_require(args.series, "series"))
    mask = data.draw_eval_mask(series, cfg.ratio, cfg.seed)
    out = _out_dir(args)
    path = out / "mask.csv"
    data.save_mask_csv(path, mask, seed=cfg.seed, ratio=cfg.ratio,
                       comment=_provenance(args, cfg.seed))
    print(f"masked {int(mask.sum())} of {int(series.observed().sum())} observed entries -> {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    series, graph = _load_series_graph(args)
    mask = _load_or_draw_mask(args, cfg, series)
    if args.mask:
        cfg.ratio = _hidden_share(mask, series)
    windows = data.make_windows(series, mask, cfg.width, cfg.effective_stride)
    train_ws, valid_ws, test_ws = data.split(windows, cfg.fractions)
    model = MagiNet(cfg.model_config(), graph, width=cfg.width, n_features=series.n_features,
                    seed=cfg.seed)
    result = train_model(model, train_ws, valid_ws, cfg.train_config())
    out = _out_dir(args)
    note = _provenance(args, cfg.seed)
    if not args.mask:
        data.save_mask_csv(out / "mask.csv", mask, seed=cfg.seed, ratio=cfg.ratio, comment=note)
    save_checkpoint(out / "checkpoint.json", model, comment=note)
    data.write_rows(out / "history.csv", history_rows(result), note)
    cfg.to_file(out / "config.json")
    if result.diverged:
        print(f"training diverged after epoch {result.epochs_run}; "
              f"last good checkpoint kept at {out / 'checkpoint.json'}")
        return 3
    print(f"best epoch {result.best_epoch}: "
          f"val RMSE {result.best_val_rmse:.6f}, val MAPE {result.best_val_mape:.4f}%")
    if test_ws:
        test_rmse, test_mape = evaluate_model(model, test_ws)
        print(f"test RMSE {test_rmse:.6f}, test MAPE {test_mape:.4f}%")
    return 0


def cmd_impute(args) -> int:
    series, graph = _load_series_graph(args)
    model = load_checkpoint(_require(args.checkpoint, "checkpoint"), graph)
    mask = _load_mask(args.mask, series) if args.mask else np.zeros(
        (series.n_nodes, series.n_steps), dtype=np.int8)
    width, steps = model.width, series.n_steps
    windows = data.make_windows(series, mask, width, width)
    if len(windows) * width < steps:
        # a right-aligned window imputes the steps no full window covers
        tail = data.SeriesMatrix(values=series.values[:, steps - width:])
        (w,) = data.make_windows(tail, mask[:, steps - width:], width, width)
        windows.append(replace(w, window_start=steps - width))
    filled = np.array(series.values)
    covered = 0
    for w, pred in zip(windows, predict_windows(model, windows)):
        start = w.window_start
        imputed = np.where(w.m[:, :, None] == 1.0, w.x, pred)
        filled[:, covered:start + width, :] = imputed[:, covered - start:, :]
        covered = start + width
    out = _out_dir(args)
    path = out / "imputed.csv"
    data.save_series_csv(path, data.SeriesMatrix(values=filled), comment=_provenance(args))
    print(f"imputed series -> {path}")
    return 0


def cmd_eval(args) -> int:
    methods = _listed(_csv_names(args.methods), "--methods")
    evaluation.check_methods(methods)
    cfg = _load_config(args)
    series, graph = _load_series_graph(args)
    model = load_checkpoint(_require(args.checkpoint, "checkpoint"), graph) if "maginet" in methods else None
    if model is not None and model.width != cfg.width:
        raise InputError(f"{args.checkpoint}: the model was trained on windows of width "
                         f"{model.width}, but --width is {cfg.width}")
    mask = _load_or_draw_mask(args, cfg, series)
    windows = data.make_windows(series, mask, cfg.width, cfg.effective_stride)
    # a mask read from --mask is labelled by the share of observed entries it hides, and no seed
    ratio, seed = (_hidden_share(mask, series), None) if args.mask else (cfg.ratio, cfg.seed)
    chosen = windows if args.split == "all" else data.split(windows, cfg.fractions)[2]
    if not chosen:
        raise InputError("no windows in the selected split")
    tag = _dataset_tag(args)
    report = evaluation.EvalReport()
    predictions = []
    for method in methods:
        start = time.perf_counter()
        preds = (predict_windows(model, chosen) if method == "maginet"
                 else evaluation.baseline_predictions(method, chosen, cfg.knn_k))
        m_rmse, m_mape = evaluation.pooled_metrics(preds, chosen)
        report.rows.append(evaluation.ReportRow(
            method=method, dataset=tag, ratio=ratio, seed=seed,
            rmse=m_rmse, mape=m_mape, runtime_s=time.perf_counter() - start))
        predictions.append(preds)
        print(f"{method}: RMSE {m_rmse:.6f}, MAPE {m_mape:.4f}%")
    out = _out_dir(args)
    note = _provenance(args, seed)
    if args.traces:
        trace_dir = Path(args.traces)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for method, preds in zip(methods, predictions):
            for node, rows in evaluation.imputation_traces(chosen, preds).items():
                data.write_rows(trace_dir / f"{method}_node{node}.csv",
                                [["t", "ground_truth", "imputed", "observed"]]
                                + [[t, repr(gt), repr(pred), obs] for t, gt, pred, obs in rows],
                                note)
    report.to_csv(out / "report.csv", comment=note)
    return 0


def cmd_sweep(args) -> int:
    methods = _listed(_csv_names(args.methods), "--methods")
    for ratio in _listed(args.ratios, "--ratios"):
        if not 0.0 < ratio < 1.0:
            raise UsageError(f"--ratios entries must lie in (0, 1), got {ratio}")
    cfg = _load_config(args)
    series, graph = _load_series_graph(args)
    report = evaluation.sensitivity_sweep(
        series, graph, list(args.ratios), methods, cfg.seed,
        width=cfg.width, stride=cfg.effective_stride, fractions=cfg.fractions,
        model_config=cfg.model_config(), train_config=cfg.train_config(), knn_k=cfg.knn_k,
        dataset=_dataset_tag(args))
    out = _out_dir(args)
    note = _provenance(args, cfg.seed)
    report.to_csv(out / "sweep_report.csv", comment=note)
    data.write_rows(out / "sweep_rmse.csv", evaluation.sweep_pivot(report), note)
    for row in report.rows:
        print(f"r={row.ratio:.2f} {row.method}: RMSE {row.rmse:.6f}, MAPE {row.mape:.4f}%")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    series, graph = _load_series_graph(args)
    variants = _csv_names(args.variants) if args.variants else []
    report = evaluation.ablation_run(series, graph, variants, cfg.seed, ratio=cfg.ratio,
                                     width=cfg.width, stride=cfg.effective_stride,
                                     fractions=cfg.fractions, model_config=cfg.model_config(),
                                     train_config=cfg.train_config(), dataset=_dataset_tag(args))
    out = _out_dir(args)
    report.to_csv(out / "ablation_report.csv", comment=_provenance(args, cfg.seed))
    for row in report.rows:
        print(f"{row.method}: RMSE {row.rmse:.6f}, MAPE {row.mape:.4f}%")
    return 0


# -- argument wiring ------------------------------------------------------------


_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic series and adjacency into --out"),
    "mask": (cmd_mask, "draw and persist an MCAR eval mask"),
    "train": (cmd_train, "train the imputation model"),
    "impute": (cmd_impute, "fill missing entries with a trained model"),
    "eval": (cmd_eval, "score methods on held-out positions"),
    "sweep": (cmd_sweep, "missing-ratio sensitivity sweep"),
    "ablate": (cmd_ablate, "train ablation variants on one mask"),
}
_WINDOWS = "train eval sweep ablate"   # the commands that window a series on a graph
_TRAINS = "train sweep ablate"

# every flag once: its name, the commands that read it, and argparse's keywords
_FLAGS = [
    ("--series", "mask impute " + _WINDOWS, dict(help="series CSV path")),
    ("--adj", "impute " + _WINDOWS, dict(help="adjacency edge-list CSV path")),
    ("--mask", "train impute eval", dict(help="eval mask CSV path")),
    ("--checkpoint", "impute eval", dict(help="checkpoint JSON path (eval: for method maginet)")),
    ("--config", "generate mask " + _WINDOWS, dict(help="JSON config file; flags override it")),
    ("--out", " ".join(_COMMANDS), dict(help="output directory (default: current)")),
    ("--seed", "generate mask " + _WINDOWS, dict(type=int, help="master seed")),
    ("--ratio", "mask train eval ablate", dict(type=float, help="missing ratio in [0,1]")),
    ("--width", "generate " + _WINDOWS, dict(type=int, help="window width")),
    ("--stride", _WINDOWS, dict(type=int, help="window stride (default: width)")),
    ("--nodes", "generate", dict(type=int)),
    ("--steps", "generate", dict(type=int)),
    ("--period", "generate", dict(type=int)),
    ("--amplitude", "generate", dict(type=float)),
    ("--offset", "generate", dict(type=float)),
    ("--noise", "generate", dict(type=float)),
    ("--extra-edges", "generate", dict(type=int)),
    ("--lr", _TRAINS, dict(dest="learning_rate", type=float)),
    ("--epochs", _TRAINS, dict(type=int)),
    ("--batch-size", _TRAINS, dict(type=int)),
    ("--patience", _TRAINS, dict(type=int)),
    ("--hide-fraction", _TRAINS, dict(type=float, help="share of observed entries hidden and "
                                      "supervised per training window, in [0, 1); 0 is off "
                                      "(default 0.5)")),
    ("--grad-clip", "train", dict(type=float)),
    ("--d", "train", dict(type=int)),
    ("--heads", "train", dict(type=int)),
    ("--head-dim", "train", dict(type=int)),
    ("--spatial-dim", "train", dict(type=int)),
    ("--cheb-order", "train", dict(type=int)),
    ("--kernels", "train", dict(dest="kernel_sizes", type=_csv_ints)),
    ("--blocks", "train", dict(type=int)),
    ("--spatial-kernel", "train", dict(type=int)),
    ("--mask-mode", "train", dict(choices=["neg_inf", "multiply"])),
    ("--ablate", "train", dict(dest="ablations", type=_csv_names,
                               help="comma-separated ablation toggles")),
    ("--methods", "eval sweep", dict(default="mean,knn")),
    ("--knn-k", "eval sweep", dict(type=int)),
    ("--split", "eval", dict(choices=["test", "all"], default="test")),
    ("--traces", "eval", dict(help="directory for per-node trace CSVs")),
    ("--ratios", "sweep", dict(type=_csv_floats, required=True)),
    ("--variants", "ablate", dict(help="comma-separated paper-style variant names")),
]


def build_parser() -> _Parser:
    parser = _Parser(prog="maginet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"maginet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in _COMMANDS.items():
        # no abbreviations: sweep's --ratios would take the --ratio it does not read
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, commands, keywords in _FLAGS:
            if command in commands.split():
                p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, InputError, ShapeError, ContractError, EmptyMaskError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
