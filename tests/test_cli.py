import csv
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from maginet import cli, data, evaluation, training
from maginet.errors import InputError
from maginet.evaluation import rmse as rmse_metric
from maginet.graph import TrafficGraph, load_adjacency
from maginet.model import MagiNet, ModelConfig, load_checkpoint, save_checkpoint
from maginet.training import evaluate_model


def run(argv):
    return cli.main(argv)


def generate_tiny(tmp_path, nodes=6, steps=96, seed=1, extra=None):
    argv = ["generate", "--nodes", str(nodes), "--steps", str(steps), "--seed", str(seed),
            "--period", "24", "--out", str(tmp_path)]
    if extra:
        argv += extra
    assert run(argv) == 0
    return tmp_path / "series.csv", tmp_path / "adjacency.csv"


TRAIN_FAST = ["--d", "4", "--heads", "2", "--head-dim", "2", "--spatial-dim", "3",
              "--cheb-order", "2", "--kernels", "3", "--blocks", "1",
              "--epochs", "2", "--batch-size", "4", "--lr", "0.002"]


# ---------------------------------------------------------------- generate


def test_generate_is_byte_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    s1, g1 = generate_tiny(a_dir, nodes=8, steps=288)
    s2, g2 = generate_tiny(b_dir, nodes=8, steps=288)
    # provenance leaves --out out of the comment line, so the files match byte for byte
    assert s1.read_bytes() == s2.read_bytes()
    assert g1.read_bytes() == g2.read_bytes()


def test_generate_single_node_is_usage_error(tmp_path):
    assert run(["generate", "--nodes", "1", "--steps", "96", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("period", ["0", "-24"])
def test_generate_period_below_one_is_usage_error_before_any_file_is_written(tmp_path, capsys,
                                                                              period):
    out = tmp_path / "o"
    assert run(["generate", "--nodes", "4", "--steps", "24", "--period", period,
                "--out", str(out)]) == 1
    assert f"usage error: --period must be >= 1, got {period}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_negative_noise_is_input_error_before_any_file_is_written(tmp_path, capsys):
    # and a negative edge count: they once wrote what --noise 0 and --extra-edges 0 write
    out = tmp_path / "o"
    for flag, value, message in [("--noise", "-1", "noise must be >= 0, got -1.0"),
                                 ("--extra-edges", "-3", "extra_edges must be >= 0, got -3")]:
        assert run(["generate", "--nodes", "4", "--steps", "24", flag, value, "--out", str(out)]) == 2
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_generate_summary_mentions_std(tmp_path, capsys):
    generate_tiny(tmp_path)
    out = capsys.readouterr().out
    assert "std=" in out
    std = float(out.split("std=")[1].split(")")[0])
    assert std > 0


# ---------------------------------------------------------------- provenance


def _mask_comment(series, out):
    assert run(["mask", "--series", str(series), "--ratio", "0.5", "--seed", "3",
                "--out", str(out)]) == 0
    return (out / "mask.csv").read_text().splitlines()[0]


def test_provenance_same_bytes_at_two_paths_give_same_line(tmp_path):
    series, _ = generate_tiny(tmp_path)
    copy = tmp_path / "elsewhere" / "renamed.csv"
    copy.parent.mkdir()
    copy.write_bytes(series.read_bytes())
    first = _mask_comment(series, tmp_path / "m1")
    second = _mask_comment(copy, tmp_path / "deeper" / "m2")
    assert first == second
    assert "series=sha256:" in first and first.startswith("# maginet v")


def test_provenance_changes_with_one_input_byte(tmp_path):
    series, _ = generate_tiny(tmp_path)
    raw = bytearray(series.read_bytes())
    last_digit = max(i for i, b in enumerate(raw) if chr(b).isdigit())
    raw[last_digit] = ord("1") if raw[last_digit] != ord("1") else ord("2")
    edited = tmp_path / "edited.csv"
    edited.write_bytes(bytes(raw))
    assert _mask_comment(series, tmp_path / "m1") != _mask_comment(edited, tmp_path / "m2")


def test_provenance_names_no_path_in_any_output(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    cfg = _fast_config(tmp_path)
    run_dir, out = tmp_path / "run", tmp_path / "out"
    commands = [
        ["mask", "--series", str(series), "--out", str(out / "mask")],
        ["train", "--series", str(series), "--adj", str(adj), "--config", str(cfg),
         "--out", str(run_dir)],
        ["impute", "--series", str(series), "--adj", str(adj), "--mask", str(run_dir / "mask.csv"),
         "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(out / "impute")],
        ["eval", "--series", str(series), "--adj", str(adj), "--mask", str(run_dir / "mask.csv"),
         "--checkpoint", str(run_dir / "checkpoint.json"), "--methods", "mean,maginet",
         "--split", "all", "--traces", str(out / "traces"), "--out", str(out / "eval")],
        ["sweep", "--series", str(series), "--adj", str(adj), "--ratios", "0.5",
         "--methods", "mean", "--out", str(out / "sweep")],
        ["ablate", "--series", str(series), "--adj", str(adj), "--config", str(cfg),
         "--variants", "w/o MASTdec", "--epochs", "1", "--out", str(out / "ablate")],
    ]
    for argv in commands:
        assert run(argv) == 0, argv[0]
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != cfg]
    assert len(written) > 10
    for path in written:
        first = path.read_text().splitlines()[0]
        if path.name == "config.json":
            continue  # plain JSON, no comment line
        assert first.startswith("# maginet v"), path
        assert str(tmp_path) not in first and tmp_path.name not in first, path


# ---------------------------------------------------------------- mask


def test_mask_roundtrips_and_is_deterministic(tmp_path):
    series, _ = generate_tiny(tmp_path)
    m_dir = tmp_path / "m"
    assert run(["mask", "--series", str(series), "--ratio", "0.5", "--seed", "3",
                "--out", str(m_dir)]) == 0
    loaded = data.load_series_csv(series)
    assert np.array_equal(data.load_mask_csv(m_dir / "mask.csv"),
                          data.draw_eval_mask(loaded, 0.5, 3))
    assert (m_dir / "mask.csv").read_text().splitlines()[1] == "# seed=3 ratio=0.5"


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    series, adj = generate_tiny(tmp_path)
    out = tmp_path / "run"
    code = run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "2", "--out", str(out)] + TRAIN_FAST)
    assert code == 0
    assert (out / "checkpoint.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "mask.csv").exists()
    printed = capsys.readouterr().out
    assert "val RMSE" in printed
    header = (out / "history.csv").read_text().splitlines()
    assert header[0].startswith("# maginet v")
    assert header[1] == "epoch,train_loss,val_rmse,val_mape"


def test_train_lr_zero_keeps_initial_params(tmp_path):
    series, adj = generate_tiny(tmp_path)
    outs = []
    for lr, name in (("0.0", "zero"), ("0.0", "zero2")):
        out = tmp_path / name
        assert run(["train", "--series", str(series), "--adj", str(adj), "--seed", "2",
                    "--out", str(out), "--lr", lr] + TRAIN_FAST[:-2]) == 0
        outs.append(json.loads((out / "checkpoint.json").read_text().split("\n", 1)[1]))
    assert outs[0]["params"] == outs[1]["params"]


def test_train_missing_adjacency_exits_2_with_path(tmp_path, capsys):
    series, _ = generate_tiny(tmp_path)
    missing = tmp_path / "nope.csv"
    code = run(["train", "--series", str(series), "--adj", str(missing), "--out",
                str(tmp_path / "r")] + TRAIN_FAST)
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_train_adjacency_overflowing_a_degree_exits_2(tmp_path, capsys):
    series, _ = generate_tiny(tmp_path)
    big = tmp_path / "big.csv"
    big.write_text("src,dst,weight\n0,1,1e308\n0,2,1e308\n")
    code = run(["train", "--series", str(series), "--adj", str(big), "--out",
                str(tmp_path / "r")] + TRAIN_FAST)
    assert code == 2
    assert "input error: adjacency weights overflow" in capsys.readouterr().err


def test_train_epoch1_loss_deterministic(tmp_path):
    series, adj = generate_tiny(tmp_path)
    losses = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                    "--seed", "7", "--out", str(out)] + TRAIN_FAST) == 0
        first = (out / "history.csv").read_text().splitlines()[2]
        losses.append(first.split(",")[1])
    assert losses[0] == losses[1]


def test_train_hide_fraction_flag(tmp_path):
    series, adj = generate_tiny(tmp_path)
    base = ["train", "--series", str(series), "--adj", str(adj), "--seed", "2"] + TRAIN_FAST
    assert run(base + ["--out", str(tmp_path / "bad"), "--hide-fraction", "1.0"]) == 2
    out = tmp_path / "run"
    assert run(base + ["--out", str(out), "--hide-fraction", "0.3"]) == 0
    assert json.loads((out / "config.json").read_text())["hide_fraction"] == 0.3
    assert "hide_fraction=0.3 " in (out / "history.csv").read_text().splitlines()[0]


def test_train_mask_records_the_ratio_of_the_mask_it_read(tmp_path):
    # --ratio draws no mask here: config.json holds the share of the observed
    # entries the mask hides, as eval --mask labels its rows
    series, adj = generate_tiny(tmp_path, steps=240)
    assert run(["mask", "--series", str(series), "--ratio", "0.2", "--seed", "3",
                "--out", str(tmp_path)]) == 0
    hidden = int(data.load_mask_csv(tmp_path / "mask.csv").sum())
    observed = int(data.load_series_csv(series).observed().sum())
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--mask",
                str(tmp_path / "mask.csv"), "--ratio", "0.7", "--out", str(out)] + TRAIN_FAST) == 0
    assert json.loads((out / "config.json").read_text())["ratio"] == hidden / observed != 0.7


# ---------------------------------------------------------------- impute


def test_impute_fully_observed_passes_values_through(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=96)
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "2", "--out", str(out)] + TRAIN_FAST) == 0
    imp_dir = tmp_path / "imp"
    assert run(["impute", "--series", str(series), "--adj", str(adj),
                "--checkpoint", str(out / "checkpoint.json"), "--out", str(imp_dir)]) == 0
    original = series.read_text().split("\n", 1)[1]
    imputed = (imp_dir / "imputed.csv").read_text().split("\n", 1)[1]
    assert original == imputed  # byte-identical values for a fully observed file


def test_impute_fills_masked_positions(tmp_path):
    series, adj = generate_tiny(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "2", "--out", str(out)] + TRAIN_FAST) == 0
    imp_dir = tmp_path / "imp"
    assert run(["impute", "--series", str(series), "--adj", str(adj),
                "--mask", str(out / "mask.csv"),
                "--checkpoint", str(out / "checkpoint.json"), "--out", str(imp_dir)]) == 0
    raw = data.load_series_csv(series)
    filled = data.load_series_csv(imp_dir / "imputed.csv")
    hidden = data.load_mask_csv(out / "mask.csv") == 1
    assert not np.array_equal(filled.values[hidden], raw.values[hidden])
    assert np.array_equal(filled.values[~hidden], raw.values[~hidden])


def test_impute_tail_steps_are_imputed_not_copied(tmp_path):
    # 125 steps at W=12: ten full windows, then 5 steps only a
    # right-aligned window covers
    series_path, adj = generate_tiny(tmp_path, nodes=6, steps=125)
    values = np.array(data.load_series_csv(series_path).values)
    values[2, 118:124, :] = np.nan  # natively missing, partly in the tail
    values[4, 3:6, :] = np.nan
    series = data.SeriesMatrix(values=values)
    data.save_series_csv(series_path, series)
    mask = data.draw_eval_mask(series, 0.5, seed=1)
    data.save_mask_csv(tmp_path / "mask.csv", mask, seed=1, ratio=0.5)
    out = tmp_path / "run"
    base = ["--series", str(series_path), "--adj", str(adj), "--mask", str(tmp_path / "mask.csv")]
    assert run(["train"] + base + ["--out", str(out)] + TRAIN_FAST) == 0
    imp_dir = tmp_path / "imp"
    assert run(["impute"] + base + ["--checkpoint", str(out / "checkpoint.json"),
                                    "--out", str(imp_dir)]) == 0
    filled = data.load_series_csv(imp_dir / "imputed.csv").values
    held_out = mask == 1
    unobserved = held_out | np.isnan(values).any(axis=2)
    assert held_out[:, 120:].any() and np.isnan(values[:, 120:]).any()
    assert not (filled[held_out] == values[held_out]).all(axis=-1).any()
    assert np.isfinite(filled[unobserved]).all()
    assert np.array_equal(filled[~unobserved], values[~unobserved])


def test_impute_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    # 245 steps at W=12: 20 full windows, then the right-aligned window over
    # the 5-step tail; under a pair budget shrunk to 3 windows of 6 nodes,
    # seven chunks of 3 on a worker process per CPU, the tail window last
    series, adj = generate_tiny(tmp_path, nodes=6, steps=245)
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "2", "--out", str(out)] + TRAIN_FAST) == 0
    base = ["impute", "--series", str(series), "--adj", str(adj), "--mask", str(out / "mask.csv"),
            "--checkpoint", str(out / "checkpoint.json")]
    monkeypatch.setattr(training, "EVAL_PAIR_BUDGET", 3 * 6 * 6)
    real_predict = MagiNet.predict
    imputed = {}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        log = tmp_path / f"pids{cpus}"
        log.mkdir()

        def predict(model, windows, log=log):
            # runs in the worker processes: one file per chunk, named by its process
            (log / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
            time.sleep(0.01)   # long enough for any idle worker to take the next chunk
            return real_predict(model, windows)

        monkeypatch.setattr(MagiNet, "predict", predict)
        assert run(base + ["--out", str(tmp_path / f"imp{cpus}")]) == 0
        imputed[cpus] = (tmp_path / f"imp{cpus}" / "imputed.csv").read_bytes()
        assert multiprocessing.active_children() == []
        pids = {int(path.name.split("-")[0]) for path in log.iterdir()}
        assert len(list(log.iterdir())) == 7 and len(pids) == min(cpus, 7)
        assert (pids == {os.getpid()}) == (cpus == 1)
    assert imputed[1] == imputed[4]


# pins itself to one CPU when asked, before numpy loads, then runs the CLI
PINNED_CLI = """import os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from maginet.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_impute_same_bytes_on_one_cpu_and_on_every_usable_cpu(tmp_path):
    # 125 steps at W=12: 10 full windows and the tail window, in chunks of 4
    # windows at 128 nodes, on a worker process per usable CPU; with more than one
    # BLAS thread the products may round differently, in the last bits only
    series, adj = generate_tiny(tmp_path, nodes=128, steps=125, seed=3)
    assert run(["mask", "--series", str(series), "--ratio", "0.5", "--out", str(tmp_path)]) == 0
    model = MagiNet(ModelConfig(), load_adjacency(adj, 128), width=12, n_features=1, seed=3)
    save_checkpoint(tmp_path / "checkpoint.json", model)
    src = str(Path(cli.__file__).resolve().parents[1])
    imputed = {}
    for cpus, blas in (("one-cpu", "1"), ("all-cpus", "1"), ("all-cpus", "2")):
        out = tmp_path / f"{cpus}-{blas}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas}
        done = subprocess.run(
            [sys.executable, "-c", PINNED_CLI, cpus, "impute", "--series", str(series), "--adj",
             str(adj), "--mask", str(tmp_path / "mask.csv"), "--checkpoint",
             str(tmp_path / "checkpoint.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        imputed[cpus, blas] = out / "imputed.csv"
    assert imputed["one-cpu", "1"].read_bytes() == imputed["all-cpus", "1"].read_bytes()
    one, two = (data.load_series_csv(imputed["all-cpus", blas]).values for blas in ("1", "2"))
    assert np.allclose(two, one, rtol=1e-12, atol=0.0)


def test_impute_nan_at_an_observed_entry_of_a_later_window_exits_2(tmp_path, monkeypatch, capsys):
    # 480 steps at W=12: 40 windows in ten chunks of 4 under a shrunk pair
    # budget; the model's encoder rejects the NaN in whichever worker
    # process predicts that window
    series, adj = generate_tiny(tmp_path, nodes=6, steps=480)
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "2", "--out", str(out)] + TRAIN_FAST) == 0
    real_make_windows = data.make_windows

    def make_windows(*args):
        windows = real_make_windows(*args)
        if len(windows) > 1:   # the full windows, not the tail window
            later = windows[30]
            x = np.array(later.x)
            node, step = np.argwhere(later.m == 1.0)[0]
            x[node, step, 0] = np.nan
            object.__setattr__(later, "x", x)   # past the check made when a window is built
        return windows

    monkeypatch.setattr(data, "make_windows", make_windows)
    monkeypatch.setattr(training, "EVAL_PAIR_BUDGET", 4 * 6 * 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    before = set(threading.enumerate())
    assert run(["impute", "--series", str(series), "--adj", str(adj),
                "--checkpoint", str(out / "checkpoint.json"), "--out", str(tmp_path / "imp")]) == 2
    assert "input error: NaN at an observed position" in capsys.readouterr().err
    assert set(threading.enumerate()) == before and multiprocessing.active_children() == []


# ---------------------------------------------------------------- eval


def test_eval_hand_built_window_matches_rmse_oracle(tmp_path, capsys):
    # 2 nodes x 4 steps, one window; hand-checkable mean baseline
    series_path = tmp_path / "s.csv"
    series_path.write_text(
        "node0_f0,node1_f0\n2.0,1.0\n4.0,1.0\n6.0,1.0\n8.0,1.0\n")
    adj_path = tmp_path / "a.csv"
    adj_path.write_text("src,dst,weight\n0,1,1.0\n")
    mask_path = tmp_path / "m.csv"
    mask = np.zeros((2, 4), dtype=np.int8)
    mask[0, 3] = 1  # hide node 0's value 8; observed mean is (2+4+6)/3 = 4
    data.save_mask_csv(mask_path, mask, seed=0, ratio=0.125)
    out = tmp_path / "o"
    assert run(["eval", "--series", str(series_path), "--adj", str(adj_path),
                "--mask", str(mask_path), "--methods", "mean", "--split", "all",
                "--width", "4", "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    row = report[2].split(",")
    assert row[0] == "mean"
    assert float(row[4]) == 4.0  # |8 - 4| on a single entry


def test_eval_writes_traces(tmp_path):
    series, adj = generate_tiny(tmp_path)
    out = tmp_path / "o"
    traces = tmp_path / "traces"
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--ratio", "0.4",
                "--seed", "5", "--methods", "mean", "--split", "all",
                "--traces", str(traces), "--out", str(out)]) == 0
    files = sorted(traces.glob("mean_node*.csv"))
    assert len(files) == 6
    lines = files[0].read_text().splitlines()
    assert lines[1] == "t,ground_truth,imputed,observed"


def test_eval_traces_hold_numbers(tmp_path):
    series, adj = generate_tiny(tmp_path)
    traces = tmp_path / "traces"
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--methods", "mean",
                "--split", "all", "--traces", str(traces), "--out", str(tmp_path / "o")]) == 0
    for path in traces.glob("mean_node*.csv"):
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        assert rows
        for row in rows:
            float(row["ground_truth"])   # raises on anything but a number


def test_eval_reads_a_mask_whose_seed_ratio_line_does_not_parse(tmp_path):
    # the seed and ratio line is written for a reader; nothing reads it back
    series_path = tmp_path / "s.csv"
    series_path.write_text("node0_f0,node1_f0\n2.0,1.0\n4.0,1.0\n")
    adj_path = tmp_path / "a.csv"
    adj_path.write_text("src,dst,weight\n0,1,1.0\n")
    mask_path = tmp_path / "m.csv"
    mask_path.write_text("# seed=1 ratio=1e\nnode0,node1\n0,0\n1,0\n")
    assert np.array_equal(data.load_mask_csv(mask_path), [[0, 1], [0, 0]])
    assert run(["eval", "--series", str(series_path), "--adj", str(adj_path),
                "--mask", str(mask_path), "--methods", "mean", "--split", "all",
                "--width", "2", "--out", str(tmp_path / "o")]) == 0


def test_eval_labels_its_rows_by_the_mask_it_reads(tmp_path):
    # --ratio and --seed draw no mask here: each row holds the share of the
    # observed entries the mask hides and an empty seed; the comment line no seed
    series, adj = generate_tiny(tmp_path, steps=240)
    assert run(["mask", "--series", str(series), "--ratio", "0.2", "--seed", "3",
                "--out", str(tmp_path)]) == 0
    hidden = int(data.load_mask_csv(tmp_path / "mask.csv").sum())
    observed = int(data.load_series_csv(series).observed().sum())
    out = tmp_path / "o"
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--mask",
                str(tmp_path / "mask.csv"), "--methods", "mean,knn", "--seed", "11",
                "--out", str(out)]) == 0
    comment, *lines = (out / "report.csv").read_text().splitlines()
    assert [row[2:4] for row in csv.reader(lines[1:])] == [[repr(hidden / observed), ""]] * 2
    assert "seed=" not in comment


def test_eval_mask_over_a_series_with_nothing_observed_exits_2_without_a_warning(tmp_path,
                                                                                 capsys):
    series_path = tmp_path / "s.csv"
    series_path.write_text("node0_f0,node1_f0\n,\n,\n")
    adj_path = tmp_path / "a.csv"
    adj_path.write_text("src,dst,weight\n0,1,1.0\n")
    mask_path = tmp_path / "m.csv"
    mask_path.write_text("node0,node1\n0,0\n0,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", "--series", str(series_path), "--adj", str(adj_path),
                    "--mask", str(mask_path), "--methods", "mean", "--split", "all",
                    "--width", "2", "--out", str(tmp_path / "o")]) == 2
    assert "input error: " in capsys.readouterr().err


def test_eval_report_quotes_a_dataset_tag_holding_a_comma(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    odd = tmp_path / "a,b.csv"
    odd.write_bytes(series.read_bytes())
    out = tmp_path / "o"
    assert run(["eval", "--series", str(odd), "--adj", str(adj), "--methods", "mean,knn",
                "--out", str(out)]) == 0
    with open(out / "report.csv", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    assert rows[0] == evaluation.REPORT_COLUMNS
    assert [len(row) for row in rows] == [7, 7, 7] and rows[1][1] == rows[2][1] == "a,b"


@pytest.mark.parametrize("cell", ["2", "300"])
def test_eval_out_of_range_mask_cell_exits_2_naming_its_row(tmp_path, capsys, cell):
    series_path = tmp_path / "s.csv"
    series_path.write_text("node0_f0,node1_f0\n2.0,1.0\n4.0,1.0\n")
    adj_path = tmp_path / "a.csv"
    adj_path.write_text("src,dst,weight\n0,1,1.0\n")
    mask_path = tmp_path / "m.csv"
    mask_path.write_text(f"node0,node1\n0,0\n{cell},0\n")
    code = run(["eval", "--series", str(series_path), "--adj", str(adj_path),
                "--mask", str(mask_path), "--methods", "mean", "--split", "all",
                "--width", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "m.csv: row 3: mask cells must be 0/1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--series", "--mask", "--adj"])
def test_eval_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, flag):
    files = {"--series": ("s.csv", "node0_f0,node1_f0\n2.0,1.0\n4.0,1.0\n"),
             "--adj": ("a.csv", "src,dst,weight\n0,1,1.0\n"),
             "--mask": ("m.csv", "node0,node1\n0,0\n1,0\n")}
    argv = ["eval"]
    for name, (file_name, text) in files.items():
        path = tmp_path / file_name
        # a 0xff byte never occurs in UTF-8
        path.write_bytes(text.encode() + (b"\xff\n" if name == flag else b""))
        argv += [name, str(path)]
    code = run(argv + ["--methods", "mean", "--split", "all", "--width", "2",
                       "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"input error: {tmp_path / files[flag][0]}: not UTF-8 text" in capsys.readouterr().err


def test_eval_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    series, adj = generate_tiny(tmp_path)
    config = tmp_path / "c.json"
    config.write_bytes(b'{"ratio": 0.4}\n\xff')
    code = run(["eval", "--series", str(series), "--adj", str(adj), "--config", str(config),
                "--methods", "mean", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"input error: {config}: not UTF-8 text" in capsys.readouterr().err


def test_impute_checkpoint_of_version_1_exits_2_naming_file_and_version(tmp_path, capsys):
    series, adj = generate_tiny(tmp_path)
    model = MagiNet(ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                                kernel_sizes=(3,), blocks=1),
                    load_adjacency(adj, 6), width=12, n_features=1, seed=1)
    checkpoint = tmp_path / "k.json"
    save_checkpoint(checkpoint, model)
    payload = json.loads(checkpoint.read_text())
    # version 1 spelled each tensor's values as a JSON number list
    payload["format_version"] = 1
    payload["params"] = {name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
                         for name, t in model.params.items()}
    checkpoint.write_text(json.dumps(payload))
    code = run(["impute", "--series", str(series), "--adj", str(adj),
                "--checkpoint", str(checkpoint), "--out", str(tmp_path / "imp")])
    assert code == 2
    assert (f"input error: {checkpoint}: not a valid checkpoint: unsupported checkpoint "
            "version 1 (this maginet reads version 2)") in capsys.readouterr().err
    assert not (tmp_path / "imp").exists()


def test_impute_checkpoint_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    series, adj = generate_tiny(tmp_path)
    checkpoint = tmp_path / "k.json"
    checkpoint.write_bytes(b'{"format_version": 1}\n\xff')
    code = run(["impute", "--series", str(series), "--adj", str(adj),
                "--checkpoint", str(checkpoint), "--out", str(tmp_path / "imp")])
    assert code == 2
    assert f"input error: {checkpoint}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [("train", "flag"), ("eval", "config")])
def test_out_of_range_ratio_beside_a_mask_it_reads_exits_2(tmp_path, capsys, command, source):
    # the mask, not the ratio, labels the run, but a ratio out of [0, 1] is still an input error
    series, adj = generate_tiny(tmp_path, steps=240)
    assert run(["mask", "--series", str(series), "--ratio", "0.2", "--out", str(tmp_path)]) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"ratio": 1.5}))
    ratio = ["--ratio", "1.5"] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "o"
    assert run([command, "--series", str(series), "--adj", str(adj), "--mask",
                str(tmp_path / "mask.csv"), "--out", str(out)] + ratio) == 2
    assert "input error: missing ratio must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_eval_knn_k_out_of_range_exits_2_before_any_prediction(tmp_path, capsys, monkeypatch):
    series, adj = generate_tiny(tmp_path)
    model = MagiNet(ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                                kernel_sizes=(3,), blocks=1),
                    load_adjacency(adj, 6), width=12, n_features=1, seed=1)
    checkpoint = tmp_path / "k.json"
    save_checkpoint(checkpoint, model)
    predicted = []
    monkeypatch.setattr(cli, "predict_windows",
                        lambda model, windows: predicted.append(windows) or [w.x for w in windows])
    capsys.readouterr()
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--checkpoint",
                str(checkpoint), "--methods", "maginet,knn", "--knn-k", "6",
                "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and predicted == []
    assert "input error: k must be below the node count (6), got 6" in captured.err
    assert not (tmp_path / "o").exists()


def test_eval_maginet_rmse_equals_train_test_rmse(tmp_path):
    # 100 windows of 12 steps: the 10 test windows take two chunks of EVAL_CHUNK
    series, adj = generate_tiny(tmp_path, steps=1200)
    out = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--width", "12", "--seed", "2", "--out", str(out)] + TRAIN_FAST) == 0
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--mask", str(out / "mask.csv"),
                "--checkpoint", str(out / "checkpoint.json"), "--methods", "maginet",
                "--width", "12", "--out", str(tmp_path / "o")]) == 0
    row = (tmp_path / "o" / "report.csv").read_text().splitlines()[2].split(",")
    cfg = cli.RunConfig(width=12)
    loaded = data.load_series_csv(series)
    mask = data.load_mask_csv(out / "mask.csv")
    windows = data.make_windows(loaded, mask, cfg.width, cfg.effective_stride)
    model = load_checkpoint(out / "checkpoint.json", load_adjacency(adj, loaded.n_nodes))
    test_rmse, _ = evaluate_model(model, data.split(windows, cfg.fractions)[2])
    assert row[0] == "maginet" and float(row[4]) == test_rmse


def test_eval_width_other_than_the_checkpoints_exits_2_before_scoring(tmp_path, capsys):
    series, adj = generate_tiny(tmp_path)
    model = MagiNet(ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                                kernel_sizes=(3,), blocks=1),
                    load_adjacency(adj, 6), width=8, n_features=1, seed=1)
    checkpoint = tmp_path / "k.json"
    save_checkpoint(checkpoint, model)
    capsys.readouterr()
    assert run(["eval", "--series", str(series), "--adj", str(adj), "--checkpoint",
                str(checkpoint), "--methods", "mean,maginet", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"input error: {checkpoint}: the model was trained on windows of width 8, "
            "but --width is 12") in captured.err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- sweep / ablate


def test_sweep_row_counting_and_pivot(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    out = tmp_path / "sweep"
    assert run(["sweep", "--series", str(series), "--adj", str(adj),
                "--ratios", "0.2,0.5,0.7", "--methods", "mean,knn", "--seed", "3",
                "--out", str(out)]) == 0
    rows = (out / "sweep_report.csv").read_text().splitlines()
    assert len(rows) == 2 + 6  # comment + header + 3 ratios x 2 methods
    pivot = (out / "sweep_rmse.csv").read_text().splitlines()
    assert pivot[1] == "ratio,rmse_knn,rmse_mean"
    assert len(pivot) == 5


def test_sweep_deterministic_reports(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    reports = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run(["sweep", "--series", str(series), "--adj", str(adj),
                    "--ratios", "0.3,0.6", "--methods", "mean,knn", "--seed", "9",
                    "--out", str(out)]) == 0
        lines = (out / "sweep_report.csv").read_text().splitlines()[2:]
        reports.append([",".join(line.split(",")[:-1]) for line in lines])  # drop runtime
    assert reports[0] == reports[1]


def test_sweep_same_bytes_for_any_job_count(tmp_path, monkeypatch):
    # in this process on one usable CPU, on two worker processes on two
    series, adj = generate_tiny(tmp_path, steps=240)
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        out = tmp_path / f"cpus{cpus}"
        assert run(["sweep", "--series", str(series), "--adj", str(adj),
                    "--ratios", "0.3,0.6", "--methods", "mean,knn,maginet", "--seed", "9",
                    "--config", str(_fast_config(tmp_path)), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "sweep_rmse.csv").read_bytes() == (outs[1] / "sweep_rmse.csv").read_bytes()
    reports = [(out / "sweep_report.csv").read_text().splitlines() for out in outs]
    assert reports[0][0] == reports[1][0]
    assert len(reports[0]) == 2 + 6
    assert [line.rsplit(",", 1)[0] for line in reports[0]] == \
        [line.rsplit(",", 1)[0] for line in reports[1]]   # all but runtime_s


def test_sweep_with_empty_test_split_names_it(tmp_path, capsys):
    # 96 steps at W=12: 8 windows, floor(0.1 x 8) = 0 of them in the test split
    series, adj = generate_tiny(tmp_path, steps=96)
    assert run(["sweep", "--series", str(series), "--adj", str(adj), "--ratios", "0.5",
                "--methods", "mean", "--out", str(tmp_path / "sweep")]) == 2
    assert "no windows in the test split" in capsys.readouterr().err


def test_sweep_unknown_method_exits_2_before_training(tmp_path, capsys, monkeypatch):
    series, adj = generate_tiny(tmp_path, steps=240)
    trained = []
    monkeypatch.setattr(evaluation, "train_and_score",
                        lambda *a, **kw: trained.append(a) or (1.0, 1.0))
    out = tmp_path / "sweep"
    assert run(["sweep", "--series", str(series), "--adj", str(adj), "--ratios", "0.5",
                "--methods", "maginet,bogus", "--config", str(_fast_config(tmp_path)),
                "--out", str(out)]) == 2
    assert "input error: unknown method 'bogus'" in capsys.readouterr().err
    assert trained == [] and not out.exists()


@pytest.mark.parametrize("k, message", [("0", "k must be >= 1, got 0"),
                                        ("6", "k must be below the node count (6), got 6")])
def test_sweep_knn_k_out_of_range_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                          k, message):
    # on one usable CPU the cells would run in this process, where the spy sees them
    series, adj = generate_tiny(tmp_path, steps=240)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    trained = []
    monkeypatch.setattr(evaluation, "train_and_score",
                        lambda *a, **kw: trained.append(a) or (1.0, 1.0))
    out = tmp_path / "sweep"
    assert run(["sweep", "--series", str(series), "--adj", str(adj), "--ratios", "0.5",
                "--methods", "maginet,knn", "--knn-k", k,
                "--config", str(_fast_config(tmp_path)), "--out", str(out)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert trained == [] and not out.exists()


def test_ablate_writes_variant_rows(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    out = tmp_path / "abl"
    assert run(["ablate", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--seed", "4", "--variants", "w/o MASTdec", "--out", str(out),
                "--epochs", "2", "--batch-size", "4",
                "--config", str(_fast_config(tmp_path))]) == 0
    rows = (out / "ablation_report.csv").read_text().splitlines()
    assert rows[2].startswith("MagiNet,") and rows[3].startswith("w/o MASTdec,")


def test_ablate_with_empty_test_split_names_it_before_training(tmp_path, capsys, monkeypatch):
    # 96 steps at W=12: 8 windows, floor(0.1 x 8) = 0 of them in the test split
    series, adj = generate_tiny(tmp_path, steps=96)
    trained = []
    monkeypatch.setattr(evaluation, "train_and_score", lambda *a, **kw: trained.append(a))
    assert run(["ablate", "--series", str(series), "--adj", str(adj), "--ratio", "0.5",
                "--out", str(tmp_path / "abl"), "--config", str(_fast_config(tmp_path))]) == 2
    assert "no windows in the test split" in capsys.readouterr().err
    assert trained == []


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "--methods", ","], 1, "usage error: --methods lists no entries"),
    (["sweep", "--ratios", "0.5", "--methods", ","], 1, "usage error: --methods lists no entries"),
    (["sweep", "--ratios", ","], 1, "usage error: --ratios lists no entries"),
    (["eval", "--methods", "mean,bogus"], 2, "input error: unknown method 'bogus'"),
    (["eval", "--methods", "mean,maginet"], 1, "usage error: missing required flag --checkpoint"),
    (["eval", "--methods", "mean,knn", "--knn-k", "0"], 2, "input error: k must be >= 1, got 0"),
    (["train", "--kernels", ","], 2, "input error: kernel_sizes must be nonempty"),
    (["train", "--batch-size", "0"], 2, "input error: batch_size must be >= 1"),
    (["train", "--series", "{tmp}/missing.csv"], 2, "input error: series file not found"),
    (["train", "--grad-clip", "-5"], 2, "input error: grad_clip must be > 0, or 0 for no clipping"),
    (["sweep", "--ratios", "0.5,1.5"], 2, "input error: sweep ratios must lie in (0, 1), got 1.5"),
    (["eval", "--mask", "{tmp}/mask.csv", "--ratio", "1.5", "--methods", "mean"], 2,
     "input error: missing ratio must lie in [0, 1], got 1.5"),
], ids=["eval-methods", "sweep-methods", "sweep-ratios", "eval-unknown-method",
        "eval-maginet-without-checkpoint", "eval-knn-k-zero", "train-no-kernels",
        "train-batch-size-zero", "train-missing-series", "train-negative-grad-clip",
        "sweep-ratio-out-of-range", "eval-ratio-out-of-range-beside-mask"])
def test_empty_list_is_usage_error_before_any_file_is_written(tmp_path, capsys, argv, code, message):
    # and every other bad input: each command checks all of them before its first write
    series, adj = generate_tiny(tmp_path, steps=240)
    out, traces = tmp_path / "o", tmp_path / "tr"
    flags = ["--series", str(series), "--adj", str(adj), "--out", str(out)]
    if argv[0] == "eval":
        flags += ["--traces", str(traces)]
    # a flag the case repeats overrides the one before it
    assert run(argv[:1] + flags + [arg.format(tmp=tmp_path) for arg in argv[1:]]) == code
    assert message in capsys.readouterr().err
    assert not out.exists() and not traces.exists()


# each command's runnable argv, and a value for each flag it does not read
COMMAND_ARGV = {
    "generate": ["generate", "--nodes", "6", "--steps", "96", "--period", "24"],
    "mask": ["mask", "--series", "{series}"],
    "impute": ["impute", "--series", "{series}", "--adj", "{adj}", "--checkpoint", "{checkpoint}"],
    "sweep": ["sweep", "--series", "{series}", "--adj", "{adj}", "--ratios", "0.5",
              "--methods", "mean"],
    "ablate": ["ablate", "--series", "{series}", "--adj", "{adj}", "--config", "{config}",
               "--epochs", "1"],
}
UNREAD = {"--series": "{tmp}/other.csv", "--adj": "{adj}", "--mask": "{mask}",
          "--config": "{config}", "--seed": "9", "--ratio": "0.9", "--width": "6", "--stride": "3",
          "--jobs": "2"}
UNREAD_FLAGS = [("generate", "--series"), ("generate", "--adj"), ("generate", "--mask"),
                ("generate", "--ratio"), ("generate", "--stride"),
                ("mask", "--adj"), ("mask", "--mask"), ("mask", "--width"), ("mask", "--stride"),
                ("impute", "--config"), ("impute", "--seed"), ("impute", "--ratio"),
                ("impute", "--width"), ("impute", "--stride"),
                ("sweep", "--mask"), ("sweep", "--ratio"), ("sweep", "--jobs"),
                ("ablate", "--mask")]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{command}{flag}" for command, flag in UNREAD_FLAGS])
def test_flag_a_command_does_not_read_is_usage_error_before_any_file_is_written(
        tmp_path, capsys, command, flag):
    series, adj = generate_tiny(tmp_path, steps=240)
    data.save_mask_csv(tmp_path / "mask.csv",
                       data.draw_eval_mask(data.load_series_csv(series), 0.5, 1), seed=1, ratio=0.5)
    model = MagiNet(ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                                kernel_sizes=(3,), blocks=1),
                    load_adjacency(adj, 6), width=12, n_features=1, seed=1)
    save_checkpoint(tmp_path / "checkpoint.json", model)
    paths = dict(tmp=tmp_path, series=series, adj=adj, mask=tmp_path / "mask.csv",
                 config=_fast_config(tmp_path), checkpoint=tmp_path / "checkpoint.json")
    out = tmp_path / "o"
    argv = COMMAND_ARGV[command] + [flag, UNREAD[flag], "--out", str(out)]
    assert run([arg.format(**paths) for arg in argv]) == 1
    assert f"usage error: unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not out.exists()


def _fast_config(tmp_path):
    path = tmp_path / "fast.json"
    cfg = cli.RunConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                        kernel_sizes=(3,), blocks=1, epochs=2, batch_size=4)
    cfg.to_file(path)
    return path


# ---------------------------------------------------------------- config


def test_config_file_roundtrip(tmp_path):
    cfg = cli.RunConfig(d=8, kernel_sizes=(3, 5, 7), learning_rate=0.00123, ablations=("no_gtconv",))
    path = tmp_path / "cfg.json"
    cfg.to_file(path)
    assert cli.RunConfig.from_file(path) == cfg


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 8, "wat": 1}')
    with pytest.raises(InputError):
        cli.RunConfig.from_file(path)


@pytest.mark.parametrize("config,command", [
    ('{"width": "12"}', "eval"),
    ('{"ratio": "0.5"}', "mask"),
    ('{"kernel_sizes": 3}', "train"),
    ('{"ablations": "no_gtconv"}', "train"),
], ids=["width", "ratio", "kernel_sizes", "ablations"])
def test_mistyped_config_value_exits_2_naming_the_key(tmp_path, capsys, config, command):
    series, adj = generate_tiny(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(config)
    argv = [command, "--series", str(series), "--config", str(path), "--out", str(tmp_path / "o")]
    if command != "mask":
        argv += ["--adj", str(adj)]
    assert run(argv) == 2
    key = next(iter(json.loads(config)))
    assert f"input error: config key {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("value,accepted", [
    ({"ratio": 1}, True), ({"width": 12.0}, False), ({"seed": True}, False),
    ({"learning_rate": False}, False), ({"kernel_sizes": [3, 5.0]}, False),
    ({"ablations": ["no_gtconv", 1]}, False), ({"mask_mode": 0}, False),
    ('# note\n{"ratio": 0.5}\n', True), ({"valid_frac": float("nan")}, False),
    ({"learning_rate": float("inf")}, False),
], ids=["int_as_float", "float_as_int", "bool_as_int", "bool_as_float", "float_in_int_list",
        "int_in_str_list", "int_as_str", "comment_line_first", "nan_float", "infinite_float"])
def test_config_value_types(tmp_path, value, accepted):
    path = tmp_path / "cfg.json"
    path.write_text(value if isinstance(value, str) else json.dumps(value))
    if accepted:
        cli.RunConfig.from_file(path)
    else:
        with pytest.raises(InputError, match="must be"):
            cli.RunConfig.from_file(path)


@pytest.mark.parametrize("argv,key", [
    (["train", "--lr", "nan", "--series", "missing.csv", "--adj", "missing.csv"], "learning_rate"),
    (["generate", "--amplitude", "inf"], "amplitude"),
], ids=["train_lr_nan", "generate_amplitude_inf"])
def test_non_finite_float_flag_exits_2_before_any_input_is_read(tmp_path, capsys, argv, key):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    # a missing --series would be reported first if it were read first
    assert f"input error: config key {key!r} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_json_in_config_names_the_line_from_the_top_of_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('# note\n\n{"ratio": 0.5,\n "width": }\n')
    with pytest.raises(InputError, match="invalid JSON: Expecting value: line 4 column 11"):
        cli.RunConfig.from_file(path)


def test_eval_reads_the_config_that_train_writes(tmp_path):
    series, adj = generate_tiny(tmp_path, steps=240)
    flags = ["--ratio", "0.5", "--width", "12", "--seed", "2"]
    run_dir = tmp_path / "run"
    assert run(["train", "--series", str(series), "--adj", str(adj), "--out", str(run_dir)]
               + flags + TRAIN_FAST) == 0
    reports = []
    for settings in (["--config", str(run_dir / "config.json")], flags):
        out = tmp_path / f"eval{len(reports)}"
        assert run(["eval", "--series", str(series), "--adj", str(adj), "--checkpoint",
                    str(run_dir / "checkpoint.json"), "--methods", "mean,maginet",
                    "--out", str(out)] + settings) == 0
        lines = (out / "report.csv").read_text().splitlines()[1:]
        reports.append([",".join(line.split(",")[:-1]) for line in lines])  # drop runtime
    assert len(reports[0]) == 3 and reports[0] == reports[1]


def test_flags_override_config(tmp_path):
    series, _ = generate_tiny(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cli.RunConfig(ratio=0.2).to_file(cfg_path)
    m_dir = tmp_path / "m"
    assert run(["mask", "--series", str(series), "--config", str(cfg_path),
                "--ratio", "0.6", "--seed", "1", "--out", str(m_dir)]) == 0
    observed = data.load_series_csv(series).observed().sum()
    assert data.load_mask_csv(m_dir / "mask.csv").sum() == int(np.floor(0.6 * observed))


def test_everything_needed_for_process_pools_pickles():
    graph = data.synthetic_graph(4, seed=0)
    series = data.generate_synthetic(4, 48, graph, seed=0, period=24)
    cfg = cli.RunConfig()
    blob = pickle.dumps((series, graph, cfg.model_config(), cfg.train_config()))
    restored_series, restored_graph, _, _ = pickle.loads(blob)
    assert np.array_equal(restored_series.values, series.values)
    assert isinstance(restored_graph, TrafficGraph)


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1
