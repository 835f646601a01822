import os

import numpy as np
import pytest

from maginet import data, evaluation
from maginet.data import IncompleteWindow
from maginet.errors import ContractError, EmptyMaskError, InputError
from maginet.model import ModelConfig, _prefill
from maginet.training import TrainConfig


def window_from(values, m, eval_mask):
    values = np.asarray(values, dtype=float)
    m = np.asarray(m, dtype=float)
    eval_mask = np.asarray(eval_mask, dtype=float)
    x = np.where(m[:, :, None] == 1.0, values, 0.0)
    gt = np.where(eval_mask[:, :, None] == 1.0, values, 0.0)
    return IncompleteWindow(x=x, m=m, eval_mask=eval_mask, ground_truth=gt, window_start=0)


# ---------------------------------------------------------------- metrics


def test_metrics_zero_on_exact_prediction():
    y = np.random.default_rng(0).uniform(1, 5, (3, 4, 1))
    mask = np.ones((3, 4))
    assert evaluation.rmse(y, y, mask) == 0.0
    assert evaluation.mape(y, y, mask) == 0.0


def test_metrics_single_entry_oracle():
    # |3-1| = 2 -> RMSE 2; |2/1| = 200%
    yhat, y, mask = np.array([[[3.0]]]), np.array([[[1.0]]]), np.array([[1.0]])
    assert evaluation.rmse(yhat, y, mask) == 2.0
    assert evaluation.mape(yhat, y, mask) == 200.0


def test_metrics_two_entry_oracle():
    # errors (-2, 2): RMSE = sqrt((4+4)/2) = 2; MAPE = (100% + 100%)/2
    yhat = np.array([[[0.0], [4.0]]])
    y = np.array([[[2.0], [2.0]]])
    mask = np.array([[1.0, 1.0]])
    assert evaluation.rmse(yhat, y, mask) == 2.0
    assert evaluation.mape(yhat, y, mask) == 100.0


def test_metrics_ignore_unmasked_positions():
    rng = np.random.default_rng(1)
    y = rng.uniform(1, 9, (2, 5, 1))
    mask = np.zeros((2, 5))
    mask[0, 1] = mask[1, 3] = 1.0
    yhat = y + 0.5
    base = evaluation.rmse(yhat, y, mask)
    fuzzed = yhat + rng.uniform(-99, 99, yhat.shape) * (mask[:, :, None] == 0.0)
    assert evaluation.rmse(fuzzed, y, mask) == base
    assert evaluation.mape(fuzzed, y, mask) == evaluation.mape(yhat, y, mask)


def test_metrics_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        evaluation.rmse(np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1)))


def test_mape_excludes_tiny_truth():
    yhat = np.array([[[1.0], [3.0]]])
    y = np.array([[[0.0], [2.0]]])  # first truth below the floor
    mask = np.array([[1.0, 1.0]])
    assert evaluation.mape(yhat, y, mask) == 50.0


def test_pooled_metrics_on_one_window_equal_rmse_and_mape():
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 9, (4, 6, 2))
    ev = (rng.random((4, 6)) < 0.4).astype(float)
    w = window_from(values, 1.0 - ev, ev)
    yhat = values + rng.normal(0.0, 1.0, values.shape)
    empty = window_from(values, np.ones((4, 6)), np.zeros((4, 6)))  # nothing held out: skipped
    pooled = evaluation.pooled_metrics([yhat, values], [w, empty])
    assert pooled == (evaluation.rmse(yhat, w.ground_truth, w.eval_mask),
                      evaluation.mape(yhat, w.ground_truth, w.eval_mask))


def test_pooled_metrics_report_zero_mape_where_mape_raises():
    values = np.array([[[0.0], [1e-9]]])  # every truth below the floor
    w = window_from(values, np.zeros((1, 2)), np.ones((1, 2)))
    yhat = np.array([[[1.0], [1.0]]])
    with pytest.raises(EmptyMaskError):
        evaluation.mape(yhat, w.ground_truth, w.eval_mask)
    assert evaluation.pooled_metrics([yhat], [w]) == (
        evaluation.rmse(yhat, w.ground_truth, w.eval_mask), 0.0)


# ---------------------------------------------------------------- mean baseline


def test_mean_baseline_node_mean():
    # node observes [2, 4]; the hidden slot gets 3
    values = np.array([[[2.0], [4.0], [6.0]]])
    m = np.array([[1.0, 1.0, 0.0]])
    ev = np.array([[0.0, 0.0, 1.0]])
    w = window_from(values, m, ev)
    xhat = evaluation.mean_baseline(w)
    assert xhat[0, 2, 0] == 3.0
    assert xhat[0, 0, 0] == 2.0  # observed pass-through


def test_mean_baseline_all_observed_is_identity():
    rng = np.random.default_rng(2)
    values = rng.uniform(1, 5, (3, 4, 2))
    w = window_from(values, np.ones((3, 4)), np.zeros((3, 4)))
    assert np.array_equal(evaluation.mean_baseline(w), w.x)


def test_mean_baseline_global_fallback():
    values = np.array([[[7.0], [7.0]], [[1.0], [5.0]]])
    m = np.array([[0.0, 0.0], [1.0, 1.0]])  # node 0 fully unobserved
    ev = np.array([[1.0, 1.0], [0.0, 0.0]])
    xhat = evaluation.mean_baseline(window_from(values, m, ev))
    assert np.allclose(xhat[0, :, 0], 3.0)  # global observed mean (1+5)/2


def test_mean_baseline_rejects_fully_unobserved_window():
    w = window_from(np.ones((2, 2, 1)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InputError):
        evaluation.mean_baseline(w)


def test_mean_prefill_equals_mean_baseline_at_hidden_entries():
    rng = np.random.default_rng(4)
    windows = []
    for k in range(6):
        values = rng.uniform(-9, 9, (5, 7, 2))
        m = (rng.random((5, 7)) < 0.6).astype(float)
        m[k % 5] = 0.0  # a node with nothing observed takes the window's mean
        windows.append(window_from(values, m, np.zeros((5, 7))))
    stacked = _prefill(np.stack([w.x for w in windows]), np.stack([w.m for w in windows]), "mean")
    for w, in_stack in zip(windows, stacked):
        hidden = w.m == 0.0
        expected = evaluation.mean_baseline(w)[hidden].tobytes()
        assert _prefill(w.x, w.m, "mean")[hidden].tobytes() == expected
        assert in_stack[hidden].tobytes() == expected


# ---------------------------------------------------------------- knn baseline


def test_knn_identical_neighbor_copies_value():
    values = np.array([[[5.0], [8.0], [3.0]], [[5.0], [8.0], [3.0]]])
    m = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    ev = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    xhat = evaluation.knn_baseline(window_from(values, m, ev), k=1)
    assert xhat[0, 1, 0] == 8.0


def test_knn_hand_distance_table():
    # three nodes: 0 and 1 co-observed (distance 1), 0 and 2 co-observed
    # (distance 2), so k=2 at the hidden slot averages both neighbors
    values = np.array(
        [[[1.0], [1.0], [9.0]],
         [[2.0], [2.0], [4.0]],
         [[3.0], [3.0], [6.0]]]
    )
    m = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    ev = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w = window_from(values, m, ev)
    dist = evaluation.node_distances(w)
    assert dist[0, 1] == 1.0 and dist[0, 2] == 2.0
    xhat = evaluation.knn_baseline(w, k=2)
    assert xhat[0, 2, 0] == 5.0  # mean of neighbors' values 4 and 6


def test_knn_k1_takes_unique_nearest_observed():
    values = np.array(
        [[[1.0], [5.0]],
         [[1.2], [7.0]],
         [[9.0], [2.0]]]
    )
    m = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    ev = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    xhat = evaluation.knn_baseline(window_from(values, m, ev), k=1)
    assert xhat[0, 1, 0] == 7.0  # node 1 is nearest and observed at t=1


def test_knn_falls_back_to_mean_when_no_neighbor_observed():
    values = np.array([[[2.0], [4.0], [6.0]], [[1.0], [1.0], [1.0]]])
    m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # node 1 never observed
    ev = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    xhat = evaluation.knn_baseline(window_from(values, m, ev), k=1)
    assert xhat[0, 2, 0] == 3.0  # node 0's own observed mean


def test_knn_builds_the_mean_fallback_only_when_needed(monkeypatch):
    values = np.array([[[5.0], [8.0], [3.0]], [[5.0], [8.0], [3.0]]])
    m = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    ev = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    calls = []
    real = evaluation.mean_baseline
    monkeypatch.setattr(evaluation, "mean_baseline", lambda w: calls.append(w) or real(w))
    evaluation.knn_baseline(window_from(values, m, ev), k=1)
    assert calls == []  # every hidden entry has an observed neighbour
    lonely = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])  # nobody observed at t=1
    evaluation.knn_baseline(window_from(values, lonely, ev), k=1)
    assert len(calls) == 1


def test_knn_rejects_k_at_node_count():
    w = window_from(np.ones((3, 2, 1)), np.ones((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ContractError):
        evaluation.knn_baseline(w, k=3)


def test_baselines_never_read_held_out_truth():
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 9, (4, 6, 1))
    m = (rng.random((4, 6)) < 0.6).astype(float)
    m[:, 0] = 1.0
    ev = (1.0 - m) * (rng.random((4, 6)) < 0.8)
    w = window_from(values, m, ev)
    # x already zeroes hidden entries; perturbing the stored truth changes nothing
    w2 = IncompleteWindow(x=w.x, m=w.m, eval_mask=w.eval_mask,
                          ground_truth=w.ground_truth * 3.7, window_start=0)
    assert np.array_equal(evaluation.mean_baseline(w), evaluation.mean_baseline(w2))
    assert np.array_equal(evaluation.knn_baseline(w, 2), evaluation.knn_baseline(w2, 2))


def knn_by_entry(window, k):
    # one hidden entry at a time: the reference knn_baseline must match
    dist = evaluation.node_distances(window)
    fallback = evaluation.mean_baseline(window)
    out = np.array(window.x)
    order = np.argsort(dist, axis=1, kind="stable")
    for i in range(window.n_nodes):
        ranked = [j for j in order[i] if np.isfinite(dist[i, j])]
        for t in np.flatnonzero(window.m[i] == 0.0):
            neighbors = [j for j in ranked if window.m[j, t] == 1.0][:k]
            out[i, t, :] = window.x[neighbors, t, :].mean(axis=0) if neighbors else fallback[i, t, :]
    return out


def random_knn_window(rng):
    n, width, c = int(rng.integers(3, 12)), int(rng.integers(1, 8)), int(rng.integers(1, 3))
    values = np.round(rng.uniform(-1.0, 1.0, (n, width, c)), 1)  # one decimal: distances tie
    m = (rng.random((n, width)) < rng.uniform(0.3, 0.9)).astype(float)
    m[rng.integers(n)] = 0.0  # out for the whole window: every hidden entry falls back
    a, b = rng.choice(n, 2, replace=False)
    m[b] = 1.0 - m[a]  # never observed together: infinite distance
    m[rng.integers(n), rng.integers(width)] = 1.0
    ev = (1.0 - m) * (rng.random((n, width)) < 0.7)
    return window_from(values, m, ev)


def test_knn_matches_the_per_entry_loop_on_random_windows():
    rng = np.random.default_rng(11)
    seen = {"windows": 0, "tied": 0, "unreachable": 0, "fallback": 0, "k >= 8": 0}
    while seen["windows"] < 200:
        w = random_knn_window(rng)
        dist = evaluation.node_distances(w)
        seen["windows"] += 1
        seen["tied"] += any(len(np.unique(row[np.isfinite(row)])) < np.isfinite(row).sum()
                            for row in dist)
        seen["unreachable"] += not np.isfinite(dist[~np.eye(w.n_nodes, dtype=bool)]).all()
        seen["fallback"] += bool(((w.m == 0.0) & (w.m.sum(axis=1) == 0.0)[:, None]).any())
        for k in range(1, w.n_nodes):
            want, got = knn_by_entry(w, k), evaluation.knn_baseline(w, k)
            if k <= 7:  # np.mean adds up to 7 rows in rank order, as knn_baseline does
                assert got.tobytes() == want.tobytes(), (seen["windows"], k)
            else:  # numpy sums 8 rows pairwise; a mean that cancels to ~0 needs the values' scale
                seen["k >= 8"] += 1
                scale = np.abs(w.x).max()
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale), (seen["windows"], k)
    assert min(seen.values()) > 0, seen


def node_distances_unblocked(window):
    # every row at once: the reference for node_distances' row blocks
    m = window.m
    co = m[:, None, :] * m[None, :, :]
    diff = window.x[:, None, :, :] - window.x[None, :, :, :]
    sq = (diff * diff).sum(axis=3) * co
    count = co.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt(sq.sum(axis=2) / count)
    dist[count == 0] = np.inf
    np.fill_diagonal(dist, np.inf)
    return dist


@pytest.mark.parametrize("n", [evaluation.NODE_BLOCK - 3, 2 * evaluation.NODE_BLOCK + 5])
def test_node_distances_match_the_unblocked_formula(n):
    rng = np.random.default_rng(n)
    values = np.round(rng.uniform(-1.0, 1.0, (n, 12, 2)), 1)
    m = (rng.random((n, 12)) < 0.6).astype(float)
    values[2], m[2] = values[1], m[1]  # a twin: every node ties between nodes 1 and 2
    m[n - 1] = 1.0 - m[0]  # never observed together: infinite distance
    w = window_from(values, m, np.zeros_like(m))
    want, got = node_distances_unblocked(w), evaluation.node_distances(w)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[0, n - 1]) and np.array_equal(got[3:, 1], got[3:, 2])
    assert np.isfinite(got[~np.eye(n, dtype=bool)]).sum() > n * (n - 1) // 2


# ---------------------------------------------------------------- reports and sweeps


def small_series(seed=1, n=6, steps=240):
    graph = data.synthetic_graph(n, extra_edges=2, seed=seed)
    return data.generate_synthetic(n, steps, graph, seed=seed, period=24), graph


def fast_configs():
    model_cfg = ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                            kernel_sizes=(3,), blocks=1)
    train_cfg = TrainConfig(learning_rate=2e-3, epochs=2, batch_size=4, patience=5, seed=1,
                            hide_fraction=0.0)
    return model_cfg, train_cfg


def test_sweep_single_cell_counting():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    report = evaluation.sensitivity_sweep(
        series, graph, [0.5], ["mean"], seed=1, width=12, stride=12,
        fractions=(0.7, 0.2, 0.1), model_config=model_cfg, train_config=train_cfg)
    assert len(report.rows) == 1
    assert report.rows[0].method == "mean"


def test_sweep_determinism():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    kwargs = dict(width=12, stride=12, fractions=(0.7, 0.2, 0.1),
                  model_config=model_cfg, train_config=train_cfg)
    a = evaluation.sensitivity_sweep(series, graph, [0.3, 0.5], ["mean", "knn"], 7, **kwargs)
    b = evaluation.sensitivity_sweep(series, graph, [0.3, 0.5], ["mean", "knn"], 7, **kwargs)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.rmse, ra.mape, ra.seed) == (rb.rmse, rb.mape, rb.seed)


def test_sweep_rejects_out_of_range_ratio():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    with pytest.raises(ContractError):
        evaluation.sensitivity_sweep(series, graph, [1.0], ["mean"], 1, width=12, stride=12,
                                     fractions=(0.7, 0.2, 0.1), model_config=model_cfg,
                                     train_config=train_cfg)


def test_sweep_pivot_shape():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    report = evaluation.sensitivity_sweep(
        series, graph, [0.2, 0.5], ["mean", "knn"], seed=2, width=12, stride=12,
        fractions=(0.7, 0.2, 0.1), model_config=model_cfg, train_config=train_cfg)
    pivot = evaluation.sweep_pivot(report)
    assert pivot[0] == ["ratio", "rmse_knn", "rmse_mean"]
    assert len(pivot) == 3


def test_mean_rmse_grows_with_missing_ratio():
    # Monte-Carlo oracle: at >=10k held-out entries the mean baseline's RMSE
    # must be non-decreasing in the ratio, with 5% slack.
    graph = data.synthetic_graph(16, extra_edges=4, seed=0)
    series = data.generate_synthetic(16, 2016, graph, seed=0)
    for seed in range(3):
        values = []
        for ratio in (0.2, 0.5, 0.7):
            mask = data.draw_eval_mask(series, ratio, seed)
            assert mask.sum() >= 6000
            windows = data.make_windows(series, mask, 12, 12)
            r, _ = evaluation.evaluate_baseline("mean", windows)
            values.append(r)
        assert values[1] >= values[0] * 0.95
        assert values[2] >= values[1] * 0.95


def test_ablation_empty_variants_is_full_model_only():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    report = evaluation.ablation_run(series, graph, [], seed=3, ratio=0.5, width=12, stride=12,
                                     fractions=(0.7, 0.2, 0.1), model_config=model_cfg,
                                     train_config=train_cfg)
    assert [r.method for r in report.rows] == ["MagiNet"]


def test_ablation_variant_rows_share_mask_seed():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    report = evaluation.ablation_run(series, graph, ["w/o MASTdec"], seed=4, ratio=0.5,
                                     width=12, stride=12, fractions=(0.7, 0.2, 0.1),
                                     model_config=model_cfg, train_config=train_cfg)
    assert [r.method for r in report.rows] == ["MagiNet", "w/o MASTdec"]
    assert report.rows[0].seed == report.rows[1].seed


def pin_cpus(monkeypatch, count):
    """Make the process look allowed to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_ablation_same_rows_on_one_and_two_usable_cpus(monkeypatch):
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    rows = []
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        report = evaluation.ablation_run(series, graph, ["w/o MASTdec", "zero prefill"], seed=4,
                                         ratio=0.5, width=12, stride=12,
                                         fractions=(0.7, 0.2, 0.1), model_config=model_cfg,
                                         train_config=train_cfg)
        rows.append([row.as_list()[:-1] for row in report.rows])   # all but runtime_s
    assert [row[0] for row in rows[0]] == ["MagiNet", "w/o MASTdec", "zero prefill"]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("cpus, in_this_process", [(1, True), (2, False)])
def test_cells_run_in_worker_processes_only_from_two_usable_cpus(monkeypatch, cpus,
                                                                 in_this_process):
    # a trained model's "RMSE" is the id of the process that trained it
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(evaluation, "train_and_score", lambda *a: (float(os.getpid()), 0.0))
    report = evaluation.ablation_run(series, graph, ["w/o MASTdec"], seed=4, ratio=0.5,
                                     width=12, stride=12, fractions=(0.7, 0.2, 0.1),
                                     model_config=model_cfg, train_config=train_cfg)
    assert [row.rmse == os.getpid() for row in report.rows] == [in_this_process] * 2


def test_ablation_unknown_variant_rejected():
    series, graph = small_series()
    model_cfg, train_cfg = fast_configs()
    with pytest.raises(InputError):
        evaluation.ablation_run(series, graph, ["w/o Everything"], seed=1, ratio=0.5,
                                width=12, stride=12, fractions=(0.7, 0.2, 0.1),
                                model_config=model_cfg, train_config=train_cfg)


def test_report_csv_and_traces(tmp_path):
    series, graph = small_series()
    windows = data.window(series, 12, 12, ratio=0.5, seed=5)
    preds = [evaluation.mean_baseline(w) for w in windows[:2]]
    traces = evaluation.imputation_traces(windows[:2], preds)
    assert set(traces) == set(range(series.n_nodes))
    steps = [row[0] for row in traces[0]]
    assert steps == sorted(steps) and len(steps) == 24
    report = evaluation.EvalReport(rows=[evaluation.ReportRow(
        method="mean", dataset="synthetic", ratio=0.5, seed=5, rmse=1.0, mape=2.0, runtime_s=0.1)])
    out = tmp_path / "report.csv"
    report.to_csv(out, comment="test")
    text = out.read_text().splitlines()
    assert text[0].startswith("#")
    assert text[1] == "method,dataset,ratio,seed,rmse,mape,runtime_s"
    assert text[2].startswith("mean,synthetic,0.5,5,1.0,2.0")
