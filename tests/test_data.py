import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maginet import data
from maginet.errors import ContractError, InputError
from maginet.graph import TrafficGraph


def toy_series(n=3, steps=20, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return data.SeriesMatrix(values=rng.uniform(1, 9, (n, steps, c)))


# ---------------------------------------------------------------- mcar


def test_mcar_ratio_zero_keeps_everything():
    assert data.mcar_mask(50, 0.0, 1).sum() == 50


def test_mcar_ratio_one_hides_everything():
    assert data.mcar_mask(50, 1.0, 1).sum() == 0


def test_mcar_exact_count_and_determinism():
    a = data.mcar_mask(1000, 0.5, 42)
    b = data.mcar_mask(1000, 0.5, 42)
    assert (a == 0).sum() == 500
    assert np.array_equal(a, b)
    assert not np.array_equal(a, data.mcar_mask(1000, 0.5, 43))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 300), pct=st.integers(0, 100), seed=st.integers(0, 2**31))
def test_mcar_count_matches_floor(n, pct, seed):
    ratio = pct / 100.0
    hidden = int((data.mcar_mask(n, ratio, seed) == 0).sum())
    assert hidden == int(np.floor(ratio * n + 1e-9))


def test_mcar_rejects_bad_ratio():
    with pytest.raises(ContractError):
        data.mcar_mask(10, 1.5, 0)


def test_eval_mask_only_hides_observed():
    vals = np.arange(12.0).reshape(2, 6, 1)
    vals[0, 0, 0] = np.nan
    series = data.SeriesMatrix(values=vals)
    mask = data.draw_eval_mask(series, 0.5, 3)
    assert mask[0, 0] == 0
    assert mask.sum() == int(np.floor(0.5 * 11))


# ---------------------------------------------------------------- windows


def test_window_counts_paper_protocol():
    series = toy_series(steps=24)
    assert len(data.window(series, 12, 12)) == 2
    starts = [w.window_start for w in data.window(series, 12, 12)]
    assert starts == [0, 12]


def test_window_drops_trailing_partial():
    assert len(data.window(toy_series(steps=25), 12, 12)) == 2


def test_window_whole_series_is_one_window():
    assert len(data.window(toy_series(steps=20), 20, 20)) == 1


def test_window_width_exceeding_steps_rejected():
    with pytest.raises(InputError):
        data.window(toy_series(steps=10), 12, 12)


def test_window_partition_property():
    vals = np.arange(40.0).reshape(2, 20, 1)
    vals[1, 3, 0] = np.nan
    series = data.SeriesMatrix(values=vals)
    mask = data.draw_eval_mask(series, 0.4, 7)
    for w in data.make_windows(series, mask, 10, 10):
        native_missing = np.isnan(series.values[:, w.window_start:w.window_start + 10, 0])
        total = w.m + w.eval_mask + native_missing
        assert np.array_equal(total, np.ones_like(total))


def test_window_masked_entries_are_zeroed_and_truth_stored():
    vals = np.full((1, 4, 1), 5.0)
    series = data.SeriesMatrix(values=vals)
    mask = np.array([[0, 1, 0, 1]], dtype=np.int8)
    (w,) = data.make_windows(series, mask, 4, 4)
    assert w.x[0, 1, 0] == 0.0 and w.x[0, 3, 0] == 0.0
    assert w.ground_truth[0, 1, 0] == 5.0
    assert w.m[0, 0] == 1.0


def test_remasking_same_seed_is_bit_identical():
    series = toy_series(steps=30)
    a = data.draw_eval_mask(series, 0.3, 9)
    b = data.draw_eval_mask(series, 0.3, 9)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- split


@pytest.mark.parametrize(
    "n,fracs,expected",
    [
        (10, (0.7, 0.2, 0.1), (7, 2, 1)),
        (10, (0.6, 0.2, 0.2), (6, 2, 2)),
        (1, (1.0, 0.0, 0.0), (1, 0, 0)),
        (11, (0.7, 0.2, 0.1), (8, 2, 1)),  # remainder goes to train
    ],
)
def test_split_counts(n, fracs, expected):
    parts = data.split(list(range(n)), fracs)
    assert tuple(len(p) for p in parts) == expected


def test_split_is_chronological():
    train, valid, test = data.split(list(range(10)), (0.7, 0.2, 0.1))
    assert train == list(range(7)) and valid == [7, 8] and test == [9]


def test_split_rejects_negative_fraction():
    with pytest.raises(ContractError):
        data.split([1, 2], (1.2, -0.2, 0.0))


# ---------------------------------------------------------------- normalizer


def test_normalizer_roundtrip_and_clamp():
    windows = data.window(toy_series(steps=24, seed=5), 12, 12, ratio=0.4, seed=2)
    norm = data.Normalizer.fit(windows)
    x = np.array([1.0, 4.5, 8.0])
    assert np.allclose(norm.inverse(norm.transform(x)), x, atol=1e-10)
    flat = data.Normalizer(mean=np.zeros(1), std=np.zeros(1))
    assert flat.std[0] == 1e-8


def test_normalizer_ignores_masked_entries():
    vals = np.array([[[1.0], [1.0], [100.0], [1.0]]])  # (1,4,1)
    series = data.SeriesMatrix(values=vals)
    mask = np.array([[0, 0, 1, 0]], dtype=np.int8)  # hide the outlier
    (w,) = data.make_windows(series, mask, 4, 4)
    norm = data.Normalizer.fit([w])
    assert norm.mean[0] == 1.0


# ---------------------------------------------------------------- synthetic


def test_synthetic_edgeless_noisefree_is_pure_sinusoid():
    g = TrafficGraph(np.zeros((3, 3)))
    phases = np.array([0.0, 1.0, 2.0])
    series = data.generate_synthetic(3, 50, g, seed=1, noise=0.0, phases=phases, period=24)
    t = np.arange(50)
    expected = 20.0 + 10.0 * np.sin(2 * np.pi * t[None, :] / 24 + phases[:, None])
    assert np.allclose(series.values[:, :, 0], expected, atol=1e-12)


def test_synthetic_identical_phase_pair_is_diffusion_fixed_point():
    g = TrafficGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    series = data.generate_synthetic(2, 40, g, seed=1, noise=0.0, phases=np.zeros(2), period=24)
    assert np.allclose(series.values[0], series.values[1], atol=1e-12)


def test_synthetic_seed_determinism():
    g = data.synthetic_graph(6, extra_edges=2, seed=3)
    a = data.generate_synthetic(6, 100, g, seed=11)
    b = data.generate_synthetic(6, 100, g, seed=11)
    assert np.array_equal(a.values, b.values)
    assert (a.values > 0).all()


def test_synthetic_graph_is_connected_ring():
    g = data.synthetic_graph(5, extra_edges=0, seed=0)
    assert g.degree.min() >= 2


# ---------------------------------------------------------------- csv io


def test_series_roundtrip(tmp_path):
    series = toy_series(n=2, steps=5, c=2, seed=8)
    vals = series.values.copy()
    vals[1, 2, :] = np.nan
    series = data.SeriesMatrix(values=vals)
    path = tmp_path / "series.csv"
    data.save_series_csv(path, series, comment="roundtrip test")
    loaded = data.load_series_csv(path)
    assert loaded.values.shape == series.values.shape
    both_nan = np.isnan(loaded.values) & np.isnan(series.values)
    assert np.array_equal(loaded.values[~both_nan], series.values[~both_nan])
    assert np.isnan(loaded.values[1, 2, 0])


def _series_csv_cell_by_cell(series, comment):
    # the series format written one cell at a time: the reference for save_series_csv
    n, steps, c = series.n_nodes, series.n_steps, series.n_features
    lines = [f"# {comment}", ",".join(f"node{i}_f{j}" for j in range(c) for i in range(n))]
    for t in range(steps):
        cells = [series.values[i, t, j] for j in range(c) for i in range(n)]
        lines.append(",".join("" if math.isnan(v) else repr(float(v)) for v in cells))
    return ("\n".join(lines) + "\n").encode()


def test_series_csv_bytes_match_the_cell_by_cell_format(tmp_path):
    vals = np.random.default_rng(4).normal(0.0, 50.0, (3, 6, 2))
    vals[0, 0] = [-0.0, 0.0]
    vals[1, 1] = [1e-05, 1e16]
    vals[2, 2] = [-2.5e-300, 123456789.125]
    vals[0, 3] = vals[2, 5] = np.nan  # both features missing together
    series = data.SeriesMatrix(values=vals)
    path = tmp_path / "series.csv"
    data.save_series_csv(path, series, comment="bytes")
    written = path.read_bytes()
    assert written == _series_csv_cell_by_cell(series, "bytes")
    assert b"-0.0," in written and b"1e-05" in written and b"1e+16" in written and b",," in written


def test_series_empty_cell_is_missing(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("node0_f0,node1_f0\n1.5,\nNaN,2.5\n")
    loaded = data.load_series_csv(path)
    assert np.isnan(loaded.values[1, 0, 0]) and np.isnan(loaded.values[0, 1, 0])


def test_series_non_numeric_cell_names_position(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("node0_f0\n1.0\noops\n")
    with pytest.raises(InputError) as err:
        data.load_series_csv(path)
    assert "row 3" in str(err.value) and "column 1" in str(err.value)


def test_mask_roundtrip(tmp_path):
    series = toy_series(steps=16)
    mask = data.draw_eval_mask(series, 0.5, 21)
    path = tmp_path / "mask.csv"
    data.save_mask_csv(path, mask, seed=21, ratio=0.5)
    loaded, seed, ratio = data.load_mask_csv(path)
    assert np.array_equal(loaded, mask)
    assert seed == 21 and ratio == 0.5


@pytest.mark.parametrize("dtype", [bool, np.int8, float])
def test_mask_csv_bytes_match_the_cell_by_cell_format(tmp_path, dtype):
    mask = (np.random.default_rng(5).random((4, 7)) < 0.5).astype(dtype)
    path = tmp_path / "mask.csv"
    data.save_mask_csv(path, mask, seed=3, ratio=0.25)
    rows = ["# seed=3 ratio=0.25", "node0,node1,node2,node3"]
    rows += [",".join(str(int(mask[i, t])) for i in range(4)) for t in range(7)]
    assert path.read_text() == "\n".join(rows) + "\n"
