import csv
import math
import re

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
    windows = data.make_windows(series, data.draw_eval_mask(series, 0.0, 0), 12, 12)
    assert len(windows) == 2
    starts = [w.window_start for w in windows]
    assert starts == [0, 12]


def test_window_drops_trailing_partial():
    series = toy_series(steps=25)
    assert len(data.make_windows(series, data.draw_eval_mask(series, 0.0, 0), 12, 12)) == 2


def test_window_whole_series_is_one_window():
    series = toy_series(steps=20)
    assert len(data.make_windows(series, data.draw_eval_mask(series, 0.0, 0), 20, 20)) == 1


def test_window_width_exceeding_steps_rejected():
    series = toy_series(steps=10)
    with pytest.raises(InputError):
        data.make_windows(series, data.draw_eval_mask(series, 0.0, 0), 12, 12)


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
    series = toy_series(steps=24, seed=5)
    windows = data.make_windows(series, data.draw_eval_mask(series, 0.4, 2), 12, 12)
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


@pytest.mark.parametrize("period", [0, -24])
def test_synthetic_period_below_one_rejected(period):
    g = data.synthetic_graph(4, seed=0)
    with pytest.raises(ContractError, match=f"period must be >= 1, got {period}"):
        data.generate_synthetic(4, 24, g, seed=0, period=period)


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


@pytest.mark.parametrize("text, message", [
    ('node0_f0\n"\n2"\n', r"row 2 column 1: non-numeric cell '\n2'"),
    ('node0_f0,node1_f0\n1.0," ', r"row 2 column 2: non-numeric cell ' \n'"),
], ids=["line-break-in-quotes", "quote-open-at-end-of-file"])
def test_series_quoted_cell_must_end_on_its_line(tmp_path, text, message):
    # csv.reader joins the lines into one cell, which float() would read as 2.0 or missing
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(InputError) as err:
        data.load_series_csv(path)
    assert str(err.value).endswith(message)


def test_mask_roundtrip(tmp_path):
    series = toy_series(steps=16)
    mask = data.draw_eval_mask(series, 0.5, 21)
    path = tmp_path / "mask.csv"
    data.save_mask_csv(path, mask, seed=21, ratio=0.5)
    assert np.array_equal(data.load_mask_csv(path), mask)
    assert path.read_text().splitlines()[0] == "# seed=21 ratio=0.5"


@pytest.mark.parametrize("dtype", [bool, np.int8, float])
def test_mask_csv_bytes_match_the_cell_by_cell_format(tmp_path, dtype):
    mask = (np.random.default_rng(5).random((4, 7)) < 0.5).astype(dtype)
    path = tmp_path / "mask.csv"
    data.save_mask_csv(path, mask, seed=3, ratio=0.25)
    rows = ["# seed=3 ratio=0.25", "node0,node1,node2,node3"]
    rows += [",".join(str(int(mask[i, t])) for i in range(4)) for t in range(7)]
    assert path.read_text() == "\n".join(rows) + "\n"


# ---------------------------------------------------------------- csv readers against the cell loop


def csv_rows(path):
    rows = []
    with open(path, newline="") as handle:
        for raw in csv.reader(handle):
            if raw and (rows or not raw[0].startswith("#")):
                rows.append(raw)
    return rows


def series_by_cell(path):
    # the series reader one cell at a time: the reference for load_series_csv
    rows = csv_rows(path)
    if not rows:
        raise InputError(f"{path}: empty series file")
    header = [c.strip() for c in rows[0]]
    parsed = []
    for col in header:
        m = re.match(r"^node(\d+)_f(\d+)$", col)
        if not m:
            raise InputError(f"{path}: unrecognized column name {col!r}")
        parsed.append((int(m.group(1)), int(m.group(2))))
    n = max(p[0] for p in parsed) + 1
    c = max(p[1] for p in parsed) + 1
    if len(parsed) != n * c or sorted(parsed) != [(i, j) for i in range(n) for j in range(c)]:
        raise InputError(f"{path}: header does not cover a full node x feature grid")
    values = np.full((n, len(rows) - 1, c), np.nan)
    for t, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise InputError(f"{path}: row {t + 2} has {len(row)} cells, expected {len(header)}")
        for k, cell in enumerate(row):
            token = cell.strip()
            if token.lower() in ("", "nan"):
                continue
            node, feat = parsed[k]
            try:
                values[node, t, feat] = float(token)
            except ValueError:
                raise InputError(f"{path}: row {t + 2} column {k + 1}: non-numeric cell {cell!r}") from None
    return data.SeriesMatrix(values=values)


def mask_by_cell(path):
    # the mask reader one cell at a time: the reference for load_mask_csv; a
    # cell outside 0/1 names its row (300 once overflowed int8 instead)
    rows = csv_rows(path)
    if not rows:
        raise InputError(f"{path}: empty mask file")
    cells = []
    for t, row in enumerate(rows[1:]):
        if len(row) != len(rows[0]):
            raise InputError(f"{path}: row {t + 2} has {len(row)} cells, expected {len(rows[0])}")
        try:
            ints = [int(cell) for cell in row]
        except ValueError:
            ints = None
        if ints is None or not {0, 1}.issuperset(ints):
            raise InputError(f"{path}: row {t + 2}: mask cells must be 0/1")
        cells.append(ints)
    return np.array(cells, dtype=np.int8).reshape(-1, len(rows[0])).T


def outcome(read, path):
    try:
        return read(path)
    except InputError as err:
        return f"InputError: {err}"


MISSING_CELLS = ["", "", " ", "\t", "nan", "NaN", " NAN ", "-nan", '""', '" "']
ODD_VALUE_CELLS = ["inf", "1_000", "1e+16", "-0.0", '"2.5"', '"1,5"', " 3.25 ", "+4", ".5", "oops",
                   "0x10", "7#8", "2.5\x0c", "1_0x", '"1"_2.5', "\u0661\u0662"]
ODD_MASK_CELLS = ["2", "-1", "1.0", "300", " 1", "+1", "01", "", "x", '"1"', "1_0", "1#0", "0\x0c", "0_1",
                  "\u0661"]


def fuzz_lines(rng, header, body, comments):
    """A CSV's text from its rows, with comment lines, blank lines, short and
    long rows, CRLF or CR line ends and data rows that look like comments."""
    lines = list(comments) + [",".join(header)]
    for row in body:
        row = list(row)
        if rng.random() < 0.03:
            row = row[:-1] if len(row) > 1 and rng.random() < 0.5 else row + ["1"]
        lines.append(",".join(row))
        if rng.random() < 0.03:
            lines.append("")
    if rng.random() < 0.03:
        lines.insert(len(comments) + 1 + int(rng.integers(len(body) + 1)), "# late comment")
    lines += [""] * int(rng.integers(3))  # blank trailing lines
    end = ["\n", "\r\n", "\r"][int(rng.choice(3, p=[0.7, 0.2, 0.1]))]
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def fuzz_series_file(rng, path):
    n, c, steps = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(0, 7))
    columns = [(i, j) for j in range(c) for i in range(n)]
    if rng.random() < 0.5:
        columns = [columns[k] for k in rng.permutation(len(columns))]
    header = [f"node{i}_f{j}" for i, j in columns]
    if rng.random() < 0.03:
        header[-1] = "node9_f0"
    if rng.random() < 0.05:
        header[0] = f'"{header[0]}"'
    odd = rng.random() < 0.4  # odd cells: quoted, padded or underscored values, and bad cells
    body = []
    for _ in range(steps):
        missing = {i: MISSING_CELLS[int(rng.integers(len(MISSING_CELLS)))]
                   for i in range(n) if rng.random() < 0.25}
        row = []
        for i, j in columns:
            if i in missing:
                row.append(missing[i])
            elif odd and rng.random() < 0.08:
                row.append(ODD_VALUE_CELLS[int(rng.integers(len(ODD_VALUE_CELLS)))])
            else:
                row.append(repr(float(rng.normal(0.0, 10.0 ** int(rng.integers(-3, 4))))))
        body.append(row)
    comments = [["# series", "#series,1.5", '# "quoted'][int(rng.integers(3))] for _ in range(rng.integers(3))]
    path.write_bytes(fuzz_lines(rng, header, body, comments).encode())


def fuzz_mask_file(rng, path):
    n, steps = int(rng.integers(1, 6)), int(rng.integers(0, 7))
    odd = rng.random() < 0.4
    body = [[ODD_MASK_CELLS[int(rng.integers(len(ODD_MASK_CELLS)))]
             if odd and rng.random() < 0.1 else str(int(rng.integers(2))) for _ in range(n)]
            for _ in range(steps)]
    comments = ["# mask"] * int(rng.integers(2)) + ["# seed=3 ratio=0.25"] * int(rng.integers(2))
    path.write_bytes(fuzz_lines(rng, [f"node{i}" for i in range(n)], body, comments).encode())


def test_series_reader_matches_the_cell_loop_on_fuzzed_files(tmp_path):
    seen = {"files": 0, "values": 0, "errors": 0}
    rng = np.random.default_rng(17)
    path = tmp_path / "s.csv"
    for _ in range(300):
        fuzz_series_file(rng, path)
        want, got = outcome(series_by_cell, path), outcome(data.load_series_csv, path)
        seen["files"] += 1
        if isinstance(want, str):
            seen["errors"] += 1
            assert got == want, path.read_bytes()
        else:
            seen["values"] += 1
            assert not isinstance(got, str), (got, path.read_bytes())
            assert got.values.shape == want.values.shape, path.read_bytes()
            assert got.values.tobytes() == want.values.tobytes(), path.read_bytes()
    assert min(seen.values()) >= 30, seen


def test_mask_reader_matches_the_cell_loop_on_fuzzed_files(tmp_path):
    seen = {"files": 0, "values": 0, "errors": 0}
    rng = np.random.default_rng(19)
    path = tmp_path / "m.csv"
    for _ in range(300):
        fuzz_mask_file(rng, path)
        want, got = outcome(mask_by_cell, path), outcome(data.load_mask_csv, path)
        seen["files"] += 1
        if isinstance(want, str):
            seen["errors"] += 1
            assert got == want, path.read_bytes()
        else:
            seen["values"] += 1
            assert not isinstance(got, str), (got, path.read_bytes())
            assert got.dtype == np.int8 and got.shape == want.shape, path.read_bytes()
            assert got.tobytes() == want.tobytes(), path.read_bytes()
    assert min(seen.values()) >= 30, seen


def test_mask_out_of_range_cell_names_its_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("node0,node1\n0,1\n1,300\n")
    with pytest.raises(InputError, match=r"m\.csv: row 3: mask cells must be 0/1"):
        data.load_mask_csv(path)


def test_mask_with_only_a_header_loads_as_nodes_by_zero_steps(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("node0,node1\n")
    mask = data.load_mask_csv(path)
    assert mask.shape == (2, 0) and mask.dtype == np.int8
    series_path = tmp_path / "s.csv"
    series_path.write_text("node0_f0,node1_f0\n")
    assert data.load_series_csv(series_path).values.shape == (2, 0, 1)
