"""Tests of the benchmark's own checks: the numpy references against
hand-worked answers, and each output check shown to be live.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import spans
import workloads
from maginet import autodiff as ad


def window(rows):
    """x (N, W, 1) and m (N, W) from rows of numbers, None = unobserved."""
    m = np.array([[0.0 if v is None else 1.0 for v in row] for row in rows])
    x = np.array([[0.0 if v is None else float(v) for v in row] for row in rows])[:, :, None]
    return x, m


def test_mean_fill_hand_worked():
    x, m = window([[1, 2, None, 4], [None] * 4, [10, None, 30, None]])
    # node 0: (1 + 2 + 4) / 3; node 1 has no observation: the window mean
    # (1 + 2 + 4 + 10 + 30) / 5 = 9.4; node 2: (10 + 30) / 2
    expected = [[1, 2, 7 / 3, 4], [9.4] * 4, [10, 20, 30, 20]]
    np.testing.assert_allclose(oracles.mean_fill(x, m)[:, :, 0], expected, rtol=1e-15)


def test_knn_fill_hand_worked():
    x, m = window([[0, 1, None], [0, 2, 5], [0, 0, 7], [None, None, 9]])
    # node 0 is 1/sqrt(2) from nodes 1 and 2 (a tie: node 1 ranks first)
    # and shares no step with node 3; node 3 is 2 from node 2, 4 from node 1
    np.testing.assert_array_equal(oracles.knn_fill(x, m, 1)[:, :, 0],
                                  [[0, 1, 5], [0, 2, 5], [0, 0, 7], [0, 0, 9]])
    np.testing.assert_array_equal(oracles.knn_fill(x, m, 2)[:, :, 0],
                                  [[0, 1, 6], [0, 2, 5], [0, 0, 7], [0, 1, 9]])


def test_knn_fill_falls_back_to_the_node_mean():
    x, m = window([[None, 1, 2], [None, 3, 4], [5, None, None]])
    # nodes 0 and 1 are neighbours but neither is observed at step 0;
    # node 2 shares no observed step with anyone
    np.testing.assert_array_equal(oracles.knn_fill(x, m, 1)[:, :, 0],
                                  [[1.5, 1, 2], [3.5, 3, 4], [5, 5, 5]])


def test_pooled_scores_hand_worked():
    preds = [np.array([[[1.0], [3.0]]]), np.array([[[1.0]]])]
    truths = [np.array([[[2.0], [2.0]]]), np.array([[[0.0]]])]
    held_out = [np.array([[True, True]]), np.array([[True]])]
    rmse, mape = oracles.pooled_scores(preds, truths, held_out)
    # squared errors 1, 1, 1; the zero truth is below the MAPE floor
    assert rmse == 1.0
    assert mape == 50.0


def test_starts_of_test_split():
    # 2021 steps, W=12: 168 windows, floor(0.1 * 168) = 16 in the test split
    starts = oracles.starts_of_test_split(2021, 12)
    assert starts == list(range(152 * 12, 168 * 12, 12))


def test_impute_violations_split_by_tail():
    values = np.arange(1.0, 30.0).reshape(1, 29, 1)
    mask = np.zeros((1, 29), dtype=np.int8)
    mask[0, [3, 26]] = 1
    values[0, 5] = math.nan
    imputed = values + 0.5 * (mask[:, :, None] == 1)
    imputed[0, 5] = 0.0
    empty = {name: (0, 0) for name in oracles.impute_violations(imputed, values, mask, 12)}
    assert oracles.impute_violations(imputed, values, mask, 12) == empty
    broken = imputed.copy()
    broken[0, 0] = np.nextafter(broken[0, 0], 2.0)   # an observed entry, one ulp off
    broken[0, 26] = values[0, 26]                     # a held-out tail entry, unfilled
    broken[0, 5] = math.nan                           # a missing entry left missing
    found = oracles.impute_violations(broken, values, mask, 12)
    assert found["observed entries not returned bit-exact"] == (1, 0)
    assert found["held-out entries equal to their ground truth"] == (0, 1)
    assert found["missing or held-out entries not finite"] == (1, 0)
    assert oracles.changed_entries(broken, imputed, 12) == (2, 1)


def test_impute_checks_pass_on_whole_windows(tmp_path):
    work = workloads.ImputeMetr(1, tmp_path, nodes=6, steps=48)
    work.setup()
    work.prepare()
    assert work.check(work.operation()) is None


def test_impute_checks_fail_on_a_tail(tmp_path):
    # The program's imputation of whole windows, given a 5-step tail: a
    # tail filled at its held-out entries passes, a tail that holds the
    # raw values fails and is named as the tail fault.
    work = workloads.ImputeMetr(1, tmp_path, nodes=6, steps=48)
    work.setup()
    work.prepare()
    assert work.operation() == 0
    imputed = oracles.read_series((tmp_path / "out" / "imputed.csv").read_bytes())
    raw_tail = np.random.default_rng(0).uniform(10.0, 30.0, (6, 5, 1))
    held_out = np.zeros((6, 5), dtype=np.int8)
    held_out[:, ::2] = 1
    filled_tail = raw_tail + 0.5 * held_out[:, :, None]
    work.steps = 53
    work.values = np.concatenate([work.values, raw_tail], axis=1)
    work.mask = np.concatenate([work.mask, held_out], axis=1)
    work.overwritten = np.concatenate([work.overwritten, filled_tail], axis=1)
    assert work.verdict(np.concatenate([imputed, filled_tail], axis=1)) is None
    reason = work.verdict(np.concatenate([imputed, raw_tail], axis=1))
    assert reason == (f"{workloads.IMPUTE_TAIL_FAULT} (5 steps): "
                      "18 held-out entries equal to their ground truth; "
                      "18 imputed entries changed by overwriting held-out inputs")


def test_eval_check_matches_the_program(tmp_path):
    work = workloads.EvalMetr(3, tmp_path, nodes=9, steps=245)
    work.setup()
    work.prepare()  # runs the check once
    assert work.check(work.operation()) is None
    work.reference = {name: (r * (1 + 1e-8), p) for name, (r, p) in work.reference.items()}
    with pytest.raises(workloads.Incorrect):
        work.check(work.operation())


def test_gradient_check_is_live(tmp_path, monkeypatch):
    work = workloads.TrainPinned(1, tmp_path)
    work.setup()
    work.gradient_check()
    absolute = ad.absolute

    def skewed(t):  # the right value, with a backward rule 10% too steep
        out = absolute(t)
        rule = out._rule
        if rule is not None:
            out._rule = lambda g: tuple(1.1 * c for c in rule(g))
        return out

    monkeypatch.setattr(ad, "absolute", skewed)
    with pytest.raises(workloads.Incorrect):
        work.gradient_check()


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in spans.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"windows_per_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
