import copy
import multiprocessing
import os
import sys
import threading
import time
import uuid

import numpy as np
import pytest

from maginet import autodiff as ad
from maginet import data, training
from maginet.errors import ContractError, EmptyMaskError, InputError, NumericError
from maginet.model import MagiNet, ModelConfig


def pin_cpus(monkeypatch, count):
    """Make the process look allowed to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def with_nan_at_an_observed_entry(window):
    """A copy of ``window`` with a NaN at an observed entry, made past the
    check that rejects one when a window is built."""
    poisoned = copy.copy(window)
    x = np.array(window.x)
    node, step = np.argwhere(window.m == 1.0)[0]
    x[node, step, 0] = np.nan
    object.__setattr__(poisoned, "x", x)
    return poisoned


def tiny_setup(n=4, width=8, steps=64, seed=1, ratio=0.4):
    graph = data.synthetic_graph(n, extra_edges=1, seed=seed)
    series = data.generate_synthetic(n, steps, graph, seed=seed, period=16)
    windows = data.make_windows(series, data.draw_eval_mask(series, ratio, seed), width, width)
    train_ws, valid_ws, test_ws = data.split(windows, (0.7, 0.2, 0.1))
    config = ModelConfig(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                         kernel_sizes=(3,), blocks=1)
    model = MagiNet(config, graph, width=width, n_features=1, seed=seed)
    return model, train_ws, valid_ws, test_ws


# ---------------------------------------------------------------- loss


def test_loss_zero_when_exact():
    xhat = ad.constant(np.full((2, 3, 1), 4.0))
    loss = training.masked_l1_loss(xhat, np.full((2, 3, 1), 4.0), np.ones((2, 3)))
    assert loss.item() == 0.0


def test_loss_single_held_out_scalar():
    # one held-out position with |error| = 2 gives loss 2
    xhat = ad.constant(np.array([[[3.0], [9.0]]]))
    truth = np.array([[[1.0], [0.0]]])
    mask = np.array([[1.0, 0.0]])
    assert training.masked_l1_loss(xhat, truth, mask).item() == 2.0


def test_loss_two_held_out_scalars_hand_mean():
    # errors 1 and 3 average to 2
    xhat = ad.constant(np.array([[[2.0], [5.0]]]))
    truth = np.array([[[1.0], [2.0]]])
    mask = np.array([[1.0, 1.0]])
    assert training.masked_l1_loss(xhat, truth, mask).item() == 2.0


def test_loss_ignores_positions_outside_mask():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 5, (3, 4, 2))
    mask = np.zeros((3, 4))
    mask[1, 2] = 1.0
    base = rng.uniform(0, 5, (3, 4, 2))
    a = training.masked_l1_loss(ad.constant(base), truth, mask).item()
    fuzzed = base + rng.uniform(-9, 9, base.shape) * (mask[:, :, None] == 0.0)
    b = training.masked_l1_loss(ad.constant(fuzzed), truth, mask).item()
    assert a == b


def test_loss_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        training.masked_l1_loss(ad.constant(np.zeros((1, 2, 1))), np.zeros((1, 2, 1)), np.zeros((1, 2)))


def test_loss_gradient_matches_finite_differences():
    from maginet.gradcheck import check_gradients

    rng = np.random.default_rng(5)
    xhat = ad.parameter(rng.uniform(0, 4, (2, 4, 2)))
    truth = rng.uniform(0, 4, (2, 4, 2))
    mask = (rng.random((2, 4)) < 0.6).astype(float)
    mask[0, 0] = 1.0
    errors = check_gradients(lambda: training.masked_l1_loss(xhat, truth, mask), {"xhat": xhat})
    assert max(errors.values()) < 1e-4


# ---------------------------------------------------------------- adam


def test_adam_first_step_moves_by_lr():
    theta = ad.parameter(0.0)
    theta.grad = np.array(1.0)
    opt = training.Adam({"theta": theta}, lr=0.01)
    opt.step()
    assert abs(float(theta.data) + 0.01) < 1e-9  # -lr within eps slack
    assert theta.grad is None  # zeroed afterward


def test_adam_zero_gradient_keeps_parameter():
    theta = ad.parameter(1.5)
    theta.grad = np.array(0.0)
    opt = training.Adam({"theta": theta}, lr=0.1)
    for _ in range(5):
        theta.grad = np.array(0.0)
        opt.step()
    assert float(theta.data) == 1.5


def test_adam_first_step_descends_for_any_gradient_sign():
    for g in (3.0, -0.25, 1e-6):
        theta = ad.parameter(0.0)
        theta.grad = np.array(g)
        training.Adam({"theta": theta}, lr=0.05).step()
        assert np.sign(float(theta.data)) == -np.sign(g)


def test_adam_nan_gradient_names_parameter():
    theta = ad.parameter(0.0)
    theta.grad = np.array(np.nan)
    opt = training.Adam({"bad_param": theta}, lr=0.1)
    with pytest.raises(NumericError) as err:
        opt.step()
    assert "bad_param" in str(err.value)


def test_adam_clipping_bounds_global_norm():
    a, b = ad.parameter(0.0), ad.parameter(0.0)
    a.grad, b.grad = np.array(30.0), np.array(40.0)  # norm 50
    opt = training.Adam({"a": a, "b": b}, lr=1.0, clip=5.0)
    opt.step()
    # after clipping, grads were (3, 4); adam normalizes magnitude to ~lr
    assert float(a.data) < 0 and float(b.data) < 0


def test_adam_clipped_steps_match_unclipped_steps_on_rescaled_gradients():
    # a step whose global gradient norm exceeds the clip takes the gradients
    # scaled by clip / norm; a step below the clip takes them unscaled
    rng = np.random.default_rng(17)
    start = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    above = {name: 10.0 * rng.normal(size=value.shape) for name, value in start.items()}
    below = {name: 1e-3 * rng.normal(size=value.shape) for name, value in start.items()}
    clip = 2.0
    norm = np.sqrt(sum(float((g * g).sum()) for g in above.values()))   # as Adam.step has it
    assert norm > clip > np.sqrt(sum(float((g * g).sum()) for g in below.values()))

    def two_steps(bound, first, second):
        params = {name: ad.parameter(value) for name, value in start.items()}
        opt = training.Adam(params, lr=0.05, clip=bound)
        for grads in (first, second):
            for name, t in params.items():
                t.grad = np.array(grads[name])
            opt.step()
        return {name: t.data for name, t in params.items()}

    clipped = two_steps(clip, above, below)
    scaled = {name: g * (clip / norm) for name, g in above.items()}
    reference, unclipped = two_steps(None, scaled, below), two_steps(None, above, below)
    for name in start:
        assert np.array_equal(clipped[name], reference[name])
        assert not np.array_equal(clipped[name], unclipped[name])


# ---------------------------------------------------------------- train loop


def test_train_lr_zero_keeps_parameters():
    model, train_ws, valid_ws, _ = tiny_setup()
    before = model.params.state()
    cfg = training.TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, patience=10, seed=2,
                               hide_fraction=0.0)
    training.train_model(model, train_ws, valid_ws, cfg)
    after = model.params.state()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_single_window_memorization():
    # overfit sanity: loss on one window must drop below 10% of epoch 1
    model, train_ws, valid_ws, _ = tiny_setup(seed=3)
    cfg = training.TrainConfig(learning_rate=5e-3, epochs=500, batch_size=1, patience=500, seed=3,
                               hide_fraction=0.0)
    result = training.train_model(model, train_ws[:1], valid_ws[:1], cfg)
    first = result.history[0]["train_loss"]
    best = min(h["train_loss"] for h in result.history)
    assert best < 0.1 * first


def test_train_seed_determinism_epoch1():
    losses = []
    for _ in range(2):
        model, train_ws, valid_ws, _ = tiny_setup(seed=4)
        cfg = training.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=4,
                                   hide_fraction=0.0)
        result = training.train_model(model, train_ws, valid_ws, cfg)
        losses.append(result.history[0]["train_loss"])
    assert losses[0] == losses[1]


def test_train_best_checkpoint_is_minimum_of_history():
    model, train_ws, valid_ws, _ = tiny_setup(seed=5)
    cfg = training.TrainConfig(learning_rate=3e-3, epochs=12, batch_size=4, patience=12, seed=5,
                               hide_fraction=0.0)
    result = training.train_model(model, train_ws, valid_ws, cfg)
    column = [h["val_rmse"] for h in result.history]
    assert result.best_val_rmse == min(column)
    assert result.history[result.best_epoch - 1]["val_rmse"] == result.best_val_rmse


def test_train_early_stopping_respects_patience():
    model, train_ws, valid_ws, _ = tiny_setup(seed=6)
    cfg = training.TrainConfig(learning_rate=0.0, epochs=50, batch_size=4, patience=2, seed=6,
                               hide_fraction=0.0)
    result = training.train_model(model, train_ws, valid_ws, cfg)
    # lr=0 never improves after epoch 1, so the loop stops at patience+2
    assert result.epochs_run == 4


def test_train_divergence_keeps_last_good_state():
    model, train_ws, valid_ws, _ = tiny_setup(seed=7)
    cfg = training.TrainConfig(learning_rate=1e-3, epochs=10, batch_size=4, patience=10, seed=7,
                               hide_fraction=0.0)
    real_forward = model.forward
    windows = {"n": 0}
    epoch_windows = len(train_ws) + len(valid_ws)  # training + validation windows

    def flaky_forward(x, m, internals=None):
        windows["n"] += 1 if np.ndim(m) == 2 else len(m)  # one window or a stack
        out = real_forward(x, m, internals)
        if windows["n"] > epoch_windows:  # epoch 2 onward produces NaN
            out.data = np.full_like(out.data, np.nan)
        return out

    model.forward = flaky_forward
    result = training.train_model(model, train_ws, valid_ws, cfg)
    assert result.diverged
    assert len(result.history) == 1  # only epoch 1 completed
    assert all(np.isfinite(v).all() for v in result.best_state.values())


def test_train_rejects_empty_split():
    model, train_ws, _, _ = tiny_setup()
    with pytest.raises(ContractError):
        training.train_model(model, train_ws, [], training.TrainConfig(epochs=1))


# ---------------------------------------------------------------- hiding observed entries


@pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
def test_hide_fraction_outside_unit_interval_rejected(fraction):
    with pytest.raises(ContractError):
        training.TrainConfig(hide_fraction=fraction)


@pytest.mark.parametrize("clip", [0.0, -1.0])
def test_grad_clip_not_above_zero_rejected(clip):
    # Adam would leave every parameter in place at 0 and step uphill below it
    with pytest.raises(ContractError):
        training.TrainConfig(grad_clip=clip)


def test_hide_observed_draws_only_observed_positions():
    graph = data.synthetic_graph(5, seed=2)
    values = np.array(data.generate_synthetic(5, 40, graph, seed=2).values)
    values[1, 3:9, :] = np.nan  # natively missing stretch
    values[4, ::5, :] = np.nan
    series = data.SeriesMatrix(values=values)
    windows = data.make_windows(series, data.draw_eval_mask(series, 0.3, 2), 20, 20)
    rng = np.random.default_rng(0)
    for w in windows:
        for _ in range(20):
            hid = data.hide_observed(w, 0.4, rng)
            drawn = hid.eval_mask - w.eval_mask
            assert set(np.unique(drawn)) <= {0.0, 1.0}  # held-out entries stay held out
            assert np.all(w.m[drawn == 1.0] == 1.0)  # never eval-mask or natively missing
            assert drawn.sum() == np.floor(0.4 * w.m.sum())
            assert np.array_equal(hid.m, w.m - drawn)
            assert np.all(hid.x[drawn == 1.0] == 0.0)
            assert np.array_equal(hid.ground_truth[drawn == 1.0], w.x[drawn == 1.0])
            held = w.eval_mask == 1.0
            assert np.array_equal(hid.ground_truth[held], w.ground_truth[held])


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 0.99])
def test_hide_observed_is_one_exact_count_permutation_of_its_generator(fraction):
    # the training recipe's bytes rest on this draw and on the generator state it leaves
    series = data.generate_synthetic(5, 40, data.synthetic_graph(5, seed=3), seed=3)
    rng = np.random.default_rng(8)
    for w in data.make_windows(series, data.draw_eval_mask(series, 0.4, 3), 10, 10):
        reference = copy.deepcopy(rng)
        observed = np.flatnonzero(w.m.ravel() == 1.0)
        count = int(np.floor(fraction * observed.size + 1e-9))
        expected = np.zeros(w.m.size)
        expected[observed[reference.permutation(observed.size)[:count]]] = 1.0
        hid = data.hide_observed(w, fraction, rng)
        assert np.array_equal(hid.eval_mask - w.eval_mask, expected.reshape(w.m.shape))
        assert rng.bit_generator.state == reference.bit_generator.state


def _spy_forward(model):
    calls = []
    real_forward = model.forward

    def spy(x, m, internals=None):  # records each window passed, alone or in a stack
        x, m = np.array(x), np.array(m)
        calls.extend([(x, m)] if m.ndim == 2 else zip(x, m))
        return real_forward(x, m, internals)

    model.forward = spy
    return calls


def test_hiding_alters_training_windows_only():
    model, train_ws, valid_ws, _ = tiny_setup(seed=8)
    calls = _spy_forward(model)
    cfg = training.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=8,
                               hide_fraction=0.5)
    training.train_model(model, train_ws, valid_ws, cfg)
    train_calls, valid_calls = calls[:-len(valid_ws)], calls[-len(valid_ws):]
    assert len(train_calls) == len(train_ws)
    for _, m in train_calls:
        assert any(np.all(m <= w.m) and m.sum() == w.m.sum() - np.floor(0.5 * w.m.sum())
                   for w in train_ws)
    norm = model.normalizer
    for (x, m), w in zip(valid_calls, valid_ws):
        assert np.array_equal(m, w.m)
        assert np.array_equal(x, np.where(w.m[:, :, None] == 1.0, norm.transform(w.x), 0.0))


def test_hiding_epoch1_loss_deterministic():
    losses = []
    for _ in range(2):
        model, train_ws, valid_ws, _ = tiny_setup(seed=4)
        cfg = training.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=4,
                                   hide_fraction=0.25)
        result = training.train_model(model, train_ws, valid_ws, cfg)
        losses.append(result.history[0]["train_loss"])
    assert losses[0] == losses[1]


# ---------------------------------------------------------------- prediction


@pytest.mark.parametrize("n, per_call", [(16, [8, 8, 4]), (207, [1] * 20)])
def test_predict_windows_chunk_follows_node_count(n, per_call, monkeypatch):
    pin_cpus(monkeypatch, 1)   # one CPU: the chunks run in this process, in order
    model, windows, _, _ = tiny_setup(n=n, width=6, steps=6 * 30)
    windows = windows[:20]
    model.normalizer = data.Normalizer.fit(windows)
    real_forward = model.forward
    calls = []

    def spy(x, m, internals=None):
        calls.append(len(x))
        return real_forward(x, m, internals)

    model.forward = spy
    preds = training.predict_windows(model, windows)
    assert calls == per_call
    norm = model.normalizer
    for w, pred in zip(windows, preds):
        # one window alone, through predict and through the unbatched forward
        (alone,) = model.predict([w])
        with ad.no_grad():
            out = real_forward(np.where(w.m[:, :, None] == 1.0, norm.transform(w.x), 0.0), w.m)
        for other in (alone, norm.inverse(out.data)):
            assert pred.shape == other.shape and pred.tobytes() == other.tobytes()


def pass_windows(monkeypatch, n, per_pass):
    """Shrink the pair budget so a pass at ``n`` nodes takes ``per_pass``
    windows: a budget-limited pass, run on one worker process per usable CPU."""
    assert per_pass < training.EVAL_CHUNK
    monkeypatch.setattr(training, "EVAL_PAIR_BUDGET", per_pass * n * n)


def log_chunk(log, windows, chunk, note=""):
    """Record, as a new file under ``log``, that this process started the
    chunk whose first window is ``chunk[0]``, and return that window's
    index. Spies run in the worker processes, so they report through
    files, not through the test's memory."""
    first = next(i for i, w in enumerate(windows) if w is chunk[0])
    (log / f"{os.getpid()}-{first}-{uuid.uuid4().hex}").write_text(note)
    return first


def logged_chunks(log):
    """(process id, first window's index, note) of each chunk ``log_chunk`` logged."""
    found = []
    for path in log.iterdir():
        pid, first, _ = path.name.split("-")
        found.append((int(pid), int(first), path.read_text()))
    return found


@pytest.mark.parametrize("n, count, chunks", [(16, 20, 3), (182, 6, 6)])
def test_predict_windows_same_bytes_for_any_worker_count(n, count, chunks, monkeypatch, tmp_path):
    # 16 nodes under a shrunk budget: chunks of 7, 7 and a short 6;
    # 182 nodes: one window per chunk under the default budget
    model, windows, _, _ = tiny_setup(n=n, width=6, steps=6 * 30)
    windows = windows[:count]
    model.normalizer = data.Normalizer.fit(windows)
    pass_windows(monkeypatch, n, -(-count // chunks))
    real_predict = model.predict
    runs = {}
    for cpus in (1, 4):
        pin_cpus(monkeypatch, cpus)
        log = tmp_path / f"cpus{cpus}"
        log.mkdir()
        seen = set()   # each forked worker holds its own copy
        # each worker's first chunk waits until every worker has one, so
        # the pool really runs min(cpus, chunks) processes at once
        started = multiprocessing.get_context("fork").Barrier(min(cpus, chunks))

        def spy(chunk):
            log_chunk(log, windows, chunk)
            if os.getpid() not in seen:
                seen.add(os.getpid())
                started.wait(timeout=30)
            return real_predict(chunk)

        model.predict = spy
        runs[cpus] = training.predict_windows(model, windows)
        assert multiprocessing.active_children() == []
        pids = {pid for pid, _, _ in logged_chunks(log)}
        assert len(pids) == min(cpus, chunks)
        assert (os.getpid() in pids) == (cpus == 1)
    assert len(runs[1]) == len(runs[4]) == count
    for one, many in zip(runs[1], runs[4]):
        assert one.shape == many.shape and one.tobytes() == many.tobytes()


@pytest.mark.parametrize("n, workers_used", [(16, 1), (90, 1), (91, 3)])
def test_predict_windows_workers_only_for_budget_limited_passes(n, workers_used, monkeypatch,
                                                               tmp_path):
    # 20 windows: chunks of 8, 8 and 4 up to 90 nodes, whose passes run in
    # this process; chunks of 7, 7 and 6 at 91 nodes, the first width the
    # pair budget limits, one worker process each
    pin_cpus(monkeypatch, 4)
    model, windows, _, _ = tiny_setup(n=n, width=6, steps=6 * 30)
    windows = windows[:20]
    model.normalizer = data.Normalizer.fit(windows)
    real_predict = model.predict

    def spy(chunk):
        log_chunk(tmp_path, windows, chunk)
        time.sleep(0.05)   # long enough for any idle worker to take the next chunk
        return real_predict(chunk)

    model.predict = spy
    training.predict_windows(model, windows)
    assert multiprocessing.active_children() == []
    pids = {pid for pid, _, _ in logged_chunks(tmp_path)}
    assert len(pids) == workers_used
    assert (pids == {os.getpid()}) == (workers_used == 1)


def test_predict_windows_raises_a_worker_process_error_unchanged(monkeypatch, tmp_path):
    # chunks of 4 on four worker processes; the second chunk ends in a window
    # with a NaN at an observed entry, which the model's encoder rejects.
    # The error comes back pickled, so it is the same type and message, not
    # the same object
    pin_cpus(monkeypatch, 4)
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 30)
    windows = windows[:20]
    model.normalizer = data.Normalizer.fit(windows)
    windows[7] = with_nan_at_an_observed_entry(windows[7])
    pass_windows(monkeypatch, 16, 4)
    real_predict = model.predict

    def predict(chunk):
        try:
            return real_predict(chunk)
        except InputError as err:
            log_chunk(tmp_path, windows, chunk, f"{type(err).__name__}: {err}")
            raise

    model.predict = predict
    before = set(threading.enumerate())
    with pytest.raises(InputError, match="NaN at an observed position") as caught:
        training.predict_windows(model, windows)
    ((pid, first, raised),) = logged_chunks(tmp_path)
    assert pid != os.getpid() and first == 4
    assert type(caught.value) is InputError and raised == f"InputError: {caught.value}"
    assert multiprocessing.active_children() == []   # every worker was joined
    assert set(threading.enumerate()) == before      # and so was every pool thread


def test_predict_windows_raises_the_first_failing_chunks_error(monkeypatch):
    # chunks of 4, 4, 4, 4 and 4 on four worker processes; the second and
    # third fail, the third first
    pin_cpus(monkeypatch, 4)
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 30)
    windows = windows[:20]
    pass_windows(monkeypatch, 16, 4)
    real_predict = model.predict
    failures = {1: ContractError("second chunk"), 2: InputError("third chunk")}

    def predict(chunk):
        index = next(i for i, w in enumerate(windows) if w is chunk[0]) // 4
        if index == 1:
            time.sleep(0.1)
        if index in failures:
            raise failures[index]
        return real_predict(chunk)

    model.predict = predict
    with pytest.raises(ContractError) as caught:
        training.predict_windows(model, windows)
    # as one process, taking the chunks in order, raises
    assert type(caught.value) is ContractError and str(caught.value) == "second chunk"
    assert multiprocessing.active_children() == []


def test_predict_windows_cancels_chunks_not_started_after_a_failure(monkeypatch, tmp_path):
    # 20 chunks of one window on two worker processes; the first fails at
    # once and every other one takes 0.2 s, so without the cancel all 20
    # would run
    pin_cpus(monkeypatch, 2)
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 30)
    windows = windows[:20]
    pass_windows(monkeypatch, 16, 1)
    real_predict = model.predict

    def predict(chunk):
        if log_chunk(tmp_path, windows, chunk) == 0:
            raise InputError("first chunk")
        time.sleep(0.2)
        return real_predict(chunk)

    model.predict = predict
    before = set(threading.enumerate())
    with pytest.raises(InputError, match="first chunk"):
        training.predict_windows(model, windows)
    assert len(logged_chunks(tmp_path)) < len(windows)
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == before


def test_predict_windows_stress_each_chunk_predicted_once(monkeypatch, tmp_path):
    # more worker processes than cores, and a very short switch interval
    # for this process's threads: every chunk is taken by exactly one
    # worker and its predictions land in its place
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 100)
    windows = windows[:66]   # chunks of 2 under a shrunk budget
    model.normalizer = data.Normalizer.fit(windows)
    pass_windows(monkeypatch, 16, 2)
    pin_cpus(monkeypatch, 1)
    alone = training.predict_windows(model, windows)
    real_predict = model.predict
    log = tmp_path

    def spy(chunk):
        log_chunk(log, windows, chunk)
        return real_predict(chunk)

    model.predict = spy
    pin_cpus(monkeypatch, 16)
    pids = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(3):
            log = tmp_path / f"attempt{attempt}"
            log.mkdir()
            preds = training.predict_windows(model, windows)
            assert multiprocessing.active_children() == []
            logged = logged_chunks(log)
            assert sorted(first for _, first, _ in logged) == list(range(0, 66, 2))
            assert [p.tobytes() for p in preds] == [p.tobytes() for p in alone]
            pids |= {pid for pid, _, _ in logged}
    finally:
        sys.setswitchinterval(interval)
    assert len(pids) > 1 and os.getpid() not in pids


def test_predict_windows_without_the_fork_start_method_predicts_in_this_process(
        monkeypatch, tmp_path):
    # a budget-limited pass on four usable CPUs, where fork is unavailable
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 30)
    windows = windows[:20]
    model.normalizer = data.Normalizer.fit(windows)
    pass_windows(monkeypatch, 16, 4)
    pin_cpus(monkeypatch, 1)
    alone = training.predict_windows(model, windows)
    real_predict = model.predict

    def spy(chunk):
        log_chunk(tmp_path, windows, chunk)
        return real_predict(chunk)

    model.predict = spy
    pin_cpus(monkeypatch, 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    preds = training.predict_windows(model, windows)
    assert multiprocessing.active_children() == []
    logged = logged_chunks(tmp_path)
    assert {pid for pid, _, _ in logged} == {os.getpid()}
    assert sorted(first for _, first, _ in logged) == [0, 4, 8, 12, 16]
    assert [p.tobytes() for p in preds] == [p.tobytes() for p in alone]


# What a pool worker of the next test predicts: set before the pool forks it.
_cell_job = None


def _predict_in_a_cell():
    model, windows = _cell_job
    preds = training.predict_windows(model, windows)
    return os.getpid(), [p.tobytes() for p in preds], multiprocessing.active_children()


def test_predict_windows_in_a_pool_worker_predicts_in_that_process(monkeypatch, tmp_path):
    # a sweep or ablate cell runs in a worker of its own process pool, with
    # its sibling cells on the other CPUs: its budget-limited passes run in
    # that worker, which starts no pool of its own
    model, windows, _, _ = tiny_setup(n=16, width=6, steps=6 * 30)
    windows = windows[:20]
    model.normalizer = data.Normalizer.fit(windows)
    pass_windows(monkeypatch, 16, 4)
    pin_cpus(monkeypatch, 1)
    alone = training.predict_windows(model, windows)
    real_predict = model.predict

    def spy(chunk):
        log_chunk(tmp_path, windows, chunk)
        return real_predict(chunk)

    model.predict = spy
    pin_cpus(monkeypatch, 4)
    monkeypatch.setattr(sys.modules[__name__], "_cell_job", (model, windows))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        cell, preds, cell_children = pool.submit(_predict_in_a_cell).result()
    assert cell != os.getpid() and cell_children == []
    logged = logged_chunks(tmp_path)
    assert {pid for pid, _, _ in logged} == {cell}
    assert sorted(first for _, first, _ in logged) == [0, 4, 8, 12, 16]
    assert preds == [p.tobytes() for p in alone]
    assert multiprocessing.active_children() == []
