import base64
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from maginet import autodiff as ad
from maginet import data
from maginet import model as mm
from maginet.data import IncompleteWindow
from maginet.errors import ContractError, InputError
from maginet.gradcheck import check_gradients
from maginet.graph import TrafficGraph, build_basis
from maginet.training import masked_l1_loss

RNG = np.random.default_rng(77)


def tiny_config(**over):
    base = dict(d=4, heads=2, head_dim=2, spatial_dim=3, cheb_order=2,
                kernel_sizes=(3,), blocks=1, spatial_kernel=3)
    base.update(over)
    return mm.ModelConfig(**base)


def ring(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return TrafficGraph(adj)


def make_model(n=4, width=8, c=1, seed=3, **over):
    return mm.MagiNet(tiny_config(**over), ring(n), width=width, n_features=c, seed=seed)


def random_window(n=4, width=8, c=1, seed=5, observed_ratio=0.7):
    rng = np.random.default_rng(seed)
    m = (rng.random((n, width)) < observed_ratio).astype(float)
    m[:, 0] = 1.0  # keep at least one observation per node
    values = rng.uniform(1, 9, (n, width, c))
    ev = np.zeros_like(m)
    hidden = np.argwhere(m == 0.0)
    for i, t in hidden[: max(1, len(hidden) // 2)]:
        ev[i, t] = 1.0
    x = np.where(m[:, :, None] == 1.0, values, 0.0)
    gt = np.where(ev[:, :, None] == 1.0, values, 0.0)
    return IncompleteWindow(x=x, m=m, eval_mask=ev, ground_truth=gt, window_start=0)


def zero_params(model):
    for _, t in model.params.items():
        t.data = np.zeros_like(t.data)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ContractError):
        tiny_config(kernel_sizes=(4,))
    with pytest.raises(ContractError):
        tiny_config(blocks=0)
    with pytest.raises(ContractError):
        mm.ModelConfig(ablations=frozenset({"bogus"}))


def test_config_roundtrip():
    cfg = tiny_config(ablations=frozenset({"no_gtconv"}))
    assert mm.ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(InputError):
        mm.ModelConfig.from_dict({"d": 4, "mystery": 1})


def test_param_count_is_function_of_shapes():
    a = make_model(seed=1).params.n_parameters
    b = make_model(seed=2).params.n_parameters
    assert a == b


# ---------------------------------------------------------------- encoder


def test_encoder_all_observed_skips_missing_embed():
    model = make_model()
    w = random_window(observed_ratio=1.1)  # everything observed
    h = mm.amst_encode(w.x, w.m, model.params, model.config)
    x_o = w.x @ model.params["encoder.w_obs"].data + model.params["encoder.b_obs"].data
    expected = x_o + model.params["encoder.pos_time"].data
    assert np.array_equal(h.data, expected)


def test_encoder_invariant_to_masked_values():
    model = make_model()
    w = random_window()
    h1 = mm.amst_encode(w.x, w.m, model.params, model.config).data
    x2 = w.x + np.where(w.m[:, :, None] == 0.0, 123.456, 0.0)
    h2 = mm.amst_encode(x2, w.m, model.params, model.config).data
    assert np.array_equal(h1, h2)


def test_encoder_scalar_substitution():
    # With C=d=1, W_o=1, b_o=0 and zero positions, one observed 5 embeds to 5.
    cfg = tiny_config(d=1, heads=1, head_dim=1)
    params = mm.ModelParams.initialize(cfg, n_nodes=1, width=1, n_features=1, seed=0)
    params["encoder.w_obs"].data = np.array([[1.0]])
    params["encoder.b_obs"].data = np.zeros(1)
    params["encoder.pos_time"].data = np.zeros((1, 1))
    h = mm.amst_encode(np.array([[[5.0]]]), np.ones((1, 1)), params, cfg)
    assert h.data.reshape(()) == 5.0


def test_encoder_rejects_nan_at_observed():
    model = make_model(n=2, width=2)
    x = np.zeros((2, 2, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        mm.amst_encode(x, np.ones((2, 2)), model.params, model.config)


# ---------------------------------------------------------------- temporal attention


def attention_weights(model, w):
    internals = {}
    with ad.no_grad():
        model.forward(w.x, w.m, internals)
    return internals


def test_single_unmasked_key_gets_weight_one():
    model = make_model(n=2, width=4)
    m = np.zeros((2, 4))
    m[:, 2] = 1.0  # one observed step per node
    x = np.where(m[:, :, None] == 1.0, 3.0, 0.0)
    w = IncompleteWindow(x=x, m=m, eval_mask=np.zeros_like(m), ground_truth=np.zeros_like(x),
                         window_start=0)
    weights = attention_weights(model, w)["temporal_weights"][0]
    assert np.array_equal(weights[:, :, :, 2], np.ones_like(weights[:, :, :, 2]))
    keep = np.ones(4, dtype=bool)
    keep[2] = False
    assert np.array_equal(weights[:, :, :, keep], np.zeros_like(weights[:, :, :, keep]))


def test_masked_key_column_is_exactly_zero():
    model = make_model()
    w = random_window(seed=9)
    weights = attention_weights(model, w)["temporal_weights"][0]  # (N, heads, W, W)
    masked_cols = w.m == 0.0
    for node in range(w.n_nodes):
        assert np.all(weights[node][:, :, masked_cols[node]] == 0.0)
        row_sums = weights[node].sum(axis=-1)
        expected = 1.0 if w.m[node].sum() else 0.0
        assert np.allclose(row_sums, expected, atol=1e-12)


def test_temporal_attention_hand_softmax():
    # One node, one head, W=2, d=d_h=1, identity projections, H=[1,0]:
    # scores = [[1,0],[0,0]] * 1/sqrt(1); rows softmax to hand values.
    cfg = tiny_config(d=1, heads=1, head_dim=1)
    model = mm.MagiNet(cfg, ring(2), width=2, n_features=1, seed=0)
    p = model.params
    for name in ("block0.attn.q0", "block0.attn.k0", "block0.attn.v0"):
        p[name].data = np.array([[1.0]])
    h = ad.constant(np.array([[[1.0], [0.0]], [[1.0], [0.0]]]))  # (2,2,1)
    a_prev = ad.constant(np.zeros((2, 1, 2, 2)))
    internals = {}
    mm.temporal_attention(h, np.ones((2, 2)), a_prev, p, cfg, 0, internals)
    weights = internals["temporal_weights"][0]
    e = math.exp(1.0)
    expected_row0 = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
    assert np.allclose(weights[0, 0, 0], expected_row0, atol=1e-14)
    assert np.allclose(weights[0, 0, 1], [0.5, 0.5], atol=1e-14)


def test_all_masked_node_passes_residual_through():
    model = make_model(n=3, width=4)
    m = np.ones((3, 4))
    m[1, :] = 0.0  # node 1 fully unobserved
    x = np.where(m[:, :, None] == 1.0, 2.0, 0.0)
    cfg, p = model.config, model.params
    h = mm.amst_encode(x, m, p, cfg)
    a_prev = ad.constant(np.zeros((3, cfg.heads, 4, 4)))
    h_matt, _ = mm.temporal_attention(h, m, a_prev, p, cfg, 0)
    # zero context for node 1: its output is LN(0 + b_ctx + h)
    mixed = np.broadcast_to(p["block0.attn.b_ctx"].data, (4, cfg.d)) + h.data[1]
    mu = mixed.mean(-1, keepdims=True)
    var = ((mixed - mu) ** 2).mean(-1, keepdims=True)
    expected = (mixed - mu) / np.sqrt(var + 1e-5)
    expected = expected * p["block0.attn.ln.gain"].data + p["block0.attn.ln.bias"].data
    assert np.allclose(h_matt.data[1], expected, atol=1e-12)


def test_attention_residual_chaining():
    # Zero q/k in block 1 forces its raw scores to zero, so its accumulated
    # scores must equal block 0's exactly.
    model = make_model(blocks=2)
    for head in range(model.config.heads):
        model.params[f"block1.attn.q{head}"].data = np.zeros_like(
            model.params[f"block1.attn.q{head}"].data)
    w = random_window(seed=3)
    internals = attention_weights(model, w)
    scores = internals["temporal_scores"]
    assert np.array_equal(scores[1], scores[0])


# ---------------------------------------------------------------- spatial attention


def test_spatial_rows_sum_to_one():
    model = make_model()
    w = random_window(seed=13)
    heads = attention_weights(model, w)["spatial_weights"][0]
    assert np.allclose(heads.sum(axis=-1), 1.0, atol=1e-12)


def test_identical_nodes_get_identical_spatial_rows():
    model = make_model(n=3, width=4)
    p = model.params
    p["pos_space"].data = np.zeros_like(p["pos_space"].data)
    h_matt = ad.constant(np.tile(RNG.standard_normal((1, 4, 4)), (3, 1, 1)))
    heads = mm.spatial_attention(h_matt, p, model.config, 0)
    for head in heads:
        assert np.allclose(head.data[0], head.data[1], atol=1e-12)


def test_spatial_hand_softmax():
    # Q' = K' = [1, 0] at F = d_h = 1: scores [[1,0],[0,0]] scaled by 1.
    cfg = tiny_config(d=1, heads=1, head_dim=1, spatial_dim=1, spatial_kernel=1)
    model = mm.MagiNet(cfg, ring(2), width=2, n_features=1, seed=0)
    p = model.params
    p["block0.collapse.kernel"].data = np.ones((1, 1, 1))  # width-1 tap: conv = identity
    p["block0.collapse.bias"].data = np.zeros(1)
    p["block0.collapse.w_proj"].data = np.array([[1.0]])
    p["block0.collapse.b_proj"].data = np.zeros(1)
    p["pos_space"].data = np.zeros((2, 1))
    p["block0.spatial.q0"].data = np.array([[1.0]])
    p["block0.spatial.k0"].data = np.array([[1.0]])
    h_matt = ad.constant(np.array([[[1.0], [1.0]], [[0.0], [0.0]]]))  # node means: 1, 0
    (head,) = mm.spatial_attention(h_matt, p, cfg, 0)
    e = math.exp(1.0)
    assert np.allclose(head.data, [[e / (e + 1), 1 / (e + 1)], [0.5, 0.5]], atol=1e-14)


# ---------------------------------------------------------------- graph conv


def test_graph_conv_identity_composition():
    cfg = tiny_config(cheb_order=1, heads=1, head_dim=2)
    model = mm.MagiNet(cfg, ring(3), width=4, n_features=1, seed=0)
    model.params["block0.cheb.theta0"].data = np.eye(cfg.d)
    h = ad.constant(RNG.standard_normal((3, 4, cfg.d)))
    s = [ad.constant(np.eye(3))]
    basis = build_basis(ring(3), 1)
    out = mm.graph_conv(h, s, basis, model.params, cfg, 0)
    assert np.allclose(out.data, h.data, atol=1e-14)


def test_graph_conv_zero_weights_zero_output():
    model = make_model()
    for k in range(model.config.cheb_order):
        model.params[f"block0.cheb.theta{k}"].data = np.zeros((model.config.d, model.config.d))
    h = ad.constant(RNG.standard_normal((4, 8, model.config.d)))
    s = [ad.constant(np.full((4, 4), 0.25)) for _ in range(model.config.heads)]
    out = mm.graph_conv(h, s, model.basis, model.params, model.config, 0)
    assert np.array_equal(out.data, np.zeros_like(out.data))


def test_graph_conv_two_node_hand_arithmetic():
    # Path graph: T_0 = I, T_1 = L~ = [[0,-1],[-1,0]]. With S = ones/2 and
    # h_t = [1, 0]: (I o S) h = [0.5, 0] and (L~ o S) h = [0, -0.5].
    cfg = tiny_config(d=1, heads=1, head_dim=1, cheb_order=2)
    path = TrafficGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = mm.MagiNet(cfg, path, width=1, n_features=1, seed=0)
    model.params["block0.cheb.theta0"].data = np.array([[1.0]])
    model.params["block0.cheb.theta1"].data = np.array([[1.0]])
    h = ad.constant(np.array([[[1.0]], [[0.0]]]))  # (2,1,1)
    s = [ad.constant(np.full((2, 2), 0.5))]
    out = mm.graph_conv(h, s, model.basis, model.params, cfg, 0)
    assert np.allclose(out.data.reshape(2), [0.5, -0.5], atol=1e-9)


# ---------------------------------------------------------------- gated conv


def test_gated_conv_zero_kernels_passes_relu_of_input():
    model = make_model()
    p = model.params
    p["block0.gate0.kernel"].data = np.zeros_like(p["block0.gate0.kernel"].data)
    p["block0.gate0.bias"].data = np.zeros_like(p["block0.gate0.bias"].data)
    p["block0.merge_gates.w"].data = np.zeros_like(p["block0.merge_gates.w"].data)
    p["block0.merge_gates.b"].data = np.zeros_like(p["block0.merge_gates.b"].data)
    e = ad.constant(RNG.standard_normal((4, 8, model.config.d)))
    h = ad.constant(RNG.standard_normal((4, 8, model.config.d)))
    internals = {}
    mm.gated_temporal_conv(e, h, p, model.config, 0, internals)
    assert np.array_equal(internals["conv_residual"][0], np.maximum(e.data, 0.0))


def test_gated_conv_zero_everything_is_zero():
    model = make_model()
    zero_params(model)
    p = model.params
    p["block0.ln_out.gain"].data = np.ones(model.config.d)
    e = ad.constant(np.zeros((4, 8, model.config.d)))
    h = ad.constant(np.zeros((4, 8, model.config.d)))
    out = mm.gated_temporal_conv(e, h, p, model.config, 0)
    assert np.array_equal(out.data, np.zeros_like(out.data))


def test_gated_conv_scalar_hand_oracle():
    # d=1, W=2, K=1 kernel [1, 0], zero biases: gated = tanh(e) * sigmoid(0).
    cfg = tiny_config(d=1, heads=1, head_dim=1, kernel_sizes=(1,))
    model = mm.MagiNet(cfg, ring(2), width=2, n_features=1, seed=0)
    p = model.params
    p["block0.gate0.kernel"].data = np.array([[[1.0, 0.0]]])  # (K=1, d=1, 2d=2)
    p["block0.gate0.bias"].data = np.zeros(2)
    p["block0.merge_gates.w"].data = np.array([[1.0]])
    p["block0.merge_gates.b"].data = np.zeros(1)
    e_vals = np.array([0.3, -0.2])
    e = ad.constant(e_vals.reshape(1, 2, 1))
    h = ad.constant(np.zeros((1, 2, 1)))
    internals = {}
    mm.gated_temporal_conv(e, h, p, cfg, 0, internals)
    expected = np.maximum(np.tanh(e_vals) * 0.5 + e_vals, 0.0)
    assert np.allclose(internals["conv_residual"][0].reshape(2), expected, atol=1e-14)


def test_gated_conv_kernel_wider_than_window_rejected():
    model = make_model(width=8, kernel_sizes=(9,))
    e = ad.constant(np.zeros((4, 8, model.config.d)))
    with pytest.raises(Exception):
        mm.gated_temporal_conv(e, e, model.params, model.config, 0)


# ---------------------------------------------------------------- forward


def test_forward_output_shape():
    model = make_model(n=5, width=6, c=2)
    w = random_window(n=5, width=6, c=2)
    out = model.forward(w.x, w.m)
    assert out.shape == (5, 6, 2)


def test_forward_masked_input_invariance_fuzz():
    model = make_model()
    w = random_window(seed=21)
    with ad.no_grad():
        base = model.forward(w.x, w.m).data
    rng = np.random.default_rng(0)
    for _ in range(20):
        noise = rng.uniform(-50, 50, w.x.shape) * (w.m[:, :, None] == 0.0)
        with ad.no_grad():
            fuzzed = model.forward(w.x + noise, w.m).data
        assert np.array_equal(base, fuzzed)


def test_forward_zeroed_params_yield_head_bias():
    model = make_model(blocks=1)
    zero_params(model)
    bias = np.array([2.5])
    model.params["head.b2"].data = bias
    w = random_window(seed=2)
    with ad.no_grad():
        out = model.forward(w.x, w.m).data
    assert np.allclose(out, 2.5, atol=1e-12)


def test_forward_rejects_mismatched_window():
    model = make_model(n=4, width=8)
    w = random_window(n=4, width=6)
    with pytest.raises(ContractError):
        model.forward(w.x, w.m)


def test_forward_permutation_equivariance():
    n, width = 5, 6
    rng = np.random.default_rng(31)
    adj = rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    graph = TrafficGraph(adj)
    cfg = tiny_config()
    model = mm.MagiNet(cfg, graph, width=width, n_features=1, seed=4)
    w = random_window(n=n, width=width, seed=8)
    with ad.no_grad():
        base = model.forward(w.x, w.m).data
    perm = rng.permutation(n)
    permuted_graph = TrafficGraph(adj[np.ix_(perm, perm)])
    permuted = mm.MagiNet(cfg, permuted_graph, width=width, n_features=1, seed=4)
    state = model.params.state()
    state["encoder.missing_embed"] = state["encoder.missing_embed"][perm]
    state["pos_space"] = state["pos_space"][perm]
    permuted.params.load_state(state)
    with ad.no_grad():
        out = permuted.forward(w.x[perm], w.m[perm]).data
    assert np.allclose(out, base[perm], atol=1e-10)


@pytest.mark.parametrize("toggle", sorted(mm.ABLATIONS))
def test_forward_ablations_run(toggle):
    model = make_model(ablations=frozenset({toggle}))
    w = random_window(seed=6)
    with ad.no_grad():
        out = model.forward(w.x, w.m).data
    assert out.shape == w.x.shape and np.isfinite(out).all()


# the encoder input of each variant: what fills m = 0, and whether time positions follow;
# of several encoder toggles, w/o AMSTenc wins, then zero prefill
@pytest.mark.parametrize("toggles, fill, positions", [
    ({"zero_prefill"}, "zero", True),
    ({"mean_prefill"}, "mean", True),
    ({"no_amstenc"}, "zero", False),
    ({"no_amstenc", "mean_prefill"}, "zero", False),
    ({"zero_prefill", "mean_prefill"}, "zero", True),
], ids=["zero-prefill", "mean-prefill", "no-amstenc", "no-amstenc-and-mean-prefill",
        "zero-and-mean-prefill"])
def test_prefill_variants_encode_their_fill_bit_for_bit(toggles, fill, positions):
    model = make_model(ablations=frozenset(toggles))
    w = random_window(seed=12)
    p = {name: t.data for name, t in model.params.items()}
    filled = w.x * w.m[..., None] if fill == "zero" else data.mean_filled(w.x, w.m)
    expected = filled @ p["encoder.w_obs"] + p["encoder.b_obs"]
    if positions:
        expected = expected + p["encoder.pos_time"]
    with ad.no_grad():
        h = mm.amst_encode(w.x, w.m, model.params, model.config).data
    assert np.array_equal(h, expected)


def test_no_mastdec_is_linear_head_on_encoding():
    model = make_model(ablations=frozenset({"no_mastdec"}))
    w = random_window(seed=11)
    h = mm.amst_encode(w.x, w.m, model.params, model.config).data
    expected = h @ model.params["linear_head.w"].data + model.params["linear_head.b"].data
    with ad.no_grad():
        out = model.forward(w.x, w.m).data
    assert np.allclose(out, expected, atol=1e-14)


def test_no_mastatt_uses_uniform_weights(monkeypatch):
    # flat spatial weights read nothing of temporal attention, so none runs
    calls = []
    monkeypatch.setattr(mm, "temporal_attention", lambda *args: calls.append(args))
    model = make_model(blocks=2, ablations=frozenset({"no_mastatt"}))
    w = random_window(seed=14)
    internals = attention_weights(model, w)
    assert calls == []
    assert not [key for key in internals if key.startswith("temporal_")]
    assert len(internals["spatial_weights"]) == 2
    for spatial in internals["spatial_weights"]:
        assert np.array_equal(spatial, np.full((2, w.n_nodes, w.n_nodes), 1.0 / w.n_nodes))


def test_full_model_gradients_sample():
    model = make_model(n=3, width=5)
    w = random_window(n=3, width=5, seed=17)
    picked = {
        name: model.params[name]
        for name in ["encoder.w_obs", "encoder.missing_embed", "block0.attn.q0",
                     "block0.cheb.theta0", "block0.gate0.kernel", "head.w2",
                     "block0.attn.ln.gain", "pos_space"]
    }

    def build():
        out = model.forward(w.x, w.m)
        diff = out - ad.constant(w.ground_truth)
        return ad.masked_select(ad.absolute(diff).mean(axis=2), w.eval_mask).mean()

    errors = check_gradients(build, picked)
    worst = max(errors.values())
    assert worst < 1e-4, errors


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    model = make_model(seed=9)
    model.normalizer = None
    path = tmp_path / "ckpt.json"
    mm.save_checkpoint(path, model, comment="unit test")
    loaded = mm.load_checkpoint(path, model.graph)
    w = random_window(seed=19)
    with ad.no_grad():
        a = model.forward(w.x, w.m).data
        b = loaded.forward(w.x, w.m).data
    assert np.array_equal(a, b)


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    model = make_model(seed=9)
    path = tmp_path / "ckpt.json"
    mm.save_checkpoint(path, model)
    other = make_model(n=5, seed=9)  # different node count
    with pytest.raises(InputError) as err:
        other.params.load_state(mm.load_checkpoint(path, model.graph).params.state())
    assert "encoder.missing_embed" in str(err.value)


def _with_first_param(payload, **entry):
    name, first = next(iter(payload["params"].items()))
    return {**payload, "params": {**payload["params"], name: {**first, **entry}}}


def _with_first_data(payload, edit):
    """``payload`` with its first tensor's base64 text passed through ``edit``."""
    first = next(iter(payload["params"].values()))
    return _with_first_param(payload, data=edit(first["data"]))


def _with_normalizer(payload, **stats):
    return {**payload, "normalizer": {**payload["normalizer"], **stats}}


# each returns the JSON a spoiled checkpoint holds in place of the saved payload
@pytest.mark.parametrize("spoil", [
    lambda payload: {**payload, "config": {**payload["config"], "heads": "3"}},
    lambda payload: {k: v for k, v in payload.items() if k != "config"},
    lambda payload: {k: v for k, v in payload.items() if k != "params"},
    lambda payload: {**payload, "normalizer": {"mean": payload["normalizer"]["mean"]}},
    lambda payload: {**payload, "width": "x"},
    lambda payload: _with_first_param(payload, shape=[10 ** 6]),
    lambda payload: _with_first_param(payload, data=["x"]),
    lambda payload: [payload],
    lambda payload: {**payload, "config": {**payload["config"], "wat": 1}},
    lambda payload: {**payload, "config": {**payload["config"], "heads": 0}},
    lambda payload: {**payload, "config": {**payload["config"], "d": 8}},   # saved at d=4
    lambda payload: _with_first_data(payload, lambda text: text[:4] + "*" + text[4:]),
    lambda payload: _with_first_data(payload, lambda text: base64.b64encode(
        base64.b64decode(text)[:-4]).decode()),
    lambda payload: {**payload, "width": payload["width"] + 0.9},
    lambda payload: {**payload, "width": str(payload["width"])},
    lambda payload: {**payload, "n_features": True},
    lambda payload: {**payload, "seed": 9.0},
    lambda payload: _with_normalizer(payload, mean=[0.0, 0.0, 0.0]),
    lambda payload: _with_normalizer(payload, mean=[float("nan")]),
    lambda payload: _with_normalizer(payload, mean=[10 ** 400]),
    lambda payload: _with_normalizer(payload, mean=["0"]),
    lambda payload: _with_normalizer(payload, std=[0.0]),
    lambda payload: _with_normalizer(payload, std=[float("inf")]),
    lambda payload: {**payload, "config": {**payload["config"], "blocks": True}},
    lambda payload: {**payload, "config": {**payload["config"], "kernel_sizes": [3.7]}},
    lambda payload: {**payload, "format_version": 2.0},
], ids=["heads-a-string", "no-config", "no-params", "no-normalizer-std", "width-not-a-number",
        "shape-not-fitting-data", "data-not-a-number", "a-list", "unknown-config-key",
        "heads-zero", "params-not-fitting-the-config", "data-bad-base64-character",
        "data-bytes-not-fitting-the-shape", "width-a-fraction", "width-a-string",
        "n-features-a-bool", "seed-a-float", "normalizer-mean-per-feature-count-wrong",
        "normalizer-mean-nan", "normalizer-mean-beyond-float-range", "normalizer-mean-a-string",
        "normalizer-std-zero", "normalizer-std-inf", "blocks-a-bool", "kernel-sizes-a-fraction",
        "format-version-a-float"])
def test_malformed_checkpoint_is_an_input_error_naming_the_file(tmp_path, spoil):
    model = make_model(seed=9)
    model.normalizer = data.Normalizer(mean=np.zeros(1), std=np.ones(1))
    path = tmp_path / "ckpt.json"
    mm.save_checkpoint(path, model, comment="unit test")
    comment, body = path.read_text().split("\n", 1)
    path.write_text(comment + "\n" + json.dumps(spoil(json.loads(body))))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not a valid checkpoint: "):
        mm.load_checkpoint(path, model.graph)


def test_invalid_json_in_checkpoint_names_the_line_from_the_top_of_the_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('# saved by a test\n# second comment\n{"format_version": 2,\n "width": }\n')
    with pytest.raises(InputError, match="not a valid checkpoint: Expecting value: line 4 column 11"):
        mm.load_checkpoint(path, ring(4))


def test_checkpoint_tensors_roundtrip_bit_exact(tmp_path):
    model = make_model(seed=9)
    tricky = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e308, -1e308,
                       0.1, 1 / 3, 2.718281828459045, -123456789.01234567])
    for _, t in model.params.items():
        t.data = np.resize(tricky, t.shape)
    path = tmp_path / "ckpt.json"
    mm.save_checkpoint(path, model)
    loaded = mm.load_checkpoint(path, model.graph)
    for name, t in model.params.items():
        got = loaded.params[name].data
        assert got.tobytes() == t.data.tobytes(), name
        assert got.dtype == np.float64 and got.flags.writeable and got.flags.owndata


# ---------------------------------------------------------------- batched forward


def batch_windows(n=5, width=8):
    """Three windows with different observation patterns: window 1 has a
    node it never observes, window 2 is almost fully observed."""
    ws = [random_window(n=n, width=width, seed=41),
          random_window(n=n, width=width, seed=42, observed_ratio=0.5),
          random_window(n=n, width=width, seed=43, observed_ratio=0.95)]
    m = np.array(ws[1].m)
    m[2, :] = 0.0
    x = np.where(m[:, :, None] == 1.0, ws[1].x, 0.0)
    ws[1] = IncompleteWindow(x=x, m=m, eval_mask=ws[1].eval_mask,
                             ground_truth=ws[1].ground_truth, window_start=0)
    return ws


def stacked(windows, attr):
    return np.stack([getattr(w, attr) for w in windows])


BATCH_CONFIGS = [{}, {"mask_mode": "multiply"}] + [
    {"ablations": frozenset({toggle})} for toggle in sorted(mm.ABLATIONS)]
BATCH_IDS = ["default", "multiply"] + sorted(mm.ABLATIONS)


@pytest.mark.parametrize("over", BATCH_CONFIGS, ids=BATCH_IDS)
def test_batched_forward_matches_per_window(over):
    # the default architecture (two blocks, three heads, kernels 3 and 5)
    model = mm.MagiNet(mm.ModelConfig(**over), ring(5), width=8, n_features=1, seed=3)
    ws = batch_windows()
    truth, held_out = stacked(ws, "ground_truth"), stacked(ws, "eval_mask")

    def grads(build_out):
        model.params.zero_grads()
        out = build_out()
        loss = masked_l1_loss(out, truth, held_out)
        loss.backward()
        return out.data, {name: t.grad.copy() for name, t in model.params.items()
                          if t.grad is not None}

    internals, per_window = {}, [{} for _ in ws]
    batched, batched_grads = grads(
        lambda: model.forward(stacked(ws, "x"), stacked(ws, "m"), internals))
    single, single_grads = grads(lambda: ad.concat(
        [model.forward(w.x, w.m, seen).reshape((1, 5, 8, 1))
         for w, seen in zip(ws, per_window)], axis=0))
    assert batched.shape == (3, 5, 8, 1)
    assert np.allclose(batched, single, rtol=0.0, atol=1e-10)
    # internals too
    for key, entries in internals.items():
        for i, entry in enumerate(entries):
            expected = np.stack([seen[key][i] for seen in per_window])
            assert np.allclose(entry, expected, rtol=0.0, atol=1e-10), key
    assert batched_grads.keys() == single_grads.keys() and batched_grads
    for name, g in batched_grads.items():
        assert np.allclose(g, single_grads[name], rtol=0.0, atol=1e-10), name


def test_batched_forward_gradients_match_finite_differences():
    model = make_model(n=4, width=8)
    ws = batch_windows(n=4, width=8)[:2]

    def loss():
        out = model.forward(stacked(ws, "x"), stacked(ws, "m"))
        return masked_l1_loss(out, stacked(ws, "ground_truth"), stacked(ws, "eval_mask"))

    errors = check_gradients(loss, dict(model.params.items()))
    assert max(errors.values()) < 1e-4, errors


@pytest.mark.parametrize("over", BATCH_CONFIGS, ids=BATCH_IDS)
def test_batched_forward_masked_input_invariance(over):
    # overwrite one window's m = 0 entries with values of every magnitude:
    # neither the output nor any attention weight may move by one bit
    model = mm.MagiNet(mm.ModelConfig(**over), ring(5), width=8, n_features=1, seed=3)
    ws = batch_windows()
    x, m = stacked(ws, "x"), stacked(ws, "m")
    base_internals = {}
    with ad.no_grad():
        base = model.forward(x, m, base_internals).data
    rng = np.random.default_rng(5)
    for scale in (50.0,) * 10 + (1e6, 1e150, 1e300):
        fuzzed = np.array(x)
        fuzzed[1] += rng.uniform(-scale, scale, x[1].shape) * (m[1][:, :, None] == 0.0)
        internals = {}
        with ad.no_grad():
            assert np.array_equal(model.forward(fuzzed, m, internals).data, base)
        assert internals.keys() == base_internals.keys()
        for key, wanted in base_internals.items():
            for got, want in zip(internals[key], wanted):
                assert np.array_equal(got, want), key


def test_single_window_keeps_unbatched_shapes():
    model = make_model(n=5, width=6, c=2, blocks=2)
    cfg = model.config
    w = random_window(n=5, width=6, c=2)
    internals = {}
    out = model.forward(w.x, w.m, internals)
    assert out.shape == (5, 6, 2)
    assert [a.shape for a in internals["temporal_weights"]] == [(5, cfg.heads, 6, 6)] * 2
    assert [a.shape for a in internals["temporal_scores"]] == [(5, cfg.heads, 6, 6)] * 2
    assert [a.shape for a in internals["spatial_weights"]] == [(cfg.heads, 5, 5)] * 2
    assert [a.shape for a in internals["conv_residual"]] == [(5, 6, cfg.d)] * 2
    h = mm.amst_encode(w.x, w.m, model.params, cfg)
    heads = mm.spatial_attention(h, model.params, cfg, 0)
    assert [s.shape for s in heads] == [(5, 5)] * cfg.heads
    assert mm.graph_conv(h, heads, model.basis, model.params, cfg, 0).shape == (5, 6, cfg.d)
    # a stack of two windows gains the leading axis everywhere
    batch = {}
    model.forward(np.stack([w.x, w.x]), np.stack([w.m, w.m]), batch)
    assert batch["temporal_weights"][0].shape == (2, 5, cfg.heads, 6, 6)
    assert batch["spatial_weights"][0].shape == (2, cfg.heads, 5, 5)
    assert np.array_equal(batch["spatial_weights"][0][1], internals["spatial_weights"][0])


def test_forward_rejects_mask_not_matching_batch():
    model = make_model(n=4, width=8)
    w = random_window(n=4, width=8)
    with pytest.raises(ContractError):
        model.forward(np.stack([w.x, w.x]), w.m)


def test_batched_temporal_weights_are_exactly_zero_at_masked_keys():
    # window 1 of the stack never observes node 2: its rows are all zeros
    model = mm.MagiNet(mm.ModelConfig(), ring(5), width=8, n_features=1, seed=3)
    ws = batch_windows()
    m = stacked(ws, "m")
    assert not m[1, 2].any()
    internals = {}
    with ad.no_grad():
        model.forward(stacked(ws, "x"), m, internals)
    for weights in internals["temporal_weights"]:           # (B, N, heads, W, W)
        masked = np.broadcast_to((m == 0.0)[:, :, None, None, :], weights.shape)
        assert np.array_equal(weights[masked], np.zeros(int(masked.sum())))
        assert np.array_equal(weights[1, 2], np.zeros_like(weights[1, 2]))
        sums = weights.sum(axis=-1)
        expected = np.broadcast_to((m.sum(axis=-1) > 0)[:, :, None, None], sums.shape)
        assert np.allclose(sums, expected, rtol=0.0, atol=1e-12)


def test_graph_conv_matches_the_dense_chebyshev_sum():
    # order 0 runs as a row scale by diag(S); the dense (T_0 o S) h is the reference
    cfg = tiny_config(cheb_order=3, heads=2)
    model = mm.MagiNet(cfg, ring(5), width=4, n_features=1, seed=2)
    rng = np.random.default_rng(12)
    h = rng.standard_normal((2, 5, 4, cfg.d))
    s_heads = [rng.random((2, 5, 5)) for _ in range(cfg.heads)]
    got = mm.graph_conv(ad.constant(h), [ad.constant(s) for s in s_heads], model.basis,
                        model.params, cfg, 0).data
    h_flat = h.reshape(2, 5, 4 * cfg.d)
    want = sum((((model.basis.matrices[k] * s_heads[k % cfg.heads]) @ h_flat).reshape(h.shape)
                @ model.params[f"block0.cheb.theta{k}"].data) for k in range(cfg.cheb_order))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("taps", [1, 2, 3, 5])
def test_spatial_attention_matches_conv_then_time_mean(taps):
    # the collapse runs as a valid conv of window means; the reference is
    # the same-padded conv over every step followed by the time mean
    cfg = tiny_config(spatial_kernel=taps, heads=2)
    model = mm.MagiNet(cfg, ring(4), width=6, n_features=1, seed=5)
    p = model.params
    h = np.random.default_rng(taps).standard_normal((2, 4, 6, cfg.d))
    heads = mm.spatial_attention(ad.constant(h), p, cfg, 0)
    conv = ad.conv1d_time(ad.constant(h), p["block0.collapse.kernel"], "same").data
    z = (conv + p["block0.collapse.bias"].data).mean(axis=-2)
    z = z @ p["block0.collapse.w_proj"].data + p["block0.collapse.b_proj"].data + p["pos_space"].data
    for head, got in enumerate(heads):
        scores = (z @ p[f"block0.spatial.q{head}"].data) @ (z @ p[f"block0.spatial.k{head}"].data).swapaxes(-1, -2)
        scores = scores / math.sqrt(cfg.dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.allclose(got.data, e / e.sum(axis=-1, keepdims=True), rtol=1e-12, atol=1e-14)


def test_graph_conv_releases_each_head_after_its_last_order():
    # order 2 reuses head 0, so head 0 goes after order 2 and head 1 after order 1
    cfg = tiny_config(cheb_order=3, heads=2)
    model = mm.MagiNet(cfg, ring(5), width=4, n_features=1, seed=2)
    s_heads = [ad.constant(np.random.default_rng(head).random((5, 5))) for head in range(2)]
    mm.graph_conv(ad.constant(RNG.standard_normal((5, 4, cfg.d))), s_heads, model.basis,
                  model.params, cfg, 0)
    assert s_heads == [None, None]


# ---------------------------------------------------------------- lean gradient-free pass


def test_taped_and_gradient_free_forwards_give_the_same_bytes(monkeypatch):
    # blocks far smaller than the rows: every conv and gate runs in several
    # blocks; the gradient-free gate takes its own in-place path
    monkeypatch.setattr(ad, "_IM2COL_BLOCK", 64)
    monkeypatch.setattr(ad, "_BLOCK", 8)
    model = make_model(n=6, width=8, blocks=2, kernel_sizes=(3, 5))
    w = random_window(n=6, width=8, seed=8)
    taped_internals, free_internals = {}, {}
    taped = model.forward(w.x, w.m, taped_internals)
    assert taped.requires_grad
    with ad.no_grad():
        free = model.forward(w.x, w.m, free_internals)
    assert free.data.tobytes() == taped.data.tobytes()
    for key, arrays in taped_internals.items():
        for got, want in zip(free_internals[key], arrays):
            assert got.tobytes() == want.tobytes(), key
    monkeypatch.undo()
    with ad.no_grad():
        assert model.forward(w.x, w.m).data.tobytes() == free.data.tobytes()


def test_blocked_gradient_free_forward_masked_input_invariance(monkeypatch):
    monkeypatch.setattr(ad, "_IM2COL_BLOCK", 64)
    monkeypatch.setattr(ad, "_BLOCK", 8)
    model = make_model(n=6, width=8, blocks=2, kernel_sizes=(3, 5))
    w = random_window(n=6, width=8, seed=9)
    with ad.no_grad():
        base = model.forward(w.x, w.m).data
    rng = np.random.default_rng(3)
    for scale in (50.0,) * 5 + (1e6, 1e300):
        noise = rng.uniform(-scale, scale, w.x.shape) * (w.m[:, :, None] == 0.0)
        with ad.no_grad():
            assert np.array_equal(model.forward(w.x + noise, w.m).data, base)


def test_predict_at_metr_width_peaks_at_most_3_mib():
    # one default-config window at METR-LA's 207 nodes; the pass peaked at
    # 4.85 MiB before its intermediates were released as soon as used
    graph = data.synthetic_graph(207, extra_edges=200, seed=1)
    series = data.generate_synthetic(207, 36, graph, seed=3)
    first, second = data.make_windows(series, data.draw_eval_mask(series, 0.5, 3), 12, 12)[:2]
    model = mm.MagiNet(mm.ModelConfig(), graph, width=12, n_features=1, seed=3,
                       normalizer=data.Normalizer.fit([first]))
    model.predict([first])   # warm-up: first-call allocations are not the pass's
    tracemalloc.start()
    try:
        model.predict([second])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
