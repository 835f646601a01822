import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maginet import autodiff as ad
from maginet.errors import ContractError, NumericError, ShapeError
from maginet.gradcheck import check_gradients

RNG = np.random.default_rng(20240911)


def rand_leaf(*shape):
    return ad.parameter(RNG.standard_normal(shape))


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_product():
    # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]] = [[11]]
    out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_zero_annihilates_and_zero_grad():
    a = rand_leaf(3, 4)
    b = ad.constant(np.zeros((4, 2)))
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, np.zeros((3, 2)))
    out.sum().backward()
    assert np.array_equal(a.grad, np.zeros((3, 4)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_batched_matches_numpy():
    a = RNG.standard_normal((5, 2, 3, 4))
    b = RNG.standard_normal((2, 4, 6))
    out = ad.matmul(ad.constant(a), ad.constant(b))
    assert np.allclose(out.data, a @ b)


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry():
    out = ad.softmax_lastdim(ad.constant([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_masked_entry_is_exactly_zero():
    out = ad.softmax_lastdim(ad.constant([-np.inf, 0.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == 1.0


def test_softmax_hand_values():
    # softmax([ln 1, ln 3]) = [1, 3] / 4
    out = ad.softmax_lastdim(ad.constant([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_all_masked_row_maps_to_zeros():
    x = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
    out = ad.softmax_lastdim(ad.constant(x))
    assert np.array_equal(out.data[0], [0.0, 0.0])
    assert np.isclose(out.data[1].sum(), 1.0)


def test_softmax_nan_input_rejected():
    with pytest.raises(NumericError):
        ad.softmax_lastdim(ad.constant([np.nan, 0.0]))


def test_softmax_nan_outranks_posinf_in_another_row():
    x = np.array([[0.0, np.inf], [np.nan, 0.0], [1.0, -np.inf]])
    with pytest.raises(NumericError, match="NaN"):
        ad.softmax_lastdim(ad.constant(x))
    with pytest.raises(NumericError, match=r"\+inf"):
        ad.softmax_lastdim(ad.constant(x[[0, 2]]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(row):
    out = ad.softmax_lastdim(ad.constant(row))
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_of_sum_has_zero_gradient():
    x = rand_leaf(5)
    ad.softmax_lastdim(x).sum().backward()
    assert np.allclose(x.grad, 0.0, atol=1e-12)


# ---------------------------------------------------------------- layer_norm


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(ad.constant([[3.0, 3.0, 3.0]]), ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point_row():
    # mean 0, variance 1, so [1,-1] is its own normalization as eps -> 0
    out = ad.layer_norm(ad.constant([1.0, -1.0]), ad.constant(np.ones(2)), ad.constant(np.zeros(2)), eps=1e-14)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-7)


def test_layer_norm_zero_gain_broadcasts_bias():
    x = ad.constant(RNG.standard_normal((4, 3)))
    bias = ad.constant([1.0, 2.0, 3.0])
    out = ad.layer_norm(x, ad.constant(np.zeros(3)), bias)
    assert np.allclose(out.data, np.broadcast_to(bias.data, (4, 3)))


def test_layer_norm_empty_feature_axis_rejected():
    with pytest.raises(ShapeError):
        ad.layer_norm(ad.constant(np.zeros((2, 0))), ad.constant(np.zeros(0)), ad.constant(np.zeros(0)))


# ---------------------------------------------------------------- conv1d


def test_conv1d_width_one_identity_channel_map():
    x = ad.constant(RNG.standard_normal((2, 5, 3)))
    kernel = ad.constant(np.eye(3)[None, :, :])  # K=1, identity c_in -> c_out
    out = ad.conv1d_time(x, kernel, padding="same")
    assert np.allclose(out.data, x.data)


def test_conv1d_hand_valid():
    # x = [1,2,3], kernel [1,1], valid: [1+2, 2+3] = [3,5]
    x = ad.constant(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
    kernel = ad.constant(np.ones((2, 1, 1)))
    out = ad.conv1d_time(x, kernel, padding="valid")
    assert out.data.reshape(-1).tolist() == [3.0, 5.0]


def test_conv1d_zero_kernel():
    x = ad.constant(RNG.standard_normal((1, 4, 2)))
    out = ad.conv1d_time(x, ad.constant(np.zeros((3, 2, 5))), padding="same")
    assert np.array_equal(out.data, np.zeros((1, 4, 5)))


def test_conv1d_kernel_longer_than_series_rejected():
    x = ad.constant(np.zeros((1, 3, 1)))
    with pytest.raises(ShapeError):
        ad.conv1d_time(x, ad.constant(np.zeros((4, 1, 1))), padding="valid")


def test_conv1d_same_preserves_length_even_kernel():
    x = ad.constant(RNG.standard_normal((2, 7, 3)))
    out = ad.conv1d_time(x, ad.constant(RNG.standard_normal((4, 3, 2))), padding="same")
    assert out.shape == (2, 7, 2)


# ---------------------------------------------------------------- backward


def test_backward_square():
    x = ad.parameter(3.0)
    (x * x).backward()
    assert np.allclose(x.grad, 6.0)


def test_backward_constant_has_no_gradient():
    x = ad.parameter(2.0)
    y = ad.constant(7.0) * 1.0
    y.backward()
    assert x.grad is None


def test_backward_rejects_non_scalar():
    x = rand_leaf(3)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_backward_accumulates_until_zeroed():
    x = ad.parameter(3.0)
    (x * x).backward()
    (x * x).backward()
    assert np.allclose(x.grad, 12.0)
    x.zero_grad()
    (x * x).backward()
    assert np.allclose(x.grad, 6.0)


def test_backward_keeps_gradients_on_leaves_only():
    # y = x*x + 3x at x = 2: dy/dx = 2x + 3 = 7; the intermediates keep none
    x = ad.parameter(2.0)
    sq = x * x
    lin = x * 3.0
    y = sq + lin
    y.backward()
    assert np.allclose(x.grad, 7.0)
    assert sq.grad is None and lin.grad is None and y.grad is None


def test_backward_diamond_reuse():
    # y = x*x + x*x: the shared node's gradient must be counted twice
    x = ad.parameter(2.0)
    sq = x * x
    (sq + sq).backward()
    assert np.allclose(x.grad, 8.0)


# ---------------------------------------------------------------- broadcasting rules


def test_suffix_broadcast_allowed():
    x = ad.constant(np.ones((2, 3, 4)))
    b = ad.constant(np.arange(4.0))
    assert (x + b).shape == (2, 3, 4)


def test_inner_broadcast_rejected():
    with pytest.raises(ShapeError):
        ad.add(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((2, 1, 4))))


def test_broadcast_to_gradient_sums():
    x = ad.parameter(np.array([1.0, 2.0]))
    ad.broadcast_to(x, (3, 2)).sum().backward()
    assert np.allclose(x.grad, [3.0, 3.0])


def test_masked_select_roundtrip():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    mask = np.array([[1, 0, 1], [0, 0, 1]])
    picked = ad.masked_select(x, mask)
    assert picked.data.tolist() == [0.0, 2.0, 5.0]
    picked.sum().backward()
    assert np.array_equal(x.grad, mask.astype(float))


def test_masked_fill_blocks_gradient():
    x = rand_leaf(2, 3)
    keep = np.array([[1, 1, 0], [0, 1, 1]])
    out = ad.masked_fill(x, keep, -np.inf)
    assert np.all(np.isneginf(out.data[keep == 0]))
    ad.masked_select(out, keep).sum().backward()
    assert np.array_equal(x.grad, keep.astype(float))


# ---------------------------------------------------------------- determinism


def test_forward_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.standard_normal((3, 4)))
        w = ad.parameter(rng.standard_normal((4, 2)))
        out = ad.softmax_lastdim(ad.matmul(ad.tanh(x), w))
        return out.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------- gradient checks

GRAD_TOL = 1e-4


def _assert_grads(build, leaves):
    errors = check_gradients(build, leaves)
    worst = max(errors.values())
    assert worst < GRAD_TOL, f"max relative error {worst:.3e} in {errors}"


def test_grad_add_sub_mul_suffix():
    a, b, c = rand_leaf(2, 3), rand_leaf(2, 3), rand_leaf(3)
    _assert_grads(lambda: ((a + c) * b - a * 0.5).sum(), {"a": a, "b": b, "c": c})


def test_grad_matmul_batched():
    a, b = rand_leaf(2, 3, 4), rand_leaf(4, 5)
    _assert_grads(lambda: ad.matmul(a, b).mean(), {"a": a, "b": b})


def test_matmul_weight_product_matches_numpy_per_slice():
    a = RNG.standard_normal((3, 4, 5, 6))
    b = RNG.standard_normal((6, 2))
    out = ad.matmul(ad.constant(a), ad.constant(b)).data
    assert out.shape == (3, 4, 5, 2)
    assert np.allclose(out, np.einsum("ijkl,lm->ijkm", a, b), atol=1e-12)


def test_grad_matmul_weight_product_four_dims():
    a, b = rand_leaf(2, 3, 4, 5), rand_leaf(5, 3)
    w = ad.constant(RNG.standard_normal((2, 3, 4, 3)))
    _assert_grads(lambda: (ad.matmul(a, b) * w).sum(), {"a": a, "b": b})


def test_matmul_constant_operand_gets_no_gradient():
    a, b = ad.constant(RNG.standard_normal((2, 3, 4))), rand_leaf(4, 2)
    ad.matmul(a, b).sum().backward()
    assert a.grad is None
    assert np.allclose(b.grad, a.data.reshape(-1, 4).sum(axis=0)[:, None] * np.ones((1, 2)))


def test_grad_scale_by_broadcasts_over_a_batch():
    # a (3, 4) leaf scaled by a (2, 3, 1) factor: the result is (2, 3, 4)
    x = rand_leaf(3, 4)
    factor = RNG.standard_normal((2, 3, 1))
    w = ad.constant(RNG.standard_normal((2, 3, 4)))
    assert ad.scale_by(x, factor).shape == (2, 3, 4)
    _assert_grads(lambda: (ad.scale_by(x, factor) * w).sum(), {"x": x})


def test_scale_by_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(ShapeError):
        ad.scale_by(ad.constant(np.ones((2, 3))), np.ones((2, 4)))


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv1d_batch_axis_matches_per_slice(padding):
    x = RNG.standard_normal((3, 2, 6, 3))
    k = ad.constant(RNG.standard_normal((3, 3, 4)))
    out = ad.conv1d_time(ad.constant(x), k, padding).data
    for b in range(3):
        assert np.array_equal(out[b], ad.conv1d_time(ad.constant(x[b]), k, padding).data)


def test_grad_conv1d_batch_axis():
    x, k = rand_leaf(2, 2, 6, 3), rand_leaf(3, 3, 4)
    w = ad.constant(RNG.standard_normal((2, 2, 6, 4)))
    _assert_grads(lambda: (ad.conv1d_time(x, k, "same") * w).sum(), {"x": x, "k": k})


def test_grad_softmax():
    x = rand_leaf(3, 5)
    w = ad.constant(RNG.standard_normal((3, 5)))
    _assert_grads(lambda: (ad.softmax_lastdim(x) * w).sum(), {"x": x})


def test_grad_softmax_with_masked_keys():
    x = rand_leaf(2, 6)
    keep = np.array([[1, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 0]])
    w = ad.constant(RNG.standard_normal((2, 6)))

    def build():
        return (ad.softmax_lastdim(ad.masked_fill(x, keep, -np.inf)) * w).sum()

    _assert_grads(build, {"x": x})


def test_grad_layer_norm():
    x, g, b = rand_leaf(4, 6), rand_leaf(6), rand_leaf(6)
    w = ad.constant(RNG.standard_normal((4, 6)))
    _assert_grads(lambda: (ad.layer_norm(x, g, b) * w).sum(), {"x": x, "gain": g, "bias": b})


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_grad_conv1d(padding):
    x, k = rand_leaf(2, 6, 3), rand_leaf(3, 3, 4)
    w_len = 6 if padding == "same" else 4
    w = ad.constant(RNG.standard_normal((2, w_len, 4)))
    _assert_grads(lambda: (ad.conv1d_time(x, k, padding) * w).sum(), {"x": x, "k": k})


def test_grad_activations_and_reductions():
    x = rand_leaf(3, 4)

    def build():
        y = ad.tanh(x) + ad.sigmoid(x) * 0.5 + ad.relu(x + 0.3) + ad.absolute(x + 1.7)
        return y.mean(axis=1).sum()

    _assert_grads(build, {"x": x})


def test_grad_reshape_transpose_concat_stack_slice():
    a, b = rand_leaf(2, 6), rand_leaf(2, 6)
    w = ad.constant(RNG.standard_normal((4, 2, 3)))

    def build():
        c = ad.concat([a.reshape((2, 2, 3)), b.reshape((2, 2, 3))], axis=1)  # (2,4,3)
        d = ad.stack([c, c * 0.5], axis=0).sum(axis=0)  # (2,4,3)
        e = ad.slice_axis(d.transpose((1, 0, 2)), 0, 0, 4)  # (4,2,3)
        return (e * w).sum()

    _assert_grads(build, {"a": a, "b": b})


def test_grad_masked_ops():
    x = rand_leaf(3, 4)
    keep = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])

    def build():
        filled = ad.masked_fill(x, keep, 0.25)
        scaled = ad.scale_by(filled, np.array([2.0, 1.0, 0.5, 1.5]))
        return ad.masked_select(scaled, keep).sum() + ad.broadcast_to(x.mean(axis=0), (5, 4)).sum()

    _assert_grads(build, {"x": x})


def test_no_grad_blocks_recording():
    x = rand_leaf(2, 2)
    with ad.no_grad():
        y = (x * x).sum()
    assert y._rule is None and not y.requires_grad
