import re
from pathlib import Path

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


# ---------------------------------------------------------------- public names

# The tensor scaffolding is public for callers building their own graphs;
# every other public name is a primitive, and a primitive the package
# never calls is dead code.
SCAFFOLDING = {"Tensor", "Tape", "no_grad", "as_tensor", "constant", "parameter"}


def test_every_public_primitive_is_called_by_the_package():
    package = Path(ad.__file__).parent
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                       if path.name != "autodiff.py")
    uncalled = [name for name in sorted(set(ad.__all__) - SCAFFOLDING)
                if not re.search(rf"(\bad\.|(?<![\w.])){name}\(", source)]
    assert uncalled == []


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
    out = ad.masked_softmax(ad.constant([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_masked_entry_is_exactly_zero():
    out = ad.masked_softmax(ad.constant([-np.inf, 0.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == 1.0


def test_softmax_hand_values():
    # softmax([ln 1, ln 3]) = [1, 3] / 4
    out = ad.masked_softmax(ad.constant([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_all_masked_row_maps_to_zeros():
    x = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
    out = ad.masked_softmax(ad.constant(x))
    assert np.array_equal(out.data[0], [0.0, 0.0])
    assert np.isclose(out.data[1].sum(), 1.0)


def test_softmax_nan_input_rejected():
    with pytest.raises(NumericError):
        ad.masked_softmax(ad.constant([np.nan, 0.0]))


def test_softmax_nan_outranks_posinf_in_another_row():
    x = np.array([[0.0, np.inf], [np.nan, 0.0], [1.0, -np.inf]])
    with pytest.raises(NumericError, match="NaN"):
        ad.masked_softmax(ad.constant(x))
    with pytest.raises(NumericError, match=r"\+inf"):
        ad.masked_softmax(ad.constant(x[[0, 2]]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(row):
    out = ad.masked_softmax(ad.constant(row))
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_of_sum_has_zero_gradient():
    x = rand_leaf(5)
    ad.masked_softmax(x).sum().backward()
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


def test_grad_inner_broadcast():
    # a (3, 1) column times a (3, 4) matrix: the column's gradient sums over the 4
    a, b = rand_leaf(3, 1), rand_leaf(3, 4)
    w = ad.constant(RNG.standard_normal((3, 4)))
    assert (a * b).shape == (3, 4)
    _assert_grads(lambda: (a * b * w).sum(), {"a": a, "b": b})


def test_broadcast_to_gradient_sums():
    x = ad.parameter(np.array([1.0, 2.0]))
    (x + np.zeros((3, 2))).sum().backward()
    assert np.allclose(x.grad, [3.0, 3.0])


def test_add_and_mul_reject_shapes_that_do_not_broadcast_naming_both():
    for op in (ad.add, ad.mul):
        with pytest.raises(ShapeError, match=re.escape("(2, 3) and (2, 4)")):
            op(ad.constant(np.ones((2, 3))), np.ones((2, 4)))


def test_ndarray_on_the_left_gives_the_reflected_tensor():
    for make, left in ((lambda t: np.ones((2, 3)) * t, lambda t: t * np.ones((2, 3))),
                       (lambda t: np.ones(3) + t, lambda t: t + np.ones(3)),
                       (lambda t: np.ones(3) - t, lambda t: -t + np.ones(3))):
        grads = []
        for build in (make, left):
            t = ad.parameter(np.arange(6.0).reshape(2, 3))
            out = build(t)
            assert isinstance(out, ad.Tensor)
            (out * out).sum().backward()
            grads.append((out.data, t.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])
    with pytest.raises(TypeError):
        np.ones((3, 2)) @ ad.parameter(np.ones((2, 2)))


def test_masked_select_roundtrip():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    mask = np.array([[1, 0, 1], [0, 0, 1]])
    picked = ad.masked_select(x, mask)
    assert picked.data.tolist() == [0.0, 2.0, 5.0]
    picked.sum().backward()
    assert np.array_equal(x.grad, mask.astype(float))


# ---------------------------------------------------------------- determinism


def test_forward_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.standard_normal((3, 8)))
        w = ad.parameter(rng.standard_normal((4, 2)))
        out = ad.masked_softmax(ad.matmul(ad.tanh_sigmoid_gate(x), w))
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


def test_grad_mul_by_a_constant_broadcasts_over_a_batch():
    # a (3, 4) leaf times a (2, 3, 1) constant: the result is (2, 3, 4)
    x = rand_leaf(3, 4)
    factor = RNG.standard_normal((2, 3, 1))
    w = ad.constant(RNG.standard_normal((2, 3, 4)))
    assert (x * factor).shape == (2, 3, 4)
    _assert_grads(lambda: (x * factor * w).sum(), {"x": x})


def test_grad_div_by_an_array_broadcasts():
    # a (2, 3, 4) leaf over a (3, 1) divisor, and a (3, 4) leaf over a
    # (2, 1, 4) one broadcast as numpy does; each is a product with the
    # reciprocal, and a number still divides
    x, y = rand_leaf(2, 3, 4), rand_leaf(3, 4)
    over_rows = RNG.uniform(0.5, 2.0, (3, 1))
    over_batch = RNG.uniform(0.5, 2.0, (2, 1, 4))
    assert np.array_equal((x / over_rows).data, x.data * (1.0 / over_rows))
    assert (y / over_batch).shape == (2, 3, 4)
    assert np.array_equal((x / 4.0).data, x.data * 0.25)
    w = ad.constant(RNG.standard_normal((2, 3, 4)))
    _assert_grads(lambda: ((x / over_rows + y / over_batch) * w).sum(), {"x": x, "y": y})


def test_division_by_a_tensor_is_a_contract_error():
    t = ad.parameter(np.arange(1.0, 4.0))
    for divide in (lambda: t / ad.constant([2.0]), lambda: 2.0 / t, lambda: np.ones(3) / t):
        with pytest.raises(ContractError, match="division by a tensor is not a tape primitive"):
            divide()


def test_mul_and_add_give_a_constant_operand_no_gradient():
    x, c = rand_leaf(2, 3), ad.constant(RNG.standard_normal((4, 2, 3)))
    for op in (ad.mul, ad.add):
        out = op(x, c)
        assert out._rule(np.ones(out.shape))[1] is None
        assert op(c, x)._rule(np.ones(out.shape))[0] is None


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
    _assert_grads(lambda: (ad.masked_softmax(x) * w).sum(), {"x": x})


def test_grad_softmax_with_masked_keys():
    x = rand_leaf(2, 6)
    keep = np.array([[1, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 0]])
    w = ad.constant(RNG.standard_normal((2, 6)))
    neg_inf = ad.constant(ref_masked_fill(np.zeros(keep.shape), keep, -np.inf))

    def build():
        return (ad.masked_softmax(x + neg_inf) * w).sum()

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
        gated = ad.tanh_sigmoid_gate(ad.concat([x, x * 0.5], axis=1))
        y = gated + ad.relu(x + 0.3) + ad.absolute(x + 1.7)
        return y.mean(axis=1).sum()

    _assert_grads(build, {"x": x})


def test_grad_reshape_transpose_concat_stack():
    a, b = rand_leaf(2, 6), rand_leaf(2, 6)
    w = ad.constant(RNG.standard_normal((4, 2, 3)))

    def build():
        c = ad.concat([a.reshape((2, 2, 3)), b.reshape((2, 2, 3))], axis=1)  # (2,4,3)
        d = ad.concat([c.reshape((1, 2, 4, 3)), (c * 0.5).reshape((1, 2, 4, 3))],
                      axis=0).sum(axis=0)  # (2,4,3)
        return (d.transpose((1, 0, 2)) * w).sum()   # (4,2,3)

    _assert_grads(build, {"a": a, "b": b})


def test_grad_masked_ops():
    x = rand_leaf(3, 4)
    keep = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])

    def build():
        scaled = x * np.array([2.0, 1.0, 0.5, 1.5])
        return ad.masked_select(scaled, keep).sum() + (x.mean(axis=0) * np.ones((5, 4))).sum()

    _assert_grads(build, {"x": x})


def test_no_grad_blocks_recording():
    x = rand_leaf(2, 2)
    with ad.no_grad():
        y = (x * x).sum()
    assert y._rule is None and not y.requires_grad


# ---------------------------------------------------------------- kernels against their former formulas
#
# Each ref_* below is the formula its kernel used before the kernel went
# branch-free (no select over tensor data, trailing sums as products with
# a ones vector, the softmax mask applied by multiplication). The kernels
# must agree with them to 1e-12 relative, and exactly where no sum changed
# order: relu and the weights of masked keys. ref_masked_fill builds the
# -inf scores a masked softmax must match.


def ref_relu(x):
    return np.where(x > 0, x, 0.0)


def ref_sigmoid(x):
    e_neg = np.exp(np.clip(x, None, 0))
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))), e_neg / (1.0 + e_neg))


def ref_masked_fill(x, keep, value):
    return np.where(keep != 0, x, value)


def ref_softmax(x):
    rowmax = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(x - shift)
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0, total, 1.0)


def ref_softmax_backward(y, g):
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def ref_layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    return centered * inv * gain + bias


def ref_layer_norm_backward(x, gain, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    y = centered * inv
    dy = g * gain
    return inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))


def ref_conv1d(x, kernel, padding):
    """im2col with each row's window laid out (c_in, K), channel-major."""
    from numpy.lib.stride_tricks import sliding_window_view
    width, c_in, c_out = kernel.shape
    lead, steps = x.shape[:-2], x.shape[-2]
    n = int(np.prod(lead, dtype=np.int64))
    pad_left = (width - 1) // 2 if padding == "same" else 0
    if padding == "same":
        padded = np.zeros((n, steps + width - 1, c_in))
        padded[:, pad_left:pad_left + steps, :] = x.reshape(n, steps, c_in)
    else:
        padded = x.reshape(n, steps, c_in)
    out_steps = padded.shape[1] - width + 1
    cols = sliding_window_view(padded, width, axis=1).reshape(n * out_steps, c_in * width)
    kmat = kernel.transpose(1, 0, 2).reshape(c_in * width, c_out)
    return (cols @ kmat).reshape(lead + (out_steps, c_out))


def assert_close(got, want, rtol=1e-12):
    """Agreement to ``rtol`` relative to the reference's largest magnitude
    (entries that cancel to near 0 have no meaningful relative error)."""
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max()), np.abs(got - want).max()


def scores_with_mask(shape, share=0.4, seed=0):
    """Scores (..., Q, W) and a keep mask (..., 1, W) broadcast over the
    queries, as temporal attention builds them; row 0 keeps no key."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, 4.0, shape)
    keep = (rng.random(shape[:-2] + (1, shape[-1])) > share).astype(float)
    keep.reshape(-1, shape[-1])[0] = 0.0
    return scores, keep


def grad_of(build, leaf, weights):
    leaf.zero_grad()
    (build(leaf) * ad.constant(weights)).sum().backward()
    return leaf.grad


@pytest.mark.parametrize("width", [2, 12, 40])   # 40 rows reduce by np.max, shorter by columns
def test_softmax_lastdim_matches_reference(width):
    x = RNG.normal(0.0, 5.0, (6, 3, width))
    x[0, 1, :] = -np.inf
    x[2, :, : width // 2] = -np.inf
    got = ad.masked_softmax(ad.constant(x)).data
    want = ref_softmax(x)
    assert_close(got, want)
    assert np.array_equal(got[x == -np.inf], np.zeros(int((x == -np.inf).sum())))
    assert np.array_equal(got[0, 1], np.zeros(width))
    g = RNG.standard_normal(x.shape)
    assert_close(grad_of(ad.masked_softmax, ad.parameter(x), g), ref_softmax_backward(want, g))


@pytest.mark.parametrize("width", [2, 12, 40])
def test_masked_softmax_without_a_mask_masks_the_neg_inf_entries(width):
    # the same bits as keeping the finite entries, and the reference's values
    x = RNG.normal(0.0, 5.0, (4, 3, width))
    x[0, 1, :] = -np.inf
    x[2, :, : width // 2] = -np.inf
    keep = x > -np.inf
    got = ad.masked_softmax(ad.constant(x)).data
    assert np.array_equal(got, ad.masked_softmax(ad.constant(np.where(keep, x, 0.0)), keep).data)
    assert_close(got, ref_softmax(x))
    assert np.array_equal(got[~keep], np.zeros(int((~keep).sum())))
    g = RNG.standard_normal(x.shape)
    assert_close(grad_of(ad.masked_softmax, ad.parameter(x), g), ref_softmax_backward(got, g))
    for bad, message in ((np.nan, "NaN"), (np.inf, r"\+inf")):
        x[1, 0, 0] = bad
        with pytest.raises(NumericError, match=message):
            ad.masked_softmax(ad.constant(x))


@pytest.mark.parametrize("shape", [(5, 3, 12, 12), (4, 2, 2), (3, 40, 40)])
def test_masked_softmax_matches_masked_fill_then_softmax(shape):
    scores, keep = scores_with_mask(shape)
    got = ad.masked_softmax(ad.constant(scores), keep).data
    want = ref_softmax(ref_masked_fill(scores, keep, -np.inf))
    assert_close(got, want)
    masked = np.broadcast_to(keep, shape) == 0
    assert np.array_equal(got[masked], np.zeros(int(masked.sum())))   # exactly 0.0
    assert np.array_equal(got.reshape(-1, shape[-2], shape[-1])[0], np.zeros(shape[-2:]))
    g = RNG.standard_normal(shape)
    grad = grad_of(lambda s: ad.masked_softmax(s, keep), ad.parameter(scores), g)
    assert_close(grad, ref_softmax_backward(want, g))
    assert np.array_equal(grad[masked], np.zeros(int(masked.sum())))


def test_masked_softmax_ignores_whatever_masked_entries_hold():
    scores, keep = scores_with_mask((4, 3, 12, 12), seed=1)
    base = ad.masked_softmax(ad.constant(scores), keep).data
    masked = np.broadcast_to(keep, scores.shape) == 0
    rng = np.random.default_rng(2)
    for fill in (rng.uniform(-50, 50, scores.shape), np.full(scores.shape, 1e300),
                 np.full(scores.shape, -1e300), np.full(scores.shape, -np.inf),
                 np.full(scores.shape, 800.0)):
        fuzzed = np.where(masked, fill, scores)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = ad.masked_softmax(ad.constant(fuzzed), keep).data
        assert np.array_equal(out, base)


@pytest.mark.parametrize("bad, message", [(np.nan, "NaN"), (np.inf, r"\+inf")])
def test_masked_softmax_nan_or_posinf_row_raises(bad, message):
    scores, keep = scores_with_mask((3, 2, 4, 4), seed=3)
    scores[1, 0, 2, np.flatnonzero(keep[1, 0, 0])[0]] = bad
    with pytest.raises(NumericError, match=message):
        ad.masked_softmax(ad.constant(scores), keep)
    with pytest.raises(NumericError, match=message):
        ad.masked_softmax(ad.constant(scores))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_masked_softmax_posinf_at_a_masked_entry_raises_naming_it():
    with pytest.raises(NumericError, match=r"\+inf"):
        ad.masked_softmax(ad.constant([[1.0, np.inf]]), np.array([[1, 0]]))
    # a NaN in another row still outranks it
    with pytest.raises(NumericError, match="NaN"):
        ad.masked_softmax(ad.constant([[1.0, np.inf], [np.nan, 0.0]]), np.array([[1, 0]]))


def test_masked_softmax_rejects_a_mask_that_does_not_broadcast():
    with pytest.raises(ShapeError):
        ad.masked_softmax(ad.constant(np.zeros((2, 3))), np.ones((3, 3)))


def test_relu_matches_reference_exactly():
    x = np.concatenate([RNG.normal(0.0, 3.0, 200), [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320]])
    leaf = ad.parameter(x)
    out = ad.relu(leaf)
    assert np.array_equal(out.data, ref_relu(x))
    g = RNG.standard_normal(x.shape)
    (out * ad.constant(g)).sum().backward()
    assert np.array_equal(leaf.grad, g * (x > 0))


def test_sigmoid_matches_reference_and_never_overflows():
    # the gate's sigmoid half alone: its filter half is tanh(800) = 1.0 exactly
    x = np.concatenate([RNG.normal(0.0, 20.0, 400), [800.0, -800.0, 0.0, -0.0, 36.0, -36.0]])
    gate_in = np.stack([np.full(x.shape, 800.0), x], axis=1)
    for make in (ad.constant, ad.parameter):   # without and with a tape
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ad.tanh_sigmoid_gate(make(gate_in)).data[:, 0]
        assert_close(got, ref_sigmoid(x))
        assert np.allclose(got, ref_sigmoid(x), rtol=1e-12, atol=0.0)   # per entry, tiny ones too
        assert got[-6] == 1.0 and got[-5] == 0.0 and got[-4] == got[-3] == 0.5


def test_layer_norm_matches_reference():
    x = RNG.normal(3.0, 2.0, (5, 7, 16))
    gain, bias = RNG.standard_normal(16), RNG.standard_normal(16)
    got = ad.layer_norm(ad.constant(x), ad.constant(gain), ad.constant(bias)).data
    assert_close(got, ref_layer_norm(x, gain, bias))
    g = RNG.standard_normal(x.shape)
    grad = grad_of(lambda t: ad.layer_norm(t, ad.constant(gain), ad.constant(bias)), ad.parameter(x), g)
    assert_close(grad, ref_layer_norm_backward(x, gain, g))


@pytest.mark.parametrize("c_in", [2, 3])
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv1d_matches_channel_major_im2col(padding, width, c_in):
    x = RNG.standard_normal((2, 3, 7, c_in))
    kernel = RNG.standard_normal((width, c_in, 4))
    got = ad.conv1d_time(ad.constant(x), ad.constant(kernel), padding).data
    assert_close(got, ref_conv1d(x, kernel, padding))


@pytest.mark.parametrize("d", [1, 3])   # d=1: the narrowest gate, two channels in
def test_tanh_sigmoid_gate_matches_its_parts(d):
    c = RNG.normal(0.0, 3.0, (4, 5, 2 * d))
    c[0, 0, :] = [800.0] * d + [-800.0] * d
    with np.errstate(over="raise"):
        got = ad.tanh_sigmoid_gate(ad.constant(c)).data
    assert_close(got, np.tanh(c[..., :d]) * ref_sigmoid(c[..., d:]))
    with pytest.raises(ShapeError):
        ad.tanh_sigmoid_gate(ad.constant(np.zeros((2, 3))))


def test_grad_masked_softmax():
    scores, keep = scores_with_mask((2, 3, 5), share=0.3, seed=4)   # row 0 keeps no key
    x = ad.parameter(scores)
    w = ad.constant(RNG.standard_normal(scores.shape))
    _assert_grads(lambda: (ad.masked_softmax(x, keep) * w).sum(), {"x": x})


@pytest.mark.parametrize("d", [1, 4])
def test_grad_tanh_sigmoid_gate(d):
    x = rand_leaf(3, 4, 2 * d)
    w = ad.constant(RNG.standard_normal((3, 4, d)))
    _assert_grads(lambda: (ad.tanh_sigmoid_gate(x) * w).sum(), {"x": x})


@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_grad_conv1d_widths(padding, width):
    x, k = rand_leaf(2, 7, 2), rand_leaf(width, 2, 3)
    steps = 7 if padding == "same" else 7 - width + 1
    w = ad.constant(RNG.standard_normal((2, steps, 3)))
    _assert_grads(lambda: (ad.conv1d_time(x, k, padding) * w).sum(), {"x": x, "k": k})



# ---------------------------------------------------------------- blocked kernels
#
# conv1d_time builds its im2col patches a block of rows at a time, and the
# gradient-free gate scales its filter a block of rows at a time; small
# block sizes make these tiny inputs span several blocks, the last short.


@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv1d_row_blocks_match_one_block(padding, width, monkeypatch):
    x, k, b = RNG.standard_normal((7, 7, 2)), RNG.standard_normal((width, 2, 3)), RNG.standard_normal(3)
    whole = ad.conv1d_time(ad.constant(x), ad.constant(k), padding, ad.constant(b)).data
    monkeypatch.setattr(ad, "_IM2COL_BLOCK", 2 * 7 * width * 2)   # at most 2 rows per block
    blocked = ad.conv1d_time(ad.constant(x), ad.constant(k), padding, ad.constant(b)).data
    assert np.array_equal(blocked, whole)
    assert np.array_equal(blocked, ad.conv1d_time(ad.constant(x), ad.constant(k), padding).data + b)
    assert_close(blocked, ref_conv1d(x, k, padding) + b)


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_grad_conv1d_row_blocks_with_bias(padding, monkeypatch):
    monkeypatch.setattr(ad, "_IM2COL_BLOCK", 2 * 7 * 3 * 2)   # rows in blocks of 2, 2, 2, 1
    x, k, b = rand_leaf(7, 7, 2), rand_leaf(3, 2, 3), rand_leaf(3)
    steps = 7 if padding == "same" else 5
    w = ad.constant(RNG.standard_normal((7, steps, 3)))
    _assert_grads(lambda: (ad.conv1d_time(x, k, padding, b) * w).sum(), {"x": x, "k": k, "bias": b})


def test_conv1d_bias_shape_checked():
    x, k = ad.constant(np.zeros((2, 5, 2))), ad.constant(np.zeros((3, 2, 4)))
    with pytest.raises(ShapeError):
        ad.conv1d_time(x, k, "same", ad.constant(np.zeros(3)))


@pytest.mark.parametrize("d", [1, 3])
def test_tanh_sigmoid_gate_without_tape_gives_the_taped_bytes(d, monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK", 4 * d)   # 15 rows in blocks of 4, 4, 4, 3
    c = RNG.normal(0.0, 3.0, (3, 5, 2 * d))
    c[0, 0, :] = [800.0] * d + [-800.0] * d
    x = ad.parameter(c)
    taped = ad.tanh_sigmoid_gate(x)
    with ad.no_grad(), np.errstate(over="raise"):
        lean = ad.tanh_sigmoid_gate(x)
    assert taped.requires_grad and not lean.requires_grad
    assert lean.data.tobytes() == taped.data.tobytes()


def test_grad_gate_over_blocked_conv_with_bias(monkeypatch):
    # the gated branch as the model runs it, under grad
    monkeypatch.setattr(ad, "_IM2COL_BLOCK", 2 * 6 * 3 * 2)
    monkeypatch.setattr(ad, "_BLOCK", 4)
    x, k, b = rand_leaf(5, 6, 2), rand_leaf(3, 2, 4), rand_leaf(4)
    w = ad.constant(RNG.standard_normal((5, 6, 2)))
    _assert_grads(lambda: (ad.tanh_sigmoid_gate(ad.conv1d_time(x, k, "same", b)) * w).sum(),
                  {"x": x, "k": k, "bias": b})
