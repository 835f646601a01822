"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. Every differentiable operation
returns a new tensor that remembers its inputs and a backward rule; the
recording order is a valid topological order, so ``backward()`` on a
scalar replays the trace in reverse (a Wengert list) and accumulates
gradients into every leaf that asked for them.

``+``, ``-`` and ``*`` broadcast as numpy does, an ndarray or number on
either side; shapes that do not broadcast raise :class:`ShapeError`
naming both. Backward sums a gradient back over the axes its operand was
broadcast along, and computes none for an operand off the tape, so a
tensor times a constant 0/1 mask costs one product each way.

Everything is float64; gradient checking against central finite
differences is the package's primary verification mechanism and needs
the headroom.

Kernel rules, which keep the hot kernels off numpy's slow paths:

- No data-dependent select (``np.where`` and the like) runs over tensor
  data. ``relu`` is ``np.maximum``, the sigmoid half of
  ``tanh_sigmoid_gate`` is ``max(e, x >= 0) / (1 + e)`` with
  ``e = exp(-|x|)``, and masks multiply; a select runs only over a
  constant mask's own shape or over one value per row.
- Every trailing-axis sum (softmax and layer norm, forward and backward)
  is one matrix-vector product with a ones vector (``_rowsum``). A short
  trailing-axis max is a loop of elementwise maxima over its columns,
  a long one numpy's reduction (``_rowmax``).
- ``masked_softmax`` is the one softmax. Given a keep mask it multiplies
  by it, so ``exp`` never sees a masked entry as -inf; without one, -inf
  entries drop out. Masked keys get weight exactly 0 either way.
- A kernel updates its own temporaries in place. Temporaries that grow
  with the input's rows are built a block of rows at a time: the im2col
  patches of ``conv1d_time`` (forward and backward) and, without a tape,
  the sigmoid half of ``tanh_sigmoid_gate``.

``relu`` and ``tanh_sigmoid_gate`` pass NaN through.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "as_tensor",
    "constant",
    "parameter",
    "matmul",
    "concat",
    "masked_select",
    "relu",
    "absolute",
    "masked_softmax",
    "tanh_sigmoid_gate",
    "layer_norm",
    "conv1d_time",
]

_ids = itertools.count()

# Trailing axes up to this length reduce as column loops (see _rowmax).
_SHORT_AXIS = 32
# Elements per block of the kernels' blocked temporaries: im2col patches
# (256 KiB) and the no-grad gate's sigmoid halves (64 KiB), each small
# beside the (N, W, d) arrays of an N=207 pass.
_IM2COL_BLOCK = 1 << 15
_BLOCK = 1 << 13
_TINY = np.finfo(np.float64).tiny


class _GradMode(threading.local):
    enabled = True


_mode = _GradMode()


class no_grad:
    """Context manager that disables tape recording (e.g. for evaluation)."""

    def __enter__(self):
        self._prev = _mode.enabled
        _mode.enabled = False
        return self

    def __exit__(self, *exc):
        _mode.enabled = self._prev
        return False


class Tensor:
    """A dense n-dimensional float64 array, optionally on the gradient tape.

    ``grad`` is ``None`` until ``backward()`` populates it; repeated
    backward passes accumulate unless :meth:`zero_grad` is called.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_rule", "_id")
    # numpy defers to the reflected operators, so ``mask * t`` is a Tensor
    # and not an object array holding a Tensor per element of ``mask``
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._rule: Callable[[np.ndarray], tuple] | None = None
        self._id = next(_ids)

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate into ``grad`` on every requires_grad leaf this scalar depends on."""
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar output, got shape {self.shape}")
        Tape.trace(self).backward(self)

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __rsub__(self, other):
        return add(other, -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("division by a tensor is not a tape primitive")
        return mul(self, 1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        raise ContractError("division by a tensor is not a tape primitive")

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    """Wrap an array as a non-differentiable tensor; a tensor passes through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


constant = as_tensor


def parameter(x) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(np.array(x, dtype=np.float64), requires_grad=True)


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return _mode.enabled and any(p.requires_grad for p in parents)


def _record(data: np.ndarray, parents: Sequence[Tensor], rule) -> Tensor:
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._rule = rule
    return out


class Tape:
    """The recorded computation reaching one output, in creation order.

    Creation order is topological by construction (an op's inputs exist
    before the op records), so ``backward`` walks the records exactly
    once, in reverse. Only leaves keep a ``grad``: an intermediate's
    gradient lives in ``backward`` until its record has been replayed.
    """

    def __init__(self, records: list[Tensor]):
        self.records = records

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        seen: set[int] = set()
        records: list[Tensor] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen or node._rule is None:
                continue
            seen.add(id(node))
            records.append(node)
            stack.extend(node._parents)
        records.sort(key=lambda t: t._id)
        return cls(records)

    def backward(self, root: Tensor) -> None:
        if root._rule is None:
            # Scalar leaf: d(root)/d(root) = 1.
            if root.requires_grad:
                seed = np.ones_like(root.data)
                root.grad = seed if root.grad is None else root.grad + seed
            return
        pending: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
        for rec in reversed(self.records):
            g = pending.pop(id(rec), None)
            if g is None:
                continue
            for parent, contrib in zip(rec._parents, rec._rule(g)):
                if contrib is None or not parent.requires_grad:
                    continue
                if parent._rule is None:
                    parent.grad = contrib.copy() if parent.grad is None else parent.grad + contrib
                else:
                    key = id(parent)
                    pending[key] = contrib if key not in pending else pending[key] + contrib


# -- shape plumbing -----------------------------------------------------


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy-style broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------


def _check_broadcast(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"{op} of shapes {sa} and {sb}: they do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    _check_broadcast("add", sa, sb)
    need_a, need_b = a.requires_grad, b.requires_grad

    def rule(g):
        return (_reduce_to(g, sa) if need_a else None), (_reduce_to(g, sb) if need_b else None)

    return _record(a.data + b.data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    da, db = a.data, b.data
    _check_broadcast("mul", da.shape, db.shape)
    need_a, need_b = a.requires_grad, b.requires_grad

    def rule(g):
        ga = _reduce_to(g * db, da.shape) if need_a else None
        return ga, (_reduce_to(g * da, db.shape) if need_b else None)

    return _record(da * db, (a, b), rule)


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading batch dims broadcast numpy-style.

    A 2-D right operand (a weight) folds the left operand's leading dims
    into its rows, so forward and backward are one 2-D product each.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch dimensions do not broadcast: {a.shape} @ {b.shape}") from None
    da, db = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    if b.ndim == 2:
        rows = da.reshape(-1, da.shape[-1])
        out_shape = da.shape[:-1] + db.shape[-1:]

        def rule(g):
            g2 = g.reshape(-1, db.shape[-1])
            ga = (g2 @ db.T).reshape(da.shape) if need_a else None
            return ga, (rows.T @ g2 if need_b else None)

        return _record((rows @ db).reshape(out_shape), (a, b), rule)

    def rule(g):
        ga = _reduce_to(g @ np.swapaxes(db, -1, -2), da.shape) if need_a else None
        gb = _reduce_to(np.swapaxes(da, -1, -2) @ g, db.shape) if need_b else None
        return ga, gb

    return _record(da @ db, (a, b), rule)


# -- reductions and reshaping --------------------------------------------


def _reduce(t: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    t = as_tensor(t)
    if axis is None:
        axes = tuple(range(t.ndim))
    elif isinstance(axis, int):
        axes = (axis % t.ndim,)
    else:
        axes = tuple(ax % t.ndim for ax in axis)
    count = int(np.prod([t.shape[ax] for ax in axes], dtype=np.int64)) if axes else 1
    fn = np.mean if mean else np.sum
    data = fn(t.data, axis=axes, keepdims=keepdims)
    in_shape = t.shape

    def rule(g):
        gg = g
        if not keepdims:
            expand = list(g.shape)
            for ax in sorted(axes):
                expand.insert(ax, 1)
            gg = g.reshape(expand)
        gg = np.broadcast_to(gg, in_shape)
        if mean and count:
            gg = gg / count
        return (np.ascontiguousarray(gg),)

    return _record(np.asarray(data), (t,), rule)


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    in_shape = t.shape
    try:
        data = t.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {in_shape} to {shape}") from None

    def rule(g):
        return (g.reshape(in_shape),)

    return _record(data, (t,), rule)


def transpose(t: Tensor, axes) -> Tensor:
    t = as_tensor(t)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(t.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for shape {t.shape}")
    inverse = tuple(np.argsort(axes))

    def rule(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _record(np.ascontiguousarray(t.data.transpose(axes)), (t,), rule)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        return tuple(
            np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
            for i in range(len(sizes))
        )

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tensors, rule)


# -- constant-mask helpers ------------------------------------------------


def _as_const_array(mask) -> np.ndarray:
    if isinstance(mask, Tensor):
        return mask.data
    return np.asarray(mask)


def _keep_mask(keep, shape: tuple[int, ...]) -> np.ndarray:
    """A constant 0/1 mask as booleans, checked to broadcast onto ``shape``."""
    keep = _as_const_array(keep) != 0
    try:
        fits = np.broadcast_shapes(keep.shape, shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"mask of shape {keep.shape} does not broadcast onto {shape}")
    return keep


def masked_select(t: Tensor, mask) -> Tensor:
    """Gather entries of ``t`` where the 0/1 ``mask`` is set, as a vector."""
    t = as_tensor(t)
    mask = _as_const_array(mask) != 0
    if mask.shape != t.shape:
        raise ShapeError(f"masked_select needs mask shape {t.shape}, got {mask.shape}")
    in_shape = t.shape

    def rule(g):
        out = np.zeros(in_shape)
        out[mask] = g
        return (out,)

    return _record(t.data[mask], (t,), rule)


# -- nonlinearities -------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    t = as_tensor(t)
    d = t.data

    def rule(g):
        return (g * (d > 0),)

    return _record(np.maximum(d, 0.0), (t,), rule)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) for d >= 0 and exp(d) / (1 + exp(d)) below, as
    max(e, d >= 0) / (1 + e) with e = exp(-|d|): no select, and exp never
    overflows."""
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, d >= 0)
    e += 1.0
    y /= e
    return y


def tanh_sigmoid_gate(t: Tensor) -> Tensor:
    """``tanh(t[..., :d]) * sigmoid(t[..., d:])`` over a last axis of 2d, as one op."""
    t = as_tensor(t)
    if t.ndim < 1 or t.shape[-1] % 2:
        raise ShapeError(f"tanh_sigmoid_gate needs an even last axis, got shape {t.shape}")
    d = t.shape[-1] // 2
    filt = np.tanh(t.data[..., :d])
    if not _recording((t,)):
        # nothing keeps the gate for a backward: scale the filter in place,
        # a block of rows at a time, so no second half-size array exists
        rows, gates = filt.reshape(-1, d), t.data.reshape(-1, 2 * d)[:, d:]
        step = max(1, _BLOCK // d)
        for start in range(0, len(rows), step):
            rows[start:start + step] *= _sigmoid(gates[start:start + step])
        return _record(filt, (t,), None)
    gate = _sigmoid(t.data[..., d:])

    def rule(g):
        grad = np.empty(g.shape[:-1] + (2 * d,))
        dfilt, dgate = grad[..., :d], grad[..., d:]
        np.multiply(g, gate, out=dfilt)
        dfilt *= 1.0 - filt * filt
        np.multiply(g, filt, out=dgate)
        dgate *= gate * (1.0 - gate)
        return (grad,)

    return _record(filt * gate, (t,), rule)


def absolute(t: Tensor) -> Tensor:
    t = as_tensor(t)
    sign = np.sign(t.data)

    def rule(g):
        return (g * sign,)

    return _record(np.abs(t.data), (t,), rule)


# -- structured primitives -------------------------------------------------


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keepdims: one matrix-vector product with a
    ones vector (a non-contiguous ``a`` is copied first)."""
    width = a.shape[-1]
    return (a.reshape(-1, width) @ np.ones(width)).reshape(a.shape[:-1] + (1,))


def _rowmax(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims; NaN wherever a row holds one.

    A short axis (the attention windows) reduces as a loop of elementwise
    maxima over its columns, a long one (N keys) by numpy's reduction.
    """
    width = a.shape[-1]
    if width > _SHORT_AXIS:
        return a.max(axis=-1, keepdims=True)
    out = a[..., :1].copy()
    for col in range(1, width):
        np.maximum(out, a[..., col:col + 1], out=out)
    return out


def _softmax_rows(d: np.ndarray, rowmax: np.ndarray, keep: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of the rows of ``d`` given their max, into ``out`` if given.

    Raises on a NaN or +inf row max. A row whose max is -inf maps to
    zeros: it is not shifted, and its total of 0 is divided by the
    smallest normal float instead. With a ``keep`` mask the shifted scores
    are clamped at 0 before ``exp`` (masked entries may exceed the max of
    the kept ones) and the masked entries zeroed after it.
    """
    if np.isnan(rowmax).any():
        raise NumericError("softmax input contains NaN")
    if np.isposinf(rowmax).any():
        raise NumericError("softmax input contains +inf")
    rowmax[np.isneginf(rowmax)] = 0.0
    with np.errstate(over="ignore"):   # -inf, exp 0; +inf only at masked entries, clamped
        z = np.subtract(d, rowmax, out=out)
    if keep is not None:
        np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    if keep is not None:
        z *= keep
    total = _rowsum(z)
    np.maximum(total, _TINY, out=total)
    z /= total
    return z


def _softmax_rule(y: np.ndarray):
    def rule(g):
        out = g * y
        inner = _rowsum(out)
        np.subtract(g, inner, out=out)
        out *= y
        return (out,)

    return rule


def masked_softmax(t: Tensor, keep=None) -> Tensor:
    """Softmax over the last axis; masked entries get weight exactly 0.

    Without ``keep`` the masked entries are the -inf ones. ``keep`` is a
    constant 0/1 array broadcastable to ``t``, whose 0 entries are masked
    whatever finite or -inf values they hold. A row with nothing kept maps
    to zeros; NaN or +inf anywhere in ``t`` is a numeric error. With a mask
    the row max is taken over ``t + log(keep)``, ``exp`` runs on
    ``min(t - max, 0)`` and its result is multiplied by the mask, so
    ``exp`` never sees a masked entry as -inf.
    """
    t = as_tensor(t)
    if t.ndim < 1 or t.shape[-1] < 1:
        raise ShapeError(f"masked_softmax needs a nonempty last axis, got shape {t.shape}")
    if keep is None:
        y = _softmax_rows(t.data, _rowmax(t.data))
    else:
        keep = _keep_mask(keep, t.shape)
        with np.errstate(invalid="ignore"):   # +inf at a masked entry gives NaN, told apart below
            z = t.data + np.where(keep, 0.0, -np.inf)   # log(keep), built over the mask's shape
        rowmax = _rowmax(z)
        if np.isnan(rowmax).any() and not np.isnan(t.data).any():
            raise NumericError("softmax input contains +inf")
        y = _softmax_rows(t.data, rowmax, keep.astype(np.float64), out=z)
    return _record(y, (t,), _softmax_rule(y))


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    t, gain, bias = as_tensor(t), as_tensor(gain), as_tensor(bias)
    if t.ndim < 1 or t.shape[-1] == 0:
        raise ShapeError(f"layer_norm needs a nonempty feature axis, got shape {t.shape}")
    width = t.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({width},), got {gain.shape} and {bias.shape}"
        )
    y = t.data - _rowsum(t.data) / width
    inv = 1.0 / np.sqrt(_rowsum(y * y) / width + eps)
    y *= inv
    gd, bd = gain.data, bias.data

    def rule(g):
        dgain = (g * y).reshape(-1, width).sum(axis=0)
        dbias = g.reshape(-1, width).sum(axis=0)
        dy = g * gd
        dx = dy - (_rowsum(dy) + y * _rowsum(dy * y)) / width
        dx *= inv
        return dx, dgain, dbias

    out = y * gd
    out += bd
    return _record(out, (t, gain, bias), rule)


def _im2col(rows: np.ndarray, width: int, pad_left: int, out_steps: int) -> np.ndarray:
    """The (b out_steps, K c_in) patch matrix of ``rows`` (b, T, c_in),
    zero-padded by ``pad_left`` steps before and the rest after. Tap-major:
    a patch holds its K input steps one after another, so the kernel is
    the (K c_in, c_out) matrix as it is stored."""
    b, steps, c_in = rows.shape
    if out_steps + width - 1 > steps:
        padded = np.zeros((b, out_steps + width - 1, c_in))
        padded[:, pad_left:pad_left + steps] = rows
        rows = padded
    cols = sliding_window_view(rows, width, axis=1).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(cols).reshape(b * out_steps, width * c_in)


def conv1d_time(t: Tensor, kernel: Tensor, padding: str = "same", bias: Tensor | None = None) -> Tensor:
    """1-D cross-correlation along the time axis (second to last), plus an
    optional per-channel ``bias`` (c_out,) added in place.

    ``t`` has shape (..., N, T, c_in), any leading dims folding into the
    rows, and ``kernel`` (K, c_in, c_out). "same" zero-pads so the output
    keeps T steps; "valid" yields T - K + 1 steps. The im2col patches are
    built and multiplied a block of rows at a time, in forward and again
    in backward, so no patch matrix of the whole input is ever held.
    """
    t, kernel = as_tensor(t), as_tensor(kernel)
    if t.ndim < 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d_time needs (...,N,T,c_in) and (K,c_in,c_out), got {t.shape} and {kernel.shape}")
    if t.shape[-1] != kernel.shape[1]:
        raise ShapeError(f"conv1d_time channel mismatch: input {t.shape} vs kernel {kernel.shape}")
    if padding not in ("same", "valid"):
        raise ContractError(f"unknown padding mode {padding!r}")
    steps, width = t.shape[-2], kernel.shape[0]
    if width > steps:
        raise ShapeError(f"kernel width {width} exceeds {steps} time steps")
    c_in, c_out = t.shape[-1], kernel.shape[2]
    parents = (t, kernel)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv1d_time bias must have shape ({c_out},), got {bias.shape}")
        parents += (bias,)
    rows = t.data.reshape(-1, steps, c_in)
    n = rows.shape[0]
    pad_left, out_steps = ((width - 1) // 2, steps) if padding == "same" else (0, steps - width + 1)
    kmat = kernel.data.reshape(width * c_in, c_out)
    block = max(1, _IM2COL_BLOCK // (out_steps * width * c_in))
    blocks = [(start, min(n, start + block)) for start in range(0, n, block)]
    out = np.empty((n, out_steps, c_out))
    for start, stop in blocks:
        np.matmul(_im2col(rows[start:stop], width, pad_left, out_steps), kmat,
                  out=out[start:stop].reshape(-1, c_out))
    if bias is not None:
        out += bias.data
    in_shape = t.shape

    def rule(g):
        g = g.reshape(n, out_steps, c_out)
        dkernel = np.zeros(kmat.shape)
        dx = np.empty((n, steps, c_in))
        for start, stop in blocks:
            gb = g[start:stop].reshape(-1, c_out)
            dkernel += _im2col(rows[start:stop], width, pad_left, out_steps).T @ gb
            # col2im: each tap's column gradient adds back onto the steps it read
            dcols = (gb @ kmat.T).reshape(stop - start, out_steps, width, c_in)
            dpadded = np.zeros((stop - start, out_steps + width - 1, c_in))
            for tap in range(width):
                dpadded[:, tap:tap + out_steps] += dcols[:, :, tap]
            dx[start:stop] = dpadded[:, pad_left:pad_left + steps]
        grads = (dx.reshape(in_shape), dkernel.reshape(kernel.shape))
        return grads + (_reduce_to(g, (c_out,)),) if bias is not None else grads

    return _record(out.reshape(in_shape[:-2] + (out_steps, c_out)), parents, rule)
