"""Stacked (multi-copy) layers: lockstep compute over a leading client axis.

The lockstep slab trainer (:mod:`repro.fl.cohort`) trains every client
of a federated round simultaneously. Each client holds its own copy of the
model parameters, so the compute primitive is a *stacked* layer: inputs
carry a leading copy axis ``C`` (``(C, B, ...)``) and parameters carry the
same axis (``(C, ...)``), with all C copies advanced by one batched kernel
call — e.g. ``StackedLinear`` is a single ``(C,B,d) @ (C,d,out)`` batched
matmul instead of C Python-level layer calls.

:class:`StackedModel` materializes C copies of a template
:class:`~repro.nn.module.Sequential`'s parameters as one contiguous
``(C, P)`` slab (P = flat parameter count, column order matching
:func:`~repro.nn.module.get_flat_params`). Layer parameters and gradients
are *views* into the slab and its gradient twin, so a fused optimizer step
on the slab (:func:`repro.nn.optim.fused_sgd_step`) updates every layer
in place with no gather/scatter.

Numerical contract: with no padding in play, every stacked kernel is
elementwise- or GEMM-per-slice-identical to its serial counterpart, so
copy ``c`` of a stacked forward/backward reproduces the serial model
bit-for-bit on the reference BLAS paths; the cohort trainer's equivalence
tests assert this directly. The conv, max-pool, ReLU, LSTM, sigmoid and
cross-entropy kernels do the same per-element operations as the serial
ones with their own implementation (a gathered unfold, split pooling
slices, branch-free and in-place ufuncs), and share no helper with the
serial modules they are tested against. Padded rows (ragged batches) are
excluded via loss masks, which changes only summation *order* in
per-client reductions (documented tolerance in :mod:`tests.fl.test_cohort`).
The slab trainer's step calls :meth:`StackedModel.backward_params`, which
skips the first layer's input gradient; :meth:`StackedModel.backward`
still returns it.

Prefix activation: when the first input axis ``k`` is smaller than the
number of copies C, parameterised layers compute with the leading ``k``
parameter copies only (views, no copy). The cohort trainer uses this to
retire clients that have exhausted their local steps without re-building
the stack.

Every leaf layer type the model factories build has a stacked
counterpart, so :func:`supports_stacking` is a purely structural check.
No stacked layer draws random numbers: the only RNG the slab round
consumes is the trainer's batch-permutation stream, pre-drawn by the
cohort trainer in serial order. Integer-input (Embedding) and recurrent
(LSTM) layers have stacked counterparts too, so the paper's text models
train in lockstep.

The slab dtype is a :class:`StackedModel` policy resolved by
:func:`resolve_dtype` (float64 default, the bit-exact serial reference;
opt-in float32 halves slab memory). Scratch buffers follow the input's
dtype (``np.empty(..., dtype=<input>.dtype)``, ``out=`` ufunc forms) so
float32 never silently upcasts.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Embedding,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import mse_loss, sequence_cross_entropy, softmax_cross_entropy
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.recurrent import LSTM

#: Environment variable selecting the slab compute dtype when no explicit
#: ``dtype``/``cohort_dtype`` argument is given.
DTYPE_ENV = "REPRO_DTYPE"

#: Slab compute dtypes the engine supports.
SUPPORTED_DTYPES = ("float64", "float32")


def resolve_dtype(dtype=None) -> np.dtype:
    """The slab compute dtype: explicit argument > ``$REPRO_DTYPE`` >
    float64. Returns a ``numpy.dtype``; a value that is not a dtype, or
    names one outside :data:`SUPPORTED_DTYPES`, raises ``ValueError``
    naming where it came from."""
    source = "cohort_dtype"
    if dtype is None:
        source = f"${DTYPE_ENV}"
        dtype = os.environ.get(DTYPE_ENV) or "float64"
    try:
        dt = np.dtype(dtype)
    except TypeError:
        dt = None
    if dt is None or dt.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported slab dtype {dtype!r} from {source}; "
            f"supported: {SUPPORTED_DTYPES}"
        )
    return dt


class StackedLinear(Module):
    """C independent affine layers: ``y[c] = x[c] @ W[c] + b[c]``.

    ``weight`` is ``(C, in, out)``, ``bias`` ``(C, out)``; inputs are
    ``(k, B, in)`` with ``k <= C`` (prefix activation).
    """

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        w = self.weight.data[:k]
        if shared:
            # One shared input for all k copies: matmul broadcasts the
            # (B*, in) matrix against the (k, in, out) weight stack, so
            # each copy runs the exact dgemm the serial layer would.
            x2 = x.reshape(-1, self.in_features)
            y = np.matmul(x2, w)
            if self.bias is not None:
                y += self.bias.data[:k, None, :]
            return y.reshape((k,) + x.shape[:-1] + (self.out_features,)), False
        x3 = x.reshape(k, -1, self.in_features)
        y = np.matmul(x3, w)
        if self.bias is not None:
            y += self.bias.data[:k, None, :]
        return y.reshape(x.shape[:-1] + (self.out_features,)), False

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray]):
        super().__init__()
        if weight.ndim != 3:
            raise ValueError(f"stacked weight must be (C, in, out), got {weight.shape}")
        self.n_copies, self.in_features, self.out_features = weight.shape
        self.weight = Parameter(weight, "stacked_linear.weight")
        self.bias = Parameter(bias, "stacked_linear.bias") if bias is not None else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 3 or x.shape[-1] != self.in_features or x.shape[0] > self.n_copies:
            raise ValueError(
                f"StackedLinear expected (k<={self.n_copies}, B, ..., {self.in_features}), "
                f"got {x.shape}"
            )
        self._x = x
        k = x.shape[0]
        # (k, B, T, in) collapses to (k, B*T, in) for the batched matmul —
        # same row set as the serial layer's 2-D reshape, per copy.
        x3 = x.reshape(k, -1, self.in_features)
        y = np.matmul(x3, self.weight.data[:k])
        if self.bias is not None:
            y += self.bias.data[:k, None, :]
        return y.reshape(x.shape[:-1] + (self.out_features,))

    def backward_params(self, dy: np.ndarray) -> np.ndarray:
        """Accumulate the weight and bias gradients of ``dy`` and return it
        as ``(k, rows, out)``; no input gradient."""
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        k = x.shape[0]
        x3 = x.reshape(k, -1, self.in_features)
        dy3 = dy.reshape(k, -1, self.out_features)
        self.weight.grad[:k] += np.matmul(x3.transpose(0, 2, 1), dy3)
        if self.bias is not None:
            self.bias.grad[:k] += dy3.sum(axis=1)
        return dy3

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy3 = self.backward_params(dy)
        k = dy3.shape[0]
        return np.matmul(dy3, self.weight.data[:k].transpose(0, 2, 1)).reshape(self._x.shape)


@functools.lru_cache(maxsize=64)
def _patch_index(
    c: int, h: int, w: int, ksz: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Gather index of the unfold: ``(oh*ow, c*ksz*ksz)`` positions into
    one image flattened as ``(c*h*w,)`` plus a trailing zero, which every
    padding tap reads. Columns are ``(c, i, j)`` row-major, rows the output
    positions row-major: the serial ``im2col`` layout. Built once per shape
    (read-only)."""
    out_h = (h + 2 * pad - ksz) // stride + 1
    out_w = (w + 2 * pad - ksz) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel ({ksz}x{ksz}) too large for input ({h}x{w}) with pad={pad}")
    taps = np.arange(ksz)
    rows = (np.arange(out_h) * stride)[:, None, None, None, None] + taps[:, None] - pad
    cols = (np.arange(out_w) * stride)[None, :, None, None, None] + taps - pad
    chan = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    index = np.where(inside, (chan * h + rows) * w + cols, c * h * w)
    index = index.reshape(out_h * out_w, c * ksz * ksz)
    index.flags.writeable = False
    return index, out_h, out_w


class StackedConv2D(Module):
    """C independent 2-D convolutions over ``(k, B, C_in, H, W)`` inputs.

    The unfold is a gather: each image is copied once into a row with a
    trailing zero (the padding value), and ``np.take`` with a cached
    per-shape index (:func:`_patch_index`) builds the ``(k*B, oh*ow, ckk)``
    patch rows — the serial ``im2col`` layout, values moved, never
    computed. The per-copy weights then apply as one batched
    ``(k, B*oh*ow, ckk) @ (k, ckk, out_c)`` matmul, the serial GEMM per
    copy. The input-gradient fold adds the patch gradients tap by tap in
    the serial ``(i, j)`` order into a zeroed padded image, so every
    pixel's sum is formed in the same order. :meth:`backward_params` is
    the backward without the input gradient, for a first layer whose
    input is data.
    """

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)
        if shared:
            # The unfold is copy-independent, so run it once on the shared
            # batch and broadcast the column matrix across the k copies.
            b = x.shape[0]
            cols, out_h, out_w = self._unfold(x, b)
            y = np.matmul(cols.reshape(b * out_h * out_w, -1), w2.transpose(0, 2, 1))
        else:
            kk, b = x.shape[:2]
            cols, out_h, out_w = self._unfold(x, kk * b)
            y = np.matmul(cols.reshape(kk, b * out_h * out_w, -1), w2.transpose(0, 2, 1))
        y += self.bias.data[:k, None, :]
        return y.reshape(k, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3), False

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        stride: int = 1,
        pad: int = 0,
    ):
        super().__init__()
        if weight.ndim != 5 or weight.shape[3] != weight.shape[4]:
            raise ValueError(
                f"stacked conv weight must be (C, out_c, in_c, k, k), got {weight.shape}"
            )
        self.n_copies, self.out_channels, self.in_channels, self.kernel_size, _ = weight.shape
        self.stride = stride
        self.pad = pad
        self.weight = Parameter(weight, "stacked_conv.weight")
        self.bias = Parameter(bias, "stacked_conv.bias")
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[tuple] = None
        self._out_hw: Optional[tuple] = None

    def _unfold(self, x: np.ndarray, n: int) -> Tuple[np.ndarray, int, int]:
        """Patch rows ``(n, oh*ow, ckk)`` of the ``n`` images in ``x``
        (``(..., C_in, H, W)``, any layout)."""
        c, h, w = x.shape[-3:]
        index, out_h, out_w = _patch_index(c, h, w, self.kernel_size, self.stride, self.pad)
        rows = np.empty((n, c * h * w + 1), dtype=x.dtype)
        rows[:, -1] = 0.0
        rows[:, :-1].reshape(x.shape)[...] = x
        return np.take(rows, index, axis=1), out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels or x.shape[0] > self.n_copies:
            raise ValueError(
                f"StackedConv2D expected (k<={self.n_copies}, B, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        k, b = x.shape[:2]
        cols, out_h, out_w = self._unfold(x, k * b)
        cols = cols.reshape(k, b * out_h * out_w, -1)
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (out_h, out_w)
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)  # (k, out_c, ckk)
        y = np.matmul(cols, w2.transpose(0, 2, 1))  # (k, B*oh*ow, out_c)
        y += self.bias.data[:k, None, :]
        return y.reshape(k, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3)

    def backward_params(self, dy: np.ndarray) -> np.ndarray:
        """Accumulate the weight and bias gradients of ``dy`` and return it
        as the ``(k, B*oh*ow, out_c)`` row matrix; no input gradient."""
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        k, b = self._x_shape[:2]
        out_h, out_w = self._out_hw
        dy2 = dy.transpose(0, 1, 3, 4, 2).reshape(k, b * out_h * out_w, self.out_channels)
        self.weight.grad[:k] += np.matmul(dy2.transpose(0, 2, 1), self._cols).reshape(
            (k,) + self.weight.shape[1:]
        )
        self.bias.grad[:k] += dy2.sum(axis=1)
        return dy2

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy2 = self.backward_params(dy)
        k, b, c, h, w = self._x_shape
        out_h, out_w = self._out_hw
        ksz, s, pad = self.kernel_size, self.stride, self.pad
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)
        dcols = np.matmul(dy2, w2).reshape(k * b, out_h, out_w, c, ksz * ksz)
        # Tap-major copy, so each tap's add reads one contiguous block; the
        # fold runs channels-last and returns an NCHW view of it.
        taps = np.ascontiguousarray(dcols.transpose(4, 0, 1, 2, 3))
        dx = np.zeros((k * b, h + 2 * pad, w + 2 * pad, c), dtype=dcols.dtype)
        for i in range(ksz):
            for j in range(ksz):
                dx[:, i : i + s * out_h : s, j : j + s * out_w : s] += taps[i * ksz + j]
        dx = dx[:, pad : pad + h, pad : pad + w].reshape(k, b, h, w, c)
        return dx.transpose(0, 1, 4, 2, 3)


class StackedMaxPool2D(Module):
    """Max pooling over ``(k, B, C_in, H, W)`` with a square window that
    tiles the input, own kernel: the forward is the elementwise
    ``np.maximum`` of the ``p*p`` strided window slices, taken in window
    row-major order, and the backward rebuilds the serial layer's
    tie-split mask ``eq / count`` slice by slice (``eq``: the slice equals
    the window max; ``count``: how many do), so tied maxima — every
    all-zero window after a ReLU — share the gradient exactly as in the
    serial layer. Values and masks follow the input's dtype."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.pool_size = pool_size
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def _slices(self, a: np.ndarray) -> List[np.ndarray]:
        p = self.pool_size
        return [a[..., i::p, j::p] for i in range(p) for j in range(p)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = self.pool_size
        h, w = x.shape[-2:]
        if h % p or w % p:
            raise ValueError(f"MaxPool2D({p}) requires H,W divisible by {p}, got {h}x{w}")
        first, *rest = self._slices(x)
        y = first.copy(order="K")
        for part in rest:
            np.maximum(y, part, out=y)
        self._x, self._y = x, y
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x, y = self._x, self._y
        eqs = [np.equal(part, y, out=np.empty_like(y, dtype=dy.dtype)) for part in self._slices(x)]
        count = sum(eqs[1:], eqs[0])
        dx = np.empty_like(x, dtype=dy.dtype)
        for eq, part in zip(eqs, self._slices(dx)):
            eq /= count
            np.multiply(eq, dy, out=part)
        return dx

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        # Pooling is per-window and parameter-free: a shared input stays
        # shared, and nothing is cached.
        p = self.pool_size
        if shared:
            n, c, h, w = x.shape
            return x.reshape(n, c, h // p, p, w // p, p).max(axis=(3, 5)), True
        kk, b = x.shape[:2]
        x2 = x.reshape((kk * b,) + x.shape[2:])
        n, c, h, w = x2.shape
        y = x2.reshape(n, c, h // p, p, w // p, p).max(axis=(3, 5))
        return y.reshape((kk, b) + y.shape[1:]), False


class StackedFlatten(Module):
    """Collapse all but the copy and batch axes: ``(k, B, ...) -> (k, B, F)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._x_shape)

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        if shared:
            return x.reshape(x.shape[0], -1), True
        return x.reshape(x.shape[0], x.shape[1], -1), False


def _float_dtype(x: np.ndarray) -> np.dtype:
    """The compute dtype of an activation: the input's when it is a float
    (float32 slabs stay float32), else float64."""
    return x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(np.float64)


def _relu(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``x * mask`` (``mask = x > 0``) in ``x``'s memory layout: the serial
    ReLU's operation, so NaN stays NaN and ``-inf`` becomes NaN as there."""
    return np.multiply(x, mask, out=np.empty_like(x, dtype=_float_dtype(x)))


def _stacked_sigmoid(
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    e: Optional[np.ndarray] = None,
    den: Optional[np.ndarray] = None,
    pos: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Logistic sigmoid without a branch: ``max(e, x >= 0) / (1 + e)``
    with ``e = exp(-|x|)``.

    Same per-element operations as the serial piecewise sigmoid, own
    implementation: for ``x >= 0`` the max picks 1 and the value is
    ``1 / (1 + exp(-x))``; for ``x < 0`` it picks ``e = exp(x)`` and the
    value is ``exp(x) / (1 + exp(x))`` — the same bits, ±0, ±inf and NaN
    included, with no boolean gather or scatter. ``e``, ``den`` (x's shape
    and dtype) and ``pos`` (bool) are optional scratch; ``out`` (any
    layout, default ``den``) may alias ``x`` or ``den``.
    """
    pos = np.greater_equal(x, 0.0, out=pos)
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = np.add(e, 1.0, out=den)
    np.maximum(e, pos, out=e)
    return np.divide(e, den, out=den if out is None else out)


class StackedReLU(Module):
    """ReLU over ``(k, B, ...)``, own kernel: ``x * (x > 0)`` (see
    :func:`_relu`). Output, mask and input gradient keep the input's
    memory layout, so a stacked conv's channels-last output is never
    transposed: the pooling reads it in place, and the gradient reaches
    the conv's backward already in its row order. Values follow the
    input's dtype."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = np.greater(x, 0)
        return _relu(x, self._mask)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.multiply(dy, self._mask, out=np.empty_like(self._mask, dtype=dy.dtype))

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return _relu(x, x > 0), shared


class StackedTanh(Tanh):
    """Tanh over ``(k, B, ...)`` (elementwise; serial kernel reused)."""

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return np.tanh(x), shared


class StackedSigmoid(Sigmoid):
    """Sigmoid over ``(k, B, ...)`` (elementwise; the serial kernel trains,
    inference runs the branch-free :func:`_stacked_sigmoid`)."""

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return _stacked_sigmoid(x), shared


class StackedEmbedding(Module):
    """C independent token tables: ``(k, B, ...)`` int ids -> ``(..., D)``.

    ``weight`` is ``(C, V, D)``. The backward scatter-add runs per copy in
    the same row-major id order as the serial
    :class:`~repro.nn.layers.Embedding`, so duplicate-id accumulation is
    bit-identical per copy.
    """

    def __init__(self, weight: np.ndarray):
        super().__init__()
        if weight.ndim != 3:
            raise ValueError(f"stacked embedding weight must be (C, V, D), got {weight.shape}")
        self.n_copies, self.vocab_size, self.dim = weight.shape
        self.weight = Parameter(weight, "stacked_embedding.weight")
        self._ids: Optional[np.ndarray] = None
        self._copy_idx: Optional[np.ndarray] = None
        self._dx_zero: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"StackedEmbedding expects integer ids, got dtype {ids.dtype}")
        if ids.ndim < 2 or ids.shape[0] > self.n_copies:
            raise ValueError(
                f"StackedEmbedding expected (k<={self.n_copies}, B, ...), got {ids.shape}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(f"token id out of range [0, {self.vocab_size})")
        self._ids = ids
        k = ids.shape[0]
        self._copy_idx = np.arange(k).reshape((k,) + (1,) * (ids.ndim - 1))
        return self.weight.data[self._copy_idx, ids]

    def backward_params(self, dy: np.ndarray) -> None:
        """Scatter-add ``dy`` into the table gradients (ids have no
        gradient)."""
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.weight.grad, (self._copy_idx, self._ids), dy)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.backward_params(dy)
        # Ids are not differentiable; shape-cached zero placeholder, as in
        # the serial layer.
        if (
            self._dx_zero is None
            or self._dx_zero.shape != self._ids.shape
            or self._dx_zero.dtype != dy.dtype
        ):
            self._dx_zero = np.zeros(self._ids.shape, dtype=dy.dtype)
        else:
            self._dx_zero.fill(0.0)
        return self._dx_zero

    def eval_forward(self, ids: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        w = self.weight.data[:k]
        if shared:
            # Shared integer ids gather each copy's table: (k, B, ..., D).
            # Ids come from evaluation data already validated during
            # training, so the serial layer's range check is skipped.
            return w[:, ids], False
        copy_idx = np.arange(k).reshape((k,) + (1,) * (ids.ndim - 1))
        return w[copy_idx, ids], False


class StackedLSTMCell(Module):
    """Parameters of C independent LSTM cells: gate layout [i, f, g, o] as
    in the serial :class:`~repro.nn.recurrent.LSTMCell`, with a leading
    copy axis on every matrix (``w_x: (C, in, 4h)``, ``w_h: (C, h, 4h)``,
    ``bias: (C, 4h)``). :class:`StackedLSTM` runs the kernels."""

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, bias: np.ndarray):
        super().__init__()
        if w_x.ndim != 3 or w_h.ndim != 3 or bias.ndim != 2:
            raise ValueError("stacked LSTM cell weights must carry a leading copy axis")
        self.n_copies, self.input_size, four_h = w_x.shape
        self.hidden_size = four_h // 4
        self.w_x = Parameter(w_x, "stacked_lstm.w_x")
        self.w_h = Parameter(w_h, "stacked_lstm.w_h")
        self.bias = Parameter(bias, "stacked_lstm.bias")

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("StackedLSTMCell must be driven by StackedLSTM")

    def backward(self, dy: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("StackedLSTMCell must be driven by StackedLSTM")


#: Gate-block bytes per copy chunk of :meth:`StackedLSTM.eval_forward`:
#: small enough that a step's elementwise passes run from cache.
_EVAL_CHUNK_BYTES = 1 << 18


class _StepScratch:
    """Per-call scratch of the LSTM step kernel for ``(k, n)`` stacks: the
    ``(k, n, 4h)`` gate pre-activations, the sigmoid's ``e``/``den``/``pos``
    buffers (as ``(k, n, 4, h)`` views) and one ``(k, n, h)`` buffer."""

    def __init__(self, k: int, n: int, h_sz: int, dtype):
        self.gates = np.empty((k, n, 4 * h_sz), dtype=dtype)
        self.den = np.empty_like(self.gates)
        shape4 = (k, n, 4, h_sz)
        self.gates4 = self.gates.reshape(shape4)
        self.den4 = self.den.reshape(shape4)
        self.e4 = np.empty(shape4, dtype=dtype)
        self.pos4 = np.empty(shape4, dtype=bool)
        self.tmp = np.empty((k, n, h_sz), dtype=dtype)


def _lstm_step(
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    act: np.ndarray,
    c: np.ndarray,
    tanh_c: np.ndarray,
    h: np.ndarray,
    s: _StepScratch,
) -> None:
    """One time step of a stacked cell (``w_x``/``w_h``/``bias`` already
    cut to the active copies), written in place.

    Same per-element operations as the serial cell, own implementation:
    ``gates = x_t @ w_x + h_prev @ w_h + bias`` (one GEMM per copy and
    projection, as in the serial step), the activations into the
    gate-major ``act`` (``(4, k, n, h)``: i, f, g, o, each block
    contiguous), then ``c = f * c_prev + i * g``, ``tanh_c = tanh(c)`` and
    ``h = o * tanh_c``. ``c`` may alias ``c_prev`` and ``h`` ``h_prev``.
    """
    np.matmul(x_t, w_x, out=s.gates)
    np.matmul(h_prev, w_h, out=s.den)
    s.gates += s.den
    s.gates += bias
    # One sigmoid over the whole gate block; its g lanes are then
    # overwritten by tanh.
    _stacked_sigmoid(s.gates4, act.transpose(1, 2, 0, 3), s.e4, s.den4, s.pos4)
    i, f, g, o = act[0], act[1], act[2], act[3]
    np.tanh(s.gates4[:, :, 2], out=g)
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=s.tmp)
    c += s.tmp
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


class StackedLSTM(Module):
    """C lockstep LSTMs over ``(k, B, T, D)`` inputs, zero initial state
    per sequence (stateless), returning all hidden states.

    Per copy the same per-element operations and per-step GEMMs as the
    serial :class:`~repro.nn.recurrent.LSTM`, own implementation: a
    branch-free sigmoid over each step's whole gate block, gate-major
    activations so the elementwise chains run on contiguous blocks,
    in-place ufuncs, and no product or sum regrouped — so copy ``c``
    matches the serial model bit for bit. No GEMM is hoisted across time
    steps: that would change the GEMM shapes the serial step runs (NumPy
    sends a one-row matmul to gemv), and with them the rounding. The
    forward caches per-step arrays, as the serial layer does:
    whole-sequence ``(T, k, n, 4h)`` blocks measured slower, as large
    allocations come back as fresh pages.
    """

    def __init__(self, cells: List[StackedLSTMCell]):
        super().__init__()
        if not cells:
            raise ValueError("StackedLSTM needs at least one cell")
        self.n_copies = cells[0].n_copies
        self.input_size = cells[0].input_size
        self.hidden_size = cells[0].hidden_size
        self.num_layers = len(cells)
        self.cells = cells
        self._caches: Optional[List[List[tuple]]] = None
        self._t_steps = 0
        self._k = 0
        self._batch = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.input_size or x.shape[0] > self.n_copies:
            raise ValueError(
                f"StackedLSTM expected (k<={self.n_copies}, B, T, {self.input_size}), "
                f"got {x.shape}"
            )
        k, n, t_steps, _ = x.shape
        self._k, self._batch, self._t_steps = k, n, t_steps
        h_sz, dt = self.hidden_size, x.dtype
        scratch = _StepScratch(k, n, h_sz, dt)
        self._caches = []
        inputs = x
        for cell in self.cells:
            w_x, w_h = cell.w_x.data[:k], cell.w_h.data[:k]
            # The bias broadcast once per call: a contiguous add per step.
            bias = np.broadcast_to(cell.bias.data[:k, None, :], scratch.gates.shape).copy()
            h = np.zeros((k, n, h_sz), dtype=dt)
            c = np.zeros((k, n, h_sz), dtype=dt)
            caches, hs = [], []
            for t in range(t_steps):
                x_t = inputs[:, :, t, :]
                act = np.empty((4, k, n, h_sz), dtype=dt)
                c_new, tanh_c, h_new = np.empty((3, k, n, h_sz), dtype=dt)
                _lstm_step(w_x, w_h, bias, x_t, h, c, act, c_new, tanh_c, h_new, scratch)
                caches.append((x_t, h, c, act, tanh_c))
                h, c = h_new, c_new
                hs.append(h)
            self._caches.append(caches)
            inputs = np.stack(hs, axis=2)
        return inputs

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        k, n, t_steps, h_sz = self._k, self._batch, self._t_steps, self.hidden_size
        if dy.shape != (k, n, t_steps, h_sz):
            raise ValueError(f"StackedLSTM backward expected {(k, n, t_steps, h_sz)}, got {dy.shape}")
        dt = dy.dtype
        # Gate-major scratch (dg[j] is gate j's contiguous block) and the
        # (k, n, 4h) dgates the GEMMs read, written through a gate-major
        # view. Gradients w.r.t. layer outputs are kept step-major,
        # (T, k, n, ·), so every per-step operand is contiguous.
        dg = np.empty((4, k, n, h_sz), dtype=dt)
        one_minus = np.empty_like(dg)
        dgates = np.empty((k, n, 4 * h_sz), dtype=dt)
        dgates_by_gate = dgates.reshape(k, n, 4, h_sz).transpose(2, 0, 1, 3)
        dh, dc, tmp, one_minus_tc2 = np.empty((4, k, n, h_sz), dtype=dt)
        dg_i, dg_f, dg_g, dg_o = dg
        dg_if, one_minus_g = dg[:2], one_minus[2]
        d_out = np.ascontiguousarray(dy.transpose(2, 0, 1, 3))
        for layer in range(self.num_layers - 1, -1, -1):
            cell = self.cells[layer]
            w_x_t = cell.w_x.data[:k].transpose(0, 2, 1)
            w_h_t = cell.w_h.data[:k].transpose(0, 2, 1)
            g_wx, g_wh, g_b = cell.w_x.grad[:k], cell.w_h.grad[:k], cell.bias.grad[:k]
            gw_x = np.empty(g_wx.shape, dtype=dt)
            gw_h = np.empty(g_wh.shape, dtype=dt)
            gb = np.empty(g_b.shape, dtype=dt)
            dx = np.empty((t_steps, k, n, cell.input_size), dtype=dt)
            dh.fill(0.0)
            dc.fill(0.0)
            for t in range(t_steps - 1, -1, -1):
                x_t, h_prev, c_prev, act, tanh_c = self._caches[layer][t]
                i, f, g, o = act[0], act[1], act[2], act[3]
                # 1 - i, 1 - f, 1 - g**2, 1 - o and 1 - tanh_c**2.
                np.subtract(1.0, act, out=one_minus)
                np.square(g, out=one_minus_g)
                np.subtract(1.0, one_minus_g, out=one_minus_g)
                np.square(tanh_c, out=one_minus_tc2)
                np.subtract(1.0, one_minus_tc2, out=one_minus_tc2)
                np.add(dh, d_out[t], out=dh)
                # dc_total = dc + dh * o * (1 - tanh_c**2), left to right.
                np.multiply(dh, o, out=tmp)
                tmp *= one_minus_tc2
                dc += tmp
                # dgates = [dc*g*i*(1-i), dc*c_prev*f*(1-f), dc*i*(1-g**2),
                #           dh*tanh_c*o*(1-o)], each product left to right.
                np.multiply(dc, g, out=dg_i)
                np.multiply(dc, c_prev, out=dg_f)
                np.multiply(dc, i, out=dg_g)
                np.multiply(dh, tanh_c, out=dg_o)
                dg_if *= act[:2]
                dg_o *= o
                np.multiply(dg, one_minus, out=dgates_by_gate)
                dc *= f
                g_wx += np.matmul(x_t.transpose(0, 2, 1), dgates, out=gw_x)
                g_wh += np.matmul(h_prev.transpose(0, 2, 1), dgates, out=gw_h)
                g_b += np.add.reduce(dgates, axis=1, out=gb)
                np.matmul(dgates, w_x_t, out=dx[t])
                np.matmul(dgates, w_h_t, out=dh)
            d_out = dx
        return np.ascontiguousarray(d_out.transpose(1, 2, 0, 3))

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        # Cache-free inference with the training step kernel. Copies are
        # independent here, so they run in chunks whose gate block fits in
        # cache; every GEMM keeps its per-copy shape. Within a chunk the
        # layers are interleaved per time step, so only the last layer's
        # outputs are kept. A shared input stays shared only for the first
        # gate projection (matmul broadcasts it against the stacked w_x);
        # the recurrent state is per-copy from step one.
        n, t_steps = x.shape[:2] if shared else x.shape[1:3]
        h_sz, dt = self.hidden_size, x.dtype
        outputs = np.empty((k, n, t_steps, h_sz), dtype=dt)
        chunk = max(1, _EVAL_CHUNK_BYTES // max(1, n * 4 * h_sz * dt.itemsize))
        for k0 in range(0, k, chunk):
            k1 = min(k, k0 + chunk)
            self._eval_copies(x if shared else x[k0:k1], shared, k0, k1, outputs[k0:k1])
        return outputs, False

    def _eval_copies(
        self, x: np.ndarray, shared: bool, k0: int, k1: int, outputs: np.ndarray
    ) -> None:
        kc, n, t_steps, h_sz = outputs.shape
        dt = outputs.dtype
        scratch = _StepScratch(kc, n, h_sz, dt)
        act = np.empty((4, kc, n, h_sz), dtype=dt)
        tanh_c = np.empty((kc, n, h_sz), dtype=dt)
        states = np.zeros((self.num_layers, 2, kc, n, h_sz), dtype=dt)
        weights = [
            (cell.w_x.data[k0:k1], cell.w_h.data[k0:k1], cell.bias.data[k0:k1, None, :])
            for cell in self.cells
        ]
        for t in range(t_steps):
            x_t = x[:, t, :] if shared else x[:, :, t, :]
            for (w_x, w_h, bias), (h, c) in zip(weights, states):
                _lstm_step(w_x, w_h, bias, x_t, h, c, act, c, tanh_c, h, scratch)
                x_t = h
            outputs[:, :, t, :] = x_t


# -- stacked losses -----------------------------------------------------------


def _check_mask(
    mask: Optional[np.ndarray], shape: tuple, dtype=None
) -> Optional[np.ndarray]:
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=np.float64 if dtype is None else dtype)
    if mask.shape != shape:
        raise ValueError(f"mask must be {shape}, got {mask.shape}")
    counts = mask.sum(axis=1)
    if np.any(counts <= 0):
        raise ValueError("mask excludes every row of at least one copy")
    return mask


def _softmax_nll(logits: np.ndarray, rows: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """``(-log_softmax(logits)[rows], softmax(logits))`` over the last axis.

    Same per-element operations as the serial ``log_softmax``/``softmax``
    pair, own implementation: ``shifted = logits - max``, its ``exp`` and
    the row sums are computed once; the log-probabilities are formed only
    at ``rows`` (``shifted - log(sum)``) and the softmax (``exp / sum``)
    reuses the exp buffer, which the caller turns into the gradient.
    """
    probs = logits - logits.max(axis=-1, keepdims=True)
    picked = probs[rows]
    np.exp(probs, out=probs)
    sums = probs.sum(axis=-1, keepdims=True)
    nll = -(picked - np.log(sums[..., 0]))
    probs /= sums
    return nll, probs


def stacked_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-copy mean cross-entropy over a ``(C, B, K)`` stacked batch.

    Row-wise the math is identical to :func:`repro.nn.losses.softmax_cross_entropy`;
    the mean is taken per copy. ``mask`` (``(C, B)`` in {0, 1}) excludes
    padded rows: masked rows contribute neither loss nor gradient, and each
    copy's loss averages over its *unmasked* rows — so gradient sums match
    a serial pass over just the real rows. Returns ``(losses, dlogits)``
    with ``losses`` of shape ``(C,)`` and ``dlogits`` pre-scaled for
    ``model.backward``.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be (C, B, K), got {logits.shape}")
    c, b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (c, b):
        raise ValueError(f"labels must be ({c},{b}), got {labels.shape}")
    if b == 0:
        raise ValueError("empty batch")
    mask = _check_mask(mask, (c, b), dtype=logits.dtype)
    rows = np.arange(c)[:, None], np.arange(b)[None, :], labels
    nll, dlogits = _softmax_nll(logits, rows)  # nll: (C, B)
    dlogits[rows] -= 1.0
    if mask is None:
        losses = nll.mean(axis=1)
        dlogits /= b
    else:
        counts = mask.sum(axis=1)
        losses = (nll * mask).sum(axis=1) / counts
        dlogits *= (mask / counts[:, None])[:, :, None]
    return losses, dlogits


def stacked_mse(
    preds: np.ndarray, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-copy mean squared error over a ``(C, B, ...)`` stacked batch.

    Mirrors :func:`repro.nn.losses.mse_loss` per copy: the loss averages
    over every element of the copy's (unmasked) rows. ``mask`` is ``(C, B)``
    in {0, 1}; masked rows contribute neither loss nor gradient.
    """
    target_dtype = (
        preds.dtype if np.issubdtype(preds.dtype, np.floating) else np.float64
    )
    targets = np.asarray(targets, dtype=target_dtype)
    if preds.ndim < 2:
        raise ValueError(f"preds must be (C, B, ...), got {preds.shape}")
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs targets {targets.shape}")
    c, b = preds.shape[:2]
    if b == 0:
        raise ValueError("empty batch")
    mask = _check_mask(mask, (c, b), dtype=target_dtype)
    per_row = int(np.prod(preds.shape[2:], dtype=np.int64)) if preds.ndim > 2 else 1
    diff = preds - targets
    sq = diff**2
    if mask is None:
        losses = sq.reshape(c, -1).mean(axis=1)
        dpreds = (2.0 / (b * per_row)) * diff
    else:
        counts = mask.sum(axis=1) * per_row
        mask_b = mask.reshape((c, b) + (1,) * (preds.ndim - 2))
        losses = (sq * mask_b).reshape(c, -1).sum(axis=1) / counts
        dpreds = diff * (2.0 * mask_b / counts.reshape((c,) + (1,) * (preds.ndim - 1)))
    return losses, dpreds


def stacked_sequence_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-copy token-averaged cross-entropy over ``(C, B, T, V)`` logits.

    Per copy the same result as :func:`repro.nn.losses.sequence_cross_entropy`,
    own kernel (the serial client loss is called without a token mask, so
    each copy's loss averages over all ``B*T`` tokens of its unmasked
    rows). ``mask`` is the
    cohort trainer's ``(C, B)`` *row* mask in {0, 1}: a masked (padded)
    sequence contributes neither loss nor gradient, and the copy's average
    runs over the tokens of its real rows only.
    """
    if logits.ndim != 4:
        raise ValueError(f"logits must be (C, B, T, V), got {logits.shape}")
    c, b, t, v = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (c, b, t):
        raise ValueError(f"labels must be ({c},{b},{t}), got {labels.shape}")
    if b == 0 or t == 0:
        raise ValueError("empty batch")
    mask = _check_mask(mask, (c, b), dtype=logits.dtype)
    flat = logits.reshape(c, b * t, v)
    flat_labels = labels.reshape(c, b * t)
    rows = np.arange(c)[:, None], np.arange(b * t)[None, :], flat_labels
    nll, dflat = _softmax_nll(flat, rows)  # nll: (C, B*T)
    dflat[rows] -= 1.0
    if mask is None:
        # Multiply by the reciprocal, exactly as the serial loss's
        # (mask / denom) elementwise scale does for an all-ones mask.
        denom = float(b * t)
        losses = nll.sum(axis=1) / denom
        dflat *= 1.0 / denom
    else:
        token_mask = np.repeat(mask, t, axis=1)  # (C, B*T), row-major token order
        denoms = mask.sum(axis=1) * t
        losses = (nll * token_mask).sum(axis=1) / denoms
        dflat *= (token_mask / denoms[:, None])[:, :, None]
    return losses, dflat.reshape(c, b, t, v)


#: Serial loss function -> its stacked counterpart. The cohort trainer uses
#: this to translate a TaskSpec's ``loss_fn``; a fused trainer for a task
#: whose loss is not here raises at construction.
STACKED_LOSSES: Dict[Callable, Callable] = {
    softmax_cross_entropy: stacked_softmax_cross_entropy,
    mse_loss: stacked_mse,
    sequence_cross_entropy: stacked_sequence_cross_entropy,
}


# -- stacking a template model ------------------------------------------------


def _stack_linear(layer: Linear, n_copies: int) -> StackedLinear:
    weight = np.repeat(layer.weight.data[None], n_copies, axis=0)
    bias = np.repeat(layer.bias.data[None], n_copies, axis=0) if layer.bias is not None else None
    return StackedLinear(weight, bias)


def _stack_conv(layer: Conv2D, n_copies: int) -> StackedConv2D:
    return StackedConv2D(
        np.repeat(layer.weight.data[None], n_copies, axis=0),
        np.repeat(layer.bias.data[None], n_copies, axis=0),
        stride=layer.stride,
        pad=layer.pad,
    )


def _stack_embedding(layer: Embedding, n_copies: int) -> StackedEmbedding:
    return StackedEmbedding(np.repeat(layer.weight.data[None], n_copies, axis=0))


def _stack_lstm(layer: LSTM, n_copies: int) -> StackedLSTM:
    cells = [
        StackedLSTMCell(
            np.repeat(cell.w_x.data[None], n_copies, axis=0),
            np.repeat(cell.w_h.data[None], n_copies, axis=0),
            np.repeat(cell.bias.data[None], n_copies, axis=0),
        )
        for cell in layer.cells
    ]
    return StackedLSTM(cells)


#: Leaf layer type -> factory building its stacked counterpart. Exact-type
#: match: a subclass with different semantics must register itself.
STACK_FACTORIES: Dict[Type[Module], Callable[[Module, int], Module]] = {
    Linear: _stack_linear,
    Conv2D: _stack_conv,
    MaxPool2D: lambda layer, n: StackedMaxPool2D(layer.pool_size),
    Flatten: lambda layer, n: StackedFlatten(),
    ReLU: lambda layer, n: StackedReLU(),
    Tanh: lambda layer, n: StackedTanh(),
    Sigmoid: lambda layer, n: StackedSigmoid(),
    Embedding: _stack_embedding,
    LSTM: _stack_lstm,
}

#: Structural attributes (beyond parameter shapes) that distinguish two
#: same-type leaves with different compute graphs, for :func:`stack_signature`.
_SIGNATURE_EXTRAS: Dict[Type[Module], Callable[[Module], tuple]] = {
    Conv2D: lambda l: (l.stride, l.pad),
    MaxPool2D: lambda l: (l.pool_size,),
    LSTM: lambda l: (l.input_size, l.hidden_size, l.num_layers),
    Linear: lambda l: (l.bias is not None,),
}


def _iter_leaves(module: Module):
    """Depth-first leaf layers of (possibly nested) Sequential containers."""
    if isinstance(module, Sequential):
        for child in module:
            yield from _iter_leaves(child)
    else:
        yield module


def _stackable_leaves(module: Module) -> Optional[List[Module]]:
    """Leaf layers of ``module`` when every one has a stacked counterpart,
    else ``None`` (the structural half of :func:`supports_stacking`)."""
    if not isinstance(module, Sequential):
        return None
    leaves = list(_iter_leaves(module))
    if not all(type(leaf) in STACK_FACTORIES for leaf in leaves):
        return None
    return leaves


def supports_stacking(module: Module) -> bool:
    """True iff every leaf layer of ``module`` has a stacked counterpart
    (a purely structural check)."""
    return _stackable_leaves(module) is not None


def _signature_parts(leaves: Sequence[Module]) -> tuple:
    parts = []
    for leaf in leaves:
        extra = _SIGNATURE_EXTRAS.get(type(leaf))
        parts.append(
            (
                type(leaf).__name__,
                tuple(tuple(p.shape) for p in leaf.parameters()),
                extra(leaf) if extra is not None else (),
            )
        )
    return tuple(parts)


def stack_signature(module: Module) -> Optional[tuple]:
    """Hashable architecture key, or ``None`` when stacking is unsupported.

    Two models with equal signatures run the identical stacked compute
    graph, so their trials can share one cross-trial parameter slab (the
    fused runner groups ``advance_many`` batches by this key) and one
    :meth:`StackedModel.forward_eval` inference slab (the fused evaluation
    engine groups by it too). The key captures leaf types, parameter
    shapes, and the structural attributes in ``_SIGNATURE_EXTRAS`` —
    everything that shapes the forward/backward kernels — but not
    parameter *values*, which live in the slab rows.
    """
    leaves = _stackable_leaves(module)
    if leaves is None:
        return None
    return _signature_parts(leaves)


class StackedModel(Module):
    """C lockstep copies of a template model over one ``(C, P)`` parameter slab.

    Parameters of the stacked layers are compute-dtype *views* into
    ``slab`` (and gradients into ``grad_slab``), laid out so that
    ``slab[c]`` is exactly ``get_flat_params(template)`` of copy ``c``.
    Setting the slab therefore sets every layer, and a fused optimizer
    step on the slab updates every layer — no per-parameter
    gather/scatter. ``dtype`` is the slab compute dtype
    (:func:`resolve_dtype`: float64 default — the
    bit-exact serial reference — or opt-in float32, which halves slab
    memory); since layer parameters alias the slab, it governs every
    kernel's compute precision.
    """

    def __init__(self, template: Module, n_copies: int, dtype=None):
        super().__init__()
        if n_copies < 1:
            raise ValueError(f"n_copies must be >= 1, got {n_copies}")
        if _stackable_leaves(template) is None:
            raise ValueError(
                f"model {type(template).__name__} contains layers without stacked kernels"
            )
        self.n_copies = n_copies
        self.dtype = resolve_dtype(dtype)
        self.layers: List[Module] = [
            STACK_FACTORIES[type(leaf)](leaf, n_copies) for leaf in _iter_leaves(template)
        ]
        template_params = [p for leaf in _iter_leaves(template) for p in leaf.parameters()]
        self.n_params = sum(p.size for p in template_params)
        self._slab = np.empty((n_copies, self.n_params), dtype=self.dtype)
        self._gslab = np.zeros((n_copies, self.n_params), dtype=self.dtype)
        # Rebind every stacked parameter's data/grad to slab views. Stacked
        # layers create parameters in the same order as their template
        # layer, so offsets line up with get_flat_params column order.
        stacked_params = self.parameters()
        if len(stacked_params) != len(template_params):
            raise RuntimeError("stacked/template parameter count mismatch")
        offset = 0
        for sp, tp in zip(stacked_params, template_params):
            if sp.shape != (n_copies,) + tp.shape:
                raise RuntimeError(
                    f"stacked param {sp.name} shape {sp.shape} does not stack {tp.shape}"
                )
            view = self._slab[:, offset : offset + tp.size].reshape((n_copies,) + tp.shape)
            view[...] = sp.data
            sp.data = view
            sp.grad = self._gslab[:, offset : offset + tp.size].reshape((n_copies,) + tp.shape)
            offset += tp.size

    # -- slab access ---------------------------------------------------------
    @property
    def slab(self) -> np.ndarray:
        """The ``(C, P)`` parameter slab (mutating it mutates the layers)."""
        return self._slab

    @property
    def grad_slab(self) -> np.ndarray:
        """The ``(C, P)`` gradient slab (aliased by every ``p.grad``)."""
        return self._gslab

    def set_flat(self, flat: np.ndarray) -> None:
        """Load one flat ``(P,)`` vector into every copy (broadcast, cast
        to the slab's compute dtype)."""
        flat = np.asarray(flat, dtype=self._slab.dtype)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected flat vector of size {self.n_params}, got {flat.shape}")
        self._slab[...] = flat

    def set_slab(self, slab: np.ndarray) -> None:
        """Load per-copy flat parameters from a ``(C, P)`` array."""
        if slab.shape != self._slab.shape:
            raise ValueError(f"expected slab of shape {self._slab.shape}, got {slab.shape}")
        self._slab[...] = slab

    def get_slab(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy of the slab (into ``out`` when given)."""
        if out is None:
            return self._slab.copy()
        out[...] = self._slab
        return out

    def zero_grad(self) -> None:
        self._gslab.fill(0.0)

    # -- compute -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def backward_params(self, dy: np.ndarray) -> None:
        """The training step's backward: every parameter gradient of
        :meth:`backward`, bit for bit, without the input gradient nobody
        reads — the first layer runs its ``backward_params`` when it has
        one (conv, linear, embedding), skipping the input-gradient GEMM and
        fold. :meth:`backward` keeps returning the input gradient, which
        gradient checks need."""
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        getattr(first, "backward_params", first.backward)(dy)

    def forward_eval(self, x: np.ndarray, k: Optional[int] = None) -> np.ndarray:
        """Inference of the leading ``k`` copies over ONE shared input batch.

        ``x`` carries *no* copy axis — it is the batch every copy
        evaluates, as in cross-trial validation sweeps where T models see
        the same pool. Parameter-free prefix layers run the serial kernel
        once; the first parameterised layer fans out to ``(k, B, ...)``
        via a broadcast matmul/gather, after which stacked per-copy
        kernels take over. Nothing is cached (no backward, no memory
        bloat). Per copy the result is the serial model's forward on
        ``x`` — same dgemm shapes, same elementwise ops — which is what
        makes fused evaluation bit-identical to ``client_error_rates``
        on the unstacked models.
        """
        k = self.n_copies if k is None else k
        if not 1 <= k <= self.n_copies:
            raise ValueError(f"k must be in [1, {self.n_copies}], got {k}")
        h, shared = x, True
        for layer in self.layers:
            h, shared = layer.eval_forward(h, k, shared)
        if shared:  # parameter-free model: every copy sees the same output
            h = np.broadcast_to(h, (k,) + h.shape)
        return h
