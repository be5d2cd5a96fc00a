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
tests assert this directly. Padded rows (ragged batches) are excluded via
loss masks, which changes only summation *order* in per-client reductions
(documented tolerance in :mod:`tests.fl.test_cohort`).

Prefix activation: when the first input axis ``k`` is smaller than the
number of copies C, parameterised layers compute with the leading ``k``
parameter copies only (views, no copy). The cohort trainer uses this to
retire clients that have exhausted their local steps without re-building
the stack.

RNG-consuming layers (Dropout) keep their serial stream through a
*pre-draw*: :class:`StackedDropout` receives each copy's generator and
per-step real batch sizes up front and draws every mask of the round in
the exact order the serial loop would, so the generators' end states are
identical (the same trick the cohort trainer uses for batch
permutations). Models whose Dropout layers *share* one generator object
use the shared-generator mode instead: the trainer pre-draws the whole
round's masks eagerly in the serial interleaved order (client → step →
layer in forward order) and installs the finished streams via
:meth:`StackedDropout.install_masks`, so :func:`supports_stacking` is a
purely structural check — every model built from layers with stacked
counterparts trains on the slab. Integer-input (Embedding) and recurrent
(LSTM) layers have stacked counterparts too, so the paper's text models
train in lockstep.

The slab dtype is a :class:`StackedModel` policy resolved by
:func:`resolve_dtype` (float64 default, the bit-exact serial reference;
opt-in float32 halves slab memory). Scratch buffers follow the input's
dtype (``np.empty(..., dtype=<input>.dtype)``, ``out=`` ufunc forms) so
float32 never silently upcasts.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.nn.functional import col2im, im2col, log_softmax, softmax
from repro.nn.layers import (
    Conv2D,
    Dropout,
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
from repro.nn.recurrent import LSTM, _sigmoid

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

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        k = x.shape[0]
        x3 = x.reshape(k, -1, self.in_features)
        dy3 = dy.reshape(k, -1, self.out_features)
        self.weight.grad[:k] += np.matmul(x3.transpose(0, 2, 1), dy3)
        if self.bias is not None:
            self.bias.grad[:k] += dy3.sum(axis=1)
        return np.matmul(dy3, self.weight.data[:k].transpose(0, 2, 1)).reshape(x.shape)


class StackedConv2D(Module):
    """C independent 2-D convolutions over ``(k, B, C_in, H, W)`` inputs.

    im2col runs once over the collapsed ``(k*B, ...)`` image stack (the
    unfold is per-image, so collapsing is exact); the per-copy weights then
    apply as one batched ``(k, B*oh*ow, ckk) @ (k, ckk, out_c)`` matmul.
    """

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        ksz = self.kernel_size
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)
        if shared:
            # The unfold is copy-independent, so run it once on the shared
            # batch and broadcast the column matrix across the k copies.
            b = x.shape[0]
            cols, out_h, out_w = im2col(x, ksz, ksz, self.stride, self.pad)
            y = np.matmul(cols, w2.transpose(0, 2, 1))  # (k, B*oh*ow, out_c)
        else:
            kk, b = x.shape[:2]
            cols, out_h, out_w = im2col(
                x.reshape((kk * b,) + x.shape[2:]), ksz, ksz, self.stride, self.pad
            )
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels or x.shape[0] > self.n_copies:
            raise ValueError(
                f"StackedConv2D expected (k<={self.n_copies}, B, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        k, b = x.shape[:2]
        ksz = self.kernel_size
        cols, out_h, out_w = im2col(
            x.reshape((k * b,) + x.shape[2:]), ksz, ksz, self.stride, self.pad
        )
        cols = cols.reshape(k, b * out_h * out_w, -1)
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (out_h, out_w)
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)  # (k, out_c, ckk)
        y = np.matmul(cols, w2.transpose(0, 2, 1))  # (k, B*oh*ow, out_c)
        y += self.bias.data[:k, None, :]
        return y.reshape(k, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        k, b = self._x_shape[:2]
        out_h, out_w = self._out_hw
        dy2 = dy.transpose(0, 1, 3, 4, 2).reshape(k, b * out_h * out_w, self.out_channels)
        self.weight.grad[:k] += np.matmul(dy2.transpose(0, 2, 1), self._cols).reshape(
            (k,) + self.weight.shape[1:]
        )
        self.bias.grad[:k] += dy2.sum(axis=1)
        w2 = self.weight.data[:k].reshape(k, self.out_channels, -1)
        dcols = np.matmul(dy2, w2).reshape(k * b * out_h * out_w, -1)
        ksz = self.kernel_size
        dx = col2im(dcols, (k * b,) + self._x_shape[2:], ksz, ksz, self.stride, self.pad)
        return dx.reshape(self._x_shape)


class StackedMaxPool2D(MaxPool2D):
    """Max pooling over ``(k, B, C_in, H, W)``: pooling is per-window, so
    the serial kernel applies verbatim on the collapsed ``(k*B, ...)``
    image stack — one kernel to maintain, identical tie handling."""

    def __init__(self, pool_size: int = 2):
        super().__init__(pool_size)
        self._stack_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, b = x.shape[:2]
        self._stack_shape = x.shape
        y = MaxPool2D.forward(self, x.reshape((k * b,) + x.shape[2:]))
        return y.reshape((k, b) + y.shape[1:])

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._stack_shape is None:
            raise RuntimeError("backward called before forward")
        k, b = self._stack_shape[:2]
        dx = MaxPool2D.backward(self, dy.reshape((k * b,) + dy.shape[2:]))
        return dx.reshape(self._stack_shape)

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        # Pooling is per-window and parameter-free: a shared input stays
        # shared, and no argmax mask is cached.
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


def _relu_eval(x: np.ndarray) -> np.ndarray:
    # Mirrors ReLU.forward exactly (copy + in-place bool-mask multiply),
    # including its NaN/inf propagation for diverged models. The compute
    # dtype follows the slab (float32 slabs stay float32).
    dt = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = x.astype(dt, copy=True)
    out *= x > 0
    return out


def _sigmoid_eval(x: np.ndarray) -> np.ndarray:
    # Mirrors Sigmoid.forward's stable piecewise formulation elementwise.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class StackedReLU(ReLU):
    """ReLU over ``(k, B, ...)`` — elementwise, so the serial kernel is
    already stacked; the subclass only documents the shape contract."""

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return _relu_eval(x), shared


class StackedTanh(Tanh):
    """Tanh over ``(k, B, ...)`` (elementwise; serial kernel reused)."""

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return np.tanh(x), shared


class StackedSigmoid(Sigmoid):
    """Sigmoid over ``(k, B, ...)`` (elementwise; serial kernel reused)."""

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        return _sigmoid_eval(x), shared


class StackedDropout(Module):
    """Inverted dropout over ``(k, B, ...)`` with per-copy RNG streams.

    The serial :class:`~repro.nn.layers.Dropout` draws one keep mask per
    batch from the *layer's own* generator, so a cohort's serial loop
    consumes that stream client by client, step by step. Lockstep compute
    visits steps in a different order, so masks are **pre-drawn**: before
    a round the trainer calls :meth:`begin_round` with, per copy, the
    generator that copy's serial pass would draw from and the real
    (unpadded) batch size of each of its local steps, listed in serial
    visit order. The draws themselves happen lazily at the round's first
    forward (when the feature shape is known) but in exactly the serial
    order, so every generator's end state is bit-identical to the serial
    path's. Padded tail rows of a ragged step multiply by 1.0 (identity);
    the loss mask removes them from gradients.

    Shared-generator mode: when several Dropout layers draw from one
    generator object, the serial draw order interleaves *across layers*
    (client → step → layer in forward order), which per-layer lazy
    pre-draw cannot reproduce. The trainer then draws every mask of the
    round itself, in that interleaved order (using
    :meth:`begin_shape_probe` to learn each layer's feature shape
    without consuming RNG), and installs each layer's finished stream via
    :meth:`install_masks` — forward consumes the installed masks exactly
    as it would its own lazy draws.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        # Plan entries, serial draw order: (rng, step_sizes, slot) — slot
        # is the copy's row position in the (sorted) slab.
        self._plan: Optional[List[tuple]] = None
        self._masks: Optional[List[List[np.ndarray]]] = None
        self._step = 0
        self._mult: Optional[np.ndarray] = None
        self._mult_buf: Optional[np.ndarray] = None  # grow-only scratch
        self._probe = False
        #: Feature shape observed by the last shape probe (see
        #: :meth:`begin_shape_probe`).
        self.probe_shape: Optional[tuple] = None

    def begin_round(self, plan: Sequence[tuple]) -> None:
        """Install the round's draw plan (see class docstring) and drop
        any masks from the previous round."""
        self._plan = list(plan)
        self._masks = None
        self._step = 0

    def begin_shape_probe(self) -> None:
        """Arm a one-shot shape probe: the next training forward records
        ``x.shape[2:]`` into :attr:`probe_shape` and passes ``x`` through
        untouched — no masks drawn, no generator consumed. The trainer
        uses this to learn per-layer feature shapes before an eager
        shared-generator pre-draw."""
        self._probe = True
        self.probe_shape = None

    def install_masks(self, masks: Sequence[Optional[List[np.ndarray]]]) -> None:
        """Install externally pre-drawn masks (shared-generator mode).

        ``masks[slot][t]`` is the keep mask of copy ``slot`` at its local
        step ``t``, already scaled by ``1/keep`` — exactly what
        :meth:`_draw_masks` would have produced, but drawn by the trainer
        in the serial interleaved order across all layers sharing a
        generator."""
        self._plan = []
        self._masks = list(masks)
        self._step = 0

    def set_step(self, t: int) -> None:
        """Select which lockstep step the next forward serves."""
        self._step = t

    def _draw_masks(self, feat_shape: tuple) -> None:
        keep = 1.0 - self.rate
        masks: List[Optional[List[np.ndarray]]] = [None] * len(self._plan)
        for rng, sizes, slot in self._plan:
            masks[slot] = [(rng.random((b,) + feat_shape) < keep) / keep for b in sizes]
        self._masks = masks

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self._probe:
            # One-shot shape probe: record the feature shape, touch nothing.
            self.probe_shape = x.shape[2:]
            self._probe = False
            self._mult = None
            return x
        if not self.training or self.rate == 0.0:
            self._mult = None
            return x
        if self._plan is None and self._masks is None:
            raise RuntimeError("StackedDropout.forward before begin_round")
        if self._masks is None:
            self._draw_masks(x.shape[2:])
        k, width = x.shape[:2]
        t = self._step
        # Grow-only scratch (the per-step loop is otherwise
        # allocation-free): mask rows are written in full, and only the
        # padded tail of a ragged step is set to 1.0 (identity).
        buf = self._mult_buf
        if (
            buf is None
            or buf.dtype != x.dtype
            or buf.shape[2:] != x.shape[2:]
            or buf.shape[0] < k
            or buf.shape[1] < width
        ):
            grow = (max(k, buf.shape[0] if buf is not None else 0),
                    max(width, buf.shape[1] if buf is not None else 0))
            buf = self._mult_buf = np.empty(grow + x.shape[2:], dtype=x.dtype)
        mult = buf[:k, :width]
        for pos in range(k):
            m = self._masks[pos][t]
            mult[pos, : m.shape[0]] = m
            if m.shape[0] < width:
                mult[pos, m.shape[0] :] = 1.0
        self._mult = mult
        return x * mult

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mult is None:
            return dy
        return dy * self._mult

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        # Inference dropout is the identity (as in the serial layer's eval
        # mode); no mask plan or generator state is touched, so evaluating
        # from a training slab never perturbs its pre-drawn streams.
        return x, shared


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

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.weight.grad, (self._copy_idx, self._ids), dy)
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
    """C independent LSTM cells; gate layout [i, f, g, o] as in the serial
    :class:`~repro.nn.recurrent.LSTMCell`, with a leading copy axis on
    every matrix (``w_x: (C, in, 4h)``, ``w_h: (C, h, 4h)``, ``bias:
    (C, 4h)``) and one batched matmul per gate projection."""

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, bias: np.ndarray):
        super().__init__()
        if w_x.ndim != 3 or w_h.ndim != 3 or bias.ndim != 2:
            raise ValueError("stacked LSTM cell weights must carry a leading copy axis")
        self.n_copies, self.input_size, four_h = w_x.shape
        self.hidden_size = four_h // 4
        self.w_x = Parameter(w_x, "stacked_lstm.w_x")
        self.w_h = Parameter(w_h, "stacked_lstm.w_h")
        self.bias = Parameter(bias, "stacked_lstm.bias")

    def step(
        self, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """One time step over ``(k, B, ·)`` stacks; mirrors the serial
        cell's arithmetic kernel for kernel."""
        k = x_t.shape[0]
        h_sz = self.hidden_size
        gates = (
            np.matmul(x_t, self.w_x.data[:k])
            + np.matmul(h_prev, self.w_h.data[:k])
            + self.bias.data[:k, None, :]
        )
        i = _sigmoid(gates[:, :, 0 * h_sz : 1 * h_sz])
        f = _sigmoid(gates[:, :, 1 * h_sz : 2 * h_sz])
        g = np.tanh(gates[:, :, 2 * h_sz : 3 * h_sz])
        o = _sigmoid(gates[:, :, 3 * h_sz : 4 * h_sz])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = (x_t, h_prev, c_prev, i, f, g, o, tanh_c)
        return h, c, cache

    def step_backward(
        self, dh: np.ndarray, dc: np.ndarray, cache: tuple
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = cache
        k = x_t.shape[0]
        do = dh * tanh_c
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        di = dc_total * g
        df = dc_total * c_prev
        dg = dc_total * i
        dc_prev = dc_total * f
        dgates = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=2,
        )
        self.w_x.grad[:k] += np.matmul(x_t.transpose(0, 2, 1), dgates)
        self.w_h.grad[:k] += np.matmul(h_prev.transpose(0, 2, 1), dgates)
        self.bias.grad[:k] += dgates.sum(axis=1)
        dx_t = np.matmul(dgates, self.w_x.data[:k].transpose(0, 2, 1))
        dh_prev = np.matmul(dgates, self.w_h.data[:k].transpose(0, 2, 1))
        return dx_t, dh_prev, dc_prev

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("StackedLSTMCell must be driven by StackedLSTM")

    def backward(self, dy: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("StackedLSTMCell must be driven by StackedLSTM")


class StackedLSTM(Module):
    """C lockstep LSTMs over ``(k, B, T, D)`` inputs, zero initial state
    per sequence (stateless), returning all hidden states."""

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
        self._caches = [[] for _ in self.cells]
        h_sz = self.hidden_size
        inputs = x
        for layer, cell in enumerate(self.cells):
            h = np.zeros((k, n, h_sz), dtype=x.dtype)
            c = np.zeros((k, n, h_sz), dtype=x.dtype)
            outputs = np.empty((k, n, t_steps, h_sz), dtype=x.dtype)
            for t in range(t_steps):
                h, c, cache = cell.step(inputs[:, :, t, :], h, c)
                self._caches[layer].append(cache)
                outputs[:, :, t, :] = h
            inputs = outputs
        return inputs

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        k, n, t_steps, h_sz = self._k, self._batch, self._t_steps, self.hidden_size
        if dy.shape != (k, n, t_steps, h_sz):
            raise ValueError(f"StackedLSTM backward expected {(k, n, t_steps, h_sz)}, got {dy.shape}")
        dinputs = dy
        for layer in range(self.num_layers - 1, -1, -1):
            cell = self.cells[layer]
            dx = np.zeros((k, n, t_steps, cell.input_size), dtype=dy.dtype)
            dh = np.zeros((k, n, h_sz), dtype=dy.dtype)
            dc = np.zeros((k, n, h_sz), dtype=dy.dtype)
            for t in range(t_steps - 1, -1, -1):
                dh_total = dh + dinputs[:, :, t, :]
                dx_t, dh, dc = cell.step_backward(dh_total, dc, self._caches[layer][t])
                dx[:, :, t, :] = dx_t
            dinputs = dx
        return dinputs

    def eval_forward(self, x: np.ndarray, k: int, shared: bool) -> Tuple[np.ndarray, bool]:
        # Cache-free inference mirroring the serial cell's arithmetic
        # kernel for kernel. A still-shared input only stays shared for the
        # very first gate projection (matmul broadcasts it against the
        # stacked w_x); the recurrent state is per-copy from step one.
        h_sz = self.hidden_size
        inputs = x
        for cell in self.cells:
            if shared:
                n, t_steps = inputs.shape[0], inputs.shape[1]
            else:
                n, t_steps = inputs.shape[1], inputs.shape[2]
            h = np.zeros((k, n, h_sz), dtype=inputs.dtype)
            c = np.zeros((k, n, h_sz), dtype=inputs.dtype)
            outputs = np.empty((k, n, t_steps, h_sz), dtype=inputs.dtype)
            for t in range(t_steps):
                x_t = inputs[:, t, :] if shared else inputs[:, :, t, :]
                gates = (
                    np.matmul(x_t, cell.w_x.data[:k])
                    + np.matmul(h, cell.w_h.data[:k])
                    + cell.bias.data[:k, None, :]
                )
                i = _sigmoid(gates[:, :, 0 * h_sz : 1 * h_sz])
                f = _sigmoid(gates[:, :, 1 * h_sz : 2 * h_sz])
                g = np.tanh(gates[:, :, 2 * h_sz : 3 * h_sz])
                o = _sigmoid(gates[:, :, 3 * h_sz : 4 * h_sz])
                c = f * c + i * g
                h = o * np.tanh(c)
                outputs[:, :, t, :] = h
            inputs = outputs
            shared = False
        return inputs, False


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
    logp = log_softmax(logits, axis=2)
    rows = np.arange(c)[:, None], np.arange(b)[None, :], labels
    nll = -logp[rows]  # (C, B)
    dlogits = softmax(logits, axis=2)
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

    Mirrors :func:`repro.nn.losses.sequence_cross_entropy` per copy (the
    serial client loss is called without a token mask, so each copy's loss
    averages over all ``B*T`` tokens of its unmasked rows). ``mask`` is the
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
    logp = log_softmax(flat, axis=2)
    rows = np.arange(c)[:, None], np.arange(b * t)[None, :], flat_labels
    nll = -logp[rows]  # (C, B*T)
    dflat = softmax(flat, axis=2)
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
#: this to translate a TaskSpec's ``loss_fn``; tasks whose loss is not here
#: fall back to serial training.
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
    Dropout: lambda layer, n: StackedDropout(layer.rate),
    Embedding: _stack_embedding,
    LSTM: _stack_lstm,
}

#: Structural attributes (beyond parameter shapes) that distinguish two
#: same-type leaves with different compute graphs, for :func:`stack_signature`.
_SIGNATURE_EXTRAS: Dict[Type[Module], Callable[[Module], tuple]] = {
    Conv2D: lambda l: (l.stride, l.pad),
    MaxPool2D: lambda l: (l.pool_size,),
    Dropout: lambda l: (l.rate,),
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
    """True iff every leaf layer of ``module`` has a stacked counterpart.

    A purely structural check. Models whose active Dropout layers share
    one generator object stack too: the cohort trainer detects the
    sharing and switches to the eager interleaved mask pre-draw
    (:meth:`StackedDropout.install_masks`), which reproduces the serial
    loop's cross-layer draw order from the single stream exactly.
    """
    return _stackable_leaves(module) is not None


def collect_dropout_rngs(module: Module) -> List[np.random.Generator]:
    """Generators of the module's *active* Dropout leaves, in leaf order.

    The cohort trainer snapshots these around a lockstep attempt (mask
    pre-draw consumes them) and hands them to the stacked model's
    :class:`StackedDropout` layers — index-aligned with the stacked
    counterpart's active (rate > 0) Dropout layers in leaf order, the
    same filter applied here.
    """
    return [
        leaf.rng for leaf in _iter_leaves(module) if isinstance(leaf, Dropout) and leaf.rate > 0
    ]


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
    fused runner groups ``advance_many`` batches by this key). The key
    captures leaf types, parameter shapes, and the structural attributes
    in ``_SIGNATURE_EXTRAS`` — everything that shapes the forward/backward
    kernels — but not parameter *values*, which live in the slab rows.
    """
    if not supports_stacking(module):
        return None
    return _signature_parts(list(_iter_leaves(module)))


def eval_stack_signature(module: Module) -> Optional[tuple]:
    """Architecture key for *inference* stacking, or ``None``.

    Equal to :func:`stack_signature` for every stackable model (the two
    checks are both structural now that shared-generator Dropout trains
    on the slab); kept as a separate seam because inference stacking has
    strictly weaker requirements — a future training-side refusal must
    not cost models their fused evaluation. The fused evaluation engine
    groups same-signature models onto one
    :meth:`StackedModel.forward_eval` inference slab.
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
        # Structural coverage only: generators are supplied per round via
        # begin_round/install_masks, so Dropout stream handling is the
        # trainers' job, not the model's.
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

    def forward_eval(self, x: np.ndarray, k: Optional[int] = None) -> np.ndarray:
        """Inference of the leading ``k`` copies over ONE shared input batch.

        ``x`` carries *no* copy axis — it is the batch every copy
        evaluates, as in cross-trial validation sweeps where T models see
        the same pool. Parameter-free prefix layers run the serial kernel
        once; the first parameterised layer fans out to ``(k, B, ...)``
        via a broadcast matmul/gather, after which stacked per-copy
        kernels take over. Nothing is cached (no backward, no memory
        bloat) and training state (Dropout plans/streams) is untouched,
        so a *training* slab can be borrowed for evaluation between
        rounds. Per copy the result is the serial model's forward on
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
