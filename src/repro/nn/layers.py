"""Feed-forward layers: Linear, Conv2D, pooling, activations, embedding."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.initializers import glorot_uniform, normal_init, zeros_init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, as_rng


class Linear(Module):
    """Affine layer ``y = x W + b`` with ``W: (in, out)``."""

    def __init__(self, in_features: int, out_features: int, rng: SeedLike = None, bias: bool = True):
        super().__init__()
        rng = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng), "linear.weight")
        self.bias = Parameter(zeros_init((out_features,)), "linear.bias") if bias else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"Linear expected last dim {self.in_features}, got {x.shape}")
        self._x = x
        y = x @ self.weight.data
        if self.bias is not None:
            y = y + self.bias.data
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        # Support (N, in) and (N, T, in) inputs uniformly.
        x2 = x.reshape(-1, self.in_features)
        dy2 = dy.reshape(-1, self.out_features)
        self.weight.grad += x2.T @ dy2
        if self.bias is not None:
            self.bias.grad += dy2.sum(axis=0)
        return (dy2 @ self.weight.data.T).reshape(x.shape)


class Conv2D(Module):
    """2-D convolution over NCHW inputs, computed as im2col + matmul."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        rng: SeedLike = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(glorot_uniform(shape, rng), "conv.weight")
        self.bias = Parameter(zeros_init((out_channels,)), "conv.bias")
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[tuple] = None
        self._out_hw: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"Conv2D expected (N,{self.in_channels},H,W), got {x.shape}")
        k = self.kernel_size
        cols, out_h, out_w = im2col(x, k, k, self.stride, self.pad)
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (out_h, out_w)
        w2 = self.weight.data.reshape(self.out_channels, -1)  # (out_c, c*k*k)
        y = cols @ w2.T + self.bias.data  # (N*oh*ow, out_c)
        n = x.shape[0]
        return y.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        n, _, out_h, out_w = dy.shape
        dy2 = dy.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)  # (N*oh*ow, out_c)
        self.weight.grad += (dy2.T @ self._cols).reshape(self.weight.shape)
        self.bias.grad += dy2.sum(axis=0)
        dcols = dy2 @ self.weight.data.reshape(self.out_channels, -1)
        k = self.kernel_size
        return col2im(dcols, self._x_shape, k, k, self.stride, self.pad)


class MaxPool2D(Module):
    """Max pooling with square window; window must tile the input exactly."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.pool_size = pool_size
        self._mask: Optional[np.ndarray] = None
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(f"MaxPool2D({p}) requires H,W divisible by {p}, got {h}x{w}")
        xr = x.reshape(n, c, h // p, p, w // p, p)
        y = xr.max(axis=(3, 5))
        # Mask of argmax positions for routing gradients. Ties split the
        # gradient, which keeps the op's Jacobian exact for gradcheck.
        # np.equal writes the float mask directly (bool -> float64 is a
        # safe cast), so only one full-size temporary exists at a time.
        expanded = y[:, :, :, None, :, None]
        mask = np.empty(xr.shape, dtype=np.float64)
        np.equal(xr, expanded, out=mask)
        mask /= mask.sum(axis=(3, 5), keepdims=True)
        self._mask, self._x_shape = mask, x.shape
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        p = self.pool_size
        dyr = dy[:, :, :, None, :, None]
        dx = (self._mask * dyr).reshape(self._x_shape)
        return dx


class Flatten(Module):
    """Collapse all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._x_shape)


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        # Copy + in-place multiply by the bool mask: one output allocation,
        # no np.where broadcast machinery on the hot path.
        out = x.astype(np.float64, copy=True)
        out *= self._mask
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (1.0 - self._y**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Stable piecewise formulation avoids overflow in exp.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._y = out
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._y * (1.0 - self._y)


class Embedding(Module):
    """Token-id lookup table: ``(N, T)`` int ids -> ``(N, T, dim)``."""

    def __init__(self, vocab_size: int, dim: int, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(normal_init((vocab_size, dim), rng, std=0.1), "embedding.weight")
        self._ids: Optional[np.ndarray] = None
        self._dx_zero: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(f"token id out of range [0, {self.vocab_size})")
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.weight.grad, self._ids.ravel(), dy.reshape(-1, self.dim))
        # Ids are not differentiable; return a zero placeholder of id shape,
        # cached by shape so repeated same-shape batches don't re-allocate.
        if self._dx_zero is None or self._dx_zero.shape != self._ids.shape:
            self._dx_zero = np.zeros(self._ids.shape, dtype=np.float64)
        else:
            self._dx_zero.fill(0.0)
        return self._dx_zero
