"""First-order optimizers operating on a module's parameters.

The paper's client optimizer is SGD with momentum and weight decay
(Appendix B); Adam is included both for completeness and because the server
FedAdam update reuses its moment arithmetic (see :mod:`repro.fl.server`).

The fused slab kernels (:func:`fused_sgd_step`, :class:`FlatSGD`,
:func:`copy_slab_rows`, :func:`perturb_rows`) are dtype-polymorphic: the
buffers they receive carry the slab's compute dtype, and scalar
hyperparameters stay in that dtype under NumPy's weak scalar promotion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.nn.module import Module, Parameter

#: A hyperparameter that is either one scalar for the whole buffer or a
#: per-row ``(R,)`` vector for a stacked ``(R, P)`` slab.
RowHP = Union[float, np.ndarray]


def _as_row_hp(value: RowHP, name: str, params: np.ndarray) -> tuple:
    """Normalise a scalar-or-per-row hyperparameter for slab ufunc calls.

    Returns ``(factor, active)``: ``factor`` broadcasts against ``params``
    (the scalar itself, or the vector reshaped to a column), and ``active``
    is True when any row's value is nonzero (gates the optional branches
    exactly as scalar truthiness used to).
    """
    if isinstance(value, np.ndarray):
        if value.shape != (params.shape[0],):
            raise ValueError(
                f"per-row {name} must be shape ({params.shape[0]},), got {value.shape}"
            )
        return value.reshape((-1,) + (1,) * (params.ndim - 1)), bool(np.any(value))
    return value, bool(value)


class Optimizer:
    """Base optimizer bound to a fixed parameter list."""

    def __init__(self, params: List[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = lr

    @classmethod
    def for_module(cls, module: Module, **kwargs) -> "Optimizer":
        """Construct for all parameters of ``module``."""
        return cls(module.parameters(), **kwargs)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """SGD with classical momentum and decoupled weight decay.

    ``v <- momentum * v + grad + weight_decay * w``; ``w <- w - lr * v``.
    This is the client-side optimizer in every experiment.
    """

    def __init__(
        self,
        params: List[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = self.momentum * v + grad
                self._velocity[id(p)] = v
                update = v
            else:
                update = grad
            p.data -= self.lr * update


def fused_sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    lr: RowHP,
    momentum: RowHP = 0.0,
    weight_decay: RowHP = 0.0,
    velocity: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> None:
    """One SGD update over a whole flat (or stacked) buffer, in place.

    Applies exactly :class:`SGD`'s rule — ``v <- momentum * v + grad +
    weight_decay * w``; ``w <- w - lr * v`` — as a handful of whole-buffer
    ufunc calls instead of a Python loop over parameters. Because the rule
    is elementwise (and addition is commutative), the result is
    bit-identical to running :class:`SGD` over any per-parameter slicing
    of the same buffers.

    ``lr``/``momentum``/``weight_decay`` may each be a scalar or, for a
    stacked ``(R, P)`` slab, a per-row ``(R,)`` vector — the fused trial
    runner trains many configurations' rows in one slab this way. A
    per-row value broadcasts as a column, so every element of row ``r``
    sees the same scalar arithmetic the scalar path applies, making the
    vector path row-for-row bit-identical to R scalar calls (one caveat:
    a row with ``momentum == 0`` inside a mixed vector still routes
    through the velocity buffer, which preserves values but can flip the
    sign of a ``-0.0`` gradient — beneath every documented tolerance).

    ``params`` is updated in place. ``velocity`` (required iff any row's
    ``momentum`` is nonzero) is the momentum buffer, also updated in
    place; pass the same buffer to successive calls. ``grads`` is never
    mutated. ``work`` (same shape, scratch) makes the step allocation-free.
    """
    if work is not None and work.shape != params.shape:
        raise ValueError(f"work buffer shape {work.shape} != params shape {params.shape}")
    lr, _ = _as_row_hp(lr, "lr", params)
    momentum, momentum_any = _as_row_hp(momentum, "momentum", params)
    weight_decay, weight_decay_any = _as_row_hp(weight_decay, "weight_decay", params)
    if weight_decay_any:
        if work is None:
            grads = grads + weight_decay * params
        else:
            np.multiply(params, weight_decay, out=work)
            work += grads
            grads = work
    if momentum_any:
        if velocity is None:
            raise ValueError("momentum > 0 requires a velocity buffer")
        velocity *= momentum
        velocity += grads
        update = velocity
    else:
        update = grads
    if update is work:
        # The scratch already holds the update; scale it in place.
        work *= lr
        params -= work
    elif work is None:
        params -= lr * update
    else:
        np.multiply(update, lr, out=work)
        params -= work


def copy_slab_rows(buffers, src, dst) -> None:
    """Exploit-style in-place row copies across row-aligned buffers.

    ``buffers`` is a sequence of arrays sharing one leading (row) axis — a
    stacked ``(R, P)`` parameter slab plus any per-row ``(R,)``
    hyperparameter vectors (the :data:`RowHP` form ``fused_sgd_step``
    broadcasts per slab row). For each pair ``src[j] -> dst[j]``, row
    ``dst[j]`` of every buffer is overwritten with row ``src[j]`` — the
    population tuners' *exploit* move, applied to parameters and
    hyperparameters in one call so the copied state stays consistent.

    ``src`` and ``dst`` must be disjoint (a row cannot be both survivor
    and victim in one exploit step) and ``dst`` rows unique.
    """
    buffers = list(buffers)
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(f"src/dst must be 1-D and equal length, got {src.shape}, {dst.shape}")
    if np.intersect1d(src, dst).size:
        raise ValueError("src and dst rows overlap; winners cannot also be overwritten")
    if len(np.unique(dst)) != dst.size:
        raise ValueError(f"dst rows must be unique, got {dst.tolist()}")
    rows = None
    for buf in buffers:
        if buf.ndim < 1:
            raise ValueError("buffers must have at least one (row) dimension")
        if rows is None:
            rows = buf.shape[0]
        elif buf.shape[0] != rows:
            raise ValueError(
                f"row-axis mismatch across buffers: {buf.shape[0]} vs {rows}"
            )
    for buf in buffers:
        buf[dst] = buf[src]


def perturb_rows(
    values: np.ndarray,
    rows,
    factors,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> None:
    """In-place multiplicative perturbation of selected rows of a per-row
    hyperparameter vector, with optional clipping into a valid domain.

    ``values[rows[j]] <- clip(values[rows[j]] * factors[j], low, high)`` —
    the population tuners' *explore* move over the ``(R,)`` lr / momentum
    / weight-decay vectors that :func:`fused_sgd_step` and
    :class:`FlatSGD` broadcast per slab row. Multiplicative factors keep
    sign-constrained knobs (positive lr, non-negative weight decay) in
    domain without per-knob special cases.
    """
    rows = np.asarray(rows, dtype=np.intp)
    factor_dtype = (
        values.dtype if np.issubdtype(values.dtype, np.floating) else np.float64
    )
    factors = np.asarray(factors, dtype=factor_dtype)
    if factors.shape != rows.shape:
        raise ValueError(f"factors shape {factors.shape} != rows shape {rows.shape}")
    perturbed = values[rows] * factors
    if low is not None or high is not None:
        np.clip(perturbed, low, high, out=perturbed)
    values[rows] = perturbed


class FlatSGD:
    """:class:`SGD` fused over one flat parameter buffer.

    Where :class:`SGD` loops over a module's parameter list, this operates
    on a single ``(P,)`` vector — or a stacked ``(C, P)`` slab holding C
    independent parameter copies with per-row momentum state — which is
    what the lockstep slab trainer (:mod:`repro.fl.cohort`) runs local
    SGD on. Updates are bit-identical to the per-parameter loop.

    Each hyperparameter may also be a per-row ``(C,)`` vector, giving
    every slab row its own learning rate / momentum / weight decay — the
    trial-fused runner trains whole tuner rungs this way, one
    configuration per row group.
    """

    def __init__(self, lr: RowHP, momentum: RowHP = 0.0, weight_decay: RowHP = 0.0):
        if np.any(np.asarray(lr) <= 0):
            raise ValueError(f"learning rate must be positive, got {lr}")
        if np.any(np.asarray(momentum) < 0) or np.any(np.asarray(momentum) >= 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if np.any(np.asarray(weight_decay) < 0):
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop momentum state (e.g. between federated rounds, where client
        momentum is per-invocation)."""
        self._velocity = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place from ``grads`` (same shape)."""
        if params.shape != grads.shape:
            raise ValueError(
                f"shape mismatch: params {params.shape} vs grads {grads.shape}"
            )
        velocity = None
        if np.any(self.momentum):
            if self._velocity is None or self._velocity.shape != params.shape:
                self._velocity = np.zeros_like(params)
            velocity = self._velocity
        fused_sgd_step(
            params,
            grads,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            velocity=velocity,
        )


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: List[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p in self.params:
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            self._m[id(p)], self._v[id(p)] = m, v
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
