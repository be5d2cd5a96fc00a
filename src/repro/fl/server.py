"""Server optimizers (``ServerOPT`` in Algorithm 2).

:class:`FedAdam` is the adaptive federated optimizer of Reddi et al.
(2020): the round's aggregated client update is treated as a pseudo-gradient
``Δ_t = w_t - avg_k(w_k)`` and fed to a server-side Adam step.
The paper tunes FedAdam's learning rate and both moment-decay rates, with a
fixed multiplicative lr decay γ = 0.9999 per round (Appendix B).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ServerOptimizer:
    """Base class: stateful update rule on flat parameter vectors."""

    # Mutable attributes that fully determine future updates; subclasses
    # extend this to cover their moment buffers. state_dict()/
    # load_state_dict() round-trip exactly these, which is what lets a
    # checkpointed trainer resume bit-identically (see repro.engine).
    _STATE_ATTRS = ("_t",)

    def __init__(self, lr: float, lr_decay: float = 1.0):
        if lr <= 0:
            raise ValueError(f"server lr must be positive, got {lr}")
        if not 0.0 < lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {lr_decay}")
        self.base_lr = lr
        self.lr_decay = lr_decay
        self._t = 0

    def state_dict(self) -> dict:
        """Copy of all mutable optimizer state."""
        out = {}
        for name in self._STATE_ATTRS:
            value = getattr(self, name)
            out[name] = value.copy() if isinstance(value, np.ndarray) else value
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        for name in self._STATE_ATTRS:
            value = state[name]
            setattr(self, name, value.copy() if isinstance(value, np.ndarray) else value)

    @property
    def current_lr(self) -> float:
        """Learning rate after decay: ``lr * γ^t``."""
        return self.base_lr * self.lr_decay**self._t

    def step(self, params: np.ndarray, pseudo_grad: np.ndarray) -> np.ndarray:
        """Apply one server update and return the new parameters."""
        if params.shape != pseudo_grad.shape:
            raise ValueError(
                f"shape mismatch: params {params.shape} vs pseudo-grad {pseudo_grad.shape}"
            )
        new_params = self._update(params, pseudo_grad)
        self._t += 1
        return new_params

    def _update(self, params: np.ndarray, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class FedAdam(ServerOptimizer):
    """FedAdam (Reddi et al. 2020) — the paper's tuned server optimizer.

    ``m <- β1·m + (1-β1)·Δ``; ``v <- β2·v + (1-β2)·Δ²``;
    ``w <- w - lr_t · m / (sqrt(v) + τ)``. The paper's search space
    (Appendix B): ``log10 lr ~ U[-6, -1]``, ``beta1 ~ U[0, 0.9]``,
    ``beta2 ~ U[0, 0.999]``, γ = 0.9999.
    """

    _STATE_ATTRS = ("_t", "_m", "_v")

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.99,
        tau: float = 1e-3,
        lr_decay: float = 1.0,
    ):
        super().__init__(lr, lr_decay)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.tau = tau
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def _update(self, params: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * g
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * g**2
        return params - self.current_lr * self._m / (np.sqrt(self._v) + self.tau)
