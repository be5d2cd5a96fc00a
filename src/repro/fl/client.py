"""Client-side local training and evaluation (``ClientOPT`` in Algorithm 2)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.base import ClientData, TaskSpec
from repro.nn.module import Module, get_flat_params, set_flat_params
from repro.nn.optim import SGD
from repro.utils.rng import SeedLike, as_rng


class ClientTrainer:
    """Runs local SGD on one client and returns the updated parameters.

    Mirrors the paper's client setup (Appendix B): SGD with momentum and
    weight decay, a tunable batch size, and a fixed number of local epochs
    (1 in all paper experiments). The trainer reuses a single shared model
    object — the caller passes global parameters in and receives updated
    parameters out, so no per-client model allocation happens.
    """

    def __init__(
        self,
        task: TaskSpec,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        batch_size: int = 32,
        epochs: int = 1,
        prox_mu: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"client lr must be positive, got {lr}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if prox_mu < 0:
            raise ValueError(f"prox_mu must be >= 0, got {prox_mu}")
        self.task = task
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.epochs = epochs
        self.prox_mu = prox_mu

    def train(
        self,
        model: Module,
        global_params: np.ndarray,
        client: ClientData,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Local training from ``global_params``; returns updated flat params.

        Momentum state is per-invocation (clients are stateless across
        rounds in cross-device FL — a device may never be sampled twice).
        """
        rng = as_rng(rng)
        set_flat_params(model, global_params)
        opt = SGD(
            model.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        params = model.parameters()
        anchors = [p.data.copy() for p in params] if self.prox_mu > 0 else None
        n = client.n
        # Divergence (lr too large) is a designed code path: overflow in the
        # forward pass is caught via the finite-loss check, not raised.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                order = rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    idx = order[start : start + self.batch_size]
                    xb, yb = client.x[idx], client.y[idx]
                    model.zero_grad()
                    logits = model(xb)
                    loss, dlogits = self.task.loss_fn(logits, yb)
                    if not np.isfinite(loss):
                        # Diverged config: stop local work; the caller sees
                        # a bad error rate, which is the signal HP tuning
                        # acts on.
                        return get_flat_params(model)
                    model.backward(dlogits)
                    if anchors is not None:
                        # FedProx (Li et al., 2020): proximal pull towards
                        # the round's global parameters bounds client drift.
                        for p, anchor in zip(params, anchors):
                            p.grad += self.prox_mu * (p.data - anchor)
                    opt.step()
        return get_flat_params(model)


def evaluate_client(
    model: Module, client: ClientData, task: TaskSpec
) -> Tuple[int, int]:
    """Error counts ``(n_wrong, n_total)`` of ``model`` on one client's data."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = model(client.x)
    if not np.all(np.isfinite(logits)):
        # A diverged model mispredicts everything by convention.
        _, n_total = task.error_fn(np.zeros_like(logits), client.y)
        return n_total, n_total
    return task.error_fn(logits, client.y)
