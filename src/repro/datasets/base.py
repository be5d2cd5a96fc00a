"""Federated dataset containers and task specifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import SeedLike


@dataclass
class ClientData:
    """One client's local dataset.

    ``x`` is features — images ``(n, C, H, W)`` for image tasks or integer
    token sequences ``(n, T)`` for text tasks. ``y`` is labels — ``(n,)``
    class ids or ``(n, T)`` next-token targets.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"x/y length mismatch: {len(self.x)} vs {len(self.y)}")
        if len(self.x) == 0:
            raise ValueError("a client must hold at least one example")

    @property
    def n(self) -> int:
        """Number of local examples (sequences count as one example each)."""
        return len(self.x)

    def subset(self, idx: np.ndarray) -> "ClientData":
        """Return a new ClientData restricted to ``idx``."""
        return ClientData(self.x[idx], self.y[idx])


@dataclass
class TaskSpec:
    """Everything the FL simulator needs to know about a learning task.

    ``build_model(seed)`` must be deterministic in the seed; the
    configuration-bank methodology depends on it.

    ``loss_fn(logits, y) -> (loss, dlogits)`` terminates the backward graph.

    ``error_fn(logits, y) -> (n_wrong, n_total)`` returns error *counts* so
    callers can aggregate per-client error rates with any weighting.
    """

    kind: str  # "classification" | "next_token"
    build_model: Callable[[SeedLike], Module]
    loss_fn: Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]
    error_fn: Callable[[np.ndarray, np.ndarray], Tuple[int, int]]

    def __post_init__(self) -> None:
        if self.kind not in ("classification", "next_token"):
            raise ValueError(f"unknown task kind: {self.kind!r}")


def classification_error(logits: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """Error counts for flat classification: argmax misses over a batch."""
    preds = logits.argmax(axis=-1)
    return int((preds != y).sum()), int(y.size)


def next_token_error(logits: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """Per-token error counts for next-token prediction."""
    preds = logits.argmax(axis=-1)
    return int((preds != y).sum()), int(y.size)


@dataclass
class FederatedDataset:
    """A federated dataset: disjoint train and validation client pools.

    Matches the paper's §2.1 setup — data is partitioned *by client* into
    ``N_tr`` training and ``N_val`` validation clients.
    """

    name: str
    task: TaskSpec
    train_clients: List[ClientData]
    eval_clients: List[ClientData]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.train_clients:
            raise ValueError("need at least one training client")
        if not self.eval_clients:
            raise ValueError("need at least one validation client")

    @property
    def num_train_clients(self) -> int:
        return len(self.train_clients)

    @property
    def num_eval_clients(self) -> int:
        return len(self.eval_clients)

    def eval_weights(self, scheme: str = "weighted") -> np.ndarray:
        """Per-validation-client weights ``p_val,k`` (paper footnote 1).

        ``weighted``: client k's weight is its example count.
        ``uniform``: every client weighs 1 (required under DP so evaluation
        sensitivity is independent of local dataset sizes).
        """
        if scheme == "weighted":
            return np.array([c.n for c in self.eval_clients], dtype=np.float64)
        if scheme == "uniform":
            return np.ones(len(self.eval_clients), dtype=np.float64)
        raise ValueError(f"unknown weighting scheme: {scheme!r}")

    def train_weights(self, scheme: str = "weighted") -> np.ndarray:
        """Per-training-client weights ``p_tr,k`` (same schemes as eval)."""
        if scheme == "weighted":
            return np.array([c.n for c in self.train_clients], dtype=np.float64)
        if scheme == "uniform":
            return np.ones(len(self.train_clients), dtype=np.float64)
        raise ValueError(f"unknown weighting scheme: {scheme!r}")
