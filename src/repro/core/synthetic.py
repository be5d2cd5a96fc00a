"""A synthetic response-surface trial runner.

Useful for fast, deterministic testing of tuning methods and for noise
ablations: instead of training real models, each config maps to an
analytic learning curve with a config-dependent error floor and per-client
heterogeneity offsets. The surface is shaped like the paper's real ones:

- a log-quadratic bowl over the two learning rates with an optimum inside
  the search box;
- divergence (error ≈ 1) when the client learning rate is too large;
- per-client offsets with controllable spread (data heterogeneity);
- exponential learning curves so early-stopping methods see fidelity
  structure.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.evaluator import Trial, TrialRunner
from repro.utils.rng import SeedLike, as_rng


def default_quality(config: Dict) -> float:
    """Error floor for a config: bowl over (log10 server_lr, log10 client_lr).

    Optimum near server_lr = 1e-2, client_lr = 1e-1 with floor 0.05;
    diverges (0.95) when client_lr > 0.5.
    """
    ls = np.log10(config["server_lr"])
    lc = np.log10(config["client_lr"])
    if config["client_lr"] > 0.5:
        return 0.95
    floor = 0.05 + 0.04 * (ls + 2.0) ** 2 + 0.04 * (lc + 1.0) ** 2
    return float(min(floor, 0.95))


class SyntheticRunner(TrialRunner):
    """Deterministic analytic stand-in for :class:`FederatedTrialRunner`.

    ``error(config, rounds, client k)`` =
    ``clip(q + (e0 - q) * exp(-rounds/tau) + delta_k, 0, 1)`` where ``q`` is
    the config's floor, ``e0 = 0.95`` the untrained error, ``tau`` the
    learning-curve timescale, and ``delta_k`` a fixed per-client offset
    with standard deviation ``heterogeneity``.
    """

    def __init__(
        self,
        n_clients: int = 20,
        max_rounds: int = 81,
        quality_fn: Callable[[Dict], float] = default_quality,
        heterogeneity: float = 0.05,
        tau_fraction: float = 0.25,
        seed: SeedLike = 0,
        client_sizes: Optional[np.ndarray] = None,
    ):
        super().__init__(max_rounds)
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        if heterogeneity < 0:
            raise ValueError(f"heterogeneity must be >= 0, got {heterogeneity}")
        rng = as_rng(seed)
        self.n_clients = n_clients
        self.quality_fn = quality_fn
        self.tau = max(1.0, tau_fraction * max_rounds)
        self.client_offsets = rng.normal(0.0, heterogeneity, size=n_clients)
        if client_sizes is None:
            client_sizes = np.maximum(rng.poisson(50, size=n_clients), 1)
        self.client_sizes = np.asarray(client_sizes, dtype=np.float64)
        if self.client_sizes.shape != (n_clients,):
            raise ValueError("client_sizes must have shape (n_clients,)")

    def _init_trial(self, trial: Trial) -> None:
        trial.state = float(self.quality_fn(trial.config))

    def _advance_trial(self, trial: Trial, rounds: int) -> None:
        pass  # analytic curve — nothing to do; trial.rounds is the state

    def error_rates(self, trial: Trial) -> np.ndarray:
        q = trial.state
        e0 = 0.95
        level = q + (e0 - q) * np.exp(-trial.rounds / self.tau)
        return np.clip(level + self.client_offsets, 0.0, 1.0)

    def eval_weights(self, scheme: str) -> np.ndarray:
        if scheme == "weighted":
            return self.client_sizes
        if scheme == "uniform":
            return np.ones(self.n_clients)
        raise ValueError(f"unknown scheme {scheme!r}")
