"""Centralized training runner (the paper's Algorithm 1).

Proxy data is *server-side and public* (§4), so the server can tune
hyperparameters with ordinary centralized training — no client sampling,
no communication rounds, no evaluation noise. :class:`CentralizedTrialRunner`
trains on the pooled training split with the config's client-side
optimizer settings; one "round" is one SGD epoch, which keeps budget
accounting comparable with the federated runners.

Evaluation still reports *per-client* error rates over the validation
pool, so the noise stack and all tuners work unchanged — with
``NoiseConfig()`` (the default) this is exactly Algorithm 1.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.evaluator import Trial, TrialRunner
from repro.datasets.base import FederatedDataset
from repro.fl.evaluation import client_error_rates, federated_error
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.utils.rng import SeedLike, as_rng


class _CentralizedState:
    """Per-trial payload: model, optimizer, pooled data, shuffle stream."""

    def __init__(self, model: Module, opt: SGD, x: np.ndarray, y: np.ndarray, rng):
        self.model = model
        self.opt = opt
        self.x = x
        self.y = y
        self.rng = rng


class CentralizedTrialRunner(TrialRunner):
    """Algorithm-1 runner: pooled-data SGD, one epoch per 'round'."""

    def __init__(
        self,
        dataset: FederatedDataset,
        max_rounds: int,
        seed: SeedLike = 0,
    ):
        super().__init__(max_rounds)
        self.dataset = dataset
        self._seed_rng = as_rng(seed)
        x = np.concatenate([c.x for c in dataset.train_clients])
        y = np.concatenate([c.y for c in dataset.train_clients])
        self._train_x, self._train_y = x, y
        self._rates_cache: Dict[int, tuple] = {}

    def _init_trial(self, trial: Trial) -> None:
        cfg = trial.config
        model_seed = int(self._seed_rng.integers(0, 2**63 - 1))
        model = self.dataset.task.build_model(model_seed)
        opt = SGD(
            model.parameters(),
            lr=cfg["client_lr"],
            momentum=cfg["client_momentum"],
            weight_decay=cfg["client_weight_decay"],
        )
        trial.state = _CentralizedState(
            model, opt, self._train_x, self._train_y, as_rng(model_seed)
        )

    def _advance_trial(self, trial: Trial, rounds: int) -> None:
        # Any cached rate vector describes an earlier round count.
        self._rates_cache.pop(trial.trial_id, None)
        state: _CentralizedState = trial.state
        batch = int(trial.config["batch_size"])
        n = len(state.x)
        task = self.dataset.task
        # Divergence is caught by the finite-loss check; overflow warnings
        # in the forward pass are expected on that path.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(rounds):  # one epoch per round
                order = state.rng.permutation(n)
                for start in range(0, n, batch):
                    idx = order[start : start + batch]
                    state.model.zero_grad()
                    logits = state.model(state.x[idx])
                    loss, dlogits = task.loss_fn(logits, state.y[idx])
                    if not np.isfinite(loss):
                        return  # diverged: freeze, evaluation reflects it
                    state.model.backward(dlogits)
                    state.opt.step()

    def error_rates(self, trial: Trial) -> np.ndarray:
        cached = self._rates_cache.get(trial.trial_id)
        if cached is not None and cached[0] == trial.rounds:
            return cached[1]
        rates = client_error_rates(
            trial.state.model, self.dataset.eval_clients, self.dataset.task
        )
        # Read-only, so callers cannot corrupt the cached copy.
        rates.setflags(write=False)
        self._rates_cache[trial.trial_id] = (trial.rounds, rates)
        return rates

    def retire(self, trial: Trial) -> None:
        """Release the trial's cached rate vector (same contract as the
        federated runner: retiring is a memory hint, re-reads still work)."""
        self._rates_cache.pop(trial.trial_id, None)

    def full_error(self, trial: Trial, scheme: str = "weighted") -> float:
        return federated_error(self.error_rates(trial), self.dataset.eval_weights(scheme))

    def eval_weights(self, scheme: str) -> np.ndarray:
        return self.dataset.eval_weights(scheme)
