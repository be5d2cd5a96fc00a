"""Gaussian-process Bayesian optimization: EI and noise-aware NEI.

The paper's §5 points out that the most common BO acquisition — expected
improvement (EI) — "assumes noiseless evaluations and is known to suffer
in the presence of noise", and §6 names noisy-BO techniques (NEI, KG) as a
future direction for federated HP tuning. This module implements both
sides of that comparison:

- ``acquisition="ei"`` — classic EI with the *best observed* (noisy) value
  as the incumbent: the noise-naive baseline.
- ``acquisition="nei"`` — a noise-aware EI in the spirit of Letham et al.
  (2019): the incumbent is the minimum *posterior mean* over observed
  configs, so one lucky noisy observation cannot freeze the incumbent, and
  the GP's likelihood-selected noise nugget absorbs evaluation noise.

Both run the same sequential loop as :class:`repro.core.RandomSearch`
(K configs, full per-config training), differing only in how the next
config is proposed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.evaluator import TrialRunner
from repro.core.gp import fit_gp_with_model_selection
from repro.core.noise import NoiseConfig
from repro.core.random_search import RandomSearch
from repro.core.search_space import SearchSpace
from repro.utils.rng import SeedLike


def expected_improvement(mean: np.ndarray, var: np.ndarray, incumbent: float) -> np.ndarray:
    """EI for *minimisation*: ``E[max(incumbent - f, 0)]`` under N(mean, var)."""
    from scipy.stats import norm

    std = np.sqrt(np.asarray(var, dtype=np.float64))
    improve = incumbent - np.asarray(mean, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improve / std, 0.0)
    ei = improve * norm.cdf(z) + std * norm.pdf(z)
    return np.where(std > 0, ei, np.maximum(improve, 0.0))


class GPBO(RandomSearch):
    """Sequential GP-based tuner over the unit-cube embedding of the space.

    ``n_candidates`` random points are scored by the acquisition each
    iteration; the best is proposed. The first ``n_startup`` proposals are
    random (the GP needs data).
    """

    method_name = "gp-bo"
    # The GP is fit on earlier observations, so the strict
    # propose -> train -> observe loop must be preserved.
    sequential_proposals = True

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        n_configs: int = 16,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        acquisition: str = "ei",
        n_candidates: int = 128,
        n_startup: int = 4,
    ):
        if acquisition not in ("ei", "nei"):
            raise ValueError(f"acquisition must be 'ei' or 'nei', got {acquisition!r}")
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        if n_startup < 1:
            raise ValueError(f"n_startup must be >= 1, got {n_startup}")
        self.acquisition = acquisition
        self.n_candidates = n_candidates
        self.n_startup = n_startup
        self._xs: List[np.ndarray] = []
        self._ys: List[float] = []
        super().__init__(space, runner, noise, n_configs=n_configs, total_budget=total_budget, seed=seed)
        self.method_name = f"gp-bo-{acquisition}"

    def propose(self) -> Dict:
        if len(self._ys) < self.n_startup:
            return self.space.sample(self.rng)
        x = np.array(self._xs)
        y = np.array(self._ys)
        gp = fit_gp_with_model_selection(x, y)
        candidates = self.rng.random((self.n_candidates, x.shape[1]))
        mean, var = gp.posterior(candidates)
        if self.acquisition == "ei":
            incumbent = float(y.min())  # noise-naive: trusts the noisy best
        else:
            post_mean_at_obs, _ = gp.posterior(x)
            incumbent = float(post_mean_at_obs.min())  # noise-aware
        scores = expected_improvement(mean, var, incumbent)
        best = candidates[int(np.argmax(scores))]
        return self.space.from_unit_vector(best)

    def _observe(self, trial, budget_used, evaluation, in_hand) -> float:
        noisy = super()._observe(trial, budget_used, evaluation, in_hand)
        self._xs.append(self.space.to_unit_vector(trial.config))
        self._ys.append(noisy)
        return noisy

    # -- checkpoint/resume --------------------------------------------------------
    def _state_extra(self) -> Dict:
        extra = super()._state_extra()
        extra["gp_xs"] = [np.array(x) for x in self._xs]
        extra["gp_ys"] = [float(y) for y in self._ys]
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict) -> None:
        super()._load_state_extra(extra, trials)
        self._xs = [np.array(x) for x in extra["gp_xs"]]
        self._ys = [float(y) for y in extra["gp_ys"]]
