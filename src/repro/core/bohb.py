"""BOHB (Falkner et al., 2018): Hyperband with TPE proposals.

BOHB keeps Hyperband's bracket/rung schedule but replaces uniform random
config sampling with proposals from TPE models fit per fidelity level. The
model at the highest fidelity with enough observations drives proposals;
until then sampling stays random (matching BOHB's "start with random
sampling, gradually switch to higher-fidelity models" behaviour).

Because the models are fit on *noisy* rung evaluations, BOHB inherits both
failure modes the paper studies: HB's noisy eliminations and TPE's
noise-corrupted density split.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.evaluator import Trial, TrialRunner
from repro.core.hyperband import Hyperband
from repro.core.noise import NoiseConfig
from repro.core.search_space import SearchSpace
from repro.core.tpe import TPESampler
from repro.utils.rng import SeedLike


class BOHB(Hyperband):
    """Hyperband + per-fidelity TPE proposal models."""

    method_name = "bohb"

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        eta: int = 3,
        n_brackets: Optional[int] = 5,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        gamma: float = 0.25,
        n_candidates: int = 24,
        min_points_in_model: int = 4,
    ):
        super().__init__(
            space,
            runner,
            noise,
            eta=eta,
            n_brackets=n_brackets,
            total_budget=total_budget,
            seed=seed,
        )
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.min_points_in_model = min_points_in_model
        self._models: Dict[int, TPESampler] = {}

    def _model_for(self, rounds: int) -> TPESampler:
        model = self._models.get(rounds)
        if model is None:
            model = TPESampler(
                self.space,
                gamma=self.gamma,
                n_candidates=self.n_candidates,
                n_startup=self.min_points_in_model,
                seed=self.rng,
            )
            self._models[rounds] = model
        return model

    def propose(self) -> Dict:
        """Sample from the highest-fidelity model that has enough points."""
        for rounds in sorted(self._models, reverse=True):
            model = self._models[rounds]
            if model.n_observations >= self.min_points_in_model:
                return model.suggest()
        return self.space.sample(self.rng)

    def _observe(self, trial: Trial, budget_used, evaluation, in_hand) -> float:
        noisy = super()._observe(trial, budget_used, evaluation, in_hand)
        self._model_for(trial.rounds).tell(trial.config, noisy)
        return noisy

    # -- checkpoint/resume --------------------------------------------------------
    def _state_extra(self) -> Dict:
        # Only the per-fidelity observation histories need saving: each
        # sampler draws from the tuner's own RNG object (seed=self.rng),
        # whose state the base snapshot already carries.
        extra = super()._state_extra()
        extra["models"] = {
            rounds: [(dict(c), float(s)) for c, s in model._history]
            for rounds, model in self._models.items()
        }
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict) -> None:
        super()._load_state_extra(extra, trials)
        self._models = {}
        for rounds, history in extra["models"].items():
            model = self._model_for(int(rounds))
            model._history = [(dict(c), float(s)) for c, s in history]
