"""Random search (Algorithm 2 of the paper).

The paper's simple baseline: sample K configs uniformly from the space,
train each for ``budget / K`` rounds (capped at the per-config max), and
pick the one with the best noisy evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.evaluator import TrialRunner
from repro.core.noise import NoiseConfig
from repro.core.search_space import SearchSpace
from repro.core.tuner import BaseTuner
from repro.utils.rng import SeedLike


class RandomSearch(BaseTuner):
    """Paper configuration: ``n_configs = 16``, 405 rounds per config.

    ``config_source`` overrides proposal sampling — the configuration-bank
    bootstrap uses it to resample configs from a pretrained pool, and TPE
    subclasses the same loop with model-based proposals.

    Plain random-search proposals do not depend on earlier evaluations, so
    the run is phased: propose every config, train them all as one
    ``advance_many`` batch (fused runners train it as one slab), then
    evaluate in proposal order. Subclasses whose proposals *are* driven by
    earlier observations (TPE) set ``sequential_proposals = True`` to keep
    the strict propose→train→observe loop.
    """

    method_name = "rs"
    sequential_proposals = False

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        n_configs: int = 16,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source: Optional[Callable[[], Dict]] = None,
    ):
        if n_configs < 1:
            raise ValueError(f"n_configs must be >= 1, got {n_configs}")
        self.n_configs = n_configs
        super().__init__(space, runner, noise, total_budget, seed)
        self._config_source = config_source
        # Resume cursor for the sequential loop: configs fully processed
        # (created, trained, observed) so far.
        self._seq_index = 0

    def planned_releases(self) -> int:
        return self.n_configs

    def propose(self) -> Dict:
        """Next config to try (uniform random unless overridden)."""
        if self._config_source is not None:
            return self._config_source()
        return self.space.sample(self.rng)

    def _run(self) -> None:
        rounds_per_config = max(1, self.total_budget // self.n_configs)
        if self.sequential_proposals:
            # Checkpoints land after each completed iteration; a kill
            # mid-iteration replays it whole from the previous boundary —
            # trial id, seed draw, training, and noise draws all re-derive
            # from the restored tuner/runner RNG states, so the replayed
            # iteration is the one that was interrupted, bit for bit.
            while self._seq_index < self.n_configs:
                if self.ledger.exhausted:
                    break
                trial = self.runner.create(self.propose())
                self.train_trial(trial, rounds_per_config)
                self.observe(trial)
                self._seq_index += 1
                self._checkpoint()
            return
        # Phase 1: propose and fund every config that starts within the
        # budget, training them as one batch. Phase 2: evaluate in
        # proposal order (one error_rates_many batch) with the recorded
        # budget snapshots. _phased_sweep checkpoints between the phases.
        self._phased_sweep(
            (self.propose() for _ in range(self.n_configs)), rounds_per_config
        )

    # -- checkpoint/resume --------------------------------------------------------
    def _state_extra(self) -> Dict:
        return {"seq_index": self._seq_index}

    def _load_state_extra(self, extra: Dict, trials: Dict) -> None:
        self._seq_index = int(extra["seq_index"])
