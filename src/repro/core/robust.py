"""Noise-aware tuning variants (the paper's §5/§6 future-work directions).

Two simple mitigations practitioners reach for, implemented with honest
privacy accounting so their true trade-offs are visible:

- :class:`ResampledRandomSearch` — evaluate each config on ``m``
  independent cohorts and aggregate. Averaging cuts subsampling variance
  by ~1/m, but under DP each extra release splits the privacy budget
  further (M = K·m releases ⇒ per-release noise scale grows by m while
  averaging only recovers √m), so resampling *helps against subsampling
  noise and backfires under tight DP* — quantifying the paper's remark
  that such tricks "vary in effectiveness" (Hertel et al., 2020).

- :class:`TwoStageRandomSearch` — a cheap screening pass over K configs
  followed by re-evaluation of the top-``k`` finalists on fresh cohorts.
  Fresh finalist evaluations decorrelate selection from screening noise
  (a config that got a lucky cohort must get lucky twice).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.evaluator import TrialRunner
from repro.core.noise import NoiseConfig, NoisyEvaluation
from repro.core.random_search import RandomSearch
from repro.core.search_space import SearchSpace
from repro.utils.rng import SeedLike


class ResampledRandomSearch(RandomSearch):
    """Random search with ``n_resamples`` independent evaluations per config.

    ``aggregate`` is ``"mean"`` or ``"median"`` (median resists the
    heavy-tailed Laplace noise better).
    """

    method_name = "rs-resampled"

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        n_configs: int = 16,
        n_resamples: int = 3,
        aggregate: str = "mean",
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source=None,
    ):
        if n_resamples < 1:
            raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
        if aggregate not in ("mean", "median"):
            raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
        self.n_resamples = n_resamples
        self.aggregate = aggregate
        super().__init__(
            space,
            runner,
            noise,
            n_configs=n_configs,
            total_budget=total_budget,
            seed=seed,
            config_source=config_source,
        )

    def planned_releases(self) -> int:
        # Honest accounting: every resample is a separate DP release.
        return self.n_configs * self.n_resamples

    def _combine(self, evaluations: List[NoisyEvaluation]) -> NoisyEvaluation:
        # The n_resamples releases of one trial, drawn back to back from the
        # tuner's stream and scored on the union of their cohorts.
        agg = np.mean if self.aggregate == "mean" else np.median
        return NoisyEvaluation(
            error=float(agg([e.error for e in evaluations])),
            cohort=np.unique(np.concatenate([e.cohort for e in evaluations])),
            exact_subsampled_error=float(agg([e.exact_subsampled_error for e in evaluations])),
        )


class TwoStageRandomSearch(RandomSearch):
    """Screen K configs, then re-evaluate the top ``n_finalists`` on fresh
    cohorts and select among only those re-evaluations."""

    method_name = "rs-two-stage"

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        n_configs: int = 16,
        n_finalists: int = 4,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source=None,
    ):
        if n_finalists < 1:
            raise ValueError(f"n_finalists must be >= 1, got {n_finalists}")
        self.n_finalists = n_finalists
        # Resume cursor for stage 2: the selected finalists and how many
        # have been re-evaluated (stage 1 rides the shared _phase cursor).
        self._stage = None
        super().__init__(
            space,
            runner,
            noise,
            n_configs=n_configs,
            total_budget=total_budget,
            seed=seed,
            config_source=config_source,
        )

    def planned_releases(self) -> int:
        return self.n_configs + min(self.n_finalists, self.n_configs)

    def _run(self) -> None:
        rounds_per_config = max(1, self.total_budget // self.n_configs)
        if self._stage is None:
            if self._phase is None:
                trials, snapshots = self.create_and_train(
                    (self.propose() for _ in range(self.n_configs)), rounds_per_config
                )
                self._phase = {"trials": trials, "snapshots": snapshots}
                self._checkpoint()
            trials = self._phase["trials"]
            screening = self.observe_many(zip(trials, self._phase["snapshots"]))
            self._phase = None
            if not trials:
                return
            # Stage 2: fresh evaluations for the screening top-k. The final
            # incumbent is decided purely by stage-2 scores.
            order = np.argsort(screening, kind="stable")
            finalists = [trials[i] for i in order[: self.n_finalists]]
            self._incumbent = None
            self._incumbent_noisy = np.inf
            self._stage = {"finalists": finalists, "next": 0}
            self._checkpoint()
        stage = self._stage
        finalists = stage["finalists"]
        while stage["next"] < len(finalists):
            self.observe(finalists[stage["next"]])
            stage["next"] += 1
            self._checkpoint()
        self._stage = None

    # -- checkpoint/resume --------------------------------------------------------
    def _cursor_trials(self):
        return self._stage["finalists"] if self._stage is not None else ()

    def _state_extra(self):
        extra = super()._state_extra()
        extra["stage"] = (
            {
                "finalist_ids": [t.trial_id for t in self._stage["finalists"]],
                "next": self._stage["next"],
            }
            if self._stage is not None
            else None
        )
        return extra

    def _load_state_extra(self, extra, trials) -> None:
        super()._load_state_extra(extra, trials)
        stage = extra["stage"]
        self._stage = (
            {
                "finalists": [trials[tid] for tid in stage["finalist_ids"]],
                "next": int(stage["next"]),
            }
            if stage is not None
            else None
        )
