"""Successive Halving and Hyperband (Li et al., 2017).

SHA trains ``n`` configs for ``r0`` rounds, keeps the top ``n/η`` by
(noisy) evaluation, triples their budget, and repeats. Hyperband hedges
SHA's aggressiveness by running several brackets that trade off "many
configs, short training" against "few configs, long training".

The paper runs 5 brackets with η = 3 and a 405-round per-config cap; at a
budget of 6480 total rounds the bracket list cycles until exhaustion.

Under differential privacy each rung evaluation is a separate release, so
HB's many low-fidelity evaluations dilute the privacy budget — the paper's
Observation 6 mechanism. :meth:`Hyperband.planned_releases` counts them
exactly by simulating the deterministic schedule upfront.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.evaluator import TrialRunner
from repro.core.noise import NoiseConfig
from repro.core.search_space import SearchSpace
from repro.core.tuner import BaseTuner
from repro.utils.rng import SeedLike


def sha_rungs(n_configs: int, r0: int, eta: int, max_rounds: int) -> List[Tuple[int, int]]:
    """The (configs, cumulative rounds) schedule of one SHA bracket.

    Mirrors the paper's Appendix A: eliminate down by ``η`` per rung until
    fewer than ``η`` configs remain or the round cap is reached.
    """
    if n_configs < 1 or r0 < 1 or eta < 2 or max_rounds < r0:
        raise ValueError(
            f"invalid SHA schedule: n={n_configs}, r0={r0}, eta={eta}, max={max_rounds}"
        )
    rungs = []
    n, r = n_configs, r0
    while True:
        rungs.append((n, r))
        survivors = n // eta
        if survivors < 1 or r >= max_rounds:
            return rungs
        n = survivors
        r = min(r * eta, max_rounds)


def bracket_specs(max_rounds: int, eta: int, n_brackets: Optional[int] = None) -> List[Tuple[int, int]]:
    """Hyperband bracket list as ``(n_configs, r0)`` pairs.

    Bracket ``s`` starts ``n_s = ceil(B/(s+1) · η^s / R · ...)`` configs at
    ``r0 = R·η^{-s}`` — we use the standard Li et al. shapes with
    ``s_max = floor(log_η R)`` capped at ``n_brackets - 1``. The paper's
    setting (R = 405, η = 3, 5 brackets) yields r0 = 5, 15, 45, 135, 405.
    """
    if max_rounds < 1 or eta < 2:
        raise ValueError(f"invalid bracket parameters: R={max_rounds}, eta={eta}")
    s_max = int(np.floor(np.log(max_rounds) / np.log(eta)))
    if n_brackets is not None:
        if n_brackets < 1:
            raise ValueError(f"n_brackets must be >= 1, got {n_brackets}")
        s_max = min(s_max, n_brackets - 1)
    specs = []
    for s in range(s_max, -1, -1):
        n = int(np.ceil((s_max + 1) / (s + 1) * eta**s))
        r0 = max(1, int(round(max_rounds * eta ** (-s))))
        specs.append((n, r0))
    return specs


def bracket_cost(n_configs: int, r0: int, eta: int, max_rounds: int) -> int:
    """Total training rounds one bracket consumes if run to completion."""
    cost = 0
    prev_r = 0
    for n, r in sha_rungs(n_configs, r0, eta, max_rounds):
        cost += n * (r - prev_r)
        prev_r = r
    return cost


class Hyperband(BaseTuner):
    """Hyperband under noisy federated evaluation.

    ``config_source`` lets BOHB replace the random proposals; every rung
    evaluation flows through :meth:`BaseTuner.observe`, so incumbent
    tracking automatically reflects HB's vulnerability: a lucky noisy
    low-fidelity evaluation can capture the incumbent.
    """

    method_name = "hb"

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        eta: int = 3,
        n_brackets: Optional[int] = 5,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source: Optional[Callable[[], Dict]] = None,
    ):
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        self.eta = eta
        self.n_brackets = n_brackets
        self._specs = bracket_specs(runner.max_rounds, eta, n_brackets)
        self._max_rounds = runner.max_rounds
        self._config_source = config_source
        # Resume cursor: the bracket in flight ({"spec", "trials", "rung"})
        # and how many brackets have completed (indexes the cycling spec
        # list).
        self._bracket: Optional[Dict] = None
        self._bracket_idx = 0
        super().__init__(space, runner, noise, total_budget, seed)

    # -- schedule accounting ----------------------------------------------------
    def _planned_brackets(self) -> List[Tuple[int, int]]:
        """Brackets that will *start* within the budget (cycling the list)."""
        planned = []
        budget = self.total_budget
        i = 0
        while budget > 0 and i < 10_000:
            spec = self._specs[i % len(self._specs)]
            planned.append(spec)
            budget -= bracket_cost(spec[0], spec[1], self.eta, self._max_rounds)
            i += 1
        return planned

    def planned_releases(self) -> int:
        """Exact count of rung evaluations across all planned brackets."""
        releases = 0
        for n, r0 in self._planned_brackets():
            releases += sum(rn for rn, _ in sha_rungs(n, r0, self.eta, self._max_rounds))
        return releases

    # -- proposals ---------------------------------------------------------------
    def propose(self) -> Dict:
        if self._config_source is not None:
            return self._config_source()
        return self.space.sample(self.rng)

    # -- execution ----------------------------------------------------------------
    def _start_bracket(self, n_configs: int, r0: int) -> None:
        trials = [self.runner.create(self.propose()) for _ in range(n_configs)]
        self._bracket = {"spec": (n_configs, r0), "trials": trials, "rung": 0}
        self._checkpoint()

    def _run_bracket(self) -> bool:
        """Run the active bracket from its rung cursor; returns whether
        the budget ran out mid-bracket (ends the whole run)."""
        bracket = self._bracket
        n_configs, r0 = bracket["spec"]
        rungs = sha_rungs(n_configs, r0, self.eta, self._max_rounds)
        while bracket["rung"] < len(rungs):
            rung_idx = bracket["rung"]
            n_active, target_rounds = rungs[rung_idx]
            active = bracket["trials"][:n_active]
            # A rung's trials are independent: grant their budget serially,
            # train them as one advance_many batch (fused runners train it
            # as one slab), then evaluate them as one error_rates_many
            # batch (stacked runners score the whole rung in a single
            # fused sweep). Evaluation-noise draws and budget
            # snapshots land exactly as in a serial loop.
            planned, snapshots, truncated = self.train_trials(
                (trial, target_rounds - trial.rounds) for trial in active
            )
            scores = self.observe_many(
                [(trial, used) for (trial, _), used in zip(planned, snapshots)]
            )
            if truncated:
                return True
            # Promote the best ``n // eta`` (by noisy score) to the next rung.
            order = np.argsort(scores, kind="stable")
            reordered = [active[i] for i in order]
            # Rung losers are never advanced or read again: drop them from
            # the cursor so checkpoints carry only the survivors the next
            # rung trains.
            survivors = rungs[rung_idx + 1][0] if rung_idx + 1 < len(rungs) else 0
            bracket["trials"] = reordered[:survivors]
            bracket["rung"] = rung_idx + 1
            if self.ledger.exhausted:
                return True
            self._checkpoint()
        return False

    def _run(self) -> None:
        while True:
            if self._bracket is not None:
                exhausted_mid = self._run_bracket()
                self._bracket = None
                self._bracket_idx += 1
                if exhausted_mid:
                    return
                self._checkpoint()
            if self.ledger.exhausted:
                return
            n, r0 = self._specs[self._bracket_idx % len(self._specs)]
            self._start_bracket(n, r0)

    # -- checkpoint/resume --------------------------------------------------------
    def _cursor_trials(self):
        return self._bracket["trials"] if self._bracket is not None else ()

    def _state_extra(self) -> Dict:
        extra: Dict = {"bracket_idx": self._bracket_idx, "bracket": None}
        if self._bracket is not None:
            extra["bracket"] = {
                "spec": list(self._bracket["spec"]),
                "rung": self._bracket["rung"],
                "trial_ids": [t.trial_id for t in self._bracket["trials"]],
            }
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict) -> None:
        self._bracket_idx = int(extra["bracket_idx"])
        bracket = extra["bracket"]
        self._bracket = (
            {
                "spec": tuple(bracket["spec"]),
                "rung": int(bracket["rung"]),
                "trials": [trials[tid] for tid in bracket["trial_ids"]],
            }
            if bracket is not None
            else None
        )

