"""Population-based tuners: FedEx-style weight sharing and FedPop-style
perturbation, both riding the fused cross-trial slab.

The paper's baselines tune *independent* configurations; its closest
neighbours in the literature instead tune a **population** of
same-architecture configurations concurrently:

- **FedEx** (Khodak et al., "Federated Hyperparameter Tuning: Challenges,
  Baselines, and Connections to Weight-Sharing") keeps ONE set of shared
  model weights and a categorical distribution over candidate
  configurations, updated by exponentiated gradient on (noisy) validation
  signal. :class:`WeightSharingTuner` is that scheme at trial
  granularity: every arm trains from the shared weights under its own
  hyperparameters each step, the arms are scored in one
  ``error_rates_many`` sweep through the existing
  :class:`~repro.core.noise.NoisyEvaluator` path, the distribution takes
  an exponentiated-gradient step on the noisy errors, and the shared
  weights become the probability-weighted slab average.

- **FedPop** (Chen et al., "FedPop: Federated Population-based
  Hyperparameter Tuning") evolves the population itself:
  train → evaluate → **exploit** (losers copy winners' model state and
  configuration) → **explore** (perturb the copied client lr / momentum /
  weight decay). :class:`PopulationTuner` implements that loop.

Both are exactly the workload the fused engine was built for: a
population is a permanent rung. Every training step is one
``BaseTuner.train_trials`` batch — which fused mode trains on one
:class:`~repro.fl.cohort.SlabTrainer` slab per local step schedule, in
passes of whole members (members keep their batch size and epochs for
life) — and every scoring pass is one ``observe_many``/``error_rates_many``
batch, stacked through one inference slab. Exploit is an in-slab row
copy and explore a per-row hyperparameter-vector edit
(:func:`repro.nn.optim.copy_slab_rows` / :func:`~repro.nn.optim.perturb_rows`
— the same per-row vectors :func:`~repro.nn.optim.fused_sgd_step` broadcasts),
so population size is nearly free on top of the fused engine: no model
is ever unstacked or restacked between steps.

Equivalence contract (asserted in ``tests/core/test_population.py``): a
population run on a fused runner is bit-identical to the same run on the
serial reference runner — identical observations, curves, final member
parameters, and RNG end states (tuner and every trainer) — whenever no
ragged-batch padding occurs, inheriting the PR 2-4 slab guarantees; a
member that diverges mid-round falls back to the exact serial rerun
without disturbing the rest of the population.

Both tuners require a **live** runner (:class:`FederatedTrialRunner` or
a subclass): they rewrite trial parameters in place between steps, which
a bank-replay runner cannot honour.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluator import Trial, TrialRunner
from repro.core.noise import NoiseConfig
from repro.core.search_space import SearchSpace
from repro.core.tuner import BaseTuner
from repro.fl.trainer import FederatedTrainer
from repro.nn.optim import copy_slab_rows, perturb_rows
from repro.utils.rng import SeedLike


class PopulationTunerBase(BaseTuner):
    """Shared mechanics of the population family: lockstep schedule,
    budget accounting, batched train/score steps, and the live-runner
    contract. Subclasses implement :meth:`_adapt`, called after every
    scored step that further training will follow.

    The whole population advances together: each step trains every member
    ``rounds_per_step`` more rounds (capped at the runner's per-config
    max) as ONE ``advance_many`` batch, then scores every member as ONE
    ``error_rates_many`` batch — the fused runner turns both into
    cross-trial slab passes. The final step may be truncated by budget
    exhaustion exactly as :meth:`BaseTuner.train_trials` truncates it, and
    only the members that received a grant are scored; the upfront
    release count (:meth:`planned_releases`) simulates that arithmetic so
    DP budgeting stays exact.
    """

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        population_size: int = 16,
        rounds_per_step: Optional[int] = None,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source: Optional[Callable[[], Dict]] = None,
    ):
        if population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {population_size}")
        self.population_size = population_size
        self.rounds_per_step = (
            self._default_rounds_per_step(runner)
            if rounds_per_step is None
            else rounds_per_step
        )
        if self.rounds_per_step < 1:
            raise ValueError(f"rounds_per_step must be >= 1, got {self.rounds_per_step}")
        self._config_source = config_source
        self.population: List[Trial] = []
        self._param_stack: Optional[np.ndarray] = None
        super().__init__(space, runner, noise, total_budget, seed)

    # -- schedule ------------------------------------------------------------
    def _default_rounds_per_step(self, runner: TrialRunner) -> int:
        return 1

    def _planned_step_releases(self) -> List[int]:
        """Per-step release counts of the whole run, simulated upfront.

        Pure arithmetic mirror of the run loop + the
        :meth:`BaseTuner.train_trials` ledger: full steps release one
        evaluation per member; the budget-truncated final step trains (and
        therefore releases) only the members up to and including the
        truncated grant, exactly where a serial fund loop stops.
        """
        releases: List[int] = []
        budget = self.total_budget
        done = 0
        n = self.population_size
        max_rounds = self.runner.max_rounds
        while budget > 0 and done < max_rounds:
            need = min(self.rounds_per_step, max_rounds - done)
            if budget >= n * need:
                releases.append(n)
                budget -= n * need
                done += need
            else:
                # Members 0..q-1 get full grants, member q the remainder
                # (or a zero-round truncated grant when it divides evenly);
                # train_trials marks the batch truncated there and the run
                # scores exactly those q+1 members.
                releases.append(budget // need + 1)
                budget = 0
        return releases

    def planned_releases(self) -> int:
        return sum(self._planned_step_releases())

    # -- proposals -----------------------------------------------------------
    def propose(self) -> Dict:
        if self._config_source is not None:
            return self._config_source()
        return self.space.sample(self.rng)

    # -- live-runner plumbing ------------------------------------------------
    def _trainer(self, trial: Trial) -> FederatedTrainer:
        state = trial.state
        if not isinstance(state, FederatedTrainer):
            raise TypeError(
                f"{self.method_name} mutates live trainer state between steps and "
                f"requires a FederatedTrialRunner (trial state is "
                f"{type(state).__name__}); bank-replay runners cannot serve it"
            )
        return state

    def _stack_params(self, trials: Sequence[Trial]) -> np.ndarray:
        """Gather the population's flat parameter vectors into one (N, P)
        slab (buffer reused across steps)."""
        first = self._trainer(trials[0]).params
        if self._param_stack is None:
            self._param_stack = np.empty((len(trials), first.size))
        stack = self._param_stack
        for i, trial in enumerate(trials):
            stack[i] = trial.state.params
        return stack

    def _write_params(self, trial: Trial, flat: np.ndarray) -> None:
        """Overwrite a live trial's model parameters in place (no round
        advance); runner reads are stateless, so the next read scores the
        rewritten model."""
        trial.state.params = np.array(flat, dtype=np.float64)

    # -- execution -----------------------------------------------------------
    def _setup(self, trials: Sequence[Trial]) -> None:
        """Hook: per-run state, called once after the population exists."""

    def _adapt(self, trials: Sequence[Trial], errors: np.ndarray) -> None:
        """Hook: population update from one step's noisy errors. Called
        only when further training follows (budget remains)."""
        raise NotImplementedError

    def _run(self) -> None:
        trials = self.population
        if not trials:
            trials = [self.runner.create(self.propose()) for _ in range(self.population_size)]
            self._trainer(trials[0])  # fail fast on bank-replay runners
            self.population = trials
            self._setup(trials)
            self._checkpoint()
        while not self.ledger.exhausted:
            done = trials[0].rounds
            if done >= self.runner.max_rounds:
                break
            need = min(self.rounds_per_step, self.runner.max_rounds - done)
            planned, snapshots, truncated = self.train_trials(
                (trial, need) for trial in trials
            )
            scores = self.observe_many(
                [(trial, used) for (trial, _), used in zip(planned, snapshots)]
            )
            if truncated or self.ledger.exhausted:
                break
            if trials[0].rounds >= self.runner.max_rounds:
                # No training follows (per-config cap reached): adapting now
                # would rewrite members' parameters AFTER their last
                # observation — the final report must score the models the
                # tuner actually observed, on every termination path.
                break
            self._adapt(trials, np.asarray(scores, dtype=np.float64))
            # Safe boundary: a kill inside the next step replays that
            # whole train/score/adapt generation from here.
            self._checkpoint()

    # -- checkpoint/resume -----------------------------------------------------
    def _cursor_trials(self):
        return self.population

    def _state_extra(self) -> Dict:
        return {"population_ids": [t.trial_id for t in self.population]}

    def _load_state_extra(self, extra: Dict, trials: Dict[int, Trial]) -> None:
        self.population = [trials[tid] for tid in extra["population_ids"]]
        # Scratch slab buffer, reallocated lazily by the next _stack_params.
        self._param_stack = None


class WeightSharingTuner(PopulationTunerBase):
    """FedEx-style weight sharing: one shared model, an exponentiated-
    gradient distribution over a fixed configuration population.

    Per step (default ``rounds_per_step=1``: per-round reweighting):

    1. every arm trains from the current shared weights under its own
       configuration — one fused ``advance_many`` slab pass;
    2. every arm is scored through the noisy evaluator — one stacked
       ``error_rates_many`` sweep, incumbent/curve tracking as usual;
    3. the distribution takes an exponentiated-gradient step,
       ``log p_i ← log p_i − η (e_i − p·e)`` (the probability-weighted
       baseline keeps the update invariant to error offsets);
    4. the shared weights become the probability-weighted average of the
       arm slab, written back into every arm for the next step.

    ``eg_lr=None`` resolves to the Hedge-style schedule
    ``sqrt(2 ln(N) / T)`` with ``T`` the planned step count. Server-side
    optimizer moments stay per-arm (only model weights are shared).

    The tuner's *report* follows the standard noisy-incumbent contract:
    the incumbent is the best single noisy observation, while
    :attr:`probabilities` exposes the final mixture — FedEx's actual
    output — and :attr:`probability_history` the per-step trajectory.
    """

    method_name = "fedex"

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        population_size: int = 16,
        rounds_per_step: Optional[int] = None,
        eg_lr: Optional[float] = None,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source: Optional[Callable[[], Dict]] = None,
    ):
        if eg_lr is not None and eg_lr <= 0:
            raise ValueError(f"eg_lr must be positive, got {eg_lr}")
        super().__init__(
            space,
            runner,
            noise,
            population_size=population_size,
            rounds_per_step=rounds_per_step,
            total_budget=total_budget,
            seed=seed,
            config_source=config_source,
        )
        if eg_lr is None:
            steps = max(1, len(self._planned_step_releases()))
            eg_lr = float(np.sqrt(2.0 * np.log(population_size) / steps))
        self.eg_lr = eg_lr
        self._log_weights = np.zeros(population_size)
        self.probability_history: List[np.ndarray] = []

    def _setup(self, trials: Sequence[Trial]) -> None:
        # FedEx semantics: ONE shared model. The runner draws a distinct
        # init seed per trial, so align every arm on arm 0's
        # initialization before the first step — the first
        # probability-weighted average must mix *aligned* parameters, not
        # N permutation-symmetric random inits.
        shared = self._trainer(trials[0]).params
        for trial in trials[1:]:
            self._write_params(trial, shared)

    @property
    def probabilities(self) -> np.ndarray:
        """The current configuration distribution (softmax of the EG
        log-weights); read-only copy."""
        p = np.exp(self._log_weights - self._log_weights.max())
        p /= p.sum()
        return p

    def _adapt(self, trials: Sequence[Trial], errors: np.ndarray) -> None:
        probs = self.probabilities
        baseline = float(probs @ errors)
        self._log_weights -= self.eg_lr * (errors - baseline)
        self._log_weights -= self._log_weights.max()  # softmax-invariant
        probs = self.probabilities
        self.probability_history.append(probs)
        stack = self._stack_params(trials)
        shared = probs @ stack
        for trial in trials:
            self._write_params(trial, shared)

    # -- checkpoint/resume -----------------------------------------------------
    def _state_extra(self) -> Dict:
        extra = super()._state_extra()
        extra["log_weights"] = np.array(self._log_weights)
        extra["probability_history"] = [np.array(p) for p in self.probability_history]
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict[int, Trial]) -> None:
        super()._load_state_extra(extra, trials)
        self._log_weights = np.array(extra["log_weights"])
        self.probability_history = [np.array(p) for p in extra["probability_history"]]


class PopulationTuner(PopulationTunerBase):
    """FedPop-style population training: periodic evaluate → exploit →
    explore over a concurrently-trained configuration population.

    Per step (default ``rounds_per_step = max_rounds // 27``, the SHA-r0
    shape — ~27 generations to the per-config cap):

    1. the whole population trains one fused slab pass, then scores one
       stacked evaluation sweep (noisy, as everything the tuner sees);
    2. **exploit** — the worst ``exploit_fraction`` members are
       overwritten by the best, rank-paired (best winner → worst loser):
       one :func:`~repro.nn.optim.copy_slab_rows` call copies the
       parameter rows *and* the per-row lr/momentum/weight-decay vectors
       together, the winner's server-optimizer state and configuration
       ride along (batch size and epoch count are structural — they shape
       the slab step schedule — and stay the loser's own);
    3. **explore** — the copied rows' client lr / momentum / weight decay
       are perturbed multiplicatively (factors drawn from
       ``perturb_factors`` on the tuner RNG;
       :func:`~repro.nn.optim.perturb_rows` clips momentum into
       ``[0, 0.9]``), and the new values are pushed into the live
       trainers via :meth:`~repro.fl.trainer.FederatedTrainer.set_local_config`
       so the next slab pass broadcasts them per row.

    Population semantics mean a trial is a *vessel*: its configuration
    and parameters evolve. Observations snapshot the config at scoring
    time, the incumbent's curve values are memoized at observation time,
    and the *current* incumbent's vessel is exempt from exploit — the
    final report (``best_config``, ``final_full_error``) always
    describes the trial that actually produced the best noisy score.
    """

    method_name = "fedpop"

    #: Config keys whose values evolve under exploit/explore, in the
    #: deterministic order explore draws its perturbation factors.
    PERTURB_KEYS: Tuple[str, ...] = (
        "client_lr",
        "client_momentum",
        "client_weight_decay",
    )

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        population_size: int = 16,
        rounds_per_step: Optional[int] = None,
        exploit_fraction: float = 0.25,
        perturb_factors: Sequence[float] = (0.8, 1.25),
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        config_source: Optional[Callable[[], Dict]] = None,
    ):
        if not 0.0 < exploit_fraction <= 0.5:
            raise ValueError(
                f"exploit_fraction must be in (0, 0.5], got {exploit_fraction}"
            )
        if not perturb_factors or any(f <= 0 for f in perturb_factors):
            raise ValueError(f"perturb_factors must be positive, got {perturb_factors}")
        self.exploit_fraction = exploit_fraction
        self.perturb_factors = tuple(float(f) for f in perturb_factors)
        super().__init__(
            space,
            runner,
            noise,
            population_size=population_size,
            rounds_per_step=rounds_per_step,
            total_budget=total_budget,
            seed=seed,
            config_source=config_source,
        )
        self._hp_rows: Dict[str, np.ndarray] = {}

    def _default_rounds_per_step(self, runner: TrialRunner) -> int:
        return max(1, runner.max_rounds // 27)

    def _setup(self, trials: Sequence[Trial]) -> None:
        # The population's per-row hyperparameter vectors — the same (N,)
        # RowHP form fused_sgd_step broadcasts per slab row — seeded from the
        # proposed configs and evolved in place by exploit/explore.
        self._hp_rows = {
            key: np.array([float(t.config[key]) for t in trials])
            for key in self.PERTURB_KEYS
        }

    def _adapt(self, trials: Sequence[Trial], errors: np.ndarray) -> None:
        n = len(trials)
        k = min(max(1, int(n * self.exploit_fraction)), n // 2)
        order = np.argsort(errors, kind="stable")
        winners = order[:k]
        losers = order[n - k :][::-1]  # rank-paired: best winner -> worst loser
        # The incumbent's vessel is never exploited: TuningResult reports
        # best_config / final_full_error from that trial, and overwriting
        # it would pair the run's best noisy score with a config and
        # parameters that never produced it. (A dethroned ex-incumbent
        # becomes exploitable again.) Deterministic given errors + the
        # incumbent id, both identical across serial/fused runs.
        incumbent = self._incumbent
        if incumbent is not None:
            keep = [trials[int(l)].trial_id != incumbent.trial_id for l in losers]
            if not all(keep):
                winners = winners[keep]
                losers = losers[keep]
                k = len(losers)
                if k == 0:
                    return
        # Exploit: one row-copy call moves parameters and every hp vector
        # consistently; server-optimizer state and config ride along.
        stack = self._stack_params(trials)
        hp_rows = [self._hp_rows[key] for key in self.PERTURB_KEYS]
        copy_slab_rows([stack] + hp_rows, winners, losers)
        for w, l in zip(winners, losers):
            winner, loser = trials[int(w)], trials[int(l)]
            loser.state.server_opt = deepcopy(winner.state.server_opt)
            config = dict(winner.config)
            config["batch_size"] = loser.config["batch_size"]
            config["epochs"] = loser.config["epochs"]
            loser.config = config
        # Explore: perturb the copied rows, one vectorized factor draw per
        # knob in PERTURB_KEYS order (deterministic on the tuner RNG).
        factor_pool = np.array(self.perturb_factors)
        perturb_rows(
            self._hp_rows["client_lr"], losers, self.rng.choice(factor_pool, size=k)
        )
        perturb_rows(
            self._hp_rows["client_momentum"],
            losers,
            self.rng.choice(factor_pool, size=k),
            low=0.0,
            high=0.9,
        )
        perturb_rows(
            self._hp_rows["client_weight_decay"],
            losers,
            self.rng.choice(factor_pool, size=k),
            low=0.0,
        )
        # Push the evolved rows back into the live vessels.
        for l in losers:
            l = int(l)
            trial = trials[l]
            self._write_params(trial, stack[l])
            trainer = trial.state
            trainer.set_local_config(
                replace(
                    trainer.local,
                    lr=float(self._hp_rows["client_lr"][l]),
                    momentum=float(self._hp_rows["client_momentum"][l]),
                    weight_decay=float(self._hp_rows["client_weight_decay"][l]),
                )
            )
            for key in self.PERTURB_KEYS:
                trial.config[key] = float(self._hp_rows[key][l])

    # -- checkpoint/resume -----------------------------------------------------
    def _state_extra(self) -> Dict:
        # The evolved per-row hyperparameter vectors; the trainers' local
        # configs need no separate entry — restore rebuilds each trainer
        # from its trial config, which _adapt keeps in sync with the rows.
        extra = super()._state_extra()
        extra["hp_rows"] = {key: np.array(v) for key, v in self._hp_rows.items()}
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict[int, Trial]) -> None:
        super()._load_state_extra(extra, trials)
        self._hp_rows = {key: np.array(v) for key, v in extra["hp_rows"].items()}
