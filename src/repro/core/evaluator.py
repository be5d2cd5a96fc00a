"""Trial runners: the bridge between tuning methods and model training.

A *trial* is one hyperparameter configuration being trained. Tuners talk to
trials exclusively through :class:`TrialRunner`, which hides whether models
are trained live (:class:`FederatedTrialRunner`) or replayed from a
precomputed configuration bank (:class:`repro.experiments.bank.BankTrialRunner`
— the paper's own bootstrap methodology).

Reads are stateless: a runner keeps no per-trial rates, so every read
scores the trial's model as it is now. A read covers the whole validation
pool or a given set of its clients — a noisy release's cohort
(:meth:`repro.core.tuner.BaseTuner.observe_many` draws the cohorts first).
The live runner scores through one
:class:`repro.fl.evaluation.StackedEvalEngine` for batches and single
trials alike, on the clients asked for only; runners that hold full-pool
rates anyway (the bank and synthetic runners) slice them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import FederatedDataset
from repro.fl.evaluation import StackedEvalEngine, federated_error
from repro.fl.server import FedAdam
from repro.fl.trainer import FederatedTrainer, LocalTrainingConfig
from repro.utils.rng import SeedLike, as_rng


def config_to_trainer(
    config: Dict,
    dataset: FederatedDataset,
    clients_per_round: int = 10,
    scheme: str = "weighted",
    seed: SeedLike = 0,
    cohort_mode: Optional[str] = None,
    cohort_dtype=None,
) -> FederatedTrainer:
    """Instantiate a :class:`FederatedTrainer` from a paper-space config."""
    server_opt = FedAdam(
        lr=config["server_lr"],
        beta1=config["server_beta1"],
        beta2=config["server_beta2"],
        lr_decay=config["server_lr_decay"],
    )
    local = LocalTrainingConfig(
        lr=config["client_lr"],
        momentum=config["client_momentum"],
        weight_decay=config["client_weight_decay"],
        batch_size=config["batch_size"],
        epochs=config["epochs"],
    )
    return FederatedTrainer(
        dataset,
        server_opt,
        local,
        clients_per_round=clients_per_round,
        scheme=scheme,
        seed=seed,
        cohort_mode=cohort_mode,
        cohort_dtype=cohort_dtype,
    )


@dataclass
class Trial:
    """Handle to one configuration under training.

    ``failures`` counts advances hit by an injected trial fault; at the
    runner's ``max_trial_failures`` the trial is ``failed`` — quarantined:
    it burns any budget still granted to it with frozen training state and
    reads error 1.0 (the diverged-model convention), but never aborts the
    run.
    """

    trial_id: int
    config: Dict
    rounds: int = 0
    state: Optional[object] = None  # runner-private payload
    failed: bool = False
    failures: int = 0


class TrialRunner:
    """Abstract trial lifecycle: create → advance → read error rates.

    ``max_rounds`` caps per-trial training (the paper's 405-round cap);
    ``rounds_used`` tracks total training rounds consumed across all trials
    — the budget axis of every online figure.
    """

    #: Failure count at which a trial is quarantined (overridden by an
    #: attached fault plan's ``max_trial_failures``).
    max_trial_failures: int = 2

    def __init__(self, max_rounds: int):
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self.rounds_used = 0
        self._next_id = 0
        self.faults = None

    # -- fault injection -------------------------------------------------------
    def set_fault_plan(self, plan) -> None:
        """Attach a :class:`repro.engine.faults.FaultPlan`. The base runner
        uses it only for injected trial failures; subclasses wire it
        deeper (trainers). ``None`` detaches."""
        self.faults = plan
        if plan is not None:
            self.max_trial_failures = plan.config.max_trial_failures

    def _injected_fault(self, trial: Trial):
        """The deterministic injected crash for this advance, or ``None``
        when the attached plan schedules none (keyed by the trial id and
        its round count at entry — order/worker/resume-independent)."""
        plan = self.faults
        if plan is None or not plan.trial_fails(trial.trial_id, trial.rounds):
            return None
        from repro.engine.faults import InjectedTrialFault

        return InjectedTrialFault(trial.trial_id, trial.rounds)

    def _record_trial_failure(self, trial: Trial, exc: BaseException) -> None:
        """Count one failed advance; quarantine at the failure cap.

        A failed advance trains nothing but still burns its granted
        budget (the caller advances ``trial.rounds`` regardless), so the
        tuner's budget arithmetic — and every budget-axis coordinate in
        the figures — is identical to a fault-free run's.
        """
        trial.failures += 1
        if trial.failures >= self.max_trial_failures:
            trial.failed = True
            warnings.warn(
                f"trial {trial.trial_id} failed {trial.failures} time(s), "
                f"last: {exc!r}; quarantined (error 1.0, training frozen)",
                RuntimeWarning,
                stacklevel=4,
            )
        else:
            warnings.warn(
                f"trial {trial.trial_id} advance failed ({exc!r}); "
                f"{self.max_trial_failures - trial.failures} more failure(s) "
                "until quarantine",
                RuntimeWarning,
                stacklevel=4,
            )

    # -- lifecycle -----------------------------------------------------------
    def create(self, config: Dict) -> Trial:
        trial = Trial(trial_id=self._next_id, config=dict(config))
        self._next_id += 1
        self._init_trial(trial)
        return trial

    def advance(self, trial: Trial, rounds: int) -> int:
        """Train ``trial`` for up to ``rounds`` more rounds (capped at
        ``max_rounds`` total). Returns rounds actually consumed.

        The one declared trial fault is the attached plan's injected crash
        (:meth:`repro.engine.faults.FaultPlan.trial_fails`): it is counted
        (quarantining the trial at the cap) and the granted rounds are
        consumed with training state untouched, so the tuner continues.
        Any exception raised by training itself propagates.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        allowed = min(rounds, self.max_rounds - trial.rounds)
        if allowed > 0:
            if not trial.failed:
                fault = self._injected_fault(trial)
                if fault is not None:
                    self._record_trial_failure(trial, fault)
                else:
                    self._advance_trial(trial, allowed)
            trial.rounds += allowed
            self.rounds_used += allowed
        return allowed

    def advance_many(self, requests: Sequence[Tuple[Trial, int]]) -> List[int]:
        """Batch :meth:`advance`: train many independent trials at once.

        Returns the rounds consumed per request, exactly as a serial
        ``[self.advance(t, r) for t, r in requests]`` would — that serial
        loop is the default implementation. Runners with a batched
        training engine override this; results must stay bit-identical to
        the serial loop. Each trial may appear
        at most once per batch (the calls would not be independent
        otherwise). The whole batch is validated before any trial advances.
        """
        self._check_batch(requests)
        return [self.advance(trial, rounds) for trial, rounds in requests]

    @staticmethod
    def _check_batch(requests: Sequence[Tuple[Trial, int]]) -> None:
        seen = set()
        for trial, rounds in requests:
            if rounds < 0:
                raise ValueError(f"rounds must be >= 0, got {rounds}")
            if trial.trial_id in seen:
                raise ValueError(f"trial {trial.trial_id} appears twice in one batch")
            seen.add(trial.trial_id)

    # -- measurement ----------------------------------------------------------
    def error_rates(self, trial: Trial) -> np.ndarray:
        """Per-validation-client error rates at the trial's current state."""
        raise NotImplementedError

    def error_rates_many(
        self, trials: Sequence[Trial], clients: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        """Batch :meth:`error_rates`: rate vectors for many trials at once.

        ``clients`` — sorted validation-client indices to score, or
        ``None`` for the whole pool. Returns exactly what
        ``[self.error_rates(t)[clients] for t in trials]`` would (that
        serial loop is the default implementation — evaluation consumes no
        RNG, so ordering is free). Runners with batched evaluation engines
        override this to score whole tuner rungs in one stacked sweep, on
        the asked-for clients only; results must stay bit-identical per
        trial and client.
        """
        rows = [self.error_rates(trial) for trial in trials]
        return rows if clients is None else [row[clients] for row in rows]

    def full_error(self, trial: Trial, scheme: str = "weighted") -> float:
        """Full-pool validation error (Eq. 2, S = [N_val]) — reporting only;
        tuners never see this value."""
        return federated_error(self.error_rates(trial), self.eval_weights(scheme))

    def eval_weights(self, scheme: str) -> np.ndarray:
        """Full-pool aggregation weights for the noise stack."""
        raise NotImplementedError

    # -- checkpoint/resume -----------------------------------------------------
    def state_dict(self) -> Dict:
        """Runner-global mutable state as plain picklable data.

        Trial payloads are *not* captured here: the tuner serializes
        exactly the trials it still references through
        :meth:`trial_state`, so trials it dropped never bloat a checkpoint.
        """
        return {"rounds_used": self.rounds_used, "next_id": self._next_id}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.rounds_used = int(state["rounds_used"])
        self._next_id = int(state["next_id"])

    def trial_state(self, trial: Trial) -> Dict:
        """One live trial as plain picklable data (see :meth:`restore_trial`)."""
        return {
            "trial_id": trial.trial_id,
            "config": dict(trial.config),
            "rounds": trial.rounds,
            "failed": trial.failed,
            "failures": trial.failures,
            "payload": self._trial_payload(trial),
        }

    def restore_trial(self, spec: Dict) -> Trial:
        """Rebuild a live trial from :meth:`trial_state` output."""
        trial = Trial(
            trial_id=int(spec["trial_id"]),
            config=dict(spec["config"]),
            rounds=int(spec["rounds"]),
            failed=bool(spec.get("failed", False)),
            failures=int(spec.get("failures", 0)),
        )
        self._restore_trial_payload(trial, spec["payload"])
        return trial

    def _trial_payload(self, trial: Trial):
        """Hook: serializable form of the runner-private trial payload.
        Default: the payload itself (bank/synthetic runners keep plain
        data there); runners with live model state override."""
        return trial.state

    def _restore_trial_payload(self, trial: Trial, payload) -> None:
        """Hook: inverse of :meth:`_trial_payload`."""
        trial.state = payload

    # -- runner internals ------------------------------------------------------
    def _init_trial(self, trial: Trial) -> None:
        raise NotImplementedError

    def _advance_trial(self, trial: Trial, rounds: int) -> None:
        raise NotImplementedError


class FederatedTrialRunner(TrialRunner):
    """Live runner: every trial is a real :class:`FederatedTrainer`.

    Per-trial seeds derive deterministically from the runner seed and the
    trial id, so a tuning run is reproducible end-to-end. In fused mode
    (the default), :meth:`advance_many` hands the batch to a
    :class:`repro.fl.fused.FusedTrainerPool`, which trains every
    same-architecture, same-schedule bucket of trials on one cross-trial
    parameter slab, in passes of whole trials within one activation byte
    budget. Every read, of one trial or a whole
    rung, is one stacked inference sweep (:meth:`error_rates_many`).
    The runner is single-process: process
    parallelism maps whole tuning runs
    (:func:`repro.experiments.fig_methods.run_sweep`), one runner each. Only
    an injected trial fault becomes a trial failure; an exception from
    training propagates to the caller.
    """

    def __init__(
        self,
        dataset: FederatedDataset,
        max_rounds: int,
        clients_per_round: int = 10,
        scheme: str = "weighted",
        seed: SeedLike = 0,
        cohort_mode: Optional[str] = None,
        cohort_dtype=None,
    ):
        from repro.fl.cohort import resolve_cohort_mode
        from repro.nn.stacked import resolve_dtype

        super().__init__(max_rounds)
        self.dataset = dataset
        self.clients_per_round = clients_per_round
        self.scheme = scheme
        self.cohort_mode = resolve_cohort_mode(cohort_mode)
        self.cohort_dtype = resolve_dtype(cohort_dtype)
        self._fused_pool = None
        self._eval_engine = None
        self._seed_rng = as_rng(seed)
        self._eval_weights_cache: Dict[str, np.ndarray] = {}
        self._quarantined_rates_memo: Optional[np.ndarray] = None

    def _init_trial(self, trial: Trial) -> None:
        trial_seed = int(self._seed_rng.integers(0, 2**63 - 1))
        trial.state = config_to_trainer(
            trial.config,
            self.dataset,
            clients_per_round=self.clients_per_round,
            scheme=self.scheme,
            seed=trial_seed,
            cohort_mode=self.cohort_mode,
            cohort_dtype=self.cohort_dtype,
        )
        if self.faults is not None:
            # The trial id keys the trainer's fault draws, so each trial's
            # dropout/straggler stream is independent of batch order.
            trial.state.set_fault_plan(self.faults, trial.trial_id)

    # -- checkpoint/resume -----------------------------------------------------
    def state_dict(self) -> Dict:
        """Adds the trial-seed RNG stream to the base snapshot, so trials
        created after a resume draw exactly the seeds they would have in
        the uninterrupted run. The eval-weights memo is not serialized: it
        rebuilds bit-identically on first read."""
        state = super().state_dict()
        state["seed_rng_state"] = self._seed_rng.bit_generator.state
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self._seed_rng.bit_generator.state = state["seed_rng_state"]

    def _trial_payload(self, trial: Trial) -> Dict:
        return trial.state.state_dict()

    def _restore_trial_payload(self, trial: Trial, payload) -> None:
        # Rebuild the trainer shell from the trial's config — the model is
        # a pure function of its flat params, so the construction seed is
        # irrelevant — then restore the exact snapshot: params, server-opt
        # state, trainer RNG stream. The trial-seed stream is NOT consumed
        # here (that would desync trials created after the resume); it is
        # restored separately via load_state_dict.
        trainer = config_to_trainer(
            trial.config,
            self.dataset,
            clients_per_round=self.clients_per_round,
            scheme=self.scheme,
            seed=0,
            cohort_mode=self.cohort_mode,
            cohort_dtype=self.cohort_dtype,
        )
        if self.faults is not None:
            # Reattach before load_state_dict so restored participation
            # counters land in the plan-aware trainer.
            trainer.set_fault_plan(self.faults, trial.trial_id)
        trainer.load_state_dict(payload)
        trial.state = trainer

    def _advance_trial(self, trial: Trial, rounds: int) -> None:
        trial.state.run(rounds)

    def advance_many(self, requests: Sequence[Tuple[Trial, int]]) -> List[int]:
        if self.cohort_mode != "fused":
            return super().advance_many(requests)
        self._check_batch(requests)
        # The per-trial cap is pure arithmetic, so the whole batch can be
        # planned up front and only the training itself handed to the slab.
        planned = [(trial, min(rounds, self.max_rounds - trial.rounds)) for trial, rounds in requests]
        # Quarantined trials burn their grant without training; trials whose
        # injected crash fires this advance fail before the slab pass (keyed
        # by the entry round count, exactly as the serial path draws it).
        work = []
        for trial, allowed in planned:
            if allowed <= 0 or trial.failed:
                continue
            fault = self._injected_fault(trial)
            if fault is not None:
                self._record_trial_failure(trial, fault)
                continue
            work.append((trial, allowed))
        if self._fused_pool is None:
            from repro.fl.fused import FusedTrainerPool

            self._fused_pool = FusedTrainerPool(dtype=self.cohort_dtype)
        self._fused_pool.advance([trial.state for trial, _ in work], [allowed for _, allowed in work])
        for trial, allowed in planned:
            trial.rounds += allowed
            self.rounds_used += allowed
        return [allowed for _, allowed in planned]

    def _quarantined_rates(self) -> np.ndarray:
        """The all-wrong rate vector quarantined trials read (error 1.0
        under any weighting — the diverged-model convention)."""
        if self._quarantined_rates_memo is None:
            rates = np.ones(len(self.dataset.eval_clients), dtype=np.float64)
            rates.setflags(write=False)
            self._quarantined_rates_memo = rates
        return self._quarantined_rates_memo

    def error_rates(self, trial: Trial) -> np.ndarray:
        return self._read([trial])[0]

    def error_rates_many(
        self, trials: Sequence[Trial], clients: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        return self._read(trials, clients)

    def _read(
        self, trials: Sequence[Trial], clients: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        """Score every trial's current model on ``clients`` (sorted pool
        indices; ``None`` = the whole pool) through one
        :class:`~repro.fl.evaluation.StackedEvalEngine` sweep, bit-identical
        per trial and client (in float64) to the serial
        :meth:`~repro.fl.trainer.FederatedTrainer.eval_error_rates`.

        Reads compute in the dtype the trials train in: the slab dtype in
        fused mode, float64 in serial mode. Nothing is cached, so a read
        after an in-place parameter rewrite scores the rewritten model.
        A trial listed twice is scored once; quarantined trials read the
        all-wrong vector without scoring.
        """
        if self._eval_engine is None:
            fused = self.cohort_mode == "fused"
            self._eval_engine = StackedEvalEngine(
                dtype=self.cohort_dtype if fused else np.float64
            )
        pool = self.dataset.eval_clients
        pending = {t.trial_id: t.state for t in trials if not t.failed}
        scored = {}
        if pending:
            trainers = list(pending.values())
            rows = self._eval_engine.error_rates_many(
                trainers[0].model,
                [trainer.params for trainer in trainers],
                pool if clients is None else [pool[i] for i in clients],
                self.dataset.task,
            )
            scored = dict(zip(pending, rows))
        out = []
        for t in trials:
            if t.failed:
                rates = self._quarantined_rates()
                out.append(rates if clients is None else rates[clients])
            else:
                out.append(scored[t.trial_id])
        return out

    def eval_weights(self, scheme: str) -> np.ndarray:
        """Full-pool weights, computed once per scheme and returned as a
        read-only array (``full_error`` and every noise stack share it)."""
        weights = self._eval_weights_cache.get(scheme)
        if weights is None:
            weights = self.dataset.eval_weights(scheme)
            weights.setflags(write=False)
            self._eval_weights_cache[scheme] = weights
        return weights
