"""Base machinery shared by all hyperparameter-tuning methods.

The contract (paper Algorithm 2 generalised): a tuner proposes configs,
trains them through a :class:`TrialRunner` under a total round budget, sees
only *noisy* evaluations from a :class:`NoisyEvaluator`, and maintains an
incumbent. Full-pool validation error is recorded per incumbent change for
reporting — mirroring how the paper scores methods — but is never visible
to the tuning logic.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from repro.core.evaluator import Trial, TrialRunner
from repro.core.noise import NoiseConfig, NoisyEvaluator
from repro.core.privacy import PrivacyConfig
from repro.core.results import CurvePoint, Observation, TuningResult
from repro.core.search_space import SearchSpace
from repro.utils.rng import SeedLike, as_rng


class BudgetLedger:
    """Tracks the total training-round budget across a tuning run."""

    def __init__(self, total_rounds: int):
        if total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
        self.total = total_rounds
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.total - self.used

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def grant(self, requested: int) -> int:
        """Grant up to ``requested`` rounds; returns the amount granted."""
        if requested < 0:
            raise ValueError(f"requested must be >= 0, got {requested}")
        granted = min(requested, self.remaining)
        self.used += granted
        return granted


class BaseTuner:
    """Shared run-state: budget, noisy evaluator, incumbent, curve.

    Subclasses implement :meth:`_run` and call :meth:`observe` after each
    evaluation; incumbent tracking and curve recording are handled here.
    """

    method_name = "base"

    #: Version of the tuner state-dict layout. Bump on incompatible
    #: changes; load_state_dict rejects mismatched snapshots.
    #: v2: fault-config echo + evaluator fault state (PR 7).
    STATE_VERSION = 2

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
    ):
        self.space = space
        self.runner = runner
        self.noise = noise
        self.total_budget = total_budget if total_budget is not None else 16 * runner.max_rounds
        self.ledger = BudgetLedger(self.total_budget)
        self.rng = as_rng(seed)
        privacy = PrivacyConfig(
            epsilon=noise.epsilon, total_releases=max(1, self.planned_releases())
        )
        self.evaluator = NoisyEvaluator(
            runner.eval_weights(noise.scheme), noise, rng=self.rng, privacy=privacy
        )
        self.observations: List[Observation] = []
        self.curve: List[CurvePoint] = []
        self._incumbent: Optional[Trial] = None
        self._incumbent_noisy = np.inf
        # Memo of the incumbent's full-pool error, keyed by (trial_id,
        # rounds): observe() records a curve point per observation, but the
        # value only changes when the incumbent (or its round count) does.
        self._incumbent_full: Optional[tuple] = None
        # Eliminated trials that were the incumbent at retire time: their
        # cached evaluation state is released once they are dethroned.
        self._retire_on_dethrone: Dict[int, Trial] = {}
        # Checkpoint/resume plumbing: _finished marks a completed _run (a
        # resumed finished run repackages its result without re-running),
        # _phase is the shared propose-all -> train-all -> observe-all
        # sweep cursor (see _phased_sweep), and _checkpointer is the
        # attached periodic save hook (duck-typed; see
        # repro.engine.checkpoint.RunCheckpointer).
        self._finished = False
        self._phase: Optional[Dict] = None
        self._checkpointer = None
        # Fault injection (attach_faults) and polite-preemption plumbing.
        self._fault_plan = None
        self._preempt_signum: Optional[int] = None
        self._prev_handlers: Dict[int, object] = {}

    # -- fault injection --------------------------------------------------------
    def attach_faults(self, plan) -> None:
        """Attach a :class:`repro.engine.faults.FaultPlan` (or a bare
        :class:`~repro.engine.faults.FaultConfig`) to the whole run: the
        runner (injected trial crashes, trainer dropout/stragglers) and
        the evaluator (evaluation dropout) in one move. Call
        before :meth:`run`; the fault config is echoed into checkpoints
        and validated on resume, so a resumed run replays the identical
        fault sequence. ``None`` detaches."""
        from repro.engine.faults import FaultConfig, FaultPlan

        if isinstance(plan, FaultConfig):
            plan = FaultPlan(plan)
        self._fault_plan = plan
        self.runner.set_fault_plan(plan)
        self.evaluator.set_fault_plan(plan)

    # -- polite preemption ------------------------------------------------------
    def request_preempt(self, signum: int = signal.SIGTERM) -> None:
        """Ask a running checkpointed tuner to stop at its next safe batch
        boundary: a final forced checkpoint is saved there and the run
        exits via ``SystemExit(128 + signum)``. This is the programmatic
        face of the SIGTERM/SIGINT path — the tuning-service daemon calls
        it from its drain handler to preempt jobs running in worker
        threads (where per-run signal handlers cannot be installed).
        Safe to call from any thread; a no-op once the run has finished.
        """
        self._preempt_signum = int(signum)

    def _install_preempt_signals(self) -> None:
        """Trap SIGTERM *and* SIGINT for the duration of a checkpointed
        run: the handler only records the signal, and :meth:`_checkpoint`
        — called at every safe batch boundary — turns it into a final
        forced save followed by a clean exit (143 for SIGTERM, 130 for
        SIGINT), so both a polite ``kill`` and a Ctrl-C leave a resumable
        checkpoint instead of a torn run. Without a checkpointer (or off
        the main thread, where signal handlers cannot be installed) this
        is a no-op and both signals keep their default effect."""
        self._preempt_signum = None
        if self._checkpointer is None:
            return
        if threading.current_thread() is not threading.main_thread():
            return

        def handler(signum, frame):
            self._preempt_signum = signum

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._prev_handlers[signum] = signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main interpreter states
                return

    def _restore_preempt_signals(self) -> None:
        for signum, previous in list(self._prev_handlers.items()):
            signal.signal(signum, previous)
        self._prev_handlers.clear()

    # -- subclass interface ----------------------------------------------------
    def planned_releases(self) -> int:
        """Number of noisy accuracy releases this run will perform (M in the
        paper's Lap(M/(ε|S|)) formula). Must be computed *before* running —
        basic composition requires budgeting upfront."""
        raise NotImplementedError

    def _run(self) -> None:
        raise NotImplementedError

    # -- shared mechanics -------------------------------------------------------
    def _fund(self, trial: Trial, requested: int) -> int:
        """Grant budget for one trial: ledger grant, per-config cap, refund.

        This is the single copy of the budget arithmetic that every
        execution path — serial :meth:`train_trial` and the batched
        :meth:`train_trials`/:meth:`create_and_train` — shares; batched
        and serial accounting stay equivalent by construction.
        """
        granted = self.ledger.grant(requested)
        allowed = min(granted, self.runner.max_rounds - trial.rounds)
        if allowed < granted:
            # Trial hit its per-config cap; return unused rounds to budget.
            self.ledger.used -= granted - allowed
        return allowed

    def train_trial(self, trial: Trial, rounds: int) -> int:
        """Advance a trial within the global budget; returns rounds used."""
        allowed = self._fund(trial, rounds)
        self.runner.advance(trial, allowed)
        return allowed

    def train_trials(self, requests):
        """Batch form of :meth:`train_trial` over ``[(trial, rounds), ...]``.

        Budget grants happen serially (the ledger arithmetic — including
        per-config-cap refunds and the exhaustion cutoff — is exactly what
        a trial-by-trial loop produces), and only then is the training
        itself issued as one :meth:`TrialRunner.advance_many` batch, which
        fused runners train as cross-trial slabs.

        Returns ``(planned, snapshots, truncated)``: the ``(trial,
        consumed)`` pairs actually trained, the ledger value after each
        grant (pass to :meth:`observe` as ``budget_used``), and whether
        the batch was cut short by budget exhaustion — in which case
        ``planned`` covers only the requests up to and including the
        truncated one, mirroring where a serial loop would have stopped.
        """
        planned = []
        snapshots = []
        truncated = False
        for trial, needed in requests:
            allowed = self._fund(trial, needed)
            planned.append((trial, allowed))
            snapshots.append(self.ledger.used)
            if self.ledger.exhausted and allowed < needed:
                truncated = True
                break
        self.runner.advance_many(planned)
        return planned, snapshots, truncated

    def create_and_train(self, configs, rounds_per_config: int):
        """Create one trial per config and train them as a single batch.

        ``configs`` is consumed lazily and stops at budget exhaustion, so
        proposal randomness is only drawn for trials that actually start —
        exactly as in a serial create→train loop. Grants are serial (same
        ledger arithmetic as :meth:`train_trial`); training goes through
        :meth:`TrialRunner.advance_many` in one batch.

        Returns ``(trials, snapshots)``: the created trials and the ledger
        value after each trial's grant (pass to :meth:`observe` as
        ``budget_used``).
        """
        planned = []
        snapshots = []
        configs = iter(configs)
        while not self.ledger.exhausted:
            try:
                config = next(configs)
            except StopIteration:
                break
            trial = self.runner.create(config)
            planned.append((trial, self._fund(trial, rounds_per_config)))
            snapshots.append(self.ledger.used)
        self.runner.advance_many(planned)
        return [trial for trial, _ in planned], snapshots

    def _evaluate_rates(self, rates: np.ndarray):
        """Hook: turn per-client error rates into one noisy evaluation.

        Robust tuner variants override this (e.g. averaging several
        independent noisy evaluations — see :mod:`repro.core.robust`).
        """
        return self.evaluator.evaluate(rates)

    def observe(self, trial: Trial, budget_used: Optional[int] = None) -> float:
        """Noisily evaluate a trial, update the incumbent, record the curve.

        ``budget_used`` pins the budget coordinate of the observation and
        curve point; batched tuners pass the ledger snapshot taken when the
        trial's rounds were granted, so batch execution records the same
        budget axis a trial-by-trial loop would. Defaults to the live
        ledger value.

        Returns the noisy error the tuner should act on.
        """
        used = self.ledger.used if budget_used is None else budget_used
        rates = self.runner.error_rates(trial)
        evaluation = self._evaluate_rates(rates)
        self.observations.append(
            Observation(
                trial_id=trial.trial_id,
                config=dict(trial.config),
                rounds=trial.rounds,
                noisy_error=evaluation.error,
                exact_error=evaluation.exact_subsampled_error,
                budget_used=used,
            )
        )
        if evaluation.error < self._incumbent_noisy:
            old = self._incumbent
            self._incumbent = trial
            self._incumbent_noisy = evaluation.error
            if old is not None and old.trial_id != trial.trial_id:
                deferred = self._retire_on_dethrone.pop(old.trial_id, None)
                if deferred is not None:
                    self.runner.retire(deferred)
        # Record the curve even when the incumbent is unchanged: budget moved.
        if self._incumbent is not None:
            inc = self._incumbent
            memo = self._incumbent_full
            if memo is None or memo[0] != inc.trial_id or memo[1] != inc.rounds:
                memo = (
                    inc.trial_id,
                    inc.rounds,
                    self.runner.full_error(inc, scheme=self.noise.scheme),
                )
                self._incumbent_full = memo
            self.curve.append(
                CurvePoint(
                    budget_used=used,
                    incumbent_trial_id=inc.trial_id,
                    noisy_error=self._incumbent_noisy,
                    full_error=memo[2],
                )
            )
        return evaluation.error

    def observe_many(self, evaluations) -> List[float]:
        """Batch :meth:`observe` over ``[(trial, budget_used), ...]``.

        Rate vectors for the whole batch are prefetched through
        :meth:`TrialRunner.error_rates_many` — which stacked runners
        score as one fused sweep — then each trial is observed in
        order. Evaluation consumes no tuner RNG, so noise draws, incumbent
        updates, and curve points land exactly as in the serial loop.
        """
        evaluations = list(evaluations)
        self.runner.error_rates_many([trial for trial, _ in evaluations])
        return [self.observe(trial, budget_used=used) for trial, used in evaluations]

    def retire_trials(self, trials) -> None:
        """Release eliminated trials' cached evaluation state.

        The current incumbent is never retired directly — its rate vector
        backs every subsequent curve point — but is remembered and
        released if a later observation dethrones it.
        """
        for trial in trials:
            if self._incumbent is not None and trial.trial_id == self._incumbent.trial_id:
                self._retire_on_dethrone[trial.trial_id] = trial
            else:
                self.runner.retire(trial)

    # -- checkpoint/resume ------------------------------------------------------
    def _cursor_trials(self):
        """Hook: trials referenced by a subclass's resume cursor (bracket
        survivors, population members, stage finalists, ...)."""
        return ()

    def _state_extra(self) -> Dict:
        """Hook: per-method internals (rung cursors, EG log-weights, TPE
        observation histories, GP data, ...) as plain picklable data.
        Trials must be referenced by id; the table itself is shared."""
        return {}

    def _load_state_extra(self, extra: Dict, trials: Dict[int, Trial]) -> None:
        """Hook: inverse of :meth:`_state_extra`. ``trials`` is the
        id-keyed rehydrated trial table — ids resolve to single objects,
        so trials shared between structures stay shared after a resume."""

    def _live_trials(self) -> Dict[int, Trial]:
        """Every trial the tuner still references, keyed by id."""
        live: Dict[int, Trial] = {}
        candidates = list(self._cursor_trials())
        if self._phase is not None:
            candidates.extend(self._phase["trials"])
        if self._incumbent is not None:
            candidates.append(self._incumbent)
        candidates.extend(self._retire_on_dethrone.values())
        for trial in candidates:
            live.setdefault(trial.trial_id, trial)
        return live

    def state_dict(self) -> Dict:
        """Versioned snapshot of the full run state as picklable data:
        ledger, observations, curve, incumbent (and its full-error memo),
        tuner RNG ``bit_generator`` state, the live trial table (with
        runner payloads — live trainers serialize their params, server-opt
        state, and RNG streams), the shared phase cursor, and the
        subclass's :meth:`_state_extra`. The evaluator shares the tuner's
        RNG object and is otherwise a pure function of construction
        arguments, except for its fault state (release index,
        participation log), which travels under ``"evaluator"``; the
        attached fault config travels as an echo under ``"faults"`` so a
        resume can refuse a mismatched plan."""
        live = self._live_trials()
        inc = self._incumbent
        memo = self._incumbent_full
        phase = self._phase
        return {
            "state_version": self.STATE_VERSION,
            "method": self.method_name,
            "finished": self._finished,
            "ledger": {"total": self.ledger.total, "used": self.ledger.used},
            "rng_state": self.rng.bit_generator.state,
            "observations": [asdict(obs) for obs in self.observations],
            "curve": [asdict(point) for point in self.curve],
            "incumbent_id": inc.trial_id if inc is not None else None,
            "incumbent_noisy": float(self._incumbent_noisy),
            "incumbent_full": list(memo) if memo is not None else None,
            "retire_on_dethrone": sorted(self._retire_on_dethrone),
            "phase": (
                {
                    "trial_ids": [t.trial_id for t in phase["trials"]],
                    "snapshots": list(phase["snapshots"]),
                }
                if phase is not None
                else None
            ),
            "trials": {tid: self.runner.trial_state(t) for tid, t in sorted(live.items())},
            "faults": (
                self._fault_plan.config.to_dict() if self._fault_plan is not None else None
            ),
            "evaluator": self.evaluator.state_dict(),
            "extra": self._state_extra(),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this (identically
        constructed) tuner. The runner's own state must already be loaded
        (see :func:`repro.engine.checkpoint.restore_run_state`)."""
        version = state.get("state_version")
        if version != self.STATE_VERSION:
            raise ValueError(
                f"tuner state version {version!r} does not match this "
                f"build's version {self.STATE_VERSION}"
            )
        method = state.get("method")
        if method != self.method_name:
            raise ValueError(
                f"state is for method {method!r}, not {self.method_name!r}"
            )
        if int(state["ledger"]["total"]) != self.ledger.total:
            raise ValueError(
                f"state was saved under total budget {state['ledger']['total']}, "
                f"but this tuner was built with {self.ledger.total}"
            )
        saved_faults = state.get("faults")
        attached = (
            self._fault_plan.config.to_dict() if self._fault_plan is not None else None
        )
        if saved_faults != attached:
            # A resumed run replays the identical fault sequence only when
            # the same plan is attached; silently diverging would break
            # the bit-reproducibility contract.
            raise ValueError(
                f"state was saved under fault config {saved_faults!r}, but "
                f"this tuner has {attached!r}; attach_faults the same config "
                "before resuming"
            )
        trials = {
            int(tid): self.runner.restore_trial(spec)
            for tid, spec in state["trials"].items()
        }
        self._finished = bool(state["finished"])
        self.ledger.used = int(state["ledger"]["used"])
        self.rng.bit_generator.state = state["rng_state"]
        self.observations = [Observation(**obs) for obs in state["observations"]]
        self.curve = [CurvePoint(**point) for point in state["curve"]]
        inc_id = state["incumbent_id"]
        self._incumbent = trials[inc_id] if inc_id is not None else None
        self._incumbent_noisy = state["incumbent_noisy"]
        memo = state["incumbent_full"]
        self._incumbent_full = tuple(memo) if memo is not None else None
        self._retire_on_dethrone = {tid: trials[tid] for tid in state["retire_on_dethrone"]}
        phase = state["phase"]
        self._phase = (
            {
                "trials": [trials[tid] for tid in phase["trial_ids"]],
                "snapshots": list(phase["snapshots"]),
            }
            if phase is not None
            else None
        )
        self.evaluator.load_state_dict(state.get("evaluator") or {})
        self._load_state_extra(state["extra"], trials)

    def _checkpoint(self, force: bool = False) -> None:
        """Persist the run state through the attached checkpointer (no-op
        without one). _run implementations call this only at safe batch
        boundaries: points where the serialized state deterministically
        replays the remainder of the current step, so a kill anywhere
        resumes onto the identical trajectory. A SIGTERM/SIGINT (or a
        :meth:`request_preempt` call) received since the last boundary
        turns this save into a forced final checkpoint followed by a
        clean exit (polite preemption)."""
        if self._checkpointer is not None:
            if self._preempt_signum is not None:
                self._checkpointer.save(self, force=True)
                raise SystemExit(128 + self._preempt_signum)
            self._checkpointer.save(self, force=force)

    def _phased_sweep(self, configs, rounds_per_config: int) -> None:
        """Resumable propose-all -> train-all -> observe-all sweep (the
        whole-batch RS/grid shape). The cursor checkpoints after the
        training batch; a kill during observation replays the scoring
        from that boundary — evaluation consumes only the tuner RNG,
        whose state the checkpoint restored, so the replay is exact."""
        if self._phase is None:
            trials, snapshots = self.create_and_train(configs, rounds_per_config)
            self._phase = {"trials": trials, "snapshots": snapshots}
            self._checkpoint()
        trials = self._phase["trials"]
        self.observe_many(zip(trials, self._phase["snapshots"]))
        self.retire_trials(trials)
        self._phase = None

    def run(self, checkpoint=None) -> TuningResult:
        """Execute the method and package the result.

        ``checkpoint`` attaches a save hook (duck-typed like
        :class:`repro.engine.checkpoint.RunCheckpointer`): the run state
        is persisted up front, at every method-declared safe boundary,
        and once more on completion. Re-running a tuner restored from a
        finished checkpoint skips straight to packaging and returns the
        identical result."""
        if checkpoint is not None:
            self._checkpointer = checkpoint
        if not self._finished:
            self._install_preempt_signals()
            try:
                self._checkpoint()
                self._run()
                self._finished = True
                self._checkpoint(force=True)
            finally:
                self._restore_preempt_signals()
        best_trial = self._incumbent
        return TuningResult(
            method=self.method_name,
            best_config=dict(best_trial.config) if best_trial else None,
            best_trial_id=best_trial.trial_id if best_trial else None,
            best_noisy_error=float(self._incumbent_noisy),
            final_full_error=(
                self.runner.full_error(best_trial, scheme=self.noise.scheme)
                if best_trial
                else float("nan")
            ),
            curve=self.curve,
            observations=self.observations,
            rounds_used=self.ledger.used,
        )
