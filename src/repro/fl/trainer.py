"""The federated training loop (Algorithm 2 of the paper).

Each round: sample a client cohort uniformly without replacement, run local
SGD on each client from the current global parameters, aggregate the
weighted average of the resulting parameters, and apply the server
optimizer to the pseudo-gradient ``w - avg``.

:class:`FederatedTrainer` is resumable — ``run(n)`` advances ``n`` rounds
from wherever training stopped — which is what successive-halving tuners
need to continue promising configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import FederatedDataset
from repro.fl.client import ClientTrainer
from repro.fl.cohort import SlabGroup, SlabTrainer, resolve_cohort_mode
from repro.fl.evaluation import client_error_rates
from repro.fl.sampling import UniformSampler
from repro.fl.server import ServerOptimizer
from repro.nn.module import Module, get_flat_params, set_flat_params
from repro.nn.stacked import resolve_dtype
from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Client-side hyperparameters (paper Appendix B).

    ``prox_mu`` enables the FedProx proximal term (Li et al., 2020); the
    paper's experiments use plain local SGD (``prox_mu = 0``).
    """

    lr: float
    momentum: float = 0.0
    weight_decay: float = 5e-5
    batch_size: int = 32
    epochs: int = 1
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"client lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.prox_mu < 0:
            raise ValueError(f"prox_mu must be >= 0, got {self.prox_mu}")


class FederatedTrainer:
    """Trains one model on one federated dataset under fixed hyperparameters.

    Parameters
    ----------
    dataset : the federated dataset (train pool is used here).
    server_opt : a :class:`ServerOptimizer` (its HPs are part of the config).
    local : client-side hyperparameters.
    clients_per_round : cohort size per round (paper: 10, uniform).
    scheme : "weighted" (by example count) or "uniform" client aggregation,
        matching the evaluation weighting per the paper's footnote 1.
    seed : controls model init, cohort sampling, and local batch order.
    cohort_mode : "serial" trains clients one at a time (the reference
        oracle); "fused" trains the round's whole cohort in lockstep on a
        stacked parameter slab (see :mod:`repro.fl.cohort`) — this
        trainer's own T=1 slab for a standalone ``run_round``, or a
        cross-trial slab when a :class:`repro.fl.fused.FusedTrainerPool`
        (via the trial runners' ``advance_many``) drives the round.
        ``None`` resolves from ``$REPRO_COHORT_VECTOR`` (default fused).
        Fused mode raises ``ValueError`` at construction for a model or
        loss without stacked kernels; a round whose client diverges
        reruns that round serially.
    cohort_dtype : slab compute dtype for the fused path
        (:func:`repro.nn.stacked.resolve_dtype`; ``None`` resolves
        ``$REPRO_DTYPE``, default float64). float32 halves slab memory at
        a documented per-round tolerance vs the float64 reference. Global
        parameters, aggregation, the server optimizer, and the serial
        path (including the divergence fallback) stay float64 always.
    """

    def __init__(
        self,
        dataset: FederatedDataset,
        server_opt: ServerOptimizer,
        local: LocalTrainingConfig,
        clients_per_round: int = 10,
        scheme: str = "weighted",
        seed: SeedLike = 0,
        cohort_mode: Optional[str] = None,
        cohort_dtype=None,
    ):
        if clients_per_round < 1:
            raise ValueError(f"clients_per_round must be >= 1, got {clients_per_round}")
        self.dataset = dataset
        self.server_opt = server_opt
        self.local = local
        self.clients_per_round = min(clients_per_round, dataset.num_train_clients)
        self.scheme = scheme
        self._rng = as_rng(seed)
        # Model init must be deterministic in the seed: derive an init seed
        # from the sampling stream.
        init_seed = int(self._rng.integers(0, 2**63 - 1))
        self.model: Module = dataset.task.build_model(init_seed)
        self.params: np.ndarray = get_flat_params(self.model)
        self._sampler = UniformSampler(dataset.num_train_clients)
        self._client_trainer = ClientTrainer(
            dataset.task,
            lr=local.lr,
            momentum=local.momentum,
            weight_decay=local.weight_decay,
            batch_size=local.batch_size,
            epochs=local.epochs,
            prox_mu=local.prox_mu,
        )
        self._train_weights = dataset.train_weights(scheme)
        self.rounds_completed = 0
        # Fault injection (repro.engine.faults), attached post-construction
        # via set_fault_plan so construction sites stay untouched. With no
        # plan (or a plan with zero client-fault rates) every fault branch
        # below is dead and training is bit-identical to a faultless build.
        self.faults = None
        self.fault_key = None
        self.participation = None
        self.cohort_mode = resolve_cohort_mode(cohort_mode)
        self.cohort_dtype = resolve_dtype(cohort_dtype)
        if self.cohort_mode == "fused" and not SlabTrainer.supports(dataset.task, self.model):
            raise ValueError(
                f"cohort_mode='fused' needs stacked kernels, but model "
                f"{type(self.model).__name__} with loss "
                f"{getattr(dataset.task.loss_fn, '__name__', dataset.task.loss_fn)} has none"
            )
        # The standalone slab is built lazily on the first run_round:
        # trials advanced through a trainer pool train on the pool's slab,
        # so a fused rung does not pay one (C, P) slab per trial.
        self._slab: Optional[SlabTrainer] = None
        # Aggregation scratch, reused every round: the (cohort, P) client
        # updates, their weighted copy, and the averaged parameters.
        self._updates = np.empty((self.clients_per_round, self.params.size))
        self._weighted = np.empty_like(self._updates)
        self._avg = np.empty(self.params.size)

    # -- round phases --------------------------------------------------------
    # A round is three hooks — sample the cohort, produce per-client
    # updates, aggregate — so run_slab_round can interleave many trainers'
    # rounds around one lockstep slab pass.
    def _sample_cohort(self) -> np.ndarray:
        """Draw this round's client cohort from the shared trainer RNG."""
        return self._sampler.sample(self.clients_per_round, self._rng)

    def _train_cohort_serial(self, cohort: np.ndarray, updates: np.ndarray) -> None:
        """The serial per-client reference path (and divergence fallback)."""
        for i, k in enumerate(cohort):
            updates[i] = self._client_trainer.train(
                self.model, self.params, self.dataset.train_clients[k], self._rng
            )

    def _finish_round(self, cohort: np.ndarray, updates: np.ndarray) -> None:
        """Aggregate client updates and apply the server optimizer.

        With a fault plan attached, dropped clients are excluded *here* —
        their updates were computed but never reported — so every RNG
        stream advances exactly as in the fault-free run and the serial
        and fused paths inject identical faults. A round whose
        survivors miss the quorum is lost (global model frozen for that
        round, like the divergence convention).
        """
        if self.faults is not None and self.faults.injects_client_faults:
            cohort, updates, proceed = self._apply_round_faults(cohort, updates)
            if not proceed:
                self.rounds_completed += 1
                return
        weights = self._train_weights[cohort]
        if updates.shape[0] == self._weighted.shape[0]:
            # Weighted average with reused buffers; elementwise-multiply +
            # axis sum + divide is bit-identical to the np.average it
            # replaces.
            np.multiply(updates, weights[:, None], out=self._weighted)
            np.sum(self._weighted, axis=0, out=self._avg)
            self._avg /= weights.sum()
            avg = self._avg
        else:
            # Survivor subset after dropout: too small for the scratch
            # buffers, so aggregate out of place (fault path only).
            avg = (updates * weights[:, None]).sum(axis=0) / weights.sum()
        pseudo_grad = self.params - avg
        if not np.all(np.isfinite(pseudo_grad)):
            # A client diverged under this config. Freeze the global model:
            # the config will evaluate poorly, which is the correct signal.
            self.rounds_completed += 1
            return
        self.params = self.server_opt.step(self.params, pseudo_grad)
        self.rounds_completed += 1

    def _apply_round_faults(self, cohort: np.ndarray, updates: np.ndarray):
        """Drop/straggle this round's cohort per the attached fault plan.

        Returns ``(survivor_cohort, survivor_updates, proceed)`` —
        ``proceed`` is False when the survivors miss the quorum and the
        round is lost. Stragglers still report (aggregation unchanged, so
        a straggler-only plan leaves trajectories bit-identical to the
        fault-free run); they only grow this round's simulated wall-clock
        delay and the participation counters.
        """
        plan = self.faults
        round_index = self.rounds_completed
        drop = plan.dropout_mask(self.fault_key, round_index, cohort)
        straggle = plan.straggler_mask(self.fault_key, round_index, cohort)
        survivors = ~drop
        reporting_stragglers = straggle & survivors
        lost = int(survivors.sum()) < plan.min_reporters(len(cohort))
        delay = 0.0
        if not lost and reporting_stragglers.any():
            # The server waits out its slowest reporter.
            delay = plan.config.straggler_delay
        if self.participation is not None:
            self.participation.record_round(
                cohort,
                dropped=cohort[drop],
                straggled=cohort[reporting_stragglers],
                lost=lost,
                delay=delay,
            )
        if lost:
            return cohort, updates, False
        if not drop.any():
            return cohort, updates, True
        return cohort[survivors], updates[survivors], True

    def run_round(self) -> None:
        """One communication round (the inner loop of Algorithm 2)."""
        if self.cohort_mode == "fused":
            if self._slab is None:
                self._slab = SlabTrainer(
                    self.dataset.task,
                    self.model,
                    self.clients_per_round,
                    dtype=self.cohort_dtype,
                )
            run_slab_round([self], self._slab)
            return
        cohort = self._sample_cohort()
        self._train_cohort_serial(cohort, self._updates)
        self._finish_round(cohort, self._updates)

    def run(self, n_rounds: int) -> "FederatedTrainer":
        """Advance ``n_rounds`` more rounds; returns self for chaining."""
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        for _ in range(n_rounds):
            self.run_round()
        return self

    # -- mid-run hyperparameter edits ----------------------------------------
    def set_local_config(self, local: LocalTrainingConfig) -> None:
        """Swap the client-side hyperparameters for all *future* rounds.

        Population-based tuners perturb a live trial's client lr /
        momentum / weight decay between training steps (FedPop's explore
        move). The serial :class:`ClientTrainer` is rebuilt; the slab path
        needs nothing — hyperparameters ride each round's
        :class:`~repro.fl.cohort.SlabGroup`, read fresh from ``self.local``.
        Training state (params, RNG streams, server-optimizer moments,
        round count) is untouched.
        """
        if local.batch_size != self.local.batch_size or local.epochs != self.local.epochs:
            # Not a correctness limit — just out of scope: the paper-space
            # perturbations touch the three SGD knobs only, and keeping
            # the local step schedule fixed keeps a population in the one
            # slab bucket it started in.
            raise ValueError(
                "set_local_config only swaps lr/momentum/weight_decay/prox_mu; "
                f"batch_size/epochs must stay "
                f"({self.local.batch_size}, {self.local.epochs})"
            )
        self.local = local
        self._client_trainer = ClientTrainer(
            self.dataset.task,
            lr=local.lr,
            momentum=local.momentum,
            weight_decay=local.weight_decay,
            batch_size=local.batch_size,
            epochs=local.epochs,
            prox_mu=local.prox_mu,
        )

    # -- fault injection -----------------------------------------------------
    def set_fault_plan(self, plan, key) -> None:
        """Attach a :class:`repro.engine.faults.FaultPlan` to this trainer.

        ``key`` identifies the trainer inside the plan's deterministic
        coordinate space (trial runners pass the trial id), so each
        trainer draws its own fault stream regardless of execution order.
        Passing ``plan=None`` detaches injection.
        """
        self.faults = plan
        self.fault_key = key
        if plan is not None and plan.injects_client_faults and self.participation is None:
            from repro.engine.faults import ParticipationLog

            self.participation = ParticipationLog(self.dataset.num_train_clients)

    @property
    def simulated_time(self) -> float:
        """Simulated wall-clock cost of training so far (1 unit per round
        plus straggler delays); 0.0 until client faults are injected."""
        if self.participation is None:
            return 0.0
        return self.participation.simulated_time

    # -- state transport ----------------------------------------------------
    def state_dict(self) -> dict:
        """All mutable training state, as plain picklable data.

        Everything a resumed :meth:`run` depends on flows from these
        pieces (the model itself is a pure function of ``params``), so
        loading them into an identically-constructed trainer continues
        training bit-identically — the contract checkpoint/resume relies
        on. :meth:`load_state_dict` ignores keys it does not read, so a
        state written by an older version with extra entries still loads.
        """
        state = {
            "params": self.params.copy(),
            "rng_state": self._rng.bit_generator.state,
            "server_opt": self.server_opt.state_dict(),
            "rounds_completed": self.rounds_completed,
        }
        if self.participation is not None:
            # Realized-participation counters ride along with the RNG
            # streams, so checkpoint resumes keep the fault bookkeeping
            # exact.
            state["participation"] = self.participation.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.params = np.asarray(state["params"], dtype=np.float64).copy()
        self._rng.bit_generator.state = state["rng_state"]
        self.server_opt.load_state_dict(state["server_opt"])
        self.rounds_completed = int(state["rounds_completed"])
        participation = state.get("participation")
        if participation is not None:
            if self.participation is None:
                from repro.engine.faults import ParticipationLog

                self.participation = ParticipationLog(self.dataset.num_train_clients)
            self.participation.load_state_dict(participation)

    # -- evaluation conveniences --------------------------------------------
    def eval_error_rates(self) -> np.ndarray:
        """Per-validation-client error rates of the current global model.

        This is the serial oracle, in float64: chunked batched forwards
        over the same :class:`~repro.fl.evaluation.EvalChunkPlan` chunking
        the stacked engine reads. Production reads —
        ``TrialRunner.error_rates_many``, ``FusedTrainerPool.evaluate``,
        bank builds — score through
        :class:`~repro.fl.evaluation.StackedEvalEngine`; the tests hold
        them bit-identical to this method.
        """
        set_flat_params(self.model, self.params)
        return client_error_rates(self.model, self.dataset.eval_clients, self.dataset.task)


def run_slab_round(trainers: Sequence[FederatedTrainer], slab: SlabTrainer) -> None:
    """One lockstep communication round across every given trainer.

    The serial round phase for phase, per trainer: sample cohort -> local
    training (one slab pass for all of them) -> aggregate + server step.
    A standalone trainer passes ``[self]`` and its own slab; a
    :class:`repro.fl.fused.FusedTrainerPool` passes the trainers of one
    pass of a schedule bucket and the pool's slab.

    A trainer whose group ``train_groups`` flags as diverged (non-finite
    client loss) reruns the round serially from its RNG snapshot; any
    exception from the slab pass propagates.
    """
    cohorts = []
    snapshots = []
    groups = []
    for trainer in trainers:
        cohort = trainer._sample_cohort()
        # Snapshot after the cohort draw (a serial rerun reuses the
        # cohort) but before the permutation pre-draw, which the rerun
        # repeats client by client.
        snapshots.append(trainer._rng.bit_generator.state)
        clients = [trainer.dataset.train_clients[k] for k in cohort]
        local = trainer.local
        # Pre-draw batch permutations in the serial loop's exact RNG order:
        # client by client (cohort order), epoch by epoch.
        perms = [[trainer._rng.permutation(c.n) for _ in range(local.epochs)] for c in clients]
        cohorts.append(cohort)
        groups.append(
            SlabGroup(
                start=trainer.params,
                clients=clients,
                perms=perms,
                lr=local.lr,
                momentum=local.momentum,
                weight_decay=local.weight_decay,
                prox_mu=local.prox_mu,
                batch_size=local.batch_size,
                epochs=local.epochs,
            )
        )
    succeeded = slab.train_groups(groups, [trainer._updates for trainer in trainers])
    for trainer, cohort, rng_state, ok in zip(trainers, cohorts, snapshots, succeeded):
        if not ok:
            # Exact serial fallback for the diverged trainer only: rewind
            # its generator to the post-sample state and replay the round
            # through the serial per-client path.
            trainer._rng.bit_generator.state = rng_state
            trainer._train_cohort_serial(cohort, trainer._updates)
        trainer._finish_round(cohort, trainer._updates)
