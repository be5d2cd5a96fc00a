"""Trial-fused execution: many trainers' rounds in one cross-trial slab.

A tuner rung (Hyperband/SHA), a random-search batch, or a grid sweep hands
``advance_many`` a set of trials that differ *only in hyperparameters* —
same dataset, same model architecture. :class:`FusedTrainerPool` exploits
that: it groups trainers by :func:`repro.nn.stacked.stack_signature` and
local step schedule ``(batch_size, epochs)`` and advances each bucket's
rounds in lockstep, with every trial's whole cohort occupying a contiguous
row block of one ``(sum of cohorts, P)`` slab. Per-trial hyperparameters
(client lr / momentum / weight decay / FedProx mu) broadcast per slab row
through the per-row vector form of :func:`repro.nn.optim.fused_sgd_step`.
Trials with different schedules never share a pass: a mixed slab pads
every row to the widest batch and runs as long as the smallest one, which
measured slower than training the buckets one after another on the paper's
CNN and LSTM rungs (the paper's search space tunes ``batch_size``).

Equivalence is inherited from :class:`repro.fl.cohort.SlabTrainer` and is
*per trainer*: each trainer samples its cohort and pre-draws its batch
permutations from its own RNG stream in serial order, so results are
bit-identical to ``trainer.run(n)`` when no ragged padding occurs and
~1e-15/round otherwise, with identical RNG end states. A trial whose round
diverges (non-finite client loss) is rerun serially from its RNG snapshots
— exact serial semantics — without disturbing the other trials' rows.

The pool is deliberately trainer-shaped rather than trial-shaped so that
both :meth:`repro.core.evaluator.FederatedTrialRunner.advance_many`
(``cohort_mode="fused"``) and :meth:`repro.experiments.bank.ConfigBank.build`
can drive it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.cohort import SlabTrainer
from repro.fl.evaluation import StackedEvalEngine, fused_group_rates
from repro.fl.trainer import FederatedTrainer, run_slab_round
from repro.nn.stacked import STACKED_LOSSES, StackedModel, resolve_dtype, stack_signature


class FusedTrainerPool:
    """Advances batches of :class:`~repro.fl.trainer.FederatedTrainer`\\ s
    in cross-trial lockstep, one shared :class:`SlabTrainer` per model
    architecture (slabs are cached across calls, so the schedule buckets
    of a rung and successive rungs of a tuning run reuse one allocation).
    :meth:`evaluate` is the matching read path: every trainer of a batch
    is scored on the validation pool through one inference slab —
    borrowing the training slab the batch just used, so a train→evaluate
    rung cycle never unstacks and restacks parameters.

    ``dtype`` is the pool's default slab compute dtype
    (:func:`repro.nn.stacked.resolve_dtype`); each group's slab is built
    in its trainers' own ``cohort_dtype``, and the dtype name joins the
    grouping key so mixed-precision batches never share a slab.
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._slabs: Dict[tuple, SlabTrainer] = {}
        self._eval_engine: Optional[StackedEvalEngine] = None

    def stacked_model(self, key: tuple, rows: int, dtype=None) -> Optional[StackedModel]:
        """The training slab's model for ``key`` when it can already hold
        ``rows`` copies (else ``None``) — the borrow handle fused
        evaluation uses. ``key`` is the ``(stack_signature, loss_fn)``
        pair of :meth:`advance`'s grouping key; the dtype completing the
        full slab key defaults to the pool's."""
        full_key = key + (np.dtype(dtype if dtype is not None else self.dtype).name,)
        slab = self._slabs.get(full_key)
        if slab is not None and slab.capacity >= rows:
            return slab.stacked_model
        return None

    def evaluate(self, trainers: Sequence[FederatedTrainer]) -> List[np.ndarray]:
        """Per-validation-client error rates for every trainer, fused.

        Same-architecture trainers (grouped by
        :func:`~repro.nn.stacked.eval_stack_signature`, which ignores
        training-only concerns such as Dropout RNG wiring) evaluate as one
        stacked inference sweep over the pool's cached chunk plan;
        singleton groups and unstackable models use the serial
        :meth:`~repro.fl.trainer.FederatedTrainer.eval_error_rates`.
        Per trainer the result is bit-identical to the serial call.
        """
        results: List[Optional[np.ndarray]] = [None] * len(trainers)
        by_dataset: Dict[int, List[int]] = {}
        for i, trainer in enumerate(trainers):
            by_dataset.setdefault(id(trainer.dataset), []).append(i)
        for members in by_dataset.values():
            dataset = trainers[members[0]].dataset
            if self._eval_engine is None:
                self._eval_engine = StackedEvalEngine(dtype=self.dtype)
            rates = fused_group_rates(
                self._eval_engine,
                [trainers[i].model for i in members],
                [trainers[i].params for i in members],
                dataset.eval_clients,
                dataset.task,
                pool=self,
            )
            for row, i in zip(rates, members):
                results[i] = row
        for i, row in enumerate(results):
            if row is None:
                results[i] = trainers[i].eval_error_rates()
        return results

    # -- public API ----------------------------------------------------------
    def advance(self, trainers: Sequence[FederatedTrainer], rounds: Sequence[int]) -> None:
        """Advance ``trainers[i]`` by ``rounds[i]`` rounds, fusing where possible.

        Trainers are bucketed by architecture signature, loss, slab dtype
        and local step schedule; each bucket — of one trainer or many —
        trains as one pass over the pool's slab for that architecture.
        Trainers without stacked kernels run their own (serial) ``run``.
        A diverged trial reruns its round serially (see
        :func:`~repro.fl.trainer.run_slab_round`); any exception from
        building or training a slab propagates.
        """
        if len(trainers) != len(rounds):
            raise ValueError(f"{len(trainers)} trainers but {len(rounds)} round counts")
        for r in rounds:
            if r < 0:
                raise ValueError(f"rounds must be >= 0, got {r}")
        buckets: Dict[tuple, List[int]] = {}
        for i, trainer in enumerate(trainers):
            signature = stack_signature(trainer.model)
            if signature is None or trainer.dataset.task.loss_fn not in STACKED_LOSSES:
                trainer.run(rounds[i])
                continue
            dtype_name = np.dtype(getattr(trainer, "cohort_dtype", self.dtype)).name
            slab_key = (signature, trainer.dataset.task.loss_fn, dtype_name)
            schedule = (trainer.local.batch_size, trainer.local.epochs)
            buckets.setdefault((slab_key, schedule), []).append(i)
        for (slab_key, _), members in buckets.items():
            self._advance_bucket(
                [trainers[i] for i in members], [rounds[i] for i in members], slab_key
            )

    # -- internals -----------------------------------------------------------
    def _advance_bucket(
        self, trainers: List[FederatedTrainer], rounds: List[int], key: tuple
    ) -> None:
        slab = self._slabs.get(key)
        if slab is None:
            slab = SlabTrainer(
                trainers[0].dataset.task,
                trainers[0].model,
                sum(t.clients_per_round for t in trainers),
                dtype=getattr(trainers[0], "cohort_dtype", self.dtype),
            )
            self._slabs[key] = slab
        remaining = list(rounds)
        while True:
            active = [i for i, r in enumerate(remaining) if r > 0]
            if not active:
                return
            run_slab_round([trainers[i] for i in active], slab)
            for i in active:
                remaining[i] -= 1
