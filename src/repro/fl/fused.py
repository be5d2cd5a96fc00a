"""Trial-fused execution: many trainers' rounds in one cross-trial slab.

A Hyperband rung or a random-search batch hands ``advance_many`` a set of
trials that differ *only in hyperparameters* — same dataset, same model
architecture. :class:`FusedTrainerPool` exploits that: it groups trainers
by :func:`repro.nn.stacked.stack_signature` and local step schedule
``(batch_size, epochs)`` and advances each bucket's rounds in lockstep,
with every trial's whole cohort occupying a contiguous row block of one
``(sum of cohorts, P)`` slab. Per-trial hyperparameters
(client lr / momentum / weight decay / FedProx mu) broadcast per slab row
through the per-row vector form of :func:`repro.nn.optim.fused_sgd_step`.
Trials with different schedules never share a pass: a mixed slab pads
every row to the widest batch and runs as long as the smallest one, which
measured slower than training the buckets one after another on the paper's
CNN and LSTM rungs (the paper's search space tunes ``batch_size``).

A bucket trains in passes of *whole trials*, so the slab's activations
stay within one byte budget, :data:`PASS_BYTES`. A trial's share is its
cohort rows x batch width x the model's per-example activation bytes
(:func:`example_activation_bytes`, from the stacked layer shapes alone, so
the cut never depends on the machine). A pass takes trials in bucket order
while their shares fit, and always at least one; the pool's slab holds the
largest pass, not the whole bucket. A trial's cohort is never split, so
the per-trainer pre-draws and the divergence rerun are those of one big
pass: tiling only regroups independent rows. The paper's CNN and LSTM
train one trial per pass from the ``test`` preset up; a pool of small MLP
trials still fits in one pass.

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
from repro.fl.evaluation import StackedEvalEngine
from repro.fl.trainer import FederatedTrainer, run_slab_round
from repro.nn.stacked import StackedConv2D, StackedLSTM, StackedModel, resolve_dtype, stack_signature

#: Activation bytes one slab pass may hold (see the module docstring). At
#: the smallest batch (4), a ``test``-preset trial of ten clients estimates
#: 0.98 MiB on the CIFAR10 CNN and 0.40 MiB on the StackOverflow LSTM, so
#: each trains alone; the five-trial MLP pools of ``tests/fl/test_fused.py``
#: estimate 30 KiB and train as one pass.
PASS_BYTES = 1 << 19


def example_activation_bytes(model: StackedModel, example: np.ndarray) -> int:
    """Training activation bytes one example holds in a slab pass.

    Every layer's output, plus what a layer keeps beside it for its
    backward: a convolution's unfolded patch rows and an LSTM's per-step
    gates, cell and hidden states (eight hidden widths per step and
    layer). Shapes come from a one-copy inference sweep of ``example``;
    bytes are at the slab's itemsize.
    """
    elements = 0
    h, shared = example[None], True
    with np.errstate(all="ignore"):  # slab rows are scratch: only shapes count
        for layer in model.layers:
            h, shared = layer.eval_forward(h, 1, shared)
            elements += h.size
            if isinstance(layer, StackedConv2D):
                elements += h.size // layer.out_channels * layer.in_channels * layer.kernel_size**2
            elif isinstance(layer, StackedLSTM):
                elements += 8 * h.size * layer.num_layers
    return elements * model.dtype.itemsize


class FusedTrainerPool:
    """Advances batches of :class:`~repro.fl.trainer.FederatedTrainer`\\ s
    in cross-trial lockstep, one shared :class:`SlabTrainer` per model
    architecture (slabs are cached across calls, so the schedule buckets
    of a rung and successive rungs of a tuning run reuse one allocation).
    :meth:`evaluate` is the matching read path: every trainer of a batch
    is scored on the validation pool through the pool's
    :class:`~repro.fl.evaluation.StackedEvalEngine`, one trainer per read.

    ``dtype`` is the pool's default slab compute dtype
    (:func:`repro.nn.stacked.resolve_dtype`); each group's slab is built
    in its trainers' own ``cohort_dtype``, and the dtype name joins the
    grouping key so mixed-precision batches never share a slab.
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._slabs: Dict[tuple, SlabTrainer] = {}
        self._example_bytes: Dict[tuple, int] = {}
        self._eval_engine: Optional[StackedEvalEngine] = None

    def evaluate(self, trainers: Sequence[FederatedTrainer]) -> List[np.ndarray]:
        """Per-validation-client error rates for every trainer.

        Each trainer is one single-row
        :meth:`StackedEvalEngine.error_rates_many` read in the pool's dtype.
        The copies of a k-row read are independent per-copy GEMMs, so a row
        is the same either way, but the read's inference activations grow
        with k: at ``small`` CIFAR10 the whole validation pool is one
        720-example chunk, and a fresh process that makes one read peaks at
        59 MiB max RSS with one config and 72 MiB with three. In float64
        each row is bit-identical to the serial
        :meth:`~repro.fl.trainer.FederatedTrainer.eval_error_rates`.
        """
        if self._eval_engine is None:
            self._eval_engine = StackedEvalEngine(dtype=self.dtype)
        return [
            self._eval_engine.error_rates_many(
                t.model, [t.params], t.dataset.eval_clients, t.dataset.task
            )[0]
            for t in trainers
        ]

    # -- public API ----------------------------------------------------------
    def advance(self, trainers: Sequence[FederatedTrainer], rounds: Sequence[int]) -> None:
        """Advance ``trainers[i]`` by ``rounds[i]`` rounds, fusing where possible.

        Trainers with rounds to train are bucketed by architecture
        signature, loss, slab dtype and local step schedule; each bucket
        trains in passes of whole trials within :data:`PASS_BYTES` over
        the pool's slab for that architecture.
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
            if rounds[i] == 0:
                continue
            dtype_name = np.dtype(getattr(trainer, "cohort_dtype", self.dtype)).name
            slab_key = (stack_signature(trainer.model), trainer.dataset.task.loss_fn, dtype_name)
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
        first = trainers[0]
        slab = self._slabs.get(key)
        if slab is None:
            slab = SlabTrainer(
                first.dataset.task,
                first.model,
                first.clients_per_round,
                dtype=getattr(first, "cohort_dtype", self.dtype),
            )
            self._slabs[key] = slab
        # The slab key fixes the layers, not the examples: two text datasets
        # with equal LSTM sizes share a slab but not a sequence length.
        example = first.dataset.train_clients[0].x[0]
        bytes_key = (key, example.shape)
        example_bytes = self._example_bytes.get(bytes_key)
        if example_bytes is None:
            example_bytes = example_activation_bytes(slab.stacked_model, example)
            self._example_bytes[bytes_key] = example_bytes
        # Whole trials per pass, in bucket order; train_groups grows the
        # slab to the largest pass.
        passes: List[List[int]] = []
        used = 0
        for i, t in enumerate(trainers):
            share = t.clients_per_round * t.local.batch_size * example_bytes
            if not passes or used + share > PASS_BYTES:
                passes.append([])
                used = 0
            passes[-1].append(i)
            used += share
        for members in passes:
            remaining = {i: rounds[i] for i in members}
            while remaining:
                run_slab_round([trainers[i] for i in remaining], slab)
                remaining = {i: r - 1 for i, r in remaining.items() if r > 1}
