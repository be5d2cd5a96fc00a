"""Federated evaluation: per-client error rates and weighted aggregation.

Implements Eq. 2 of the paper: the validation objective is a weighted sum
of per-client error rates, over either the full validation pool
(``S = [N_val]``) or a subsampled cohort.

Per-client rates come from one chunking and two scorers:

- **Chunk plans.** Evaluating many small clients wants batched forward
  passes, so consecutive clients are concatenated into chunks of up to
  :data:`CHUNK_EXAMPLES` examples. The chunk *plan* — the client grouping
  plus the concatenated ``x``/``y`` arrays — is a pure function of the
  clients and that budget, never of the model. Every read builds its
  own plan (:func:`eval_chunk_plan`) and drops it when it returns: a
  plan costs a fraction of a millisecond at the benchmark's pool sizes,
  and nothing outlives the read that made it.
- **The read path.** :class:`StackedEvalEngine` is the only scorer
  production code calls and holds the only stacked inference loop:
  trial runners, the fused trainer pool and bank builds hand it k >= 1
  parameter vectors and a list of clients — the whole validation pool
  (bank builds, a noiseless tuner's rung, an incumbent's curve point) or
  one noisy release's cohort (its sorted pool indices,
  :meth:`repro.core.tuner.BaseTuner.observe_many`). It pushes those
  clients through one :class:`~repro.nn.stacked.StackedModel` inference
  slab (:meth:`~repro.nn.stacked.StackedModel.forward_eval`), with
  per-copy error counts and the diverged-model → 1.0 convention applied
  per model. The slab is its only state. A float32 slab reads a float32
  copy of the features (:meth:`EvalChunkPlan.inputs`), so it computes in
  float32 throughout. Each client's rate is its own integer error count
  over its own examples, so a cohort read gives exactly the pool read's
  rates on those clients.
- **The serial oracle.** :func:`client_error_rates` scores one serial
  model chunk by chunk. No library read path calls it; the tests hold
  every float64 engine row bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ClientData, TaskSpec, classification_error, next_token_error
from repro.nn.module import Module
from repro.nn.stacked import StackedModel, resolve_dtype, stack_signature
from repro.fl.client import evaluate_client
from repro.utils.stats import weighted_mean


# -- evaluation chunk plans ----------------------------------------------------

#: Example budget of one evaluation chunk: consecutive clients share one
#: batched forward while their examples fit. A client larger than the
#: budget gets a chunk of its own.
CHUNK_EXAMPLES = 4096


@dataclass(frozen=True)
class EvalChunk:
    """One batched forward's worth of consecutive clients.

    ``x``/``y`` are the chunk's examples in client order (the client's own
    arrays for a single-client chunk; a read-only concatenated copy
    otherwise). ``offsets[i]`` is the chunk's ``i``-th client's first row,
    ``sizes[i]`` its example count, so per-client error counting slices
    (or ``reduceat``s) the chunk-level logits without re-deriving
    boundaries.
    """

    x: np.ndarray
    y: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray


class EvalChunkPlan:
    """The chunking of a list of clients under :data:`CHUNK_EXAMPLES`.

    Chunk boundaries use the same greedy grow-while-it-fits rule the
    chunked evaluator has always used, so the serial oracle and the
    engine see identical chunks. The plan keeps the clients' arrays,
    never the :class:`ClientData` objects.
    """

    def __init__(self, clients: Sequence[ClientData]):
        self.n_clients = len(clients)
        chunks: List[EvalChunk] = []
        i, n = 0, self.n_clients
        while i < n:
            # Grow the chunk while the next client fits the example budget.
            j = i + 1
            total = clients[i].n
            while j < n and total + clients[j].n <= CHUNK_EXAMPLES:
                total += clients[j].n
                j += 1
            members = clients[i:j]
            sizes = np.array([c.n for c in members], dtype=np.int64)
            offsets = np.zeros(len(members), dtype=np.int64)
            np.cumsum(sizes[:-1], out=offsets[1:])
            if len(members) == 1:
                x, y = members[0].x, members[0].y
            else:
                x = np.concatenate([c.x for c in members])
                y = np.concatenate([c.y for c in members])
                x.setflags(write=False)
                y.setflags(write=False)
            chunks.append(EvalChunk(x, y, offsets, sizes))
            i = j
        self.chunks = chunks

    def inputs(self, dtype) -> List[np.ndarray]:
        """Every chunk's ``x`` in ``dtype``.

        A float32 inference slab fed float64 features would upcast at its
        first matmul and run in float64 from there on. Float features are
        cast; integer token ids pass through, and a float64 slab reads the
        chunks' own arrays.
        """
        return [
            c.x.astype(dtype, copy=False) if c.x.dtype.kind == "f" else c.x
            for c in self.chunks
        ]


def eval_chunk_plan(clients: Sequence[ClientData]) -> EvalChunkPlan:
    """A fresh :class:`EvalChunkPlan` of ``clients`` for one read.

    Every read builds its plan here, so the plan's concatenated copies
    live exactly as long as the read that scores them.
    """
    return EvalChunkPlan(clients)


# -- per-client error rates ----------------------------------------------------


def client_error_rates(
    model: Module, clients: Sequence[ClientData], task: TaskSpec
) -> np.ndarray:
    """Per-client error rates of ``model`` (each in [0, 1]).

    Clients are evaluated in batched forward passes over their
    :class:`EvalChunkPlan`, which removes both the per-client layer
    overhead and the per-call concatenation cost on pools of small
    clients. Error counts (and the diverged-model convention of
    :func:`repro.fl.client.evaluate_client`) are still applied per client.
    """
    plan = eval_chunk_plan(clients)
    rates = np.empty(plan.n_clients)
    pos = 0
    for chunk in plan.chunks:
        members = clients[pos : pos + len(chunk.sizes)]
        if len(members) == 1:
            n_err, n_tot = evaluate_client(model, members[0], task)
            rates[pos] = n_err / n_tot
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                logits = model(chunk.x)
            for i, client in enumerate(members):
                off = chunk.offsets[i]
                client_logits = logits[off : off + client.n]
                if not np.all(np.isfinite(client_logits)):
                    # Diverged model: mispredicts everything by convention.
                    rates[pos + i] = 1.0
                else:
                    n_err, n_tot = task.error_fn(client_logits, client.y)
                    rates[pos + i] = n_err / n_tot
        pos += len(members)
    return rates


# -- vectorized per-client error counting --------------------------------------


def _count_classification(logits: np.ndarray, chunk: EvalChunk) -> Tuple[np.ndarray, np.ndarray]:
    """(errors, totals) per copy per client for flat classification.

    ``argmax`` + compare + segment-sum produce exactly the integer counts
    :func:`repro.datasets.base.classification_error` returns per client.
    """
    preds = logits.argmax(axis=-1)  # (k, B)
    wrong = (preds != chunk.y).astype(np.int64)
    errs = np.add.reduceat(wrong, chunk.offsets, axis=-1)
    return errs, np.broadcast_to(chunk.sizes, errs.shape)


def _count_next_token(logits: np.ndarray, chunk: EvalChunk) -> Tuple[np.ndarray, np.ndarray]:
    """(errors, totals) per copy per client for next-token prediction."""
    preds = logits.argmax(axis=-1)  # (k, B, T)
    wrong = (preds != chunk.y).sum(axis=-1, dtype=np.int64)  # (k, B)
    errs = np.add.reduceat(wrong, chunk.offsets, axis=-1)
    return errs, np.broadcast_to(chunk.sizes * chunk.y.shape[1], errs.shape)


#: Serial ``error_fn`` -> vectorized per-copy per-client counter, mirroring
#: the STACKED_LOSSES registry. Stacked evaluation of a task whose error
#: function has no counter here raises.
STACKED_ERROR_COUNTERS: Dict[Callable, Callable] = {
    classification_error: _count_classification,
    next_token_error: _count_next_token,
}


def _finite_per_client(logits: np.ndarray, chunk: EvalChunk) -> np.ndarray:
    """(k, m) bool: copy c produced all-finite logits on client i (the
    per-copy form of the serial ``np.all(np.isfinite(client_logits))``)."""
    fin = np.isfinite(logits)
    if fin.ndim > 2:
        fin = fin.reshape(fin.shape[0], fin.shape[1], -1).all(axis=2)
    bad = (~fin).astype(np.int64)
    return np.add.reduceat(bad, chunk.offsets, axis=-1) == 0


class StackedEvalEngine:
    """The one production read path: per-client error rates of many
    same-architecture parameter vectors at once.

    Every evaluation a tuning run, a bank build or a bank re-evaluation
    makes scores through :meth:`error_rates_many`, for any number of
    vectors k >= 1. The engine's only state is one inference slab,
    rebuilt when the architecture changes or a read needs more rows:
    every production engine (one per runner, fused pool, bank build or
    re-evaluation) reads one architecture. It keeps no per-trial state,
    so a read always scores the parameters it is given.

    ``dtype`` fixes the slab compute dtype
    (:func:`repro.nn.stacked.resolve_dtype`): callers pass the dtype their
    trainers train in, float64 for the serial path.
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._model: Optional[StackedModel] = None
        self._signature: Optional[tuple] = None

    def error_rates_many(
        self,
        template: Module,
        params_rows: Sequence[np.ndarray],
        clients: Sequence[ClientData],
        task: TaskSpec,
    ) -> np.ndarray:
        """``(T, n_clients)`` error rates for T parameter vectors at once.

        ``template`` supplies the architecture (its own parameter values
        are irrelevant — every evaluated row is overwritten). Row ``t`` is
        bit-identical to :func:`client_error_rates` on a float64 model
        holding ``params_rows[t]`` when the engine computes in float64:
        both read the same chunk plan, each copy's logits match the serial
        forward per dgemm, counts are integer-exact, and a copy whose
        logits go non-finite on a client scores 1.0 there — per copy, not
        per chunk.
        """
        counter = STACKED_ERROR_COUNTERS.get(task.error_fn)
        if counter is None:
            raise ValueError(
                f"error_fn {getattr(task.error_fn, '__name__', task.error_fn)!r} has no "
                "stacked error counter (see STACKED_ERROR_COUNTERS)"
            )
        k = len(params_rows)
        if k == 0:
            return np.empty((0, len(clients)))
        sig = stack_signature(template)
        if sig is None:
            raise ValueError(
                f"model {type(template).__name__} has no stacked inference kernels"
            )
        if self._model is None or sig != self._signature or self._model.n_copies < k:
            self._model = StackedModel(template, k, dtype=self.dtype)
            self._signature = sig
        stacked = self._model
        for i, params in enumerate(params_rows):
            stacked.slab[i] = params
        plan = eval_chunk_plan(clients)
        rates = np.empty((k, plan.n_clients))
        pos = 0
        for chunk, x in zip(plan.chunks, plan.inputs(self.dtype)):
            m = len(chunk.sizes)
            with np.errstate(over="ignore", invalid="ignore"):
                logits = stacked.forward_eval(x, k)
            errs, tots = counter(logits, chunk)
            block = errs / tots
            np.copyto(block, 1.0, where=~_finite_per_client(logits, chunk))
            rates[:, pos : pos + m] = block
            pos += m
        return rates


# -- aggregation ---------------------------------------------------------------


def federated_error(
    error_rates: np.ndarray,
    weights: np.ndarray,
    subset: Optional[np.ndarray] = None,
) -> float:
    """Aggregate per-client error rates into the Eq. 2 objective.

    ``subset`` restricts both rates and weights to a sampled cohort
    (subsampled evaluation); ``None`` uses every client (full evaluation).
    """
    error_rates = np.asarray(error_rates, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if error_rates.shape != weights.shape:
        raise ValueError(
            f"shape mismatch: rates {error_rates.shape} vs weights {weights.shape}"
        )
    if subset is not None:
        subset = np.asarray(subset)
        error_rates = error_rates[subset]
        weights = weights[subset]
    return weighted_mean(error_rates, weights)


def tail_error(
    error_rates: np.ndarray,
    percentile: float = 90.0,
    subset: Optional[np.ndarray] = None,
) -> float:
    """Tail objective: the ``percentile``-th percentile of per-client error.

    The paper's §6 points out that HP tuning on *average* performance can
    hide bad tails under heterogeneity (mirroring fair-FL work, Mohri et
    al. 2019; Li et al. 2020c). This is the complementary measurement:
    ``tail_error(rates, 90)`` is the error experienced by the worst decile
    of clients.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    error_rates = np.asarray(error_rates, dtype=np.float64)
    if subset is not None:
        error_rates = error_rates[np.asarray(subset)]
    if error_rates.size == 0:
        raise ValueError("tail_error of empty cohort")
    return float(np.percentile(error_rates, percentile))

