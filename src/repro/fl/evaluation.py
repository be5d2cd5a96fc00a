"""Federated evaluation: per-client error rates and weighted aggregation.

Implements Eq. 2 of the paper: the validation objective is a weighted sum
of per-client error rates, over either the full validation pool
(``S = [N_val]``) or a subsampled cohort.

The evaluation-side hot path mirrors the training-side slab architecture:

- **Chunk-plan cache.** Evaluating a pool of many small clients wants
  batched forward passes, so consecutive clients are concatenated into
  chunks of up to ``max_chunk_examples`` examples. The chunk *plan* — the
  client grouping plus the concatenated ``x``/``y`` arrays — depends only
  on the client pool and the chunk budget, never on the model, so it is
  built once per pool and cached (:func:`eval_chunk_plan`, a small LRU
  keyed by the identity of the client objects; entries hold strong
  references to their clients, which pins the ids the key is built from).
  Both evaluation paths — the serial/chunked :func:`client_error_rates`
  and the stacked :func:`stacked_client_error_rates` — reuse the same
  plan, so the per-call concatenation
  cost of the old code is paid once per pool instead of once per model.
- **Stacked evaluation.** :class:`StackedEvalEngine` pushes the whole
  validation pool through one :class:`~repro.nn.stacked.StackedModel`
  inference slab holding T same-architecture models
  (:meth:`~repro.nn.stacked.StackedModel.forward_eval`), with per-copy
  error counts and the diverged-model → 1.0 convention preserved per
  model — bit-identical to T serial :func:`client_error_rates` calls.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import (
    ClientData,
    FederatedDataset,
    TaskSpec,
    classification_error,
    next_token_error,
)
from repro.nn.module import Module, set_flat_params
from repro.nn.stacked import StackedModel, eval_stack_signature, resolve_dtype
from repro.fl.client import evaluate_client
from repro.utils.stats import weighted_mean


# -- evaluation chunk plans ----------------------------------------------------


@dataclass(frozen=True)
class EvalChunk:
    """One batched forward's worth of consecutive clients.

    ``x``/``y`` are the chunk's examples in client order (the clients' own
    arrays for single-client chunks; a read-only concatenated copy
    otherwise). ``offsets[i]`` is client ``i``'s first row within the
    chunk, so per-client error counting slices (or ``reduceat``s) the
    chunk-level logits without re-deriving boundaries.
    """

    clients: tuple
    x: np.ndarray
    y: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray


class EvalChunkPlan:
    """The full chunking of one client pool under one example budget.

    Chunk boundaries use the same greedy grow-while-it-fits rule the
    chunked evaluator has always used, so rates computed through a plan
    are bit-identical to the plan-free code it replaced.
    """

    def __init__(self, clients: Sequence[ClientData], max_chunk_examples: int):
        if max_chunk_examples < 1:
            raise ValueError(f"max_chunk_examples must be >= 1, got {max_chunk_examples}")
        self.clients = tuple(clients)
        self.max_chunk_examples = int(max_chunk_examples)
        self.n_clients = len(self.clients)
        chunks: List[EvalChunk] = []
        i, n = 0, self.n_clients
        while i < n:
            # Grow the chunk while the next client fits the example budget.
            j = i + 1
            total = self.clients[i].n
            while j < n and total + self.clients[j].n <= max_chunk_examples:
                total += self.clients[j].n
                j += 1
            members = self.clients[i:j]
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
            chunks.append(EvalChunk(members, x, y, offsets, sizes))
            i = j
        self.chunks = chunks


#: LRU of chunk plans. Keys are (budget, id(client_0), id(client_1), ...);
#: cached plans hold strong references to their ClientData objects, so a
#: live entry's ids can never be recycled onto different objects.
_PLAN_CACHE: "OrderedDict[tuple, EvalChunkPlan]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 16


def clear_eval_plan_cache() -> None:
    """Drop every cached chunk plan.

    The LRU bounds the cache to ``_PLAN_CACHE_CAPACITY`` pools, but each
    entry pins its clients (plus concatenated copies) for the process
    lifetime; long-lived processes that churn through many validation
    pools — e.g. repeated Figure-4 repartitions — can call this between
    experiments to release them eagerly.
    """
    _PLAN_CACHE.clear()


def eval_chunk_plan(
    clients: Sequence[ClientData], max_chunk_examples: int = 4096
) -> EvalChunkPlan:
    """The (cached) :class:`EvalChunkPlan` for ``clients``.

    Client feature/label arrays are treated as immutable, as everywhere in
    the simulator; mutating one in place would go unnoticed by a cached
    plan's concatenated copies.
    """
    key = (int(max_chunk_examples),) + tuple(map(id, clients))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = EvalChunkPlan(clients, max_chunk_examples)
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


# -- per-client error rates ----------------------------------------------------


def client_error_rates(
    model: Module,
    clients: Sequence[ClientData],
    task: TaskSpec,
    max_chunk_examples: int = 4096,
    plan: Optional[EvalChunkPlan] = None,
) -> np.ndarray:
    """Per-client error rates of ``model`` (each in [0, 1]).

    Clients are evaluated in batched forward passes over the pool's cached
    :class:`EvalChunkPlan` (pass ``plan`` to skip the cache lookup), which
    removes both the per-client layer overhead and the per-call
    concatenation cost on pools of small clients. Error counts (and the
    diverged-model convention of :func:`repro.fl.client.evaluate_client`)
    are still applied per client.
    """
    model.eval()
    if plan is None:
        plan = eval_chunk_plan(clients, max_chunk_examples)
    rates = np.empty(plan.n_clients)
    pos = 0
    for chunk in plan.chunks:
        members = chunk.clients
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


#: Serial ``error_fn`` -> vectorized per-copy per-client counter. Tasks with
#: a custom error function fall back to per-copy serial counting (correct,
#: just not batched), mirroring the STACKED_LOSSES registry pattern.
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


def stacked_client_error_rates(
    stacked: StackedModel,
    clients: Sequence[ClientData],
    task: TaskSpec,
    n_models: Optional[int] = None,
    max_chunk_examples: int = 4096,
    plan: Optional[EvalChunkPlan] = None,
) -> np.ndarray:
    """Per-client error rates of the slab's leading ``n_models`` copies.

    Returns ``(n_models, n_clients)``; row ``t`` is bit-identical to
    :func:`client_error_rates` on the serial model holding ``slab[t]``:
    chunks come from the same shared plan, each copy's logits match the
    serial forward per dgemm, counts are integer-exact, and a copy whose
    logits go non-finite on a client scores 1.0 there — per copy, not per
    chunk.
    """
    k = stacked.n_copies if n_models is None else n_models
    if plan is None:
        plan = eval_chunk_plan(clients, max_chunk_examples)
    counter = STACKED_ERROR_COUNTERS.get(task.error_fn)
    rates = np.empty((k, plan.n_clients))
    pos = 0
    for chunk in plan.chunks:
        m = len(chunk.clients)
        with np.errstate(over="ignore", invalid="ignore"):
            logits = stacked.forward_eval(chunk.x, k)
        if counter is not None:
            errs, tots = counter(logits, chunk)
            block = errs / tots
            np.copyto(block, 1.0, where=~_finite_per_client(logits, chunk))
            rates[:, pos : pos + m] = block
        else:
            for c in range(k):
                for i, client in enumerate(chunk.clients):
                    off = chunk.offsets[i]
                    client_logits = logits[c, off : off + client.n]
                    if not np.all(np.isfinite(client_logits)):
                        rates[c, pos + i] = 1.0
                    else:
                        n_err, n_tot = task.error_fn(client_logits, client.y)
                        rates[c, pos + i] = n_err / n_tot
        pos += m
    return rates


class StackedEvalEngine:
    """Batched evaluation of many same-architecture models on one pool.

    The engine owns inference slabs cached per architecture signature
    (grown in place as batches get larger), or *borrows* a caller-provided
    slab — the fused trial runner hands over the training slab its rung
    just trained, so a train-then-evaluate cycle never unstacks and
    restacks parameters. One engine instance per runner/pool is the
    intended granularity; slabs are reused across calls.

    ``dtype`` fixes the engine's slab compute dtype
    (:func:`repro.nn.stacked.resolve_dtype`); a borrowed slab is only
    accepted when its dtype matches, so a float32 training slab never
    silently changes the precision of a float64 evaluation (or vice
    versa).
    """

    _CAPACITY = 8  # distinct architectures kept

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._models: "OrderedDict[tuple, StackedModel]" = OrderedDict()

    def _model_for(
        self,
        template: Module,
        signature: tuple,
        rows: int,
        borrowed: Optional[StackedModel] = None,
    ) -> StackedModel:
        if (
            borrowed is not None
            and borrowed.n_copies >= rows
            and borrowed.dtype == self.dtype
        ):
            return borrowed
        cached = self._models.get(signature)
        if cached is None or cached.n_copies < rows:
            cached = StackedModel(template, rows, dtype=self.dtype)
            self._models[signature] = cached
            if len(self._models) > self._CAPACITY:
                self._models.popitem(last=False)
        self._models.move_to_end(signature)
        return cached

    def error_rates_many(
        self,
        template: Module,
        params_rows: Sequence[np.ndarray],
        clients: Sequence[ClientData],
        task: TaskSpec,
        max_chunk_examples: int = 4096,
        signature: Optional[tuple] = None,
        borrowed: Optional[StackedModel] = None,
    ) -> np.ndarray:
        """``(T, n_clients)`` error rates for T parameter vectors at once.

        ``template`` supplies the architecture (its own parameter values
        are irrelevant — every evaluated row is overwritten); ``borrowed``
        may pass an existing same-architecture slab with capacity >= T.
        """
        rows = len(params_rows)
        if rows == 0:
            return np.empty((0, len(clients)))
        sig = signature if signature is not None else eval_stack_signature(template)
        if sig is None:
            raise ValueError(
                f"model {type(template).__name__} has no stacked inference kernels"
            )
        stacked = self._model_for(template, sig, rows, borrowed)
        slab = stacked.slab
        for i, params in enumerate(params_rows):
            slab[i] = params
        return stacked_client_error_rates(
            stacked, clients, task, n_models=rows, max_chunk_examples=max_chunk_examples
        )


def fused_group_rates(
    engine: StackedEvalEngine,
    models: Sequence[Module],
    params_rows: Sequence[np.ndarray],
    clients: Sequence[ClientData],
    task: TaskSpec,
    pool=None,
) -> List[Optional[np.ndarray]]:
    """Stacked rates for a batch of (model, params) pairs on one pool.

    The shared grouping core of both fused-evaluation entry points
    (``FusedTrainerPool.evaluate`` and the trial runners'
    ``error_rates_many``): models group by :func:`eval_stack_signature`,
    each multi-member group evaluates through ``engine`` as one inference
    slab — borrowed from ``pool`` (anything with the
    ``FusedTrainerPool.stacked_model(key, rows)`` interface) when its
    training slab for the architecture can hold the group — and every
    evaluated entry comes back as its own writable copy. Entries that
    need the caller's serial path (unstackable models, singleton groups)
    are returned as ``None``.
    """
    from repro.nn.stacked import stack_signature

    results: List[Optional[np.ndarray]] = [None] * len(models)
    groups: Dict[tuple, List[int]] = {}
    for i, model in enumerate(models):
        signature = eval_stack_signature(model)
        if signature is not None:
            groups.setdefault(signature, []).append(i)
    for signature, members in groups.items():
        if len(members) == 1:
            continue
        template = models[members[0]]
        borrowed = None
        if pool is not None:
            borrowed = pool.stacked_model(
                (stack_signature(template), task.loss_fn), len(members)
            )
        rates = engine.error_rates_many(
            template,
            [params_rows[i] for i in members],
            clients,
            task,
            signature=signature,
            borrowed=borrowed,
        )
        for row, i in zip(rates, members):
            # Per-entry copies so releasing one trial's vector does not
            # pin the whole (T, n) block.
            results[i] = row.copy()
    return results


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


def evaluate_model(
    model: Module,
    dataset: FederatedDataset,
    params: Optional[np.ndarray] = None,
    subset: Optional[np.ndarray] = None,
    scheme: str = "weighted",
) -> float:
    """End-to-end evaluation: error rates + aggregation in one call.

    ``params`` (if given) is loaded into ``model`` first; ``subset`` indexes
    into the validation client pool; ``scheme`` selects the paper's weighted
    or uniform objective.
    """
    if params is not None:
        set_flat_params(model, params)
    clients = dataset.eval_clients
    weights = dataset.eval_weights(scheme)
    if subset is not None:
        subset = np.asarray(subset)
        clients = [clients[i] for i in subset]
        weights = weights[subset]
    rates = client_error_rates(model, clients, dataset.task)
    return weighted_mean(rates, weights)
