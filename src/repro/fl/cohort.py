"""Lockstep cohort training: slab-agnostic SGD over client rows.

The serial reference trains a round's cohort one client at a time through
:class:`~repro.fl.client.ClientTrainer` — hundreds of small-array layer
calls per round. This module replaces that loop with lockstep SGD over a
:class:`~repro.nn.stacked.StackedModel`: every participating client's
parameters live in one ``(R, P)`` slab, every local step is one batched
forward/backward over an ``(R, B, ...)`` stacked batch, and the optimizer
update is one fused whole-slab call
(:func:`repro.nn.optim.fused_sgd_step`).

:class:`SlabTrainer` is *slab-agnostic*: it trains a list of
:class:`SlabGroup` row groups, where each group carries its own
round-start parameters and hyperparameters (lr / momentum / weight decay /
FedProx mu broadcast per slab row via the per-row vector form of
:func:`~repro.nn.optim.fused_sgd_step`). One round function drives it,
:func:`repro.fl.trainer.run_slab_round`: a standalone
``FederatedTrainer(cohort_mode="fused")`` calls it with itself (T=1), a
:class:`repro.fl.fused.FusedTrainerPool` with every trial of a tuner rung
that shares a local step schedule (a ``(T*C, P)`` slab).

Equivalence contract (asserted in ``tests/fl/test_cohort.py`` and
``tests/fl/test_fused.py``):

- **RNG stream.** Batch permutations are pre-drawn from the shared trainer
  RNG in exactly the order the serial loop draws them (client by client,
  epoch by epoch), and Dropout masks are pre-drawn from each layer's own
  generator in serial visit order (:class:`~repro.nn.stacked.StackedDropout`).
  When a model's Dropout layers share one generator object, the whole
  round's masks are instead drawn eagerly in the serial *interleaved*
  order — client, step, layer in forward order — and installed per layer
  (:meth:`SlabTrainer._predraw_interleaved`). Either way every
  generator's end state is identical to the serial path's.
- **Trajectories.** Per-step, per-client math matches the serial
  :class:`~repro.fl.client.ClientTrainer` kernel for kernel. When every
  active row's batch at a lockstep step has equal size (no padding),
  the round is bit-identical to serial; ragged steps pad short batches
  with loss-masked copies of a real row, which leaves gradient *sums*
  unchanged and perturbs only per-client reduction order (~1e-15
  relative per round; tests assert rtol=1e-8 over few-round windows).
- **Fallback.** A client producing a non-finite loss mid-round fails *its
  group only*: the group's rows keep occupying the slab (row math is
  independent, so neighbours are unaffected bit-for-bit) but its results
  are discarded, and the caller reruns that trainer's round serially after
  restoring its RNG snapshots — reproducing serial semantics exactly
  (including the diverged client's early stop and its effect on later
  draws). When *every* group has failed the attempt aborts early.

Rows are processed sorted by local step count (stable descending), so
finished clients retire from a shrinking *prefix* of the slab — ragged
cohorts never pay masked no-op steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ClientData, TaskSpec
from repro.nn.module import Module
from repro.nn.optim import fused_sgd_step
from repro.nn.stacked import (
    STACKED_LOSSES,
    StackedDropout,
    StackedModel,
    resolve_dtype,
    supports_stacking,
)

#: Environment switch for the default cohort mode: unset (or empty) and
#: "serial" -> serial, "fused" -> fused. Anything else is an error (not a
#: silent fallback).
COHORT_VECTOR_ENV = "REPRO_COHORT_VECTOR"

COHORT_MODES = ("serial", "fused")


def resolve_cohort_mode(mode: Optional[str] = None) -> str:
    """Resolve an explicit or environment-provided cohort mode.

    ``None`` consults ``$REPRO_COHORT_VECTOR`` (unset -> "serial", so slab
    training is opt-in, like ``REPRO_WORKERS``/``REPRO_BANK_CACHE``).
    Unknown values — explicit or from the environment — raise instead of
    silently degrading to serial.
    """
    source = "cohort_mode"
    if mode is None:
        source = f"${COHORT_VECTOR_ENV}"
        mode = os.environ.get(COHORT_VECTOR_ENV, "").strip().lower() or "serial"
    if mode not in COHORT_MODES:
        raise ValueError(
            f"{source} must be one of {COHORT_MODES} (lockstep slab training is "
            f"'fused'), got {mode!r}"
        )
    return mode


@dataclass
class SlabGroup:
    """One row group of a lockstep slab: a trainer's cohort for one round.

    ``start`` is the group's round-start global parameter vector (every row
    initializes from it, and FedProx anchors to it). ``perms`` are the
    pre-drawn batch permutations, ``perms[i][e]`` for client ``i`` epoch
    ``e``, drawn by the caller from the owning trainer's RNG in serial
    order. ``dropout_rngs`` are the owning *template model's* active
    Dropout generators (see :func:`repro.nn.stacked.collect_dropout_rngs`),
    one per active Dropout layer, so fused groups draw their masks from
    their own trainers' streams.
    """

    start: np.ndarray
    clients: Sequence[ClientData]
    perms: Sequence[Sequence[np.ndarray]]
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    prox_mu: float = 0.0
    batch_size: int = 32
    epochs: int = 1
    dropout_rngs: Sequence[np.random.Generator] = field(default_factory=tuple)


class SlabTrainer:
    """Slab-agnostic lockstep local SGD over row groups.

    One instance is reused across rounds (and, in a trainer pool, across
    trials): the stacked model, its slab, the velocity buffer, and the
    batch-assembly buffers are allocated once and grown on demand via
    :meth:`ensure_capacity`.

    ``dtype`` is the slab compute dtype
    (:func:`repro.nn.stacked.resolve_dtype`): float64 (default) is the
    bit-exact serial reference; float32 halves slab memory and also pulls
    floating batch data down to float32 so no kernel silently upcasts
    mid-pipeline. RNG pre-draws (permutations, Dropout masks) always
    consume the generators' native float64 stream regardless, preserving
    serial RNG-state equivalence in every dtype.
    """

    @staticmethod
    def supports(task: TaskSpec, template: Module) -> bool:
        """Whether this task/model pair has lockstep kernels (without
        paying for a slab — trainers check this at construction)."""
        return supports_stacking(template) and task.loss_fn in STACKED_LOSSES

    def __init__(self, task: TaskSpec, template: Module, capacity: int, dtype=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        stacked_loss = STACKED_LOSSES.get(task.loss_fn)
        if stacked_loss is None:
            raise ValueError(f"no stacked counterpart for loss {task.loss_fn!r}")
        if not supports_stacking(template):
            raise ValueError(
                f"model {type(template).__name__} contains layers without stacked kernels"
            )
        self.task = task
        self.template = template
        self.dtype = resolve_dtype(dtype)
        self._loss = stacked_loss
        self.capacity = 0
        self._stacked: Optional[StackedModel] = None
        self._dropouts: List[StackedDropout] = []
        self._velocity: Optional[np.ndarray] = None
        self._anchors: Optional[np.ndarray] = None
        self._work: Optional[np.ndarray] = None
        # Batch-assembly buffers, (re)allocated lazily by example shape.
        self._xbuf: Optional[np.ndarray] = None
        self._ybuf: Optional[np.ndarray] = None
        self._mbuf: Optional[np.ndarray] = None
        self.ensure_capacity(capacity)

    @property
    def n_params(self) -> int:
        return self._stacked.n_params

    @property
    def stacked_model(self) -> StackedModel:
        """The underlying slab model. Between :meth:`train_groups` calls
        its rows are free scratch — every round reloads them from the
        groups' start vectors — so fused evaluation borrows it as an
        inference slab (:meth:`~repro.nn.stacked.StackedModel.forward_eval`)
        instead of allocating a second ``(C, P)`` allocation."""
        return self._stacked

    def ensure_capacity(self, rows: int) -> None:
        """Grow the slab (and every row-shaped buffer) to hold ``rows``."""
        if rows <= self.capacity:
            return
        self._stacked = StackedModel(self.template, rows, dtype=self.dtype)
        self._dropouts = [
            layer
            for layer in self._stacked.layers
            if isinstance(layer, StackedDropout) and layer.rate > 0
        ]
        self.capacity = rows
        self._work = np.empty_like(self._stacked.slab)
        self._velocity = None
        self._anchors = None
        self._xbuf = self._ybuf = self._mbuf = None

    # -- internals -----------------------------------------------------------
    def _data_dtype(self, dt):
        """Batch-data dtype policy: in reduced-precision mode, floating
        batch data follows the slab dtype (casting once at assembly keeps
        every kernel in one precision); integer labels/ids — and all data
        in the float64 reference mode — pass through unchanged."""
        if self.dtype != np.float64 and np.issubdtype(dt, np.floating):
            return self.dtype
        return dt

    def _ensure_batch_buffers(self, x0: np.ndarray, y0: np.ndarray, width: int) -> None:
        # Grow-only: a buffer at least `width` wide is sliced per step, so
        # alternating round widths never thrash allocations.
        xdt = self._data_dtype(x0.dtype)
        ydt = self._data_dtype(y0.dtype)
        if (
            self._xbuf is None
            or self._xbuf.dtype != xdt
            or self._xbuf.shape[0] < self.capacity
            or self._xbuf.shape[1] < width
            or self._xbuf.shape[2:] != x0.shape[1:]
            or self._ybuf.shape[2:] != y0.shape[1:]
            or self._ybuf.dtype != ydt
        ):
            width = max(width, self._xbuf.shape[1] if self._xbuf is not None else 0)
            self._xbuf = np.empty((self.capacity, width) + x0.shape[1:], dtype=xdt)
            self._ybuf = np.empty((self.capacity, width) + y0.shape[1:], dtype=ydt)
            self._mbuf = np.empty((self.capacity, width), dtype=self.dtype)

    def _probe_dropout_shapes(self, client: ClientData) -> List[tuple]:
        """Feature shape each active Dropout layer sees, learned from a
        one-example forward with every layer's shape probe armed
        (:meth:`~repro.nn.stacked.StackedDropout.begin_shape_probe`) — no
        masks drawn, no generator consumed, no gradients touched (the
        probe never runs backward), and every forward cache is overwritten
        by the round's first real step."""
        for layer in self._dropouts:
            layer.begin_shape_probe()
        self._stacked.forward(client.x[:1][None])
        shapes = []
        for layer in self._dropouts:
            if layer.probe_shape is None:
                raise RuntimeError("shape probe did not reach a Dropout layer")
            shapes.append(layer.probe_shape)
        return shapes

    def _predraw_interleaved(
        self, groups, clients_flat, schedule, pos_of_row, row_base, n_rows
    ) -> None:
        """Eagerly draw the round's Dropout masks in the serial
        *interleaved* order — client (group by group, cohort order
        within), local step, layer in forward order — and install each
        layer's finished stream (:meth:`StackedDropout.install_masks`).

        This is the shared-generator mode: when several layers draw from
        one generator object, the serial loop's consumption of that
        stream alternates between layers within every step, which the
        per-layer lazy plans cannot reproduce. Drawing here in exactly
        the serial order keeps both mask values and the generator's end
        state bit-identical to the serial path — also for groups whose
        generators are disjoint, since restricting the interleaved order
        to a single stream yields that stream's per-layer order.
        """
        feat_shapes = self._probe_dropout_shapes(clients_flat[0])
        keeps = [1.0 - layer.rate for layer in self._dropouts]
        n_layers = len(self._dropouts)
        all_masks: List[List[Optional[List[np.ndarray]]]] = [
            [None] * n_rows for _ in range(n_layers)
        ]
        for gi, group in enumerate(groups):
            for ci in range(len(group.clients)):
                pos = int(pos_of_row[row_base[gi] + ci])
                per_layer: List[List[np.ndarray]] = [[] for _ in range(n_layers)]
                for _, _, b in schedule[pos]:
                    for d_idx in range(n_layers):
                        rng = group.dropout_rngs[d_idx]
                        per_layer[d_idx].append(
                            (rng.random((b,) + feat_shapes[d_idx]) < keeps[d_idx])
                            / keeps[d_idx]
                        )
                for d_idx in range(n_layers):
                    all_masks[d_idx][pos] = per_layer[d_idx]
        for d_idx, layer in enumerate(self._dropouts):
            layer.install_masks(all_masks[d_idx])

    def train_groups(self, groups: Sequence[SlabGroup], outs: Sequence[np.ndarray]) -> List[bool]:
        """Run every group's local training in one lockstep slab.

        Writes each *successful* group's updated flat parameters into its
        ``outs`` entry (shape ``(len(group.clients), P)``, cohort order)
        and returns per-group success flags. A failed group (some client's
        loss went non-finite) leaves its ``outs`` entry unspecified; the
        caller must restore that trainer's RNG snapshots and rerun its
        round serially. Generator state of *successful* groups is final —
        permutations were pre-drawn by the caller and dropout masks are
        consumed here in serial order.
        """
        n_groups = len(groups)
        if n_groups == 0:
            return []
        if len(outs) != n_groups:
            raise ValueError(f"expected {n_groups} output buffers, got {len(outs)}")
        for gi, group in enumerate(groups):
            if len(group.clients) < 1:
                raise ValueError(f"group {gi} has no clients")
            if outs[gi].shape != (len(group.clients), self.n_params):
                raise ValueError(
                    f"outs[{gi}] must be {(len(group.clients), self.n_params)}, "
                    f"got {outs[gi].shape}"
                )
            if self._dropouts and len(group.dropout_rngs) != len(self._dropouts):
                raise ValueError(
                    f"group {gi} supplies {len(group.dropout_rngs)} dropout generators, "
                    f"model has {len(self._dropouts)} active Dropout layers"
                )
        # Flat row tables: row r is client `clients_flat[r]` of group
        # `group_of_row[r]` (groups are contiguous blocks of rows). Plain
        # lists — at cohort scale, numpy call overhead would dominate.
        group_sizes = [len(g.clients) for g in groups]
        clients_flat = [c for g in groups for c in g.clients]
        perms_flat = [p for g in groups for p in g.perms]
        n_rows = len(clients_flat)
        self.ensure_capacity(n_rows)
        group_of_row = [gi for gi, size in enumerate(group_sizes) for _ in range(size)]
        row_base = [0]
        for size in group_sizes:
            row_base.append(row_base[-1] + size)
        ns = [c.n for c in clients_flat]
        step_counts = [
            groups[gi].epochs * -(-n // groups[gi].batch_size)
            for gi, n in zip(group_of_row, ns)
        ]

        # Process rows sorted by step count (stable descending) so the
        # active set is always a prefix of the slab. When every row has the
        # same step count (the common rung/bank shape) the sort is skipped
        # — ordering of independent rows never affects the math.
        if min(step_counts) == max(step_counts):
            order = pos_of_row = range(n_rows)
            steps_sorted = step_counts
            group_of_pos = group_of_row
        else:
            order = sorted(range(n_rows), key=lambda r: -step_counts[r])
            steps_sorted = [step_counts[r] for r in order]
            group_of_pos = [group_of_row[r] for r in order]
            pos_of_row = [0] * n_rows
            for pos, r in enumerate(order):
                pos_of_row[r] = pos
        # Uniform-schedule fast path: when every row shares one
        # (n, batch_size, epochs) triple — balanced partitions, and every
        # rung/bank build over them — the permuted data pre-stacks into one
        # (R, epochs*n, ...) array per round and each lockstep step's batch
        # is a zero-copy *slice* of it: no per-row assembly, no padding, no
        # mask, no retirement bookkeeping. Values are identical to the
        # general path's buffer fills (same elements, viewed in place).
        uniform_schedule = min(ns) == max(ns) and all(
            (g.batch_size, g.epochs) == (groups[0].batch_size, groups[0].epochs)
            for g in groups[1:]
        )
        perm_x: List[List[np.ndarray]] = []
        perm_y: List[List[np.ndarray]] = []
        schedule: List[List[Tuple[int, int, int]]]
        stacked_x = stacked_y = None
        if uniform_schedule:
            n_ex, u_bsz, u_epochs = int(ns[0]), groups[0].batch_size, groups[0].epochs
            first = clients_flat[0]
            stacked_x = np.empty(
                (n_rows, u_epochs * n_ex) + first.x.shape[1:],
                dtype=self._data_dtype(first.x.dtype),
            )
            stacked_y = np.empty(
                (n_rows, u_epochs * n_ex) + first.y.shape[1:],
                dtype=self._data_dtype(first.y.dtype),
            )
            for r in range(n_rows):
                client = clients_flat[r]
                pos = pos_of_row[r]
                for e, perm in enumerate(perms_flat[r]):
                    stacked_x[pos, e * n_ex : (e + 1) * n_ex] = client.x[perm]
                    stacked_y[pos, e * n_ex : (e + 1) * n_ex] = client.y[perm]
            # One schedule shared by every row; the generic plumbing below
            # (dropout plans, step sizes) reads schedule[pos] as before.
            shared_schedule = [
                (e, s, min(u_bsz, n_ex - s))
                for e in range(u_epochs)
                for s in range(0, n_ex, u_bsz)
            ]
            schedule = [shared_schedule] * n_rows
        else:
            # Per sorted position: permuted data per epoch, and the (epoch,
            # start, size) schedule per lockstep step.
            schedule = []
            for pos in range(n_rows):
                r = int(order[pos])
                group = groups[int(group_of_row[r])]
                client = clients_flat[r]
                bsz = group.batch_size
                perm_x.append([client.x[p] for p in perms_flat[r]])
                perm_y.append([client.y[p] for p in perms_flat[r]])
                schedule.append(
                    [
                        (e, s, min(bsz, client.n - s))
                        for e in range(group.epochs)
                        for s in range(0, client.n, bsz)
                    ]
                )

        # Hyperparameters: per knob, one scalar when uniform across groups
        # (the single-trainer path; and e.g. the fixed weight decay of the
        # paper's search space even when lr/momentum differ per trial),
        # else a per-row vector in sorted row order. Scalar ufunc operands
        # are cheaper than column broadcasts, so uniformity is detected
        # knob by knob.
        def row_hp(attr):
            v0 = getattr(groups[0], attr)
            if all(getattr(g, attr) == v0 for g in groups[1:]):
                return v0
            # Slab-dtype vector: under weak scalar promotion the scalar
            # path computes in the slab dtype too, so scalar and vector
            # rows stay bit-consistent in every precision.
            return np.array([getattr(groups[gi], attr) for gi in group_of_pos], dtype=self.dtype)

        def hp_slice(hp, k):
            return hp[:k] if isinstance(hp, np.ndarray) else hp

        lr_rows = row_hp("lr")
        mom_rows = row_hp("momentum")
        wd_rows = row_hp("weight_decay")
        prox_raw = row_hp("prox_mu")
        mom_any = bool(np.any(mom_rows))
        prox_any = bool(np.any(prox_raw))
        prox_rows = prox_raw[:, None] if isinstance(prox_raw, np.ndarray) else prox_raw

        model = self._stacked
        model.train()
        slab, gslab = model.slab, model.grad_slab
        if n_groups == 1:
            slab[:n_rows] = np.asarray(groups[0].start, dtype=slab.dtype)
        else:
            starts = np.stack([np.asarray(g.start, dtype=slab.dtype) for g in groups])
            slab[:n_rows] = starts[group_of_pos]
        if mom_any:
            if self._velocity is None:
                self._velocity = np.zeros_like(slab)
            else:
                self._velocity[:n_rows].fill(0.0)
        if prox_any:
            if self._anchors is None:
                self._anchors = np.empty_like(slab)
            self._anchors[:n_rows] = slab[:n_rows]
        if not uniform_schedule:
            max_width = max(
                min(groups[gi].batch_size, n) for gi, n in zip(group_of_row, ns)
            )
            first = clients_flat[0]
            self._ensure_batch_buffers(first.x, first.y, max_width)
        xbuf, ybuf, mbuf = self._xbuf, self._ybuf, self._mbuf

        # Dropout mask pre-draw plans: per stacked layer, entries in serial
        # visit order (group by group, cohort order within) pointing at the
        # row's sorted slab position. Masks are drawn lazily at the round's
        # first forward (see StackedDropout) — unless any group's layers
        # share one generator object, where the serial stream interleaves
        # across layers and the whole round must be drawn eagerly here.
        if self._dropouts:
            shared_rng = any(
                len({id(r) for r in g.dropout_rngs}) < len(g.dropout_rngs)
                for g in groups
            )
            if shared_rng:
                self._predraw_interleaved(
                    groups, clients_flat, schedule, pos_of_row, row_base, n_rows
                )
            else:
                for d_idx, layer in enumerate(self._dropouts):
                    plan = []
                    for gi, group in enumerate(groups):
                        rng = group.dropout_rngs[d_idx]
                        for ci in range(len(group.clients)):
                            pos = int(pos_of_row[row_base[gi] + ci])
                            plan.append((rng, [b for _, _, b in schedule[pos]], pos))
                    layer.begin_round(plan)

        failed = [False] * n_groups
        n_failed = 0
        max_steps = int(steps_sorted[0])
        active = n_rows
        work = self._work
        # Divergence (lr too large) is a designed code path, as in the
        # serial ClientTrainer: overflow is caught by the loss check.
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(max_steps):
                if uniform_schedule:
                    # Every row takes the same-size batch from the same
                    # offset of its pre-stacked data: zero-copy views, no
                    # padding, no retirement (all step counts are equal).
                    k = n_rows
                    e, s, b = schedule[0][t]
                    xb = stacked_x[:, e * n_ex + s : e * n_ex + s + b]
                    yb = stacked_y[:, e * n_ex + s : e * n_ex + s + b]
                    mask = None
                else:
                    while active > 0 and steps_sorted[active - 1] <= t:
                        active -= 1
                    k = active
                    sizes = [schedule[pos][t][2] for pos in range(k)]
                    width = max(sizes)
                    ragged = min(sizes) < width
                    xb = xbuf[:k, :width]
                    yb = ybuf[:k, :width]
                    for pos in range(k):
                        e, s, b = schedule[pos][t]
                        xb[pos, :b] = perm_x[pos][e][s : s + b]
                        yb[pos, :b] = perm_y[pos][e][s : s + b]
                        if b < width:
                            # Pad with copies of the batch's first real row
                            # so forward values stay finite; the mask
                            # removes them from loss and gradients.
                            xb[pos, b:] = xb[pos, :1]
                            yb[pos, b:] = yb[pos, 0]
                        if ragged:
                            mbuf[pos, :b] = 1.0
                            mbuf[pos, b:width] = 0.0
                    # A uniform step skips the mask entirely, keeping
                    # per-client loss arithmetic bit-identical to the
                    # serial batch mean.
                    mask = mbuf[:k, :width] if ragged else None
                for layer in self._dropouts:
                    layer.set_step(t)
                gslab[:k].fill(0.0)
                logits = model.forward(xb)
                losses, dlogits = self._loss(logits, yb, mask)
                finite = np.isfinite(losses)
                if not finite.all():
                    # A client diverged: its whole group falls back to a
                    # serial rerun by the caller. Other groups' rows are
                    # independent and keep training unaffected.
                    for pos in np.nonzero(~finite)[0]:
                        gi = int(group_of_pos[pos])
                        if not failed[gi]:
                            failed[gi] = True
                            n_failed += 1
                    if n_failed == n_groups:
                        return [False] * n_groups
                model.backward(dlogits)
                grads = gslab[:k]
                if prox_any:
                    # FedProx proximal pull towards the group's round-start
                    # parameters, added to the raw gradient exactly where
                    # the serial path adds it (before weight decay).
                    np.subtract(slab[:k], self._anchors[:k], out=work[:k])
                    work[:k] *= hp_slice(prox_rows, k)
                    grads += work[:k]
                fused_sgd_step(
                    slab[:k],
                    grads,
                    lr=hp_slice(lr_rows, k),
                    momentum=hp_slice(mom_rows, k),
                    weight_decay=hp_slice(wd_rows, k),
                    velocity=self._velocity[:k] if mom_any else None,
                    work=work[:k],
                )
        identity = isinstance(pos_of_row, range)
        for gi in range(n_groups):
            if not failed[gi]:
                # One gather per group: its rows' slab positions, cohort order.
                if identity:
                    outs[gi][...] = slab[row_base[gi] : row_base[gi + 1]]
                else:
                    outs[gi][...] = slab[pos_of_row[row_base[gi] : row_base[gi + 1]]]
        return [not f for f in failed]
