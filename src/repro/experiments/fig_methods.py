"""Figures 1, 8, 15, 16: HP-tuning methods under noiseless vs. noisy evaluation.

One live tuning run per (dataset, method, setting, trial): RS, TPE, HB, and
BOHB share the paper's budget shape (total = 16 × max-rounds, K = 16 for
RS/TPE, η = 3 brackets for HB/BOHB). The *noisy* setting subsamples 1% of
validation clients and applies ε = 100 evaluation privacy — the paper's
Figure 8 configuration.

Figure 8 reads the trial curves over the budget axis; Figures 15/16 read
them at 1/3 and full budget; Figure 1 is the CIFAR10 slice of Figure 15
plus the noise-immune one-shot proxy RS bar.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.bohb import BOHB
from repro.core.evaluator import FederatedTrialRunner
from repro.core.hyperband import Hyperband
from repro.core.noise import NoiseConfig
from repro.core.population import PopulationTuner, WeightSharingTuner
from repro.core.random_search import RandomSearch
from repro.core.tpe import TPE
from repro.core.tuner import BaseTuner
from repro.experiments.context import ExperimentContext
from repro.utils.records import Record

METHODS: Dict[str, Type[BaseTuner]] = {
    "rs": RandomSearch,
    "tpe": TPE,
    "hb": Hyperband,
    "bohb": BOHB,
    # Population family (PR 5): one concurrently-trained config population
    # per run — every training step is a fused advance_many slab pass and
    # every scoring pass a stacked error_rates_many sweep.
    "fedex": WeightSharingTuner,
    "fedpop": PopulationTuner,
}


def _register_gp_methods() -> None:
    # GP-BO variants (extension, §5/§6): registered lazily to keep the
    # paper's default method set at four.
    from repro.core.gp_bo import GPBO

    class GPBOEI(GPBO):
        def __init__(self, *args, **kwargs):
            kwargs.setdefault("acquisition", "ei")
            super().__init__(*args, **kwargs)

    class GPBONEI(GPBO):
        def __init__(self, *args, **kwargs):
            kwargs["acquisition"] = "nei"
            super().__init__(*args, **kwargs)

    METHODS.setdefault("gp-ei", GPBOEI)
    METHODS.setdefault("gp-nei", GPBONEI)


_register_gp_methods()

#: The paper's Figure-8 noisy setting: 1% of clients, ε = 100, uniform.
PAPER_NOISY = NoiseConfig(subsample=0.01, epsilon=100.0, scheme="uniform")
PAPER_NOISELESS = NoiseConfig()


def run_seed(root_seed: int, *parts) -> int:
    """Deterministic per-run seed from the root seed and run coordinates.

    Built on sha256, NOT Python's builtin ``hash`` — that one is salted
    per process (PYTHONHASHSEED), which silently made every sweep
    unrepeatable across invocations and would break checkpoint resume
    (a resumed sweep must hand fresh runs the same seeds the killed
    sweep would have used).
    """
    key = "/".join(str(p) for p in (root_seed, *parts))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big") % (2**31)


def parse_methods(raw: str) -> tuple:
    """Split a comma-separated ``--methods`` value and validate it against
    the :data:`METHODS` registry (the one copy of this logic, shared by
    the experiments CLI and the example entrypoints). Raises ValueError
    naming the unknown methods."""
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not methods:
        raise ValueError(f"empty method list; choose from {sorted(METHODS)}")
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
    return methods


def make_tuner(
    method: str,
    ctx: ExperimentContext,
    dataset_name: str,
    noise: NoiseConfig,
    seed: int,
    k: int = 16,
    total_budget: Optional[int] = None,
    resume: Optional[str] = None,
    faults=None,
) -> BaseTuner:
    """Build one tuner wired to a live federated runner.

    ``resume`` names a checkpoint file (see
    :mod:`repro.engine.checkpoint`): when it exists, the tuner is restored
    from it and continues the interrupted run bit-identically; when it
    does not exist yet — the normal first launch — the run starts fresh.
    A corrupt checkpoint is quarantined (with a warning, see
    ``load_checkpoint``) and the run starts fresh rather than aborting the
    sweep; version and precision mismatches still raise.

    ``faults`` (a :class:`repro.engine.faults.FaultPlan`) is attached to
    the whole run — trainers, runner, evaluator — before any resume, so
    the checkpointed fault-config echo validates. Defaults to
    ``ctx.faults`` (the ``$REPRO_FAULTS`` / ``--faults`` plan).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if faults is None:
        faults = getattr(ctx, "faults", None)
    runner = FederatedTrialRunner(
        ctx.dataset(dataset_name),
        max_rounds=ctx.max_rounds,
        clients_per_round=ctx.clients_per_round,
        scheme=noise.scheme,
        seed=seed,
        cohort_mode=ctx.cohort_mode,
        cohort_dtype=ctx.cohort_dtype,
    )
    budget = total_budget if total_budget is not None else ctx.total_budget
    cls = METHODS[method]
    if method in ("rs", "tpe", "gp-ei", "gp-nei"):
        tuner = cls(ctx.space, runner, noise, n_configs=k, total_budget=budget, seed=seed)
    elif method in ("fedex", "fedpop"):
        tuner = cls(
            ctx.space, runner, noise, population_size=k, total_budget=budget, seed=seed
        )
    else:
        tuner = cls(ctx.space, runner, noise, total_budget=budget, seed=seed)
    if faults is not None:
        tuner.attach_faults(faults)
    if resume is not None and os.path.exists(resume):
        # Lazy import: repro.engine pulls in the bank layer, which imports
        # this package (same cycle ExperimentContext breaks the same way).
        from repro.engine.checkpoint import (
            CheckpointError,
            CheckpointPrecisionError,
            CheckpointVersionError,
            resume_checkpoint,
        )

        try:
            resume_checkpoint(tuner, resume)
        except (CheckpointVersionError, CheckpointPrecisionError):
            # A valid checkpoint from another build or precision: refusing
            # loudly beats silently redoing (and then overwriting)
            # someone's run.
            raise
        except CheckpointError as exc:
            warnings.warn(
                f"could not resume {resume}: {exc}; starting the run fresh",
                RuntimeWarning,
                stacklevel=2,
            )
    return tuner


@dataclass
class RunSpec:
    """One independent tuning run of a sweep, as :func:`run_sweep` maps it.

    ``fields`` are the run's coordinates; they lead every record the run
    yields, success or failure. ``faults`` overrides ``ctx.faults`` for
    this run, and ``checkpoint`` names its own checkpoint file.
    """

    name: str
    method: str
    dataset: str
    noise: NoiseConfig
    seed: int
    fields: Dict
    faults: object = None
    checkpoint: Optional[str] = None


# Signal number a checkpointed sweep was preempted with: set by the
# handler _preemptible installs in the parent, which forked workers
# inherit. A run that has not started yet then exits instead of starting.
_PREEMPT_SIGNUM: Optional[int] = None


@contextlib.contextmanager
def _preemptible(active: bool):
    """Make SIGTERM/SIGINT stop a checkpointed sweep at run boundaries.

    The handler records the signal and forwards it to every worker. A run
    in flight traps it itself, saves at its next safe boundary and exits
    via ``SystemExit(128 + signum)``; a run not yet started exits the same
    way in :func:`_run_task`. Inactive without a checkpoint dir or off the
    main thread: the signals keep their default effect.
    """
    global _PREEMPT_SIGNUM
    if not active or threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        global _PREEMPT_SIGNUM
        _PREEMPT_SIGNUM = signum
        for child in multiprocessing.active_children():
            os.kill(child.pid, signum)

    _PREEMPT_SIGNUM = None
    previous = {s: signal.signal(s, handler) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        yield
        received = _PREEMPT_SIGNUM
    finally:
        for signum, prev in previous.items():
            signal.signal(signum, prev)
        _PREEMPT_SIGNUM = None
    if received is not None:
        raise SystemExit(128 + received)


def _file_stamp(path: str):
    """Identity of the file at ``path`` (``None`` when absent): an atomic
    checkpoint write replaces the inode, so any save changes it."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns)


def _run_task(payload, index: int) -> Tuple[Record, List[tuple]]:
    """Executor task: one whole run of a sweep, as plain data.

    Returns ``(record, caught)``. ``caught`` lists the warnings the run
    emitted as ``(category, message, filename, lineno)``; the parent
    re-emits them, so a pool worker's warnings are not lost. They are
    recorded under the inherited filters, so an ``error`` filter still
    raises inside the run. A run that raises becomes a ``failed=True``
    record carrying ``repr(exc)`` — the parent warns about it. A refused
    resume (checkpoint version or precision) and ``SystemExit``/
    ``KeyboardInterrupt`` propagate out of the map and stop the sweep.
    """
    from repro.engine.checkpoint import CheckpointPrecisionError, CheckpointVersionError, RunCheckpointer

    ctx, specs, summarize, stale = payload
    spec = specs[index]
    resume_path = None
    if spec.checkpoint and _file_stamp(spec.checkpoint) != stale[index]:
        resume_path = spec.checkpoint
    with warnings.catch_warnings(record=True) as caught:
        try:
            tuner = make_tuner(
                spec.method, ctx, spec.dataset, spec.noise, spec.seed,
                resume=resume_path, faults=spec.faults,
            )
            if _PREEMPT_SIGNUM is not None:
                raise SystemExit(128 + _PREEMPT_SIGNUM)
            checkpoint = RunCheckpointer(spec.checkpoint) if spec.checkpoint else None
            result = tuner.run(checkpoint=checkpoint)
            record = Record(**spec.fields, **summarize(tuner, result))
        except (CheckpointVersionError, CheckpointPrecisionError):
            raise
        except Exception as exc:
            record = Record(**spec.fields, failed=True, error=repr(exc))
    return record, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def run_sweep(
    ctx: ExperimentContext,
    specs: Sequence[RunSpec],
    summarize: Callable[[BaseTuner, object], Dict],
    resume: bool = False,
    run_label: str = "run",
    sweep_label: str = "sweep",
) -> List[Record]:
    """Run every spec through ``ctx.executor``, one whole run per task.

    Each run owns its seed, fault plan and checkpoint file, so the records
    are identical for any worker count and order. ``summarize(tuner,
    result)`` gives a finished run's fields after its coordinates.
    Datasets load here, before the map, so forked workers inherit them.

    A run that raises does not abort the sweep: its record is a failure
    entry. This process first re-emits every run's own warnings, then
    warns once per failed run and once in summary, all in spec order, so
    a serial and a pooled sweep warn alike. ``resume=True`` restores
    every run whose checkpoint exists. On a checkpointed sweep,
    SIGTERM/SIGINT saves every in-flight run at its next boundary and
    exits ``128 + signum``.
    """
    for spec in specs:
        with contextlib.suppress(ValueError):  # an unknown name fails its own runs
            ctx.dataset(spec.dataset)
    # Without resume, a checkpoint older than the sweep is not resumed.
    # Any other one was saved by an earlier attempt of its run in this
    # sweep (a retry after its worker died), which continues from it.
    stale = [
        None if resume or not spec.checkpoint else _file_stamp(spec.checkpoint)
        for spec in specs
    ]
    with _preemptible(any(spec.checkpoint for spec in specs)):
        results = ctx.executor.map(
            _run_task, range(len(specs)), payload=(ctx, specs, summarize, stale)
        )
    records = []
    for record, caught in results:
        for category, message, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        records.append(record)
    failed = []
    for spec, record in zip(specs, records):
        if record.get("failed"):
            failed.append(spec.name)
            warnings.warn(
                f"{run_label} {spec.name} failed: {record.error}; continuing the sweep",
                RuntimeWarning,
                stacklevel=3,
            )
    if failed:
        warnings.warn(
            f"{len(failed)} of the {sweep_label}'s runs failed and were recorded "
            f"as failure entries: {', '.join(failed)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return records


def run_method_comparison(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10",),
    methods: Sequence[str] = ("rs", "tpe", "hb", "bohb"),
    n_trials: int = 3,
    noisy: NoiseConfig = PAPER_NOISY,
    noiseless: NoiseConfig = PAPER_NOISELESS,
    budget_points: int = 16,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> List[Record]:
    """Run every (dataset, method, setting, trial) combination live.

    Returns trial-level records with the incumbent full-error curve sampled
    at ``budget_points`` evenly spaced budgets (multiples of max-rounds).
    ``ctx.executor`` maps the independent runs across workers
    (:func:`run_sweep`); the records are those of a serial sweep.

    With a ``checkpoint_dir`` (defaulting to ``ctx.checkpoint_dir``), each
    run periodically saves its state to a per-run checkpoint file there;
    ``resume=True`` additionally restores any run whose checkpoint already
    exists, so a preempted sweep re-launched with the same arguments
    replays finished runs from their final snapshots and continues
    interrupted ones bit-identically.

    A run that raises is recorded as a failure entry (``failed=True`` plus
    the exception text, no curve fields) and the sweep continues. A
    refused resume (a checkpoint from another format version or
    precision) and ``SystemExit``/``KeyboardInterrupt`` (the SIGTERM
    checkpoint-and-exit path) stop it instead, leaving the refused
    checkpoint untouched.
    """
    budgets = [(i + 1) * ctx.total_budget // budget_points for i in range(budget_points)]
    if checkpoint_dir is None:
        checkpoint_dir = ctx.checkpoint_dir
    specs = []
    for name in dataset_names:
        for setting, noise in (("noiseless", noiseless), ("noisy", noisy)):
            for method in methods:
                for trial in range(n_trials):
                    checkpoint = None
                    if checkpoint_dir:
                        checkpoint = os.path.join(
                            checkpoint_dir, f"fig8-{name}-{setting}-{method}-t{trial}.ckpt"
                        )
                    specs.append(
                        RunSpec(
                            name=f"{name}/{setting}/{method}/t{trial}",
                            method=method,
                            dataset=name,
                            noise=noise,
                            seed=run_seed(ctx.seed, name, setting, method, trial),
                            fields=dict(
                                figure="fig8", dataset=name, method=method,
                                setting=setting, trial=trial,
                            ),
                            checkpoint=checkpoint,
                        )
                    )

    def summarize(tuner, result) -> Dict:
        return dict(
            budgets=budgets,
            full_errors=[result.full_error_at_budget(b) for b in budgets],
            final_full_error=result.final_full_error,
            n_evaluations=len(result.observations),
        )

    return run_sweep(ctx, specs, summarize, resume=resume)


def curve_medians(
    records: Sequence[Record], dataset: str, method: str, setting: str
) -> Dict[str, np.ndarray]:
    """Median (and quartile) incumbent curves across trials. Failure
    entries from a degraded sweep carry no curves and are skipped."""
    rows = [
        r
        for r in records
        if r.dataset == dataset
        and r.method == method
        and r.setting == setting
        and not r.get("failed")
    ]
    if not rows:
        raise ValueError(f"no records for ({dataset}, {method}, {setting})")
    curves = np.array([r.full_errors for r in rows], dtype=float)
    return {
        "budgets": np.array(rows[0].budgets),
        "q25": np.nanpercentile(curves, 25, axis=0),
        "median": np.nanmedian(curves, axis=0),
        "q75": np.nanpercentile(curves, 75, axis=0),
    }


def bars_at_budget(
    records: Sequence[Record], budget_fraction: float = 1.0
) -> List[Record]:
    """Figures 15/16 view: per (dataset, method, setting) median error at a
    fraction of the total budget."""
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
    out: List[Record] = []
    records = [r for r in records if not r.get("failed")]
    keys = sorted({(r.dataset, r.method, r.setting) for r in records})
    for dataset, method, setting in keys:
        rows = [
            r for r in records if (r.dataset, r.method, r.setting) == (dataset, method, setting)
        ]
        budgets = np.array(rows[0].budgets)
        target = budget_fraction * budgets[-1]
        idx = int(np.searchsorted(budgets, target, side="right") - 1)
        idx = max(idx, 0)
        vals = [r.full_errors[idx] for r in rows]
        out.append(
            Record(
                dataset=dataset,
                method=method,
                setting=setting,
                budget=int(budgets[idx]),
                median=float(np.nanmedian(vals)),
            )
        )
    return out


def run_figure1(
    ctx: ExperimentContext,
    dataset_name: str = "cifar10",
    proxy_name: str = "femnist",
    methods: Sequence[str] = ("rs", "tpe", "hb", "bohb"),
    n_trials: int = 3,
    budget_fraction: float = 1.0 / 3.0,
    k: int = 16,
    comparison: Optional[List[Record]] = None,
) -> List[Record]:
    """Figure 1: headline bars — methods at 1/3 budget, noiseless vs noisy,
    plus the noise-immune proxy RS baseline (bank-computed).

    The proxy bar trains one config (chosen noiselessly on the proxy task)
    for the full per-config allocation; by 1/3 of the total budget that
    single run has long finished, so the bar is the config's final error.

    Pass ``comparison`` (records from :func:`run_method_comparison`) to
    reuse runs shared with Figures 8/15/16.
    """
    if comparison is None:
        comparison = run_method_comparison(ctx, [dataset_name], methods, n_trials=n_trials)
    bars = bars_at_budget(comparison, budget_fraction)
    records = [
        Record(
            figure="fig1",
            method=r.method,
            setting=r.setting,
            full_error=r.median,
            dataset=dataset_name,
        )
        for r in bars
        if r.dataset == dataset_name
    ]
    # Proxy RS from the shared-config banks (identical in both settings).
    proxy_bank = ctx.bank(proxy_name)
    target_bank = ctx.bank(dataset_name)
    proxy_full = proxy_bank.full_errors()
    target_full = target_bank.full_errors()
    rng = ctx.rngs.make("fig1-proxy")
    picks = []
    for _ in range(max(n_trials, 10)):
        ids = rng.integers(0, proxy_bank.n_configs, size=k)
        best = ids[int(np.argmin(proxy_full[ids]))]
        picks.append(target_full[best])
    for setting in ("noiseless", "noisy"):
        records.append(
            Record(
                figure="fig1",
                method="rs_proxy",
                setting=setting,
                full_error=float(np.median(picks)),
                dataset=dataset_name,
            )
        )
    return records
