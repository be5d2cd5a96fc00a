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

import hashlib
import os
import warnings
from typing import Dict, List, Optional, Sequence, Type

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
    the whole run — trainers, runner, evaluator, executor — before any
    resume, so the checkpointed fault-config echo validates. Defaults to
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
        # The context's executor (REPRO_WORKERS / --workers) fans each
        # advance_many batch — tuner rungs, population steps — across
        # workers; parallel execution is bit-identical to serial.
        executor=ctx.executor,
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

    With a ``checkpoint_dir`` (defaulting to ``ctx.checkpoint_dir``), each
    run periodically saves its state to a per-run checkpoint file there;
    ``resume=True`` additionally restores any run whose checkpoint already
    exists, so a preempted sweep re-launched with the same arguments
    replays finished runs from their final snapshots and continues
    interrupted ones bit-identically.

    A run that raises does not abort the sweep: it is recorded as a
    failure entry (``failed=True`` plus the exception text, no curve
    fields) and the remaining runs proceed; a summary warning names every
    failed run at the end. ``SystemExit``/``KeyboardInterrupt`` (e.g. the
    SIGTERM checkpoint-and-exit path) and a refused resume (a checkpoint
    from another format version or precision) still propagate — those
    mean "stop the sweep", not "this run is bad", and the refused
    checkpoint is left untouched.
    """
    from repro.engine.checkpoint import CheckpointPrecisionError, CheckpointVersionError

    records: List[Record] = []
    failed_runs: List[str] = []
    budgets = [(i + 1) * ctx.total_budget // budget_points for i in range(budget_points)]
    if checkpoint_dir is None:
        checkpoint_dir = ctx.checkpoint_dir
    for name in dataset_names:
        for setting, noise in (("noiseless", noiseless), ("noisy", noisy)):
            for method in methods:
                for trial in range(n_trials):
                    seed = run_seed(ctx.seed, name, setting, method, trial)
                    checkpoint = None
                    resume_path = None
                    if checkpoint_dir:
                        from repro.engine.checkpoint import RunCheckpointer

                        path = os.path.join(
                            checkpoint_dir,
                            f"fig8-{name}-{setting}-{method}-t{trial}.ckpt",
                        )
                        checkpoint = RunCheckpointer(path)
                        if resume:
                            resume_path = path
                    run_name = f"{name}/{setting}/{method}/t{trial}"
                    try:
                        tuner = make_tuner(
                            method, ctx, name, noise, seed, resume=resume_path
                        )
                        result = tuner.run(checkpoint=checkpoint)
                    except (CheckpointVersionError, CheckpointPrecisionError):
                        raise
                    except Exception as exc:
                        failed_runs.append(run_name)
                        warnings.warn(
                            f"run {run_name} failed: {exc!r}; continuing the sweep",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        records.append(
                            Record(
                                figure="fig8",
                                dataset=name,
                                method=method,
                                setting=setting,
                                trial=trial,
                                failed=True,
                                error=repr(exc),
                            )
                        )
                        continue
                    curve = [result.full_error_at_budget(b) for b in budgets]
                    records.append(
                        Record(
                            figure="fig8",
                            dataset=name,
                            method=method,
                            setting=setting,
                            trial=trial,
                            budgets=budgets,
                            full_errors=curve,
                            final_full_error=result.final_full_error,
                            n_evaluations=len(result.observations),
                        )
                    )
    if failed_runs:
        warnings.warn(
            f"{len(failed_runs)} of the sweep's runs failed and were recorded "
            f"as failure entries: {', '.join(failed_runs)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return records


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
