"""Fault-injection sweep: tuning quality vs. client dropout severity.

The paper treats systems heterogeneity as a *static* participation bias
(``(a_k + δ)^b``, §3.2). :func:`run_fault_sweep` measures the dynamic
counterpart: seeded client dropout (training and evaluation), stragglers,
and trial crashes injected by :mod:`repro.engine.faults`, swept over a
dropout-rate grid. Each record pairs the run's final full-error with the
*realized* participation statistics (drop fractions, quorum-lost rounds,
simulated wall-clock) — i.e. both how much the tuner's answer degraded and
how much fault pressure it actually absorbed.

Every sweep point derives its own fault seed from the root fault seed and
the run coordinates (:meth:`FaultConfig.reseeded`), so the whole sweep is
reproducible while no two runs share a fault stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.noise import NoiseConfig
from repro.engine.faults import FaultConfig, FaultPlan
from repro.experiments.context import ExperimentContext
from repro.experiments.fig_methods import PAPER_NOISY, RunSpec, run_seed, run_sweep
from repro.utils.records import Record

#: Default dropout-severity grid: none, mild, heavy, extreme.
DROPOUT_GRID = (0.0, 0.1, 0.3, 0.5)


def _train_fault_stats(tuner) -> Record:
    """Aggregate realized training-side fault statistics across the
    tuner's live trainers (quarantined trials count even when frozen)."""
    selected = 0
    dropped = 0
    rounds_lost = 0
    simulated_time = 0.0
    quarantined = 0
    for trial in tuner._live_trials().values():
        if trial.failed:
            quarantined += 1
        trainer = trial.state
        log = getattr(trainer, "participation", None)
        if log is None:
            continue
        selected += int(log.selected.sum())
        dropped += int(log.dropped.sum())
        rounds_lost += log.rounds_lost
        simulated_time += log.simulated_time
    return Record(
        train_drop_fraction=(dropped / selected) if selected else 0.0,
        rounds_lost=rounds_lost,
        simulated_time=simulated_time,
        quarantined_trials=quarantined,
    )


def run_fault_sweep(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10",),
    methods: Sequence[str] = ("rs",),
    dropout_rates: Sequence[float] = DROPOUT_GRID,
    n_trials: int = 2,
    noise: NoiseConfig = PAPER_NOISY,
    base_faults: Optional[FaultConfig] = None,
) -> List[Record]:
    """Run every (dataset, method, dropout-rate, trial) combination live.

    ``base_faults`` fixes the non-swept knobs (quorum, straggler delay,
    trial-failure rate, fault seed, ...); per grid value the sweep
    overrides the training and evaluation dropout rates with the value
    and the straggler rate with half of it. The default base sets a 50%
    quorum — the regime where heavy dropout starts losing whole rounds.

    The runs are independent and ``ctx.executor`` maps them across
    workers; a run that raises is recorded as a failure entry and the
    sweep continues (:func:`repro.experiments.fig_methods.run_sweep`).
    """
    if base_faults is None:
        base_faults = FaultConfig(quorum=0.5)
    specs = []
    for name in dataset_names:
        for method in methods:
            for rate in dropout_rates:
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"dropout rate must be in [0, 1], got {rate}")
                for trial in range(n_trials):
                    config = replace(
                        base_faults,
                        dropout_rate=rate,
                        eval_dropout_rate=rate,
                        straggler_rate=rate / 2.0,
                    ).reseeded(name, method, rate, trial)
                    specs.append(
                        RunSpec(
                            name=f"{name}/{method}/drop={rate}/t{trial}",
                            method=method,
                            dataset=name,
                            noise=noise,
                            seed=run_seed(ctx.seed, "figfaults", name, method, rate, trial),
                            fields=dict(
                                figure="figfaults", dataset=name, method=method,
                                dropout_rate=rate, trial=trial,
                            ),
                            faults=FaultPlan(config),
                        )
                    )

    def summarize(tuner, result) -> Record:
        eval_log = tuner.evaluator.participation
        record = Record(
            fault_seed=tuner.runner.faults.config.seed,
            final_full_error=result.final_full_error,
            n_evaluations=len(result.observations),
            eval_drop_fraction=eval_log.drop_fraction() if eval_log is not None else 0.0,
        )
        record.update(_train_fault_stats(tuner))
        return record

    return run_sweep(
        ctx, specs, summarize, run_label="fault-sweep run", sweep_label="fault sweep"
    )
