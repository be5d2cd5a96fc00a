"""Figure 9: differential privacy × subsampling.

RS (K = 16, bootstrapped from the bank) under evaluation budgets
ε ∈ {0.1, 1, 10, 100, ∞}. All DP evaluations use uniform client weighting
(paper footnote 1); noise per released accuracy is Lap(M/(ε|S|)) with
M = 16 releases per run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.noise import NoiseConfig
from repro.experiments.context import ExperimentContext, subsample_grid
from repro.experiments.fig_subsampling import bootstrap_rs_final_errors
from repro.utils.records import Record
from repro.utils.stats import median_and_quartiles

PAPER_EPSILONS = (0.1, 1.0, 10.0, 100.0, None)  # None = non-private (ε = ∞)


def run_figure9(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    epsilons: Sequence[Optional[float]] = PAPER_EPSILONS,
    n_trials: int = 20,
    k: int = 16,
    counts=None,
) -> List[Record]:
    records: List[Record] = []
    for name in dataset_names:
        bank = ctx.bank(name)
        n_eval = bank.errors.shape[2]
        grid = counts[name] if counts else subsample_grid(n_eval)
        for eps in epsilons:
            for count in grid:
                noise = NoiseConfig(
                    subsample=None if count >= n_eval else int(count),
                    epsilon=eps,
                    scheme="uniform",  # paper: uniform for all DP experiments
                )
                errors = bootstrap_rs_final_errors(bank, noise, n_trials, k=k, seed=ctx.seed)
                q25, median, q75 = median_and_quartiles(errors)
                records.append(
                    Record(
                        figure="fig9",
                        dataset=name,
                        epsilon=float("inf") if eps is None else float(eps),
                        subsample_count=int(count),
                        q25=q25,
                        median=median,
                        q75=q75,
                    )
                )
    return records
