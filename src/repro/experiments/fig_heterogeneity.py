"""Figures 4, 6, and 7: data and systems heterogeneity.

- Figure 4 repartitions the validation pool with iid fraction
  ``p ∈ {0, 0.5, 1}`` and repeats the subsampling sweep: heterogeneous
  (p = 0) pools amplify subsampling noise.
- Figure 6 biases evaluation sampling towards high-accuracy clients with
  exponent ``b ∈ {0, 1, 1.5, 3}`` (systems heterogeneity): catastrophic on
  datasets whose bad configs have "lucky" zero-error clients.
- Figure 7 plots each bank config at (full error, minimum client error) —
  the structural explanation for Figure 6's dataset differences.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.noise import NoiseConfig
from repro.datasets.partition import iid_repartition
from repro.experiments.context import ExperimentContext, subsample_grid
from repro.experiments.fig_subsampling import bootstrap_rs_final_errors
from repro.utils.records import Record
from repro.utils.stats import median_and_quartiles


def run_figure4(
    ctx: ExperimentContext,
    dataset_name: str = "cifar10",
    p_levels: Sequence[float] = (0.0, 0.5, 1.0),
    n_trials: int = 20,
    k: int = 16,
    counts: Optional[Sequence[int]] = None,
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 4: the iid-fraction dial × the subsampling sweep.

    Trained models are reused across ``p`` levels (the bank stores
    parameters); only the validation pool changes — exactly the paper's
    protocol of keeping training data in its original partition.
    """
    dataset = ctx.dataset(dataset_name)
    bank = ctx.bank(dataset_name, store_params=True)
    # Re-read in the dtype the bank's own (p = 0) rows were read in: a
    # fused build reads in the context's slab dtype, a serial one in float64.
    dtype = ctx.cohort_dtype if ctx.cohort_mode == "fused" else np.float64
    records: List[Record] = []
    for p in p_levels:
        repart_rng = ctx.rngs.make(f"fig4-repartition-{p}")
        eval_clients = iid_repartition(dataset.eval_clients, p, repart_rng)
        bank_p = bank.reevaluate(dataset, eval_clients, dtype=dtype) if p > 0 else bank
        n_eval = bank_p.errors.shape[2]
        grid = counts if counts is not None else subsample_grid(n_eval)
        for count in grid:
            noise = NoiseConfig(subsample=None if count >= n_eval else int(count), scheme=scheme)
            errors = bootstrap_rs_final_errors(bank_p, noise, n_trials, k=k, seed=ctx.seed)
            q25, median, q75 = median_and_quartiles(errors)
            records.append(
                Record(
                    figure="fig4",
                    dataset=dataset_name,
                    iid_fraction=float(p),
                    subsample_count=int(count),
                    q25=q25,
                    median=median,
                    q75=q75,
                )
            )
    return records


def run_figure6(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    bias_levels: Sequence[float] = (0.0, 1.0, 1.5, 3.0),
    n_trials: int = 20,
    k: int = 16,
    counts=None,
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 6: systems-heterogeneity-biased evaluation sampling."""
    records: List[Record] = []
    for name in dataset_names:
        bank = ctx.bank(name)
        n_eval = bank.errors.shape[2]
        grid = counts[name] if counts else subsample_grid(n_eval)
        for b in bias_levels:
            for count in grid:
                noise = NoiseConfig(
                    subsample=None if count >= n_eval else int(count),
                    bias_b=float(b),
                    scheme=scheme,
                )
                errors = bootstrap_rs_final_errors(bank, noise, n_trials, k=k, seed=ctx.seed)
                q25, median, q75 = median_and_quartiles(errors)
                records.append(
                    Record(
                        figure="fig6",
                        dataset=name,
                        bias_b=float(b),
                        subsample_count=int(count),
                        q25=q25,
                        median=median,
                        q75=q75,
                    )
                )
    return records


def run_figure7(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 7: per-config (global error, min single-client error) scatter."""
    records: List[Record] = []
    for name in dataset_names:
        bank = ctx.bank(name)
        full = bank.full_errors(scheme)
        min_client = bank.min_client_errors()
        for cfg_id, (fe, mc) in enumerate(zip(full, min_client)):
            records.append(
                Record(
                    figure="fig7",
                    dataset=name,
                    config_id=cfg_id,
                    full_error=float(fe),
                    min_client_error=float(mc),
                )
            )
    return records


def lucky_client_gap(records: List[Record], dataset: str) -> float:
    """Diagnostic for Figure 7's structure: how far below the global error
    a config's luckiest client sits, averaged over poorly-performing
    configs. Large values ⇒ biased sampling is dangerous (CIFAR10/Reddit)."""
    pts = [r for r in records if r.dataset == dataset]
    if not pts:
        raise ValueError(f"no records for dataset {dataset!r}")
    bad = [r for r in pts if r.full_error >= np.median([p.full_error for p in pts])]
    return float(np.mean([r.full_error - r.min_client_error for r in bad]))
