"""Figure 13 (Appendix C): search-space width × evaluation noise.

Nested server-learning-rate intervals centred on 1e-3 with log10 spans
{1, 2, 3, 4}. With noiseless evaluation a wider space can only help the
best-found config; under heavy noise (1-client subsample, ε = 10) wider
spaces admit more catastrophically bad configs that noise can promote —
the paper's counterintuitive reversal.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.noise import NoiseConfig
from repro.core.search_space import nested_server_lr_space
from repro.experiments.bank import ConfigBank
from repro.experiments.context import BATCH_CHOICES, ExperimentContext
from repro.experiments.fig_subsampling import bootstrap_rs_final_errors
from repro.utils.records import Record
from repro.utils.stats import median_and_quartiles


def run_figure13(
    ctx: ExperimentContext,
    dataset_name: str = "cifar10",
    spans: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
    n_configs: int = 16,
    n_trials: int = 10,
    epsilon: float = 10.0,
    k: int = 16,
) -> List[Record]:
    """For each span: train a span-specific bank, then compare noiseless RS
    (the pool's best config) against noisy RS bootstrap trials."""
    dataset = ctx.dataset(dataset_name)
    records: List[Record] = []
    for span in spans:
        space = nested_server_lr_space(span, batch_sizes=BATCH_CHOICES[ctx.preset])
        bank = ConfigBank.build(
            dataset,
            space,
            n_configs=n_configs,
            max_rounds=ctx.max_rounds,
            eta=ctx.eta,
            clients_per_round=ctx.clients_per_round,
            seed=ctx.rngs.make(f"fig13-{span}"),
            cohort_mode=ctx.cohort_mode,
            cohort_dtype=ctx.cohort_dtype,
        )
        noiseless_best = bank.best_full_error()
        noise = NoiseConfig(subsample=1, epsilon=epsilon, scheme="uniform")
        noisy_errors = bootstrap_rs_final_errors(bank, noise, n_trials, k=k, seed=ctx.seed)
        q25, median, q75 = median_and_quartiles(noisy_errors)
        records.append(
            Record(
                figure="fig13",
                dataset=dataset_name,
                log10_span=float(span),
                noiseless=float(noiseless_best),
                noisy_q25=q25,
                noisy_median=median,
                noisy_q75=q75,
            )
        )
    return records
