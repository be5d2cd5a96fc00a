"""Figures 3 and 5: client subsampling vs. random-search quality.

Figure 3 sweeps the evaluation subsampling rate and reports the median /
quartile full-validation error of the config RS selects (bootstrapped from
the bank, K = 16 per trial), plus the pool's best config ("Best HPs").

Figure 5 plots the *online* view: incumbent full error as the round budget
is consumed, one curve per subsampling rate.

Both — and every other bank-bootstrapped artifact (figures 4, 6, 9, 12,
13) — go through :func:`_bootstrap_rs`, which replays the paper's "bootstrap
100 trials of RS on K = 16 resampled configs" directly on the bank's
error tensor. A bank trial is pure lookup, so a trial reduces to K config
draws, one batched noisy release of their final-checkpoint rates, and a
running minimum; the result is bit-identical to running
:class:`~repro.core.RandomSearch` over a
:class:`~repro.experiments.bank.BankTrialRunner` with
:func:`~repro.experiments.bank.bank_config_source` (the reference loop the
bank tests keep as the oracle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.noise import NoiseConfig, NoisyEvaluator
from repro.core.privacy import PrivacyConfig
from repro.experiments.bank import ConfigBank
from repro.experiments.context import ExperimentContext, subsample_grid
from repro.utils.records import Record
from repro.utils.rng import RngFactory
from repro.utils.stats import median_and_quartiles, weighted_mean


def _bootstrap_rs(
    bank: ConfigBank, noise: NoiseConfig, n_trials: int, k: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay ``n_trials`` bootstrapped RS runs of ``k`` configs on ``bank``.

    Returns ``(final_errors, curves)`` of shapes ``(n_trials,)`` and
    ``(n_trials, k)``: each trial's selected config's full-validation
    error, and the incumbent's full error after each observation.

    Per trial, with the same ``(seed, trial)`` streams RandomSearch uses:

    - the ``"configs"`` stream draws the K bank ids with replacement in one
      ``integers(0, P, size=k)`` call (the same values and end state as K
      scalar draws);
    - the ``"eval"`` stream drives one :class:`NoisyEvaluator` budgeted for
      K releases (``RandomSearch.planned_releases``), which scores the K
      rate rows at the ``max_rounds`` checkpoint in one
      :meth:`~NoisyEvaluator.evaluate_many` call;
    - the incumbent changes only on a *strictly* lower noisy error, so
      ties keep the earliest config.

    Full errors are ``weighted_mean`` per config (as
    ``BankTrialRunner.full_error`` computes them), once per bank.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weights = bank.weights(noise.scheme)
    final_rates = bank.errors[:, bank.checkpoint_index(bank.max_rounds)]
    full = [weighted_mean(rates, weights) for rates in final_rates]
    privacy = PrivacyConfig(epsilon=noise.epsilon, total_releases=k)
    rngs = RngFactory(seed)
    errors = np.full(n_trials, np.nan)
    curves = np.full((n_trials, k), np.nan)
    for t in range(n_trials):
        fac = rngs.child(f"trial-{t}")
        ids = fac.make("configs").integers(0, bank.n_configs, size=k)
        evaluator = NoisyEvaluator(weights, noise, rng=fac.make("eval"), privacy=privacy)
        incumbent, best = None, np.inf
        for i, evaluation in enumerate(evaluator.evaluate_many(final_rates[ids])):
            if evaluation.error < best:
                incumbent, best = ids[i], evaluation.error
            if incumbent is not None:
                curves[t, i] = full[incumbent]
        if incumbent is not None:
            errors[t] = full[incumbent]
    return errors, curves


def bootstrap_rs_final_errors(
    bank: ConfigBank,
    noise: NoiseConfig,
    n_trials: int,
    k: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """Final full-validation error of ``n_trials`` bootstrapped RS runs.

    Config resampling and evaluation noise use *separate* streams derived
    from ``(seed, trial)``: sweeping a noise parameter under the same seed
    reuses identical config draws per trial (common random numbers), so
    sweep curves differ only through the noise being studied. See
    :func:`_bootstrap_rs` for what one trial does.
    """
    return _bootstrap_rs(bank, noise, n_trials, k, seed)[0]


def bootstrap_rs_curves(
    bank: ConfigBank,
    noise: NoiseConfig,
    n_trials: int,
    k: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """Incumbent full-error curves, shape ``(n_trials, k)`` — column ``i``
    is the incumbent after ``(i+1) * max_rounds`` budget. Same trials (and
    streams) as :func:`bootstrap_rs_final_errors`."""
    return _bootstrap_rs(bank, noise, n_trials, k, seed)[1]


def run_figure3(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    n_trials: int = 20,
    k: int = 16,
    counts: Optional[Dict[str, Sequence[int]]] = None,
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 3: median/quartile RS error per subsampling count per dataset."""
    records: List[Record] = []
    for name in dataset_names:
        bank = ctx.bank(name)
        n_eval = bank.errors.shape[2]
        grid = counts[name] if counts else subsample_grid(n_eval)
        best = bank.best_full_error(scheme)
        for count in grid:
            noise = NoiseConfig(subsample=None if count >= n_eval else int(count), scheme=scheme)
            errors = bootstrap_rs_final_errors(bank, noise, n_trials, k=k, seed=ctx.seed)
            q25, median, q75 = median_and_quartiles(errors)
            records.append(
                Record(
                    figure="fig3",
                    dataset=name,
                    subsample_count=int(count),
                    subsample_pct=100.0 * count / n_eval,
                    q25=q25,
                    median=median,
                    q75=q75,
                    best_hps=best,
                )
            )
    return records


def run_figure5(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    n_trials: int = 20,
    k: int = 16,
    counts: Optional[Dict[str, Sequence[int]]] = None,
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 5: incumbent error vs. training budget per subsampling rate."""
    records: List[Record] = []
    for name in dataset_names:
        bank = ctx.bank(name)
        n_eval = bank.errors.shape[2]
        grid = counts[name] if counts else [1, max(1, n_eval // 3), n_eval]
        for count in grid:
            noise = NoiseConfig(subsample=None if count >= n_eval else int(count), scheme=scheme)
            curves = bootstrap_rs_curves(bank, noise, n_trials, k=k, seed=ctx.seed)
            medians = np.nanmedian(curves, axis=0)
            for i, median in enumerate(medians):
                records.append(
                    Record(
                        figure="fig5",
                        dataset=name,
                        subsample_count=int(count),
                        budget_rounds=(i + 1) * bank.max_rounds,
                        median=float(median),
                    )
                )
    return records
