"""Figures 10, 11, 12, 14: hyperparameter transfer and proxy-data tuning.

All four experiments reuse the shared-config banks: because every dataset's
bank trains *the same* configurations, a config's error on dataset A and
dataset B is a pair of lookups.

- Figures 10/14: per-config error scatter for dataset pairs.
- Figure 11: one-shot proxy RS matrix — tune noiselessly on the proxy,
  report the chosen config's error on the client dataset.
- Figure 12: proxy tuning vs. noisy (1% subsample + DP) RS over the budget.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.noise import NoiseConfig
from repro.experiments.bank import ConfigBank
from repro.experiments.context import ExperimentContext
from repro.experiments.fig_subsampling import bootstrap_rs_curves
from repro.utils.records import Record

MATCHED_PAIRS = (("cifar10", "femnist"), ("stackoverflow", "reddit"))
MISMATCHED_PAIRS = (("cifar10", "reddit"), ("femnist", "stackoverflow"))


def run_transfer_scatter(
    ctx: ExperimentContext,
    pairs: Sequence[Tuple[str, str]] = MATCHED_PAIRS + MISMATCHED_PAIRS,
    scheme: str = "weighted",
) -> List[Record]:
    """Figures 10 and 14: per-config cross-dataset error pairs."""
    records: List[Record] = []
    for a, b in pairs:
        err_a = ctx.bank(a).full_errors(scheme)
        err_b = ctx.bank(b).full_errors(scheme)
        for cfg_id, (ea, eb) in enumerate(zip(err_a, err_b)):
            records.append(
                Record(
                    figure="fig10",
                    pair=f"{a}/{b}",
                    dataset_x=a,
                    dataset_y=b,
                    config_id=cfg_id,
                    error_x=float(ea),
                    error_y=float(eb),
                )
            )
    return records


def transfer_correlation(records: Sequence[Record], pair: str) -> float:
    """Spearman rank correlation of a pair's scatter (the paper's implicit
    measure of 'HPs transfer well')."""
    from scipy.stats import spearmanr

    pts = [r for r in records if r.pair == pair]
    if len(pts) < 3:
        raise ValueError(f"not enough points for pair {pair!r}")
    rho, _ = spearmanr([r.error_x for r in pts], [r.error_y for r in pts])
    return float(rho)


def one_shot_proxy_pick(
    proxy_bank: ConfigBank,
    k: int,
    rng: np.random.Generator,
    scheme: str = "weighted",
) -> int:
    """One bootstrap trial of one-shot proxy RS: resample K configs, return
    the id of the best under *noiseless full* proxy evaluation."""
    ids = rng.integers(0, proxy_bank.n_configs, size=k)
    proxy_errors = proxy_bank.full_errors(scheme)[ids]
    return int(ids[int(np.argmin(proxy_errors))])


def run_figure11(
    ctx: ExperimentContext,
    dataset_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    n_trials: int = 20,
    k: int = 16,
    scheme: str = "weighted",
) -> List[Record]:
    """Figure 11: proxy × client matrix of one-shot proxy RS errors."""
    records: List[Record] = []
    full_errors = {name: ctx.bank(name).full_errors(scheme) for name in dataset_names}
    for client in dataset_names:
        for proxy in dataset_names:
            rng = ctx.rngs.make(f"fig11-{proxy}-{client}")
            picks = [
                full_errors[client][one_shot_proxy_pick(ctx.bank(proxy), k, rng, scheme)]
                for _ in range(n_trials)
            ]
            records.append(
                Record(
                    figure="fig11",
                    client=client,
                    proxy=proxy,
                    q25=float(np.percentile(picks, 25)),
                    median=float(np.median(picks)),
                    q75=float(np.percentile(picks, 75)),
                )
            )
    return records


def run_figure12(
    ctx: ExperimentContext,
    client_name: str = "cifar10",
    proxy_names: Sequence[str] = ("cifar10", "femnist", "stackoverflow", "reddit"),
    epsilons: Sequence[Optional[float]] = (1.0, 10.0, None),
    n_trials: int = 20,
    k: int = 16,
    subsample: float = 0.01,
) -> List[Record]:
    """Figure 12: noisy-RS budget curves vs. proxy-tuning budget curves.

    Noisy RS: K = 16 bootstrapped configs under 1% subsampling and each ε.
    Proxy: the chosen config's training trajectory on the client dataset
    (budget axis = client-network rounds; tuning on public proxy data costs
    the client network nothing).
    """
    client_bank = ctx.bank(client_name)
    records: List[Record] = []

    # Noisy-evaluation RS curves.
    for eps in epsilons:
        noise = NoiseConfig(subsample=subsample, epsilon=eps, scheme="uniform")
        curves = bootstrap_rs_curves(client_bank, noise, n_trials, k=k, seed=ctx.seed)
        medians = np.nanmedian(curves, axis=0)
        for i, median in enumerate(medians):
            records.append(
                Record(
                    figure="fig12",
                    client=client_name,
                    source="rs_noisy",
                    epsilon=float("inf") if eps is None else float(eps),
                    budget_rounds=(i + 1) * client_bank.max_rounds,
                    median=float(median),
                )
            )

    # Proxy curves: single-config training trajectory on the client network.
    client_full_by_ckpt = {
        rounds: client_bank.full_errors(rounds=rounds) for rounds in client_bank.checkpoints
    }
    for proxy in proxy_names:
        rng = ctx.rngs.make(f"fig12-{proxy}-{client_name}")
        picks = [one_shot_proxy_pick(ctx.bank(proxy), k, rng) for _ in range(n_trials)]
        for rounds in client_bank.checkpoints:
            if rounds == 0:
                continue
            vals = [client_full_by_ckpt[rounds][pick] for pick in picks]
            records.append(
                Record(
                    figure="fig12",
                    client=client_name,
                    source="proxy",
                    proxy=proxy,
                    budget_rounds=rounds,
                    median=float(np.median(vals)),
                )
            )
    return records
