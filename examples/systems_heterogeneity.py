"""Systems heterogeneity: biased participation corrupts model selection.

High-end devices participate more often. If participation correlates with
model accuracy, evaluation is optimistically biased — and on datasets
where bad models have "lucky" clients (near-zero error on some client),
biased evaluation can prefer catastrophically bad configurations.

This example reproduces the mechanism behind the paper's Figures 6-7 using
the configuration bank: it compares what RS selects under unbiased vs
accuracy-biased client sampling, and prints each dataset's lucky-client
structure.

Run:  python examples/systems_heterogeneity.py [--preset test]
"""

import argparse

import numpy as np

from repro.core import NoiseConfig
from repro.experiments import (
    ExperimentContext,
    bootstrap_rs_final_errors,
    lucky_client_gap,
    run_figure7,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="test", choices=("test", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-trials", type=int, default=30)
    args = parser.parse_args()

    ctx = ExperimentContext(preset=args.preset, seed=args.seed, n_bank_configs=16)
    names = ("cifar10", "stackoverflow")

    print("lucky-client structure (mean gap between a bad config's global")
    print("error and its best single-client error — Figure 7 summarized):")
    scatter = run_figure7(ctx, dataset_names=names)
    for name in names:
        print(f"  {name:14s} {lucky_client_gap(scatter, name):.3f}")
    print()

    print(f"RS selection error under participation bias ({args.n_trials} trials, 1-client eval):")
    print(f"{'dataset':14s} {'b=0 (unbiased)':>16s} {'b=3 (biased)':>14s}")
    for name in names:
        bank = ctx.bank(name)
        medians = {}
        for b in (0.0, 3.0):
            errs = bootstrap_rs_final_errors(
                bank,
                NoiseConfig(subsample=1, bias_b=b),
                n_trials=args.n_trials,
                k=8,
                seed=args.seed,
            )
            medians[b] = float(np.median(errs))
        print(f"{name:14s} {medians[0.0]:>16.3f} {medians[3.0]:>14.3f}")
    print()
    print("The dataset with the larger lucky-client gap degrades more under")
    print("biased participation — evaluate as representative a cohort as you can.")


if __name__ == "__main__":
    main()
