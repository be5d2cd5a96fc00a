"""Population-based federated hyperparameter tuning on the fused slab.

Runs the two PR-5 population tuners against a live federated runner:

- **fedex** (:class:`repro.core.WeightSharingTuner`) — FedEx-style weight
  sharing: one shared model, an exponentiated-gradient distribution over
  a config population, re-weighted from noisy evaluations every step.
- **fedpop** (:class:`repro.core.PopulationTuner`) — FedPop-style
  evolve-the-population: periodic evaluate -> exploit (losers copy
  winners' slab rows) -> explore (perturb per-row client lr / momentum /
  weight decay).

With ``--cohort-mode fused`` every population step trains as cross-trial
slabs (one pass per batch-size bucket) and scores as ONE stacked inference
sweep — population size is nearly free on top of the fused engine.

Run:  python examples/population_tuning.py [--preset test] [--cohort-mode fused]
"""

import argparse
import time

from repro.core import FederatedTrialRunner, NoiseConfig, PopulationTuner, WeightSharingTuner
from repro.experiments import ExperimentContext, format_table
from repro.fl import COHORT_MODES
from repro.utils.records import Record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="test", choices=("test", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="cifar10",
                        choices=("cifar10", "femnist", "stackoverflow", "reddit"))
    parser.add_argument("--population", type=int, default=8, help="configs per population")
    parser.add_argument(
        "--rounds-per-step",
        type=int,
        default=None,
        help="training rounds between evaluations (default: per-tuner schedule)",
    )
    parser.add_argument(
        "--subsample",
        type=float,
        default=0.5,
        help="fraction of validation clients each noisy evaluation sees",
    )
    parser.add_argument(
        "--cohort-mode",
        choices=COHORT_MODES,
        default=None,
        help=(
            "cohort training: per-client serial (the reference) or fused "
            "lockstep slabs (default: $REPRO_COHORT_VECTOR, else fused)"
        ),
    )
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    ctx = ExperimentContext(
        preset=args.preset,
        seed=args.seed,
        cohort_mode=args.cohort_mode,
    )
    dataset = ctx.dataset(args.dataset)
    noise = NoiseConfig(subsample=args.subsample)
    records = []
    for name, cls in (("fedex", WeightSharingTuner), ("fedpop", PopulationTuner)):
        runner = FederatedTrialRunner(
            dataset,
            max_rounds=ctx.max_rounds,
            clients_per_round=ctx.clients_per_round,
            seed=args.seed,
            cohort_mode=ctx.cohort_mode,
        )
        tuner = cls(
            ctx.space,
            runner,
            noise,
            population_size=args.population,
            rounds_per_step=args.rounds_per_step,
            total_budget=ctx.total_budget,
            seed=args.seed,
        )
        t0 = time.perf_counter()
        result = tuner.run()
        records.append(
            Record(
                method=name,
                final_full_error=round(result.final_full_error, 4),
                rounds_used=result.rounds_used,
                evaluations=len(result.observations),
                seconds=round(time.perf_counter() - t0, 2),
            )
        )
        if name == "fedex":
            probs = ", ".join(f"{p:.2f}" for p in tuner.probabilities)
            print(f"fedex final config distribution: [{probs}]")
    print()
    print(format_table(
        records,
        ("method", "final_full_error", "rounds_used", "evaluations", "seconds"),
        title=f"population tuners on {args.dataset} ({args.preset} preset, "
        f"population {args.population})",
    ))


if __name__ == "__main__":
    main()
