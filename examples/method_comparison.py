"""Compare tuning methods under federated evaluation noise.

A scaled-down version of the paper's Figure 8: each method gets the same
total round budget; the noisy setting subsamples 1% of validation clients
and applies eps=100 evaluation privacy. Early-stopping methods (HB/BOHB)
perform many low-fidelity evaluations, which noise corrupts — in noisy
settings they can fall behind plain random search. The population methods
(fedex/fedpop) re-evaluate a whole config population every step, so they
stress the noise stack hardest — and the fused slab engine most
(``--cohort-mode fused`` trains each population step as one cross-trial
slab pass).

Run:  python examples/method_comparison.py [--preset test] [--trials 2]
      python examples/method_comparison.py --methods rs,fedex,fedpop --cohort-mode fused
"""

import argparse

from repro.experiments import (
    METHODS,
    ExperimentContext,
    bars_at_budget,
    format_table,
    run_method_comparison,
)
from repro.experiments import parse_methods as _parse_methods
from repro.fl import COHORT_MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="test", choices=("test", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--dataset", default="cifar10",
                        choices=("cifar10", "femnist", "stackoverflow", "reddit"))
    parser.add_argument(
        "--methods",
        default="rs,tpe,hb,bohb",
        help=f"comma-separated tuner list; any of {', '.join(sorted(METHODS))}",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes, one tuning run each (default: $REPRO_WORKERS)",
    )
    parser.add_argument(
        "--cohort-mode",
        choices=COHORT_MODES,
        default=None,
        help=(
            "cohort training: per-client serial (the reference) or fused "
            "lockstep slabs (default: $REPRO_COHORT_VECTOR, else serial)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "save each tuning run's state to per-run checkpoints in this "
            "directory (default: $REPRO_CHECKPOINT_DIR)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume interrupted runs from their checkpoints in --checkpoint-dir "
            "(bit-identical continuation)"
        ),
    )
    return parser


def parse_methods(raw: str):
    """Validate a --methods list (shared repro.experiments helper), exiting
    with the error message rather than a traceback."""
    try:
        return _parse_methods(raw)
    except ValueError as exc:
        raise SystemExit(str(exc))


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    methods = parse_methods(args.methods)

    ctx = ExperimentContext(
        preset=args.preset,
        seed=args.seed,
        n_workers=args.workers,
        cohort_mode=args.cohort_mode,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.resume and not ctx.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir (or $REPRO_CHECKPOINT_DIR)")
    print(f"running {'/'.join(methods)} x (noiseless, noisy) x {args.trials} trials "
          f"on {args.dataset} (budget {ctx.total_budget} rounds)...\n")
    records = run_method_comparison(
        ctx,
        dataset_names=(args.dataset,),
        methods=methods,
        n_trials=args.trials,
        budget_points=8,
        resume=args.resume,
    )
    bars = bars_at_budget(records, budget_fraction=1.0)
    print(format_table(
        bars,
        ("method", "setting", "median"),
        title=f"final full-validation error ({args.dataset})",
    ))
    print()
    evals = {
        (r.method, r.setting): r.n_evaluations
        for r in records
        if r.trial == 0 and r.setting == "noisy"
    }
    print("noisy evaluations performed per run (more releases = more DP noise each):")
    for (method, _), n in sorted(evals.items()):
        print(f"  {method:5s} {n}")


if __name__ == "__main__":
    main()
