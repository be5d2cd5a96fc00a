"""Command-line driver: regenerate any paper table/figure.

Usage::

    python -m repro.experiments.cli --artifact fig3 --preset small --trials 60
    python -m repro.experiments.cli --artifact table1
    python -m repro.experiments.cli --list

Records can optionally be written to JSON with ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from repro.experiments import (
    METHODS,
    ExperimentContext,
    parse_methods,
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    format_table,
    run_figure1,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure9,
    run_figure11,
    run_figure12,
    run_figure13,
    run_fault_sweep,
    run_method_comparison,
    run_table1,
    run_table2,
    run_transfer_scatter,
)
from repro.fl.cohort import COHORT_MODES
from repro.utils.records import records_to_json

# artifact -> (runner, display columns)
_ARTIFACTS: Dict[str, tuple] = {
    "table1": (lambda ctx, n: run_table1(ctx), TABLE1_COLUMNS),
    "table2": (lambda ctx, n: run_table2(ctx), TABLE2_COLUMNS),
    "fig1": (
        lambda ctx, n: run_figure1(ctx, n_trials=max(1, n // 10)),
        ("method", "setting", "full_error"),
    ),
    "fig3": (
        lambda ctx, n: run_figure3(ctx, n_trials=n),
        ("dataset", "subsample_count", "subsample_pct", "q25", "median", "q75", "best_hps"),
    ),
    "fig4": (
        lambda ctx, n: run_figure4(ctx, n_trials=n),
        ("dataset", "iid_fraction", "subsample_count", "q25", "median", "q75"),
    ),
    "fig5": (
        lambda ctx, n: run_figure5(ctx, n_trials=n),
        ("dataset", "subsample_count", "budget_rounds", "median"),
    ),
    "fig6": (
        lambda ctx, n: run_figure6(ctx, n_trials=n),
        ("dataset", "bias_b", "subsample_count", "q25", "median", "q75"),
    ),
    "fig7": (
        lambda ctx, n: run_figure7(ctx),
        ("dataset", "config_id", "full_error", "min_client_error"),
    ),
    "fig8": (
        lambda ctx, n: run_method_comparison(ctx, n_trials=max(1, n // 10)),
        ("dataset", "method", "setting", "trial", "final_full_error", "n_evaluations"),
    ),
    "fig9": (
        lambda ctx, n: run_figure9(ctx, n_trials=n),
        ("dataset", "epsilon", "subsample_count", "q25", "median", "q75"),
    ),
    "fig10": (
        lambda ctx, n: run_transfer_scatter(ctx),
        ("pair", "config_id", "error_x", "error_y"),
    ),
    "fig11": (
        lambda ctx, n: run_figure11(ctx, n_trials=n),
        ("client", "proxy", "q25", "median", "q75"),
    ),
    "fig12": (
        lambda ctx, n: run_figure12(ctx, n_trials=n),
        ("client", "source", "budget_rounds", "median"),
    ),
    "fig13": (
        lambda ctx, n: run_figure13(ctx, n_trials=n),
        ("dataset", "log10_span", "noiseless", "noisy_median"),
    ),
    "figfaults": (
        lambda ctx, n: run_fault_sweep(ctx, n_trials=max(1, n // 10)),
        (
            "dataset",
            "method",
            "dropout_rate",
            "trial",
            "final_full_error",
            "train_drop_fraction",
            "eval_drop_fraction",
            "rounds_lost",
            "quarantined_trials",
        ),
    ),
}
_ARTIFACTS["fig14"] = _ARTIFACTS["fig10"]
_ARTIFACTS["fig15"] = _ARTIFACTS["fig8"]
_ARTIFACTS["fig16"] = _ARTIFACTS["fig8"]

#: Artifacts driven by run_method_comparison, where --methods applies.
METHOD_COMPARISON_ARTIFACTS = ("fig8", "fig15", "fig16")

#: Artifacts where --faults applies: the live-tuning sweeps. For the
#: method-comparison figures the spec faults the whole sweep; for
#: figfaults it sets the base config whose dropout knobs the grid sweeps.
FAULTS_ARTIFACTS = METHOD_COMPARISON_ARTIFACTS + ("figfaults",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--artifact", choices=sorted(_ARTIFACTS), help="table/figure id")
    parser.add_argument("--list", action="store_true", help="list available artifacts")
    parser.add_argument("--preset", default="test", choices=("test", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20, help="bootstrap trials per sweep point")
    parser.add_argument("--bank-configs", type=int, default=32, help="config pool size")
    parser.add_argument("--out", default=None, help="write records to this JSON file")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="disk cache for built config banks (default: $REPRO_BANK_CACHE)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes: each builds bank configs or runs whole tuning "
            "runs of a sweep (default: $REPRO_WORKERS, else serial)"
        ),
    )
    parser.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated tuner list for the method-comparison artifacts "
            f"({', '.join(METHOD_COMPARISON_ARTIFACTS)}); any of "
            f"{', '.join(sorted(METHODS))} (default: rs,tpe,hb,bohb)"
        ),
    )
    parser.add_argument(
        "--cohort-mode",
        choices=COHORT_MODES,
        default=None,
        help=(
            "cohort training path: 'serial' per-client loops (the reference) "
            "or 'fused' lockstep slabs (whole rungs/bank pools train as "
            "cross-trial slabs; default: $REPRO_COHORT_VECTOR, else serial)"
        ),
    )
    parser.add_argument(
        "--cohort-dtype",
        choices=("float64", "float32"),
        default=None,
        help=(
            "slab compute dtype for fused training: 'float64' is the "
            "bit-exact serial-equivalence reference, 'float32' halves slab "
            "memory at documented tolerance (default: $REPRO_DTYPE, else "
            "float64)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for per-run tuning checkpoints on the method-comparison "
            f"artifacts ({', '.join(METHOD_COMPARISON_ARTIFACTS)}); runs save "
            "their state here periodically (default: $REPRO_CHECKPOINT_DIR)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume interrupted runs from their checkpoints in --checkpoint-dir "
            "(bit-identical continuation; runs without a checkpoint start fresh)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        help=(
            "fault-injection spec for the live-tuning artifacts "
            f"({', '.join(FAULTS_ARTIFACTS)}), e.g. "
            "'dropout=0.1,straggler=0.05,quorum=0.5,seed=3' "
            "(default: $REPRO_FAULTS; see repro.engine.faults)"
        ),
    )
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print("available artifacts:", ", ".join(sorted(_ARTIFACTS)))
        return 0
    if not args.artifact:
        print("error: --artifact (or --list) is required", file=sys.stderr)
        return 2
    runner, columns = _ARTIFACTS[args.artifact]
    methods_artifacts = METHOD_COMPARISON_ARTIFACTS + ("figfaults",)
    for flag, given, where in (
        ("--methods", args.methods is not None, methods_artifacts),
        ("--checkpoint-dir", args.checkpoint_dir is not None, METHOD_COMPARISON_ARTIFACTS),
        ("--resume", args.resume, METHOD_COMPARISON_ARTIFACTS),
        ("--faults", args.faults is not None, FAULTS_ARTIFACTS),
    ):
        if given and args.artifact not in where:
            print(
                f"error: {flag} only applies to {', '.join(where)}",
                file=sys.stderr,
            )
            return 2
    if args.resume and not (
        args.checkpoint_dir or os.environ.get("REPRO_CHECKPOINT_DIR")
    ):
        print(
            "error: --resume requires --checkpoint-dir (or $REPRO_CHECKPOINT_DIR)",
            file=sys.stderr,
        )
        return 2
    fault_config = None
    if args.faults is not None:
        from repro.engine.faults import FaultConfig

        try:
            fault_config = FaultConfig.parse(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.methods is not None or args.resume:
        try:
            methods = (
                parse_methods(args.methods)
                if args.methods is not None
                else ("rs", "tpe", "hb", "bohb")
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.artifact == "figfaults":
            runner = lambda ctx, n: run_fault_sweep(  # noqa: E731
                ctx, methods=methods, n_trials=max(1, n // 10),
                base_faults=fault_config,
            )
        else:
            runner = lambda ctx, n: run_method_comparison(  # noqa: E731
                ctx, methods=methods, n_trials=max(1, n // 10), resume=args.resume
            )
    elif args.artifact == "figfaults" and fault_config is not None:
        runner = lambda ctx, n: run_fault_sweep(  # noqa: E731
            ctx, n_trials=max(1, n // 10), base_faults=fault_config
        )
    ctx = ExperimentContext(
        preset=args.preset,
        seed=args.seed,
        n_bank_configs=args.bank_configs,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
        cohort_mode=args.cohort_mode,
        cohort_dtype=args.cohort_dtype,
        checkpoint_dir=args.checkpoint_dir,
        # figfaults seeds each sweep point itself (base_faults above);
        # the method-comparison figures run their whole sweep under the
        # context-attached plan.
        faults=None if args.artifact == "figfaults" else fault_config,
    )
    records = runner(ctx, args.trials)
    print(format_table(records, columns, title=f"{args.artifact} ({args.preset} preset)"))
    if args.out:
        records_to_json(records, args.out)
        print(f"\nwrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
