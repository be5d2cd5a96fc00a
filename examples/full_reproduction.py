"""Regenerate every paper artifact in one run.

Walks the full table/figure index (DESIGN.md §4) at a chosen preset over a
single shared :class:`ExperimentContext` (banks are trained once and
reused), printing each artifact's table and optionally saving all records
as JSON. At the default "test" preset this finishes in a few minutes;
"small" matches the benchmark suite; "paper" is the full-scale run.

Run:  python examples/full_reproduction.py [--preset test] [--out-dir results/]
"""

import argparse
import os
import time

from repro.experiments import ExperimentContext, format_table
from repro.experiments.cli import _ARTIFACTS
from repro.fl import COHORT_MODES
from repro.utils.records import records_to_json

# Order artifacts the way the paper presents them.
ORDER = (
    "table1",
    "table2",
    "fig3",
    "fig5",
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig1",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="test", choices=("test", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--bank-configs", type=int, default=16)
    parser.add_argument("--out-dir", default=None, help="save per-artifact JSON here")
    parser.add_argument("--skip", nargs="*", default=(), help="artifact ids to skip")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="bank cache directory: reruns reuse trained banks "
        "(default: $REPRO_BANK_CACHE)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for bank builds and sweep runs (default: $REPRO_WORKERS)",
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
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    ctx = ExperimentContext(
        preset=args.preset,
        seed=args.seed,
        n_bank_configs=args.bank_configs,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
        cohort_mode=args.cohort_mode,
    )
    t_start = time.time()
    for artifact in ORDER:
        if artifact in args.skip:
            print(f"--- {artifact}: skipped ---\n")
            continue
        runner, columns = _ARTIFACTS[artifact]
        t0 = time.time()
        records = runner(ctx, args.trials)
        print(format_table(records, columns, title=f"{artifact} ({args.preset} preset)"))
        if args.out_dir:
            path = os.path.join(args.out_dir, f"{artifact}.json")
            records_to_json(records, path)
            print(f"[saved {path}]")
        print(f"[{artifact} done in {time.time() - t0:.1f}s]\n")
    print(f"all artifacts regenerated in {time.time() - t_start:.1f}s")


if __name__ == "__main__":
    main()
