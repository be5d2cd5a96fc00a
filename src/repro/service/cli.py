"""``repro-serve``: the tuning service's command-line entrypoint.

Usage::

    repro-serve run    --root /var/repro --slots 4
    repro-serve run    --root /var/repro --once          # drain the queue, exit
    repro-serve submit --root /var/repro --dataset cifar10 --method tpe
    repro-serve status --root /var/repro [JOB_ID]
    repro-serve serve  --root /var/repro --port 8537     # REST front end

``run`` executes jobs (and exits 143/130 on a SIGTERM/SIGINT drain after
checkpointing every active run at its next safe boundary); ``submit`` and
``status`` talk to the same journaled queue from any process; ``serve``
exposes the REST API. All four share one ``--root`` directory — that
directory *is* the service state.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.service.daemon import TuningService
from repro.service.queue import JobQueue
from repro.service.worker import JobSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute queued jobs (the daemon)")
    run.add_argument("--root", required=True, help="service state directory")
    run.add_argument("--slots", type=int, default=2, help="concurrent jobs")
    run.add_argument("--lease", type=float, default=30.0,
                     help="lease duration in seconds")
    run.add_argument("--max-failures", type=int, default=3,
                     help="failures before a job is quarantined as poison")
    run.add_argument("--heartbeat", type=float, default=None,
                     help="lease-renewal interval (default lease/3)")
    run.add_argument("--once", action="store_true",
                     help="exit when the queue has no live jobs left")

    submit = sub.add_parser("submit", help="enqueue one tuning job")
    submit.add_argument("--root", required=True)
    submit.add_argument("--dataset", required=True)
    submit.add_argument("--method", default="rs")
    submit.add_argument("--setting", default="noisy",
                        choices=("noisy", "noiseless"))
    submit.add_argument("--preset", default="test")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--trial", type=int, default=0)
    submit.add_argument("--k", type=int, default=16)
    submit.add_argument("--bank-configs", type=int, default=16)
    submit.add_argument("--budget", type=int, default=None,
                        help="total rounds (default: preset budget)")
    submit.add_argument("--faults", default=None,
                        help='fault spec, e.g. "dropout=0.1,seed=3"')
    submit.add_argument("--checkpoint-every", type=int, default=1)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--job-id", default=None,
                        help="explicit id (idempotent resubmission)")

    status = sub.add_parser("status", help="inspect the queue")
    status.add_argument("--root", required=True)
    status.add_argument("job_id", nargs="?", default=None)

    serve = sub.add_parser("serve", help="REST front end")
    serve.add_argument("--root", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8537)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # `repro-serve status | head` closes stdout mid-print; exit
        # quietly like standard unix tools instead of tracebacking.
        # Re-point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "run":
        service = TuningService(
            args.root,
            n_slots=args.slots,
            lease_duration=args.lease,
            max_job_failures=args.max_failures,
            heartbeat_interval=args.heartbeat,
        )
        # A drain raises SystemExit(128 + signum); let it propagate so the
        # process exit code reports which signal drained us.
        service.run(once=args.once)
        return 0
    if args.command == "submit":
        spec = JobSpec(
            dataset=args.dataset,
            method=args.method,
            setting=args.setting,
            preset=args.preset,
            seed=args.seed,
            trial=args.trial,
            k=args.k,
            n_bank_configs=args.bank_configs,
            total_budget=args.budget,
            faults=args.faults,
            checkpoint_every=args.checkpoint_every,
        )
        import os

        queue = JobQueue(os.path.join(args.root, "queue"))
        job_id = queue.submit(spec.to_dict(), tenant=args.tenant,
                              job_id=args.job_id)
        print(job_id)
        return 0
    if args.command == "status":
        import os

        queue = JobQueue(os.path.join(args.root, "queue"))
        if args.job_id is not None:
            job = queue.job(args.job_id)
            if job is None:
                print(f"unknown job {args.job_id!r}", file=sys.stderr)
                return 1
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            print(json.dumps(
                {"counts": queue.counts(), "jobs": queue.jobs()},
                indent=2, sort_keys=True,
            ))
        return 0
    if args.command == "serve":
        from repro.service.http import serve as run_server

        run_server(args.root, host=args.host, port=args.port)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
