#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload tune_cnn --seed 3 --seconds 16 --trace 0

runs one workload in a fresh subprocess with a pinned environment and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced unit with
``--trace 1``. Without ``--workload`` every workload runs, one at a time.
``--agree`` runs two passes and compares them against the bounds in
``BENCHMARK.json``.

This file is both the parent (stdlib only: it must set the environment
before numpy is imported) and, with ``--child``, the workload process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: All scratch (bank caches, service roots) lives here and is removed on exit.
SCRATCH_PARENT = os.path.join(HERE, ".scratch")

#: One BLAS thread: NumPy's default of one per core makes a unit's wall
#: time depend on what else the second core is doing. A fixed hash seed
#: keeps set/dict iteration order out of the measurements. One malloc
#: arena: with per-thread arenas the service workload's peak RSS lands on
#: 114 or 116 MiB depending on thread timing.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
}
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
MIN_UNITS = 3  # timed units per run, after one discarded warm-up
CHILD_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list:
    """The workloads, in ``BENCHMARK.json``'s order (the parent cannot ask
    ``workloads.py``: importing it imports numpy)."""
    return [entry["name"] for entry in benchmark_spec()["workloads"]]


# -- parent ------------------------------------------------------------------------


def child_env() -> dict:
    """The workload's environment: the caller's minus every ``REPRO_*``
    variable (each silently selects another code path in ``src/``), plus
    the pinned settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def spawn(workload: str, seed: int, scratch: str, extra: list) -> dict:
    """Run one child to completion and return the JSON on its last line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
        "--seed", str(seed), "--scratch", scratch, "--spawned-at", repr(time.time()), *extra,
    ]
    proc = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spans: str = "") -> dict:
    """One run of one workload; returns the child's report with
    ``setup_s`` replaced by the median over this run's set-ups."""
    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_PARENT)
    flags = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        flags.append("--smoke")
    if spans:
        flags += ["--spans", spans]
    try:
        setups = []
        if not trace and not smoke:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(spawn(workload, seed, scratch, [*flags, "--setup-only"])["setup_s"])
        report = spawn(workload, seed, scratch, flags)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_PARENT)
        except OSError:
            pass  # another run is using it
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    report["setup_s"] = statistics.median(setups)
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The contract's last line for one run."""
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "unit_s": {"value": report["unit_s"], "unit": "s"},
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def agree(seed: int, seconds: float) -> int:
    """Two full passes back to back; per workload and end-to-end metric,
    both values, their relative gap and the bound. Non-zero exit when a
    gap exceeds its bound or an operation failed."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    names = workload_names()
    passes = []
    for _ in range(2):
        passes.append({
            name: result_line(run_workload(name, seed, seconds, trace=False, smoke=False), False)
            for name in names
        })
    worst = 0
    print(f"{'workload':<14} {'metric':<12} {'pass 1':>10} {'pass 2':>10} {'gap':>7} {'bound':>6}")
    for name in names:
        first, second = passes[0][name], passes[1][name]
        for metric, bound in bounds.items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            gap = abs(b - a) / a
            flag = "" if gap <= bound else "  EXCEEDS"
            worst |= gap > bound
            print(f"{name:<14} {metric:<12} {a:>10.3f} {b:>10.3f} {gap:>6.1%} {bound:>6.0%}{flag}")
        failed = first["failed"] + second["failed"]
        worst |= failed > 0
        print(f"{name:<14} {'ops failed':<12} {first['failed']:>10} {second['failed']:>10}")
    return int(worst)


def parent(args) -> int:
    if args.agree:
        return agree(args.seed, args.seconds)
    names = [args.workload] if args.workload else workload_names()
    status = 0
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace, args.smoke, args.spans)
        line = result_line(report, args.trace)
        status |= not line["correct"]
        report.pop("per_layer", None)
        print(json.dumps({"run": report}))
        print(json.dumps(line))
    return status


# -- child -------------------------------------------------------------------------


def scratch_filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (journal fsyncs land there)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_head() -> str:
    """``git rev-parse HEAD`` without git: the checkout the driver runs in
    is not a repository, and then this reads ``none``."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "none"


def timed_unit(workload, tracer=None):
    """Run one unit: wall seconds, process CPU seconds, outcome."""
    gc.collect()
    cpu = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        outcome = workload.unit()
    else:
        with tracer.span("harness.unit"):
            outcome = workload.unit(tracer)
    return time.perf_counter() - start, time.process_time() - cpu, outcome


def measure(workload, seconds: float, min_units: int) -> dict:
    """Untraced run: one discarded warm-up, then timed units until
    ``seconds`` of them are measured (at least ``min_units``)."""
    from check import check

    warmup_s, _, warm = timed_unit(workload)
    failures = check(workload.name, warm)
    attempted = warm.ops
    units = []
    while len(units) < min_units or sum(units) + statistics.median(units) <= seconds:
        unit_s, _, outcome = timed_unit(workload)
        units.append(unit_s)
        attempted += outcome.ops
        failures += check(workload.name, outcome, warm)
    median = statistics.median(units)
    return {
        "warmup_s": warmup_s, "units_s": units, "n_units": len(units), "unit_s": median,
        "unit_min_s": min(units), "unit_max_s": max(units),
        "rep_spread": (max(units) - min(units)) / median,
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
    }


def measure_traced(workload, tracer, import_s: float, loadavg: float) -> dict:
    """Traced run: warm-up, untraced reference unit, traced unit, second
    reference unit, then the workload's oracle unit if it has one. The
    per-layer metrics cover the spans of set-up and of the traced unit."""
    import trace
    import workloads
    from check import check, check_oracle

    warmup_s, _, warm = timed_unit(workload)
    failures = check(workload.name, warm)
    ref_a, cpu_a, outcome = timed_unit(workload)
    failures += check(workload.name, outcome, warm)
    attempted = warm.ops + outcome.ops

    trace.install_probes(tracer, [workloads])
    tracer.unit = "traced"
    try:
        traced_s, _, traced = timed_unit(workload, tracer)
    finally:
        tracer.uninstall()
    failures += check(workload.name, traced, warm)
    ref_b, cpu_b, outcome = timed_unit(workload)
    failures += check(workload.name, outcome, warm)
    attempted += traced.ops + outcome.ops
    untraced = (ref_a + ref_b) / 2

    given = dict(traced.given)
    start = time.perf_counter()
    oracle = workload.oracle()
    if oracle is not None:
        given[workload.oracle_metric] = (time.perf_counter() - start) / untraced
        failures += check_oracle(warm, oracle)
        attempted += oracle.ops

    unit_summary = tracer.summary(["traced"])
    given.update({
        "harness.import_s": import_s,
        "harness.warmup_s": warmup_s,
        "harness.unit_cpu_s": (cpu_a + cpu_b) / 2,
        "harness.rep_spread": abs(ref_a - ref_b) / untraced,
        "harness.loadavg": loadavg,
        "harness.trace_overhead_frac": traced_s / untraced - 1,
        "harness.untraced_frac": (
            unit_summary.self_time["harness.unit"] / unit_summary.total["harness.unit"]
        ),
    })
    return {
        "warmup_s": warmup_s, "units_s": [ref_a, ref_b], "n_units": 2, "unit_s": untraced,
        "traced_unit_s": traced_s,
        "layer_shares": unit_summary.layer_shares(traced_s),
        "per_layer": trace.per_layer_metrics(tracer.summary(["setup", "traced"]), given),
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
    }


def child(args) -> int:
    loadavg = os.getloadavg()[0]
    start = time.perf_counter()
    import numpy

    import trace
    import workloads
    import repro

    import_s = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"measuring {repro.__file__}, not this checkout's src/")
    workload = workloads.REGISTRY[args.workload](args.seed, args.scratch, args.smoke)
    tracer = trace.Tracer() if args.trace else None
    if tracer is not None:
        trace.install_probes(tracer, [workloads])
        tracer.unit = "setup"
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.time() - args.spawned_at
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is None:
            report = measure(workload, 0.0 if args.smoke else args.seconds,
                             1 if args.smoke else MIN_UNITS)
        else:
            report = measure_traced(workload, tracer, import_s, loadavg)
            if args.spans:
                tracer.dump(args.spans)
    finally:
        workload.close()
    report.update({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "setup_s": setup_s, "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nproc": os.cpu_count(), "loadavg": loadavg,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "scratch_fs": scratch_filesystem(args.scratch),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "git_head": git_head(),
    })
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(),
                        help="default: all, one at a time")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; numbers not for comparison")
    parser.add_argument("--agree", action="store_true",
                        help="two passes, compared against the bounds")
    parser.add_argument("--spans", default="", help="with --trace 1: write raw spans (JSONL) here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
