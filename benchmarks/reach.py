"""Reachability probe: which functions in ``src/repro`` do the entry points run?

Runs every user-facing entry point of the reproduction — each CLI artifact
in serial and fused mode, every tuning method, float32 slabs, checkpoint +
``--resume``, fault injection, ``--workers 2``, the examples, a
``repro-serve`` session and the four ``benchmarks/e2e`` workload units
(with their serial oracle) — under a call recorder, then lists every
``def`` in ``src/repro`` that none of them entered. A def that goes
unreached must either leave ``src/`` or be named in :data:`ALLOWLIST` with
a one-line reason; the probe exits non-zero otherwise, and also when an
allowlist key names no def at all.

Usage (stdlib only; about 10-20 minutes on 2 CPUs)::

    python benchmarks/reach.py

Recording: every Python process the probe starts — including forked pool
workers and the subprocesses the e2e harness and the service spawn —
imports a generated ``sitecustomize`` (put first on ``PYTHONPATH``) that
installs a ``sys.settrace`` hook recording the code object of every called
function. Each process writes its record at exit; forked workers leave
through ``os._exit``, so the hook also wraps ``os._exit`` to write first.
A def counts as reached when a recorded code object starts on its first
line (the first decorator's line for a decorated def).
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
COMMAND_TIMEOUT_S = 1800

#: Defs that no entry point reaches but stay, keyed by
#: ``path/to/module.py`` (every def in the module),
#: ``path/to/module.py::Class`` (every def in the class) or
#: ``path/to/module.py::qualified.name``; paths are relative to
#: ``src/repro``. Each value is the one-line reason the code stays.
ALLOWLIST: Dict[str, str] = {
    # Extensions without an artifact: a claim plus an artifact decides on them.
    "core/robust.py": "resampled/two-stage RS, an extension awaiting a claim and artifact",
    "experiments/tail.py": "tail-error study, an extension awaiting a claim and artifact",
    "fl/evaluation.py::tail_error": "the tail objective of experiments/tail.py",
    "core/privacy.py::oneshot_laplace_topk": "one-shot DP elimination; whether Hyperband should use it is a fidelity question",
    "core/privacy.py::oneshot_topk_scale": "noise scale of oneshot_laplace_topk",
    "experiments/fig_proxy.py::transfer_correlation": "the fig 10 transfer claim's statistic, checked by its test and benchmark",
    # Benchmark trace probes and oracles that only tests and benchmarks run.
    "experiments/bank.py::BankTrialRunner": "reference bank replay the vectorised bootstrap is tested against; an e2e trace probe",
    "experiments/bank.py::bank_config_source": "config source of the BankTrialRunner reference replay",
    "experiments/bank.py::ConfigBank.error_rates": "BankTrialRunner's read path",
    "nn/stacked.py::StackedModel.backward": "input-gradient backward for gradchecks; an e2e trace probe",
    "nn/stacked.py::StackedEmbedding.backward": "input-side backward, run by gradchecks (training calls backward_params)",
    "nn/stacked.py::stacked_mse": "stacked MSE loss, an e2e trace probe target",
    "nn/losses.py::mse_loss": "serial MSE, the oracle of stacked_mse",
    "datasets/base.py::next_token_error": "serial next-token error, the oracle of the stacked counter it keys in STACKED_ERROR_COUNTERS",
    # Test utilities that live in src/ until the reference oracle moves to tests/.
    "core/synthetic.py": "SyntheticRunner, the fast synthetic surface the tuner tests drive",
    "nn/gradcheck.py": "numerical gradient checks for the layer tests",
    "nn/models.py::make_mlp": "the MLP the slab and equivalence tests build",
    "nn/layers.py::Tanh": "activation no registered model builds; kept with its stacked kernel",
    "nn/layers.py::Sigmoid": "activation no registered model builds; kept with its stacked kernel",
    "nn/stacked.py::StackedTanh": "stacked counterpart of Tanh",
    "nn/stacked.py::StackedSigmoid": "stacked counterpart of Sigmoid",
    "nn/stacked.py::StackedModel.set_flat": "slab accessor the stacked-kernel tests use",
    "nn/stacked.py::StackedModel.set_slab": "slab accessor the stacked-kernel tests use",
    "nn/stacked.py::StackedModel.get_slab": "slab accessor the stacked-kernel tests use",
    "nn/stacked.py::StackedModel.zero_grad": "slab accessor the stacked-kernel tests use",
    "fl/cohort.py::SlabTrainer.stacked_model": "slab accessor the float32 memory tests read",
    "nn/module.py::get_flat_grads": "flat gradient read the layer tests use",
    "nn/functional.py::one_hot": "helper the loss tests use",
    "nn/initializers.py::he_normal": "initializer the layer tests use",
    "nn/optim.py::Optimizer.zero_grad": "serial SGD API the optimizer tests use",
    # Reached only under injected faults, signals, crashes or corrupt files.
    "engine/atomicio.py::next_quarantine_path": "corrupt-file quarantine",
    "engine/atomicio.py::quarantine": "corrupt-file quarantine",
    "engine/checkpoint.py::_quarantine_corrupt": "corrupt-checkpoint quarantine",
    "engine/executor.py::WorkerCrashedError": "raised when a pool worker dies",
    "engine/executor.py::TaskTimeoutError": "raised when a pool task times out",
    "engine/faults.py::FaultPlan.task_kills": "task-kill fault injection (task_kill_rate > 0)",
    "engine/faults.py::FaultConfig.active": "fault plans that inject only task kills",
    "engine/faults.py::FaultPlan.active": "fault plans that inject only task kills",
    "engine/faults.py::FaultConfig.from_dict": "reads the fault spec of a checkpointed faulted run back",
    "engine/faults.py::ParticipationLog": "participation bookkeeping of faulted runs on resume and availability-aware sampling",
    "core/evaluator.py::FederatedTrialRunner._quarantined_rates": "reads of a trial quarantined by injected failures",
    "core/tuner.py::BaseTuner.request_preempt": "SIGTERM/SIGINT preemption",
    "core/tuner.py::BaseTuner._install_preempt_signals.handler": "SIGTERM/SIGINT preemption",
    "experiments/fig_methods.py::_preemptible.handler": "SIGTERM/SIGINT preemption of a sweep",
    "service/daemon.py::TuningService.request_drain": "SIGTERM/SIGINT drain of the service",
    "service/daemon.py::TuningService.drain_and_wait": "SIGTERM/SIGINT drain of the service",
    "service/daemon.py::TuningService._heartbeat_active": "lease heartbeats of jobs that outlive a poll",
    "service/queue.py::JobQueue.fail": "a job whose execution raised",
    "service/queue.py::JobQueue.release": "a job handed back on drain",
    "core/bohb.py::BOHB._load_state_extra": "resume of an interrupted run",
    "core/gp_bo.py::GPBO._load_state_extra": "resume of an interrupted run",
    "core/tpe.py::TPE._load_state_extra": "resume of an interrupted run",
    "core/population.py::WeightSharingTuner._load_state_extra": "resume of an interrupted run",
    "core/population.py::PopulationTuner._load_state_extra": "resume of an interrupted run",
    "core/population.py::PopulationTunerBase._load_state_extra": "resume of an interrupted run",
    # Default hooks that every runner or tuner an entry point builds overrides.
    "core/evaluator.py::TrialRunner.error_rates_many": "serial default of runners without a batch path (bank, synthetic)",
    "core/evaluator.py::TrialRunner._trial_payload": "default checkpoint payload of runners whose trial state is plain data",
    "core/evaluator.py::TrialRunner._restore_trial_payload": "default checkpoint payload of runners whose trial state is plain data",
    "core/tuner.py::BaseTuner._state_extra": "default checkpoint hook of a tuner with no cursor state",
    # Library API no entry point calls: small, documented and tested.
    "fl/client.py::evaluate_client": "scores a client that fills a whole evaluation chunk (larger presets)",
    "fl/trainer.py::FederatedTrainer.simulated_time": "simulated wall-clock of a faulted trainer",
    "engine/executor.py::default_workers": "resolves $REPRO_WORKERS when no worker count is given",
    "engine/bank_store.py::BankStore.__len__": "cache-size query",
    "engine/bank_store.py::BankStore.clear": "cache eviction",
    "service/http.py::ServiceAPI.health": "REST endpoint of repro-serve serve",
    "service/http.py::ServiceAPI.list_jobs": "REST endpoint of repro-serve serve",
    "service/http.py::serve": "REST front end of repro-serve serve",
    "service/store.py::ExperimentStore.ids": "store listing",
    "experiments/reporting.py::format_series": "text report of one curve",
    "experiments/reporting.py::summarize_trials": "text summary of bootstrapped trials",
    "experiments/fig_methods.py::curve_medians": "median curves of a method sweep",
    "experiments/tables.py::print_table1": "prints table 1",
    "experiments/tables.py::print_table2": "prints table 2",
    "experiments/context.py::ExperimentContext.grid": "subsampling grid of a dataset's validation pool",
    "core/noise.py::NoiseConfig.noiseless": "names the paper's noiseless setting",
    "core/privacy.py::PrivacyConfig.with_releases": "re-budgets a privacy config",
    "core/search_space.py::Hyperparameter.is_numeric": "search-space introspection",
    "core/search_space.py::Choice.is_numeric": "search-space introspection",
    "core/search_space.py::Constant": "unit-cube maps of a non-searched value",
    "core/search_space.py::SearchSpace.__len__": "container protocol",
    "core/search_space.py::SearchSpace.__getitem__": "container protocol",
    "core/search_space.py::SearchSpace.__contains__": "container protocol",
    "datasets/base.py::ClientData.subset": "slices a client's examples",
    "nn/module.py::Parameter.__repr__": "debug repr",
    "nn/module.py::Sequential.__len__": "container protocol",
    "nn/module.py::Sequential.__getitem__": "container protocol",
    "engine/faults.py::FaultPlan.__repr__": "debug repr",
    "utils/rng.py::spawn_rngs": "independent generators from one seed",
    "utils/rng.py::RngFactory.path": "names a factory's stream path",
    "utils/rng.py::RngFactory.__repr__": "debug repr",
    "utils/records.py::Record.__setattr__": "attribute-style record writes",
    "utils/records.py::records_from_json": "reads records written with --out",
}


# -- the entry points ----------------------------------------------------------------

ARTIFACTS = (
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "figfaults", "table1", "table2",
)
ALL_METHODS = "bohb,fedex,fedpop,gp-ei,gp-nei,hb,rs,tpe"
EXAMPLES = (
    "quickstart", "method_comparison", "noise_anatomy", "population_tuning",
    "proxy_tuning", "systems_heterogeneity", "full_reproduction",
)
E2E_WORKLOADS = ("tune_cnn", "tune_lstm", "bank_replay", "service_churn")


def entry_points(work: str) -> List[List[str]]:
    """Every command the probe runs, in order (``work`` is scratch space)."""
    py = sys.executable
    cli = [py, "-m", "repro.experiments.cli", "--preset", "test", "--trials", "2"]
    out = os.path.join(work, "out.json")
    ckpt = os.path.join(work, "ckpt")
    fig8 = [*cli, "--artifact", "fig8", "--out", out]
    commands = [
        [*cli, "--artifact", artifact, "--cohort-mode", mode, "--out", out]
        for artifact in ARTIFACTS
        for mode in ("serial", "fused")
    ]
    commands += [
        [py, "-m", "repro.experiments.cli", "--list"],
        [*fig8, "--methods", ALL_METHODS, "--cohort-mode", "fused", "--checkpoint-dir", ckpt],
        [*fig8, "--methods", "rs,hb", "--cohort-mode", "fused", "--cohort-dtype", "float32"],
        [*fig8, "--methods", "rs,hb", "--checkpoint-dir", ckpt],
        [*fig8, "--methods", "rs,hb", "--checkpoint-dir", ckpt, "--resume"],
        [*fig8, "--methods", "rs,hb", "--faults", "dropout=0.2,straggler=0.2,trial_failure=0.2",
         "--checkpoint-dir", os.path.join(work, "ckpt-faults")],
        [*fig8, "--methods", "rs,hb", "--cohort-mode", "fused", "--workers", "2"],
        [*cli, "--artifact", "fig7", "--bank-configs", "6", "--workers", "2", "--out", out],
    ]
    commands += [[py, os.path.join(ROOT, "examples", f"{name}.py")] for name in EXAMPLES]
    service = os.path.join(work, "service")
    serve = [py, "-m", "repro.service"]
    commands += [
        [*serve, "submit", "--root", service, "--dataset", "cifar10", "--method", "rs",
         "--k", "2", "--bank-configs", "4", "--budget", "12"],
        [*serve, "submit", "--root", service, "--dataset", "stackoverflow", "--method", "hb",
         "--k", "2", "--bank-configs", "4", "--budget", "12"],
        [*serve, "run", "--root", service, "--once", "--slots", "1"],
        [*serve, "status", "--root", service],
    ]
    commands += [
        [py, os.path.join(ROOT, "benchmarks", "e2e", "run.py"), "--workload", name,
         "--smoke", "--trace", "1"]
        for name in E2E_WORKLOADS
    ]
    return commands


# -- recording -----------------------------------------------------------------------

SITECUSTOMIZE = '''
import atexit, json, os, sys, threading, time

_dir = os.environ.get("REACH_PROBE_DIR")
if _dir:
    _src = os.path.realpath(os.environ["REACH_PROBE_SRC"])
    _codes = set()
    _add = _codes.add

    def _record(frame, event, arg):
        _add(frame.f_code)

    def _dump():
        sys.settrace(None)
        real = {}
        for c in list(_codes):
            if c.co_filename not in real:
                real[c.co_filename] = os.path.realpath(c.co_filename)
        rows = sorted({(real[c.co_filename], c.co_firstlineno) for c in list(_codes)
                       if real[c.co_filename].startswith(_src)})
        path = os.path.join(_dir, "%d-%d.json" % (os.getpid(), time.time_ns()))
        with open(path, "w") as f:
            json.dump(rows, f)

    atexit.register(_dump)
    _real_exit = os._exit

    def _exit(code):
        try:
            _dump()
        finally:
            _real_exit(code)

    os._exit = _exit
    threading.settrace(_record)
    sys.settrace(_record)
'''


def run_entry_points(record_dir: str, work: str) -> List[Tuple[str, float, int]]:
    hook = os.path.join(work, "hook")
    os.makedirs(hook)
    with open(os.path.join(hook, "sitecustomize.py"), "w") as f:
        f.write(SITECUSTOMIZE)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([hook, SRC]),
        REACH_PROBE_DIR=record_dir,
        REACH_PROBE_SRC=PACKAGE,
    )
    ran = []
    for command in entry_points(work):
        label = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in command[1:])
        start = time.perf_counter()
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=COMMAND_TIMEOUT_S,
        )
        seconds = time.perf_counter() - start
        print(f"[{seconds:6.1f}s] exit {proc.returncode}: {label}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        ran.append((label, seconds, proc.returncode))
    return ran


def recorded_calls(record_dir: str) -> Set[Tuple[str, int]]:
    calls = set()
    for name in os.listdir(record_dir):
        with open(os.path.join(record_dir, name)) as f:
            calls.update((path, line) for path, line in json.load(f))
    return calls


# -- the defs ------------------------------------------------------------------------


def collect_defs() -> List[dict]:
    """Every def under ``src/repro``: module, qualified name, first line
    (as a code object reports it) and line count, outermost first."""
    defs = []
    for dirpath, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            _walk(tree, module, os.path.realpath(path), (), None, defs)
    return defs


def _walk(node, module, path, scope, parent, out) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            entry = {
                "module": module,
                "path": path,
                "qualname": ".".join(scope + (child.name,)),
                "line": first,
                "lines": child.end_lineno - first + 1,
                "parent": parent,
                "stub": _is_stub(child),
            }
            out.append(entry)
            _walk(child, module, path, scope + (child.name,), entry, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, module, path, scope + (child.name,), parent, out)
        else:
            _walk(child, module, path, scope, parent, out)


def _is_stub(node) -> bool:
    """True for a def whose body (after its docstring) is empty, ``pass``
    or one ``raise``: an abstract hook or a guard, not meant to run."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return not body or (len(body) == 1 and isinstance(body[0], (ast.Pass, ast.Raise)))


def allowlist_key(entry: dict) -> str:
    """The most specific :data:`ALLOWLIST` key covering ``entry``, or ''."""
    parts = entry["qualname"].split(".")
    for i in range(len(parts), 0, -1):
        key = f"{entry['module']}::{'.'.join(parts[:i])}"
        if key in ALLOWLIST:
            return key
    return entry["module"] if entry["module"] in ALLOWLIST else ""


def report(defs: List[dict], calls: Set[Tuple[str, int]]) -> int:
    reached = [(d["path"], d["line"]) in calls for d in defs]
    for d, hit in zip(defs, reached):
        d["reached"] = hit
    # An unreached def inside an unreached def is that def's business, and
    # a stub (an abstract hook or a guard) is not meant to run.
    unreached = [
        d for d in defs
        if not d["reached"] and (d["parent"] is None or d["parent"]["reached"])
    ]
    stubs = [d for d in unreached if d["stub"]]
    unreached = [d for d in unreached if not d["stub"]]
    total_lines = sum(d["lines"] for d in defs if d["parent"] is None)
    print(f"\n{len(defs)} defs ({total_lines} top-level def-lines) in src/repro")
    print(f"{len(unreached)} unreached ({sum(d['lines'] for d in unreached)} def-lines), "
          f"plus {len(stubs)} unreached stubs (abstract hooks and guards)")
    failing = [d for d in unreached if not allowlist_key(d)]
    used_keys = {allowlist_key(d) for d in unreached} - {""}
    every_key = {allowlist_key(d) for d in defs} - {""}
    stale = sorted(set(ALLOWLIST) - every_key)
    reached_now = sorted(set(ALLOWLIST) - used_keys - set(stale))
    for key in reached_now:
        print(f"allowlisted but reached (drop the entry?): {key}")
    for key in stale:
        print(f"FAIL: allowlist key names no def: {key}")
    for d in failing:
        print(f"FAIL: unreached: {d['module']}::{d['qualname']} (line {d['line']}, {d['lines']} lines)")
    if failing or stale:
        print(f"\n{len(failing)} unreached defs outside the allowlist, {len(stale)} stale keys")
        return 1
    print("\nevery unreached def is allowlisted")
    return 0


def main() -> int:
    work = tempfile.mkdtemp(prefix="reach-")
    record_dir = os.path.join(work, "calls")
    os.makedirs(record_dir)
    try:
        ran = run_entry_points(record_dir, work)
        calls = recorded_calls(record_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [label for label, _, code in ran if code != 0]
    status = report(collect_defs(), calls)
    print(f"{len(ran)} entry points in {sum(s for _, s, _ in ran):.0f} s")
    for label in failed:
        print(f"FAIL: entry point exited non-zero: {label}")
    return 1 if failed else status


if __name__ == "__main__":
    sys.exit(main())
