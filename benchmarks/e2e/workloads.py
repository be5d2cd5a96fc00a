"""The four workloads of the end-to-end benchmark.

A workload's ``unit()`` is a fixed amount of seed-determined work driven
through ``repro``'s public API; every unit of a run repeats the identical
work, so the harness can take a median over units and compare each unit's
result digest with the warm-up's. ``unit()`` returns plain facts;
``check.py`` judges them.

What ``--seed`` feeds. The federated dataset and the shared config pool
are the benchmark's fixed substrate (``DATA_SEED``), as CIFAR10 and
StackOverflow are in the paper; ``--seed`` picks the *trial*: the tuner
run seed (config proposals, trial initialisation, cohort sampling,
evaluation noise) on ``tune_*``, the bootstrap streams of the replayed
figures on ``bank_replay``, and the trial index of every real job on
``service_churn``. Regenerating the dataset per seed moves the largest
client between 87 and 171 examples, and lockstep slabs run as long as
their largest client: measured, that alone spread ``unit_s`` by 15 %
across seeds on ``tune_lstm``, above any bound this benchmark could gate.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import tempfile
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments import (
    PAPER_EPSILONS,
    PAPER_NOISY,
    ExperimentContext,
    make_tuner,
    run_figure3,
    run_figure5,
    run_figure6,
    run_figure9,
    subsample_grid,
)
from repro.experiments.fig_methods import run_seed
from repro.service import ExperimentStore, JobQueue, TuningService
from repro.service.http import ServiceAPI, make_server

#: Seed of the fixed substrate (datasets, shared config pool, banks).
DATA_SEED = 0


@dataclass
class Outcome:
    """What one unit did: ``ops`` operations attempted, a ``digest`` of
    its results (equal across the units of a run), ``facts`` for
    ``check.py`` and ``given`` per-layer values only the workload knows."""

    ops: int
    digest: str
    facts: Dict = field(default_factory=dict)
    given: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class TargetClock:
    """A no-write stand-in for a run checkpointer: ``BaseTuner.run`` calls
    ``save`` at every safe batch boundary, which timestamps how far the
    incumbent curve had come — the time-to-target probe of the traced
    unit. It never serialises anything."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.marks: List[tuple] = []  # (seconds since start, curve length)

    def save(self, tuner, force: bool = False) -> bool:
        self.marks.append((time.perf_counter() - self.start, len(tuner.curve)))
        return False

    def seconds_to_target(self, curve) -> float:
        """Wall seconds to the first boundary at which the incumbent's
        full error had reached its final best value."""
        errors = [point.full_error for point in curve]
        if not errors:
            return 0.0
        reached = errors.index(min(errors)) + 1  # curve length at the target
        for seconds, length in self.marks:
            if length >= reached:
                return seconds
        return self.marks[-1][0] if self.marks else 0.0


class Workload:
    """Base class: ``setup`` once, then ``unit`` repeatedly."""

    name = ""
    why = ""

    def __init__(self, seed: int, scratch: str, smoke: bool = False):
        self.seed = int(seed)
        self.scratch = scratch
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, tracer=None) -> Outcome:
        """One unit of work. ``tracer`` is passed for the traced unit only
        and must not change the work done."""
        raise NotImplementedError

    #: Per-layer metric that receives oracle seconds ÷ reference unit seconds.
    oracle_metric = ""

    def oracle(self) -> Optional[Outcome]:
        """An extra unit the traced run compares against (``None``: none)."""
        return None

    def close(self) -> None:
        pass


class TuneWorkload(Workload):
    """One live Hyperband run in the paper's noisy setting on the fused
    slab path."""

    dataset = ""
    budget_divisor = 3
    oracle_metric = "fl.serial_over_fused"

    def setup(self) -> None:
        preset = "test" if self.smoke else "small"
        self.ctx = ExperimentContext(preset=preset, seed=DATA_SEED, cohort_mode="fused")
        self.ctx.dataset(self.dataset)
        self.budget = self.ctx.total_budget // self.budget_divisor
        self.run_seed = run_seed(self.seed, self.dataset, "noisy", "hb", 0)
        self._serial_ctx: Optional[ExperimentContext] = None

    def _run(self, ctx: ExperimentContext, clock: Optional[TargetClock]) -> Outcome:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tuner = make_tuner(
                "hb", ctx, self.dataset, PAPER_NOISY, seed=self.run_seed,
                total_budget=self.budget,
            )
            result = tuner.run(checkpoint=clock)
        observations = [
            (o.trial_id, o.rounds, o.budget_used, o.noisy_error, o.exact_error)
            for o in result.observations
        ]
        degraded = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        given = {"fl.degraded_warnings": float(len(degraded))}
        if clock is not None:
            given["core.tuner.target_s"] = clock.seconds_to_target(result.curve)
        return Outcome(
            ops=1,
            digest=_digest((observations, result.best_trial_id, result.final_full_error)),
            facts={
                "budget": self.budget,
                "rounds_used": result.rounds_used,
                "observations": observations,
                "full_errors": [p.full_error for p in result.curve] + [result.final_full_error],
                "degraded": degraded,
            },
            given=given,
        )

    def unit(self, tracer=None) -> Outcome:
        return self._run(self.ctx, TargetClock() if tracer is not None else None)

    def oracle(self) -> Outcome:
        """The same run under ``cohort_mode="serial"``: the reference the
        fused observation sequence must reproduce."""
        if self._serial_ctx is None:
            self._serial_ctx = ExperimentContext(
                preset=self.ctx.preset, seed=DATA_SEED, cohort_mode="serial"
            )
        return self._run(self._serial_ctx, None)


class TuneCNN(TuneWorkload):
    name = "tune_cnn"
    why = ("Hyperband on the CIFAR10 CNN over fused slabs: stacked conv forward/backward "
           "dominates, no LSTM code runs")
    dataset = "cifar10"
    budget_divisor = 5


class TuneLSTM(TuneWorkload):
    name = "tune_lstm"
    why = ("Same tuner, runner and slab trainer on the StackOverflow LSTM: stacked LSTM "
           "kernels and eval dominate, no conv code runs")
    dataset = "stackoverflow"
    budget_divisor = 3


class BankReplay(Workload):
    """Train a config bank in the default cohort mode, store it, then load
    it through a second context and replay four of the paper's bootstrap
    analyses on it."""

    name = "bank_replay"
    why = ("Train-once/bootstrap-many: default-mode bank build (serial trainer, per-layer "
           "kernels) plus tuner, noise and bank-runner code as the hot loop")
    dataset = "cifar10"

    def setup(self) -> None:
        self.preset = "test" if self.smoke else "small"
        self.n_configs = 3
        self.n_trials = 4 if self.smoke else 75

    @staticmethod
    def _expected_counts(n_eval: int) -> Dict[str, int]:
        """Records per figure for one dataset at the drivers' default grids."""
        grid = len(subsample_grid(n_eval))
        return {
            "fig3": grid,
            "fig5": 3 * 16,  # three subsampling rates x K = 16 budget points
            "fig6": 4 * grid,  # four bias levels
            "fig9": len(PAPER_EPSILONS) * grid,
        }

    def _context(self, cache_dir: str) -> ExperimentContext:
        # No cohort mode passed: whatever the library's default is.
        return ExperimentContext(
            preset=self.preset, seed=DATA_SEED, n_bank_configs=self.n_configs,
            cache_dir=cache_dir,
        )

    def unit(self, tracer=None) -> Outcome:
        cache_dir = tempfile.mkdtemp(prefix="banks-", dir=self.scratch)
        try:
            build_ctx = self._context(cache_dir)
            built = build_ctx.bank(self.dataset)
            stored = build_ctx.bank_store.paths()
            stamp = [os.stat(path).st_mtime_ns for path in stored]

            replay_ctx = self._context(cache_dir)
            loaded = replay_ctx.bank(self.dataset)
            # The figure drivers read ctx.seed for their bootstrap streams
            # only; the bank above was already fetched under DATA_SEED.
            replay_ctx.seed = self.seed
            # Named at call time so the traced unit's wrappers are the ones called.
            sweep = dict(dataset_names=(self.dataset,), n_trials=self.n_trials)
            records = {
                "fig3": run_figure3(replay_ctx, **sweep),
                "fig5": run_figure5(replay_ctx, **sweep),
                "fig6": run_figure6(replay_ctx, **sweep),
                "fig9": run_figure9(replay_ctx, **sweep),
            }
            restamp = [os.stat(path).st_mtime_ns for path in replay_ctx.bank_store.paths()]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        values = {
            figure: [round(float(r.median), 12) for r in recs] for figure, recs in records.items()
        }
        return Outcome(
            ops=1 + len(records),
            digest=_digest((built.errors.tobytes(), values)),
            facts={
                "errors_shape": built.errors.shape,
                "expected_shape": (
                    self.n_configs, len(built.checkpoints),
                    build_ctx.dataset(self.dataset).num_eval_clients,
                ),
                "errors_finite_unit": bool(
                    np.isfinite(built.errors).all()
                    and (built.errors >= 0).all() and (built.errors <= 1).all()
                ),
                "store_files": len(stored),
                "store_untouched_by_replay": stamp == restamp,
                "loaded_is_copy": loaded is not built,
                "loaded_equals_built": bool(
                    np.array_equal(loaded.errors, built.errors)
                    and loaded.checkpoints == built.checkpoints
                    and loaded.configs == built.configs
                ),
                "record_counts": {figure: len(recs) for figure, recs in records.items()},
                "expected_record_counts": self._expected_counts(built.errors.shape[2]),
                "medians_finite": all(
                    np.isfinite(v) for vals in values.values() for v in vals
                ),
            },
        )


class ServiceChurn(Workload):
    """Closed loop, one client, one daemon slot: submit over HTTP (a
    connection per request), churn a job history through the queue as an
    external worker, run real jobs through the daemon, read everything
    back over one keep-alive connection. The next request is sent only
    when the previous reply has arrived."""

    name = "service_churn"
    why = ("Control plane as the work: journal replay on every queue op over a job history, "
           "per-job context, checkpoints and store writes, HTTP round trips")
    tenants = ("ada", "bo", "cy")
    datasets = ("cifar10", "stackoverflow")

    def setup(self) -> None:
        self.n_noop = 6 if self.smoke else 100
        self.n_real = 2 if self.smoke else 8
        # One server for the run; each unit points it at a fresh root.
        self.server = make_server(os.path.join(self.scratch, "idle-root"), port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=10)
        self.server.server_close()

    def _request(self, method: str, path: str, body=None, conn=None):
        """One request on its own connection, as ``urllib`` (the client the
        repo's tests and README use) makes them; ``conn`` reuses one."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        own = conn is None
        if own:
            conn = http.client.HTTPConnection(*self.server.server_address, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            if own:
                conn.close()

    def _spec(self, index: int) -> Dict:
        return {
            "dataset": self.datasets[index % len(self.datasets)],
            "method": "rs", "setting": "noisy", "preset": "test",
            "seed": DATA_SEED, "trial": self.seed * 1000 + index,
            "k": 4, "n_bank_configs": 4, "total_budget": 12,
        }

    def unit(self, tracer=None) -> Outcome:
        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        root = tempfile.mkdtemp(prefix="service-", dir=self.scratch)
        try:
            self.server.api = ServiceAPI(root)
            statuses: List[int] = []
            # A history of finished jobs: submitted over HTTP, then leased
            # and completed by this process acting as an external worker.
            for i in range(self.n_noop):
                with span("service.http.submit"):
                    status, _ = self._request("POST", "/jobs", {
                        "spec": {"dataset": "noop", "note": i},
                        "tenant": self.tenants[i % len(self.tenants)],
                    })
                statuses.append(status)
            queue = JobQueue(os.path.join(root, "queue"))
            churned = 0
            while True:
                job = queue.lease("bench-worker")
                if job is None:
                    break
                queue.mark_running(job["job_id"], "bench-worker")
                queue.heartbeat(job["job_id"], "bench-worker")
                queue.complete(job["job_id"], "bench-worker")
                churned += 1
            real_ids = []
            for i in range(self.n_real):
                with span("service.http.submit"):
                    status, reply = self._request("POST", "/jobs", {
                        "spec": self._spec(i), "tenant": self.tenants[i % len(self.tenants)],
                    })
                statuses.append(status)
                real_ids.append(reply.get("job_id"))
            TuningService(root, n_slots=1).run(once=True)
            # Results are polled the way a dashboard would: one keep-alive
            # connection for all reads.
            reads = []
            session = http.client.HTTPConnection(*self.server.server_address, timeout=60)
            try:
                for job_id in real_ids:
                    for suffix in ("", "/curve", "/result"):
                        with span("service.http.get"):
                            reads.append(
                                self._request("GET", f"/jobs/{job_id}{suffix}", conn=session)
                            )
            finally:
                session.close()
            states = [job["state"] for job in queue.jobs()]
            results = []
            for job_id in real_ids:
                with open(os.path.join(root, "results", f"{job_id}.json"), "rb") as fh:
                    results.append(fh.read())
            store = ExperimentStore(os.path.join(root, "store"))
            validations = [store.get("validation", job_id) or {} for job_id in real_ids]
            journal_bytes = sum(
                os.path.getsize(os.path.join(folder, name))
                for folder, _, names in os.walk(root) for name in names
                if name.endswith(".jsonl")
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        curves = [reply for _, reply in reads[1::3]]
        return Outcome(
            ops=len(statuses) + len(reads) + self.n_noop + self.n_real,
            digest=_digest(results),
            facts={
                "submit_statuses": statuses,
                "read_statuses": [status for status, _ in reads],
                "churned": churned,
                "n_noop": self.n_noop,
                "n_real": self.n_real,
                "states": states,
                "curve_lengths": [len(reply.get("points", ())) for reply in curves],
                "curve_points_expected": [v.get("n_curve_points") for v in validations],
                "result_bytes": [len(blob) for blob in results],
            },
            given={"service.journal.bytes": float(journal_bytes)},
        )


REGISTRY = {cls.name: cls for cls in (TuneCNN, TuneLSTM, BankReplay, ServiceChurn)}
