"""Cohort-training benchmarks: serial vs standalone-slab round throughput.

Measures :class:`repro.fl.trainer.FederatedTrainer` round throughput at
the paper's cohort size (10) on an MLP and a CNN task, in both cohort
modes (a standalone ``cohort_mode="fused"`` trainer runs its own T=1
slab), asserting equivalence of the resulting parameters before timing is
trusted. Results are appended to ``BENCH_cohort.json`` at the repo root so
future PRs can track the perf trajectory.

Like PR 1's engine benchmark, the >=2x speedup criterion is asserted only
where it is meaningful (the equivalence assertions always run): on a
heavily constrained box (single shared CPU) timing noise can swamp the
measurement, so the assertion degrades to a skip there.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.fl import FedAdam, FederatedTrainer, LocalTrainingConfig
from repro.nn import make_mlp, softmax_cross_entropy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_cohort.json")

COHORT = 10
ROUNDS = 30
REPEATS = 3


def mlp_dataset(n_train=40, n_eval=8, d=16, classes=5, n=32, seed=0, hidden=(32,)):
    """Synthetic MLP classification dataset at the test/small-preset model
    scale, where per-client Python dispatch dominates the serial loop —
    the regime the paper's replayed experiments live in."""
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=hidden, rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, classes))
        y = (x @ w + rng.normal(scale=0.5, size=(n, classes))).argmax(axis=1)
        return ClientData(x, y)

    return FederatedDataset(
        "bench-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
    )


def make_trainer(ds, mode, batch_size):
    return FederatedTrainer(
        ds,
        FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
        LocalTrainingConfig(lr=0.1, momentum=0.9, batch_size=batch_size),
        clients_per_round=COHORT,
        seed=3,
        cohort_mode=mode,
    )


def time_rounds(ds, mode, batch_size, rounds=ROUNDS, repeats=REPEATS):
    """Best-of-``repeats`` wall time for ``rounds`` rounds, with a warm-up
    round excluded."""
    best = float("inf")
    for _ in range(repeats):
        trainer = make_trainer(ds, mode, batch_size)
        trainer.run(1)  # warm-up: buffer allocation, BLAS init
        t0 = time.perf_counter()
        trainer.run(rounds)
        best = min(best, time.perf_counter() - t0)
    return best


def record_result(task_name, result):
    """Merge one task's numbers into BENCH_cohort.json (trajectory file)."""
    data = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[task_name] = result
    data["cohort_size"] = COHORT
    data["rounds_timed"] = ROUNDS
    data["cpu_count"] = os.cpu_count()
    with open(BENCH_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestCohortThroughput:
    def run_task(self, name, ds, batch_size):
        # Equivalence first, over a short horizon: per-round differences
        # are at padding reduction-order level (~1e-15) but amplify
        # chaotically with horizon (ReLU/argmax boundaries), so the
        # documented tolerance applies to few-round windows (see README).
        a = make_trainer(ds, "serial", batch_size)
        b = make_trainer(ds, "fused", batch_size)
        a.run(5)
        b.run(5)
        np.testing.assert_allclose(b.params, a.params, rtol=1e-8, atol=1e-11)
        t_serial = time_rounds(ds, "serial", batch_size)
        t_fused = time_rounds(ds, "fused", batch_size)
        speedup = t_serial / t_fused
        result = {
            "serial_s": round(t_serial, 4),
            "fused_s": round(t_fused, 4),
            "speedup": round(speedup, 3),
            "rounds_per_s_serial": round(ROUNDS / t_serial, 2),
            "rounds_per_s_fused": round(ROUNDS / t_fused, 2),
            "batch_size": batch_size,
        }
        record_result(name, result)
        print(
            f"\n{name}: serial {t_serial:.3f}s, fused {t_fused:.3f}s "
            f"-> {speedup:.2f}x at cohort {COHORT} ({os.cpu_count()} CPUs)"
        )
        return speedup

    def test_mlp_round_throughput(self):
        speedup = self.run_task("mlp", mlp_dataset(), batch_size=8)
        if speedup < 2.0 and (os.cpu_count() or 1) < 2:
            pytest.skip(
                f"speedup {speedup:.2f}x < 2x on a single-CPU box "
                "(timing noise); equivalence verified"
            )
        assert speedup >= 2.0, f"expected >=2x MLP round throughput, got {speedup:.2f}x"

    def test_cnn_round_throughput(self):
        # The CNN path is conv-dominated, so the lockstep win is smaller;
        # recorded for the trajectory, asserted only to not regress below
        # serial parity by more than measurement noise.
        ds = load_dataset("cifar10", "small", seed=0)
        speedup = self.run_task("cnn", ds, batch_size=8)
        assert speedup >= 0.8, f"slab CNN rounds slower than serial: {speedup:.2f}x"
