"""Fused evaluation benchmark: whole rungs scored as one inference slab.

Times full-validation-pool evaluation of a rung of 8 same-architecture MLP
configurations (the shape of every Hyperband/SHA promotion decision, RS
batch scoring, and bank checkpoint snapshot) two ways:

- **serial** — the serial oracle's per-trial loop: one chunked
  ``client_error_rates`` sweep per trial;
- **stacked** — ``TrialRunner.error_rates_many``: the whole validation
  pool pushes through one ``StackedModel.forward_eval`` inference slab
  with vectorized per-copy per-client error counting. Runner reads are
  stateless, so every call scores the whole rung.

Bit-identity of the per-trial rate vectors is asserted before any timing
is trusted. Results append to ``BENCH_evalfuse.json`` at the repo root
(uploaded as a nightly CI artifact and guarded by the baseline regression
gate in ``benchmarks/compare_baselines.py``). The >=2x criterion degrades
to a skip on a single-CPU box where timing noise can swamp the
measurement, mirroring the cohort/trial-fuse benchmarks.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import FederatedTrialRunner
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.nn import make_mlp, softmax_cross_entropy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_evalfuse.json")

RUNG = 8  # trials per error_rates_many batch
N_EVAL = 200  # validation clients (many small clients: the paper's regime)
N_PER_CLIENT = 8
REPEATS = 5


def mlp_dataset(n_train=24, n_eval=N_EVAL, d=8, classes=4, n=N_PER_CLIENT, seed=0, hidden=(16,)):
    """Synthetic MLP task with a large pool of small validation clients —
    the shape where per-client evaluation overhead dominates."""
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
        "bench-eval-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
    )


def rung_configs(n=RUNG):
    rng = np.random.default_rng(42)
    return [
        {
            "server_lr": float(10 ** rng.uniform(-3, -1.5)),
            "server_beta1": float(rng.uniform(0.5, 0.9)),
            "server_beta2": float(rng.uniform(0.9, 0.999)),
            "server_lr_decay": 0.9999,
            "client_lr": float(10 ** rng.uniform(-2, -0.5)),
            "client_momentum": float(rng.uniform(0.1, 0.9)),
            "client_weight_decay": 5e-5,
            "batch_size": 8,
            "epochs": 1,
        }
        for _ in range(n)
    ]


def time_eval(fn, repeats=REPEATS):
    """Best-of-``repeats`` wall time, with one warm-up call excluded
    (chunk-plan build, slab allocation, BLAS init)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def record_result(result):
    data = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data["mlp_rung_eval"] = result
    data["rung_size"] = RUNG
    data["n_eval_clients"] = N_EVAL
    data["cpu_count"] = os.cpu_count()
    with open(BENCH_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestEvalFusedThroughput:
    def test_mlp_rung_eval_throughput(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=1000, clients_per_round=8, seed=3)
        trials = [runner.create(c) for c in rung_configs()]
        runner.advance_many([(t, 2) for t in trials])

        # Equivalence first: stacked rung rates must be bit-identical to
        # the serial per-trial loop on the unstacked models.
        serial_rates = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(serial_rates, runner.error_rates_many(trials)):
            np.testing.assert_array_equal(got, ref)

        def run_serial():
            return [t.state.eval_error_rates() for t in trials]

        def run_stacked():
            return runner.error_rates_many(trials)

        t_serial = time_eval(run_serial)
        t_stacked = time_eval(run_stacked)
        speedup = t_serial / t_stacked
        result = {
            "serial_s": round(t_serial, 5),
            "stacked_s": round(t_stacked, 5),
            "speedup_stacked_vs_serial": round(speedup, 3),
            "rung_evals_per_s_stacked": round(1.0 / t_stacked, 2),
            "rung_evals_per_s_serial": round(1.0 / t_serial, 2),
        }
        record_result(result)
        print(
            f"\nrung of {RUNG} MLP configs on {N_EVAL} validation clients: "
            f"serial {t_serial * 1e3:.2f}ms, stacked {t_stacked * 1e3:.2f}ms "
            f"-> {speedup:.2f}x ({os.cpu_count()} CPUs)"
        )
        if speedup < 2.0 and (os.cpu_count() or 1) < 2:
            pytest.skip(
                f"stacked eval speedup {speedup:.2f}x < 2x on a single-CPU box "
                "(timing noise); equivalence verified"
            )
        assert speedup >= 2.0, (
            f"expected >=2x rung evaluation throughput stacked over the "
            f"serial per-trial loop, got {speedup:.2f}x"
        )
