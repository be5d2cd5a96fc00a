"""Backend/precision benchmark: float32 vs float64 slab rounds.

Times one fused rung advance (8 same-architecture MLP trials, the
``test_bench_trialfuse`` shape but with a wide d=64/hidden-128 model so
dgemm/sgemm dominates Python dispatch) under both slab compute dtypes,
and measures the slab working set — parameter slab + gradient slab +
momentum buffer, the buffers that scale with ``cohort_dtype``.

Acceptance criteria (asserted here, recorded in ``BENCH_backend.json``,
gated by ``compare_baselines.py``):

- float32 slab memory <= 0.55x float64 (deterministically 0.5x — the
  assert catches any scratch buffer that silently stays float64);
- float32 round throughput >= 1.2x float64 (sgemm moves half the bytes;
  on one CPU this lands well above 2x for wide models).

float32 numerics are covered in ``tests/fl/test_float32.py``; this file
only asserts cross-dtype closeness before trusting the timings.
"""

import json
import os
import time

import numpy as np

from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.core import FederatedTrialRunner
from repro.nn import make_mlp, softmax_cross_entropy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_backend.json")

RUNG = 8
COHORT = 10
ROUNDS = 12
REPEATS = 3
D, HIDDEN, CLASSES = 64, (256,), 10


def wide_mlp_dataset(n_train=40, n_eval=8, n=64, seed=0):
    """Wide synthetic MLP dataset: big enough matmuls that BLAS time (and
    hence dtype) dominates, at uniform client sizes (no ragged padding)."""
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(D, CLASSES, hidden=HIDDEN, rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        x = rng.normal(size=(n, D))
        w = rng.normal(size=(D, CLASSES))
        y = (x @ w + rng.normal(scale=0.5, size=(n, CLASSES))).argmax(axis=1)
        return ClientData(x, y)

    return FederatedDataset(
        "bench-wide-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
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
            "batch_size": 16,
            "epochs": 1,
        }
        for _ in range(n)
    ]


def make_runner(ds, dtype):
    return FederatedTrialRunner(
        ds, max_rounds=10_000, clients_per_round=COHORT, seed=3,
        cohort_mode="fused", cohort_dtype=dtype,
    )


def slab_bytes(runner):
    """The dtype-scaled slab working set of the runner's fused pool."""
    total = 0
    for slab in runner._fused_pool._slabs.values():
        stacked = slab._stacked
        total += stacked.slab.nbytes + stacked.grad_slab.nbytes
        if slab._mbuf is not None:
            total += slab._mbuf.nbytes
    return total


def run_rung(ds, cfgs, dtype, rounds):
    runner = make_runner(ds, dtype)
    trials = [runner.create(c) for c in cfgs]
    runner.advance_many([(t, rounds) for t in trials])
    return runner, trials


def time_dtype(ds, cfgs, dtype, rounds=ROUNDS, repeats=REPEATS):
    """Best-of-``repeats`` wall time for one fused rung advance, after a
    1-round warm-up batch (slab allocation, BLAS init)."""
    best, runner = float("inf"), None
    for _ in range(repeats):
        runner = make_runner(ds, dtype)
        trials = [runner.create(c) for c in cfgs]
        runner.advance_many([(t, 1) for t in trials])  # warm-up
        t0 = time.perf_counter()
        runner.advance_many([(t, rounds) for t in trials])
        best = min(best, time.perf_counter() - t0)
    return best, runner


def record_result(result):
    data = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data["wide_mlp_rung"] = result
    data["rung_size"] = RUNG
    data["cohort_size"] = COHORT
    data["rounds_timed"] = ROUNDS
    data["model"] = {"d": D, "hidden": list(HIDDEN), "classes": CLASSES}
    data["cpu_count"] = os.cpu_count()
    with open(BENCH_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestBackendPrecisionThroughput:
    def test_float32_rung_memory_and_throughput(self):
        ds = wide_mlp_dataset()
        cfgs = rung_configs()
        # Cross-dtype closeness before any timing is trusted (bitwise
        # float32 self-consistency lives in tests/fl/test_float32.py).
        _, t64 = run_rung(ds, cfgs, "float64", 3)
        _, t32 = run_rung(ds, cfgs, "float32", 3)
        for a, b in zip(t64, t32):
            np.testing.assert_allclose(b.state.params, a.state.params, rtol=1e-3, atol=1e-5)
            assert a.state._rng.bit_generator.state == b.state._rng.bit_generator.state

        time_f64, runner64 = time_dtype(ds, cfgs, "float64")
        time_f32, runner32 = time_dtype(ds, cfgs, "float32")
        bytes_f64 = slab_bytes(runner64)
        bytes_f32 = slab_bytes(runner32)
        ratio = bytes_f32 / bytes_f64
        speedup = time_f64 / time_f32
        result = {
            "float64_s": round(time_f64, 4),
            "float32_s": round(time_f32, 4),
            "speedup_f32_vs_f64": round(speedup, 3),
            "slab_bytes_f64": bytes_f64,
            "slab_bytes_f32": bytes_f32,
            "slab_bytes_ratio_f32_vs_f64": round(ratio, 4),
            "rung_rounds_per_s_f64": round(ROUNDS / time_f64, 2),
            "rung_rounds_per_s_f32": round(ROUNDS / time_f32, 2),
        }
        record_result(result)
        print(
            f"\nwide-MLP rung of {RUNG} x {ROUNDS} rounds: "
            f"f64 {time_f64:.3f}s / f32 {time_f32:.3f}s -> {speedup:.2f}x; "
            f"slab bytes {bytes_f64} -> {bytes_f32} ({ratio:.2f}x)"
        )
        assert ratio <= 0.55, (
            f"float32 slab working set is {ratio:.2f}x float64 (> 0.55x) — "
            "some slab buffer is silently staying float64"
        )
        assert speedup >= 1.2, (
            f"expected >=1.2x rung throughput float32 over float64, got {speedup:.2f}x"
        )
