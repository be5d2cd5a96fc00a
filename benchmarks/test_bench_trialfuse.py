"""Trial-fused execution benchmark: whole rungs as cross-trial slabs.

Times ``advance_many`` over rungs of 8 same-architecture MLP
configurations (the shape of a Hyperband/SHA rung or an RS batch) in the
engine's two in-process cohort modes:

- **serial** — per-client loops, one trial at a time (the reference);
- **fused** — ``(T*C, P)`` cross-trial slabs
  (``FederatedTrialRunner(cohort_mode="fused")``).

Two rungs are timed: ``mlp_rung`` pins one batch size, so all eight
trials share one slab pass per round; ``mlp_mixed_rung`` draws
``batch_size`` from three choices like the paper's search space
(``paper_space``), so the pool trains one pass per batch-size bucket —
the traffic every Hyperband rung of a paper artifact actually produces.

Equivalence of the resulting trial parameters is asserted before any
timing is trusted. Results append to ``BENCH_trialfuse.json`` at the repo
root (uploaded as a nightly CI artifact and guarded by the baseline
regression gate). As with the engine/cohort benchmarks, the >=2x
fused-over-serial criterion degrades to a skip on a single-CPU box where
timing noise can swamp the measurement.
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
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_trialfuse.json")

RUNG = 8  # trials per advance_many batch
COHORT = 10
ROUNDS = 20
REPEATS = 3


def mlp_dataset(n_train=40, n_eval=8, d=8, classes=4, n=32, seed=0, hidden=(16,)):
    """Synthetic MLP classification dataset at the test/small-preset model
    scale, where Python dispatch dominates — the regime the paper's
    replayed experiments live in."""
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


BATCH_CHOICES = (4, 8, 16)  # the mixed rung's batch_size axis


def rung_configs(n=RUNG, batch_sizes=(4,)):
    """A rung of stable same-architecture configs differing in HPs only;
    ``batch_size`` cycles through ``batch_sizes`` (every choice present)."""
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
            "batch_size": batch_sizes[i % len(batch_sizes)],
            "epochs": 1,
        }
        for i in range(n)
    ]


def make_runner(ds, mode):
    return FederatedTrialRunner(
        ds, max_rounds=10_000, clients_per_round=COHORT, seed=3, cohort_mode=mode
    )


def advance_rung(runner, cfgs, rounds):
    trials = [runner.create(c) for c in cfgs]
    runner.advance_many([(t, rounds) for t in trials])
    return trials


def time_mode(ds, cfgs, mode, rounds=ROUNDS, repeats=REPEATS):
    """Best-of-``repeats`` wall time for one rung advance, with a 1-round
    warm-up batch excluded (buffer allocation, BLAS init)."""
    best = float("inf")
    for _ in range(repeats):
        runner = make_runner(ds, mode)
        trials = [runner.create(c) for c in cfgs]
        runner.advance_many([(t, 1) for t in trials])  # warm-up
        t0 = time.perf_counter()
        runner.advance_many([(t, rounds) for t in trials])
        best = min(best, time.perf_counter() - t0)
    return best


def record_result(name, result):
    data = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[name] = result
    data["rung_size"] = RUNG
    data["cohort_size"] = COHORT
    data["rounds_timed"] = ROUNDS
    data["cpu_count"] = os.cpu_count()
    with open(BENCH_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestTrialFusedThroughput:
    def run_rung(self, name, cfgs):
        ds = mlp_dataset()
        # Equivalence first, short horizon (documented tolerance; drift
        # amplifies chaotically over long horizons, see README).
        serial_trials = advance_rung(make_runner(ds, "serial"), cfgs, 5)
        fused_trials = advance_rung(make_runner(ds, "fused"), cfgs, 5)
        for a, b in zip(serial_trials, fused_trials):
            np.testing.assert_allclose(
                b.state.params, a.state.params, rtol=1e-8, atol=1e-11
            )
            assert a.state._rng.bit_generator.state == b.state._rng.bit_generator.state

        t_serial = time_mode(ds, cfgs, "serial")
        t_fused = time_mode(ds, cfgs, "fused")
        speedup = t_serial / t_fused
        record_result(name, {
            "serial_s": round(t_serial, 4),
            "fused_s": round(t_fused, 4),
            "speedup_fused_vs_serial": round(speedup, 3),
            "rung_rounds_per_s_fused": round(ROUNDS / t_fused, 2),
            "rung_rounds_per_s_serial": round(ROUNDS / t_serial, 2),
            "batch_sizes": sorted({c["batch_size"] for c in cfgs}),
        })
        print(
            f"\n{name}: {RUNG} MLP configs x {ROUNDS} rounds: serial {t_serial:.3f}s, "
            f"fused {t_fused:.3f}s -> {speedup:.2f}x ({os.cpu_count()} CPUs)"
        )
        if speedup < 2.0 and (os.cpu_count() or 1) < 2:
            pytest.skip(
                f"fused speedup {speedup:.2f}x < 2x over serial on a "
                "single-CPU box (timing noise); equivalence verified"
            )
        assert speedup >= 2.0, (
            f"expected >=2x rung throughput fused over serial, got {speedup:.2f}x"
        )

    def test_mlp_rung_throughput(self):
        self.run_rung("mlp_rung", rung_configs())

    def test_mlp_mixed_batch_rung_throughput(self):
        """Three batch sizes in one rung: three slab passes per round."""
        self.run_rung("mlp_mixed_rung", rung_configs(batch_sizes=BATCH_CHOICES))
