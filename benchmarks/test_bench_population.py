"""Population-tuner benchmark: a whole population as one fused slab.

Times a :class:`repro.core.PopulationTuner` run — a population of 8
same-architecture MLP configurations, trained in lockstep with periodic
evaluate → exploit → explore — in the serial reference mode vs the fused
cross-trial slab mode (``FederatedTrialRunner(cohort_mode="fused")``). This is
the steady-state shape the fused engine was built for: unlike a
Hyperband rung, a population never shrinks, so *every* step is a
full-width ``(N*C, P)`` slab pass plus one stacked evaluation sweep.

Bit-equivalence of the two runs (observations and final member
parameters; the bench dataset has uniform client sizes, so no padding
occurs) is asserted before any timing is trusted. Results are written to
``BENCH_population.json`` at the repo root — uploaded as a nightly CI
artifact and guarded by the baseline regression gate
(``benchmarks/compare_baselines.py``). The >=2x fused-over-serial
criterion degrades to a skip on a single-CPU box where timing noise can
swamp the measurement, matching the engine/cohort/trial-fuse benchmark
convention.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig, PopulationTuner
from repro.core.search_space import paper_space
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.nn import make_mlp, softmax_cross_entropy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_population.json")

POPULATION = 8
COHORT = 10
MAX_ROUNDS = 40
ROUNDS_PER_STEP = 4
REPEATS = 3


def mlp_dataset(n_train=40, n_eval=8, d=8, classes=4, n=32, seed=0, hidden=(16,)):
    """Uniform client sizes (no ragged padding => bit-identical slab runs)
    at the small-model scale where Python dispatch dominates."""
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


def run_tuner(ds, mode, seed=5):
    runner = FederatedTrialRunner(
        ds, max_rounds=MAX_ROUNDS, clients_per_round=COHORT, seed=3, cohort_mode=mode
    )
    tuner = PopulationTuner(
        paper_space(batch_sizes=(4,)),
        runner,
        NoiseConfig(subsample=0.5),
        population_size=POPULATION,
        rounds_per_step=ROUNDS_PER_STEP,
        total_budget=POPULATION * MAX_ROUNDS,
        seed=seed,
    )
    return tuner, tuner.run()


def time_mode(ds, mode, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_tuner(ds, mode)
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
    data["fedpop_mlp"] = result
    data["population"] = POPULATION
    data["cohort_size"] = COHORT
    data["max_rounds"] = MAX_ROUNDS
    data["rounds_per_step"] = ROUNDS_PER_STEP
    data["cpu_count"] = os.cpu_count()
    with open(BENCH_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestPopulationThroughput:
    def test_fedpop_population_throughput(self):
        ds = mlp_dataset()
        # Equivalence before timing: the fused population run must be
        # bit-identical to the serial reference (uniform sizes, no padding).
        tuner_s, result_s = run_tuner(ds, "serial")
        tuner_f, result_f = run_tuner(ds, "fused")
        assert [o.noisy_error for o in result_s.observations] == [
            o.noisy_error for o in result_f.observations
        ]
        for a, b in zip(tuner_s.population, tuner_f.population):
            assert np.array_equal(a.state.params, b.state.params)
            assert a.state._rng.bit_generator.state == b.state._rng.bit_generator.state

        t_serial = time_mode(ds, "serial")
        t_fused = time_mode(ds, "fused")
        fused_vs_serial = t_serial / t_fused
        result = {
            "serial_s": round(t_serial, 4),
            "fused_s": round(t_fused, 4),
            "speedup_fused_vs_serial": round(fused_vs_serial, 3),
        }
        record_result(result)
        print(
            f"\nfedpop population of {POPULATION} MLP configs x {MAX_ROUNDS} rounds: "
            f"serial {t_serial:.3f}s, fused {t_fused:.3f}s "
            f"-> fused {fused_vs_serial:.2f}x over serial ({os.cpu_count()} CPUs)"
        )
        if fused_vs_serial < 2.0 and (os.cpu_count() or 1) < 2:
            pytest.skip(
                f"fused speedup {fused_vs_serial:.2f}x < 2x over serial on a "
                "single-CPU box (timing noise); equivalence verified"
            )
        assert fused_vs_serial >= 2.0, (
            f"expected >=2x population throughput fused over serial, "
            f"got {fused_vs_serial:.2f}x"
        )

    def test_committed_baseline_shape(self, committed_baseline):
        """The committed baseline (when present) must carry the speedup
        keys the nightly regression gate compares; skips on fresh clones."""
        base = committed_baseline("BENCH_population.json")
        assert "fedpop_mlp" in base
        assert "speedup_fused_vs_serial" in base["fedpop_mlp"]
