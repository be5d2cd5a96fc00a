"""Engine benchmarks: parallel bank-build speedup and bank-store hits.

The speedup assertion needs real cores: process parallelism cannot beat
serial on a single-CPU machine, so the ≥2x criterion is asserted only
when ≥4 CPUs are available (the equivalence assertions always run).
"""

import os
import time

import numpy as np
import pytest

from repro.core.search_space import paper_space
from repro.datasets.registry import load_dataset
from repro.engine.executor import ProcessExecutor, SerialExecutor, fork_available
from repro.experiments import ExperimentContext
from repro.experiments.bank import ConfigBank

SPACE = paper_space(batch_sizes=(4, 8, 16))
N_CONFIGS = 16
N_WORKERS = 4


def build_bank(executor):
    # Workers map the configs of a serial build; the default (fused) build
    # runs in-process whatever the executor.
    ds = load_dataset("cifar10", "test", seed=0)
    return ConfigBank.build(
        ds, SPACE, n_configs=N_CONFIGS, max_rounds=9, seed=0, executor=executor,
        cohort_mode="serial",
    )


class TestParallelBankBuild:
    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_16_config_build_speedup_on_4_workers(self):
        t0 = time.perf_counter()
        serial = build_bank(SerialExecutor())
        t_serial = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = build_bank(ProcessExecutor(N_WORKERS))
        t_parallel = time.perf_counter() - t0

        # Parallelism must never change results.
        assert np.array_equal(serial.errors, parallel.errors)
        assert serial.configs == parallel.configs

        speedup = t_serial / t_parallel
        print(
            f"\n16-config bank build: serial {t_serial:.2f}s, "
            f"{N_WORKERS} workers {t_parallel:.2f}s -> {speedup:.2f}x "
            f"({os.cpu_count()} CPUs)"
        )
        if (os.cpu_count() or 1) >= N_WORKERS:
            assert speedup >= 2.0, (
                f"expected >=2x speedup on {N_WORKERS} workers, got {speedup:.2f}x"
            )
        else:
            pytest.skip(
                f"speedup assertion needs >={N_WORKERS} CPUs "
                f"(got {os.cpu_count()}); equivalence verified"
            )


class TestBankStoreHit:
    def test_second_context_bank_call_hits_cache(self, tmp_path, monkeypatch):
        from repro.experiments import bank as bank_mod

        builds = []
        original = bank_mod.ConfigBank.build.__func__

        def counting_build(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(bank_mod.ConfigBank, "build", classmethod(counting_build))

        def make_ctx():
            return ExperimentContext(
                preset="test", seed=0, n_bank_configs=N_CONFIGS, cache_dir=str(tmp_path)
            )

        t0 = time.perf_counter()
        first = make_ctx().bank("cifar10")
        t_build = time.perf_counter() - t0
        assert builds == [1]

        t0 = time.perf_counter()
        second = make_ctx().bank("cifar10")
        t_hit = time.perf_counter() - t0
        assert builds == [1], "identical keys must hit the BankStore, not rebuild"
        assert np.array_equal(first.errors, second.errors)
        print(f"\nbank build {t_build:.2f}s, store hit {t_hit*1000:.0f}ms")
        assert t_hit < t_build
