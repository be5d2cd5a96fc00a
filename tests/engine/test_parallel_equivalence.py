"""Serial/parallel bit-equivalence: the engine's core guarantee.

Parallelism must change wall-clock time and nothing else. These tests run
the same seeded work through the serial and the process-pool paths and
require identical results — observations, curves, bank tensors, trainer
states.
"""

import numpy as np
import pytest

from repro.core import (
    FederatedTrialRunner,
    Hyperband,
    NoiseConfig,
    RandomSearch,
    paper_space,
)
from repro.datasets import load_dataset
from repro.engine import make_executor
from repro.engine.executor import ProcessExecutor, SerialExecutor, fork_available
from repro.experiments.bank import ConfigBank

SPACE = paper_space(batch_sizes=(4, 8, 16))

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


@pytest.fixture(scope="module")
def cifar():
    return load_dataset("cifar10", "test", seed=0)


def assert_identical_results(a, b):
    """Full bit-equality of two TuningResults."""
    assert len(a.observations) == len(b.observations)
    for oa, ob in zip(a.observations, b.observations):
        assert oa.trial_id == ob.trial_id
        assert oa.config == ob.config
        assert oa.rounds == ob.rounds
        assert oa.noisy_error == ob.noisy_error
        assert oa.exact_error == ob.exact_error
        assert oa.budget_used == ob.budget_used
    assert len(a.curve) == len(b.curve)
    for ca, cb in zip(a.curve, b.curve):
        assert ca.budget_used == cb.budget_used
        assert ca.incumbent_trial_id == cb.incumbent_trial_id
        assert ca.noisy_error == cb.noisy_error
        assert ca.full_error == cb.full_error
    assert a.best_config == b.best_config
    assert a.best_trial_id == b.best_trial_id
    assert a.best_noisy_error == b.best_noisy_error
    assert a.final_full_error == b.final_full_error
    assert a.rounds_used == b.rounds_used


@needs_fork
class TestTunerEquivalence:
    def run_pair(self, cifar, tuner_cls, **kwargs):
        noise = NoiseConfig(subsample=4)
        serial = tuner_cls(
            SPACE,
            FederatedTrialRunner(cifar, max_rounds=9, seed=11),
            noise,
            seed=3,
            **kwargs,
        ).run()
        parallel = tuner_cls(
            SPACE,
            FederatedTrialRunner(cifar, max_rounds=9, seed=11, executor=make_executor(2)),
            noise,
            seed=3,
            **kwargs,
        ).run()
        return serial, parallel

    def test_random_search_identical(self, cifar):
        serial, parallel = self.run_pair(cifar, RandomSearch, n_configs=4, total_budget=24)
        assert_identical_results(serial, parallel)

    @pytest.mark.slow
    def test_hyperband_identical(self, cifar):
        serial, parallel = self.run_pair(cifar, Hyperband, total_budget=60)
        assert_identical_results(serial, parallel)
        # HB must actually have exercised multi-trial rungs.
        assert len(serial.observations) > 4


@needs_fork
class TestBankBuildEquivalence:
    def test_bank_build_identical(self, cifar):
        kwargs = dict(n_configs=4, max_rounds=9, seed=7, store_params=True)
        serial = ConfigBank.build(cifar, SPACE, executor=SerialExecutor(), **kwargs)
        parallel = ConfigBank.build(cifar, SPACE, executor=ProcessExecutor(2), **kwargs)
        assert np.array_equal(serial.errors, parallel.errors)
        assert np.array_equal(serial.params, parallel.params)
        assert serial.configs == parallel.configs
        assert serial.checkpoints == parallel.checkpoints


@needs_fork
class TestAdvanceManyEquivalence:
    def test_consumed_rounds_match_serial(self, cifar):
        def build_trials(runner):
            rng = np.random.default_rng(5)
            return [runner.create(SPACE.sample(rng)) for _ in range(3)]

        serial_runner = FederatedTrialRunner(cifar, max_rounds=6, seed=2)
        parallel_runner = FederatedTrialRunner(
            cifar, max_rounds=6, seed=2, executor=make_executor(2)
        )
        ts = build_trials(serial_runner)
        tp = build_trials(parallel_runner)
        requests = [4, 10, 0]  # includes a cap overflow and a no-op
        consumed_serial = [serial_runner.advance(t, r) for t, r in zip(ts, requests)]
        consumed_parallel = parallel_runner.advance_many(list(zip(tp, requests)))
        assert consumed_parallel == consumed_serial
        assert parallel_runner.rounds_used == serial_runner.rounds_used
        for a, b in zip(ts, tp):
            assert a.rounds == b.rounds
            assert np.array_equal(a.state.params, b.state.params)
            assert serial_runner.error_rates(a).tolist() == parallel_runner.error_rates(b).tolist()

    def test_duplicate_trial_rejected(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=6, seed=2)
        trial = runner.create(SPACE.sample(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            runner.advance_many([(trial, 1), (trial, 1)])

    def test_trainer_state_round_trip(self, cifar):
        """state_dict/load_state_dict captures everything: a restored
        trainer continues bit-identically."""
        runner = FederatedTrialRunner(cifar, max_rounds=9, seed=4)
        a = runner.create(SPACE.sample(np.random.default_rng(1)))
        runner.advance(a, 3)
        state = a.state.state_dict()
        # Continue the original.
        a.state.run(3)
        ref = a.state.params.copy()
        # Restore into a freshly-built twin and continue the same rounds.
        runner2 = FederatedTrialRunner(cifar, max_rounds=9, seed=4)
        b = runner2.create(SPACE.sample(np.random.default_rng(1)))
        b.state.load_state_dict(state)
        b.state.run(3)
        assert np.array_equal(b.state.params, ref)
