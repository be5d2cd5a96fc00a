"""Tests for trial runners and the config-to-trainer bridge."""

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, config_to_trainer, paper_space
from repro.datasets import load_dataset
from repro.fl.server import FedAdam

SPACE = paper_space(batch_sizes=(4, 8, 16))


@pytest.fixture(scope="module")
def cifar():
    return load_dataset("cifar10", "test", seed=0)


def sample_config(seed=0):
    return SPACE.sample(np.random.default_rng(seed))


class TestConfigToTrainer:
    def test_builds_fedadam_with_config_hps(self, cifar):
        cfg = sample_config()
        trainer = config_to_trainer(cfg, cifar, seed=0)
        assert isinstance(trainer.server_opt, FedAdam)
        assert trainer.server_opt.base_lr == cfg["server_lr"]
        assert trainer.server_opt.beta1 == cfg["server_beta1"]
        assert trainer.server_opt.lr_decay == cfg["server_lr_decay"]
        assert trainer.local.lr == cfg["client_lr"]
        assert trainer.local.batch_size == cfg["batch_size"]

    def test_deterministic_in_seed(self, cifar):
        cfg = sample_config()
        t1 = config_to_trainer(cfg, cifar, seed=4)
        t2 = config_to_trainer(cfg, cifar, seed=4)
        assert np.array_equal(t1.params, t2.params)


class TestFederatedTrialRunner:
    def test_max_rounds_validation(self, cifar):
        with pytest.raises(ValueError):
            FederatedTrialRunner(cifar, max_rounds=0)

    def test_trial_ids_increment(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        t1 = runner.create(sample_config(0))
        t2 = runner.create(sample_config(1))
        assert (t1.trial_id, t2.trial_id) == (0, 1)

    def test_advance_caps_at_max_rounds(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        trial = runner.create(sample_config())
        assert runner.advance(trial, 10) == 3
        assert trial.rounds == 3
        assert runner.rounds_used == 3
        assert runner.advance(trial, 1) == 0

    def test_negative_advance_rejected(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        trial = runner.create(sample_config())
        with pytest.raises(ValueError):
            runner.advance(trial, -1)

    @pytest.mark.parametrize("mode", ["serial", "fused"])
    def test_invalid_batch_advances_nothing(self, cifar, mode):
        """advance_many validates the whole batch before training any of
        it: a bad request late in the batch leaves every trial and the
        budget counter untouched, in both cohort modes."""
        runner = FederatedTrialRunner(cifar, max_rounds=4, seed=0, cohort_mode=mode)
        a, b = runner.create(sample_config(0)), runner.create(sample_config(1))
        p0 = a.state.params.copy()
        with pytest.raises(ValueError):
            runner.advance_many([(a, 2), (b, -1)])
        assert a.rounds == b.rounds == 0
        assert runner.rounds_used == 0
        assert np.array_equal(a.state.params, p0)

    def test_error_rates_cached_per_round_count(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=6, seed=0)
        trial = runner.create(sample_config())
        runner.advance(trial, 2)
        r1 = runner.error_rates(trial)
        r2 = runner.error_rates(trial)
        assert r1 is r2  # cache hit: no re-evaluation
        runner.advance(trial, 2)
        r3 = runner.error_rates(trial)
        assert r3 is not r1

    def test_full_error_consistent_with_rates(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        trial = runner.create(sample_config())
        runner.advance(trial, 3)
        rates = runner.error_rates(trial)
        w = cifar.eval_weights("weighted")
        assert runner.full_error(trial) == pytest.approx(float(rates @ w / w.sum()))

    def test_trials_have_independent_models(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        cfg = sample_config()
        t1 = runner.create(cfg)
        t2 = runner.create(cfg)
        # Same config, different per-trial seeds -> different trajectories.
        runner.advance(t1, 3)
        runner.advance(t2, 3)
        assert not np.array_equal(t1.state.params, t2.state.params)

    def test_runner_reproducible_with_same_seed(self, cifar):
        def final_rates(seed):
            runner = FederatedTrialRunner(cifar, max_rounds=3, seed=seed)
            trial = runner.create(sample_config())
            runner.advance(trial, 3)
            return runner.error_rates(trial)

        assert np.array_equal(final_rates(7), final_rates(7))
        assert not np.array_equal(final_rates(7), final_rates(8))

    def test_eval_weights_delegates_to_dataset(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        assert np.array_equal(runner.eval_weights("uniform"), np.ones(cifar.num_eval_clients))

    def test_error_rates_cache_cannot_be_corrupted(self, cifar):
        """Regression: error_rates used to return the cached array
        writeable, so a caller mutating it corrupted every later
        full_error read of the same trial."""
        runner = FederatedTrialRunner(cifar, max_rounds=3, seed=0)
        trial = runner.create(sample_config())
        runner.advance(trial, 3)
        rates = runner.error_rates(trial)
        before = runner.full_error(trial)
        with pytest.raises((ValueError, RuntimeError)):
            rates[:] = 0.0  # read-only: the would-be corruption is refused
        assert runner.full_error(trial) == pytest.approx(before)

    def test_advance_many_matches_serial_advance(self, cifar):
        serial = FederatedTrialRunner(cifar, max_rounds=4, seed=9)
        batched = FederatedTrialRunner(cifar, max_rounds=4, seed=9)
        cfgs = [sample_config(s) for s in range(3)]
        ts = [serial.create(c) for c in cfgs]
        tb = [batched.create(c) for c in cfgs]
        requests = [2, 9, 0]
        consumed_serial = [serial.advance(t, r) for t, r in zip(ts, requests)]
        consumed_batched = batched.advance_many(list(zip(tb, requests)))
        assert consumed_batched == consumed_serial
        assert batched.rounds_used == serial.rounds_used
        for a, b in zip(ts, tb):
            assert a.rounds == b.rounds
            assert np.array_equal(serial.error_rates(a), batched.error_rates(b))
