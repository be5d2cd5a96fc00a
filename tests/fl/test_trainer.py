"""Tests for the federated training loop and evaluation helpers."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.fl import (
    FedAdam,
    FederatedTrainer,
    LocalTrainingConfig,
    client_error_rates,
    federated_error,
)


def full_error(trainer):
    """Full-pool validation error (Eq. 2 with S = [N_val])."""
    return federated_error(trainer.eval_error_rates(), trainer.dataset.eval_weights(trainer.scheme))


@pytest.fixture(scope="module")
def cifar():
    return load_dataset("cifar10", "test", seed=0)


def make_trainer(ds, seed=0, **kwargs):
    defaults = dict(
        server_opt=FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
        local=LocalTrainingConfig(lr=0.1, momentum=0.9),
        clients_per_round=5,
        seed=seed,
    )
    defaults.update(kwargs)
    return FederatedTrainer(ds, **defaults)


class TestLocalTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.1, batch_size=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.1, epochs=0)

    def test_frozen(self):
        cfg = LocalTrainingConfig(lr=0.1)
        with pytest.raises(AttributeError):
            cfg.lr = 0.2


class TestFederatedTrainer:
    def test_learning_reduces_error(self, cifar):
        trainer = make_trainer(cifar)
        before = full_error(trainer)
        trainer.run(15)
        after = full_error(trainer)
        assert after < before

    def test_rounds_counted(self, cifar):
        trainer = make_trainer(cifar)
        trainer.run(3)
        assert trainer.rounds_completed == 3
        trainer.run(2)
        assert trainer.rounds_completed == 5

    def test_resumable_equals_one_shot(self, cifar):
        """run(4) then run(4) must equal run(8) — SHA depends on this."""
        a = make_trainer(cifar, seed=7)
        a.run(8)
        b = make_trainer(cifar, seed=7)
        b.run(4).run(4)
        assert np.allclose(a.params, b.params)

    def test_deterministic_given_seed(self, cifar):
        a = make_trainer(cifar, seed=3)
        b = make_trainer(cifar, seed=3)
        a.run(5)
        b.run(5)
        assert np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self, cifar):
        a = make_trainer(cifar, seed=3)
        b = make_trainer(cifar, seed=4)
        a.run(5)
        b.run(5)
        assert not np.array_equal(a.params, b.params)

    def test_clients_per_round_clamped(self, cifar):
        trainer = make_trainer(cifar, clients_per_round=10_000)
        assert trainer.clients_per_round == cifar.num_train_clients
        trainer.run(1)  # must not crash

    def test_rejects_bad_args(self, cifar):
        with pytest.raises(ValueError):
            make_trainer(cifar, clients_per_round=0)
        trainer = make_trainer(cifar)
        with pytest.raises(ValueError):
            trainer.run(-1)

    def test_uniform_scheme_runs(self, cifar):
        trainer = make_trainer(cifar, scheme="uniform")
        trainer.run(2)
        err = full_error(trainer)
        assert 0.0 <= err <= 1.0

    def test_divergent_config_freezes_not_crashes(self, cifar):
        trainer = make_trainer(
            cifar,
            server_opt=FedAdam(lr=1.0),
            local=LocalTrainingConfig(lr=1e8),
        )
        trainer.run(3)
        err = full_error(trainer)
        assert 0.0 <= err <= 1.0

    def test_eval_error_rates_shape(self, cifar):
        trainer = make_trainer(cifar)
        rates = trainer.eval_error_rates()
        assert rates.shape == (cifar.num_eval_clients,)
        assert np.all((rates >= 0) & (rates <= 1))


class TestSetLocalConfig:
    """Mid-run hyperparameter swaps (the population tuners' explore move)."""

    def test_future_rounds_use_new_hps(self, cifar):
        """A trainer whose hps are swapped mid-run must continue exactly
        like a fresh trainer constructed with the new hps and handed the
        old trainer's full state — on the serial path and on the slab,
        which keeps its allocation across the swap (hyperparameters ride
        each round's SlabGroup)."""
        from dataclasses import replace

        for mode in ("serial", "fused"):
            a = make_trainer(cifar, seed=4, cohort_mode=mode)
            a.run(2)
            new_local = replace(a.local, lr=0.05, momentum=0.3, weight_decay=1e-4)
            b = make_trainer(cifar, seed=4, cohort_mode=mode, local=new_local)
            b.load_state_dict(a.state_dict())
            a.set_local_config(new_local)
            a.run(2)
            b.run(2)
            assert np.array_equal(a.params, b.params), mode
            assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_serial_client_trainer_rebuilt(self, cifar):
        from dataclasses import replace

        trainer = make_trainer(cifar, seed=1)
        trainer.set_local_config(replace(trainer.local, lr=0.01))
        assert trainer._client_trainer.lr == 0.01
        assert trainer.local.lr == 0.01

    def test_rejects_structural_changes(self, cifar):
        from dataclasses import replace

        trainer = make_trainer(cifar, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            trainer.set_local_config(replace(trainer.local, batch_size=64))
        with pytest.raises(ValueError, match="epochs"):
            trainer.set_local_config(replace(trainer.local, epochs=2))


class TestEvaluationHelpers:
    def test_federated_error_weighted(self):
        rates = np.array([0.0, 1.0])
        weights = np.array([3.0, 1.0])
        assert federated_error(rates, weights) == pytest.approx(0.25)

    def test_federated_error_subset(self):
        rates = np.array([0.0, 1.0, 0.5])
        weights = np.ones(3)
        assert federated_error(rates, weights, subset=np.array([1])) == pytest.approx(1.0)

    def test_federated_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            federated_error(np.zeros(3), np.ones(2))

    def test_client_error_rates_match_manual(self, cifar):
        model = cifar.task.build_model(0)
        rates = client_error_rates(model, cifar.eval_clients[:3], cifar.task)
        for k in range(3):
            c = cifar.eval_clients[k]
            preds = model(c.x).argmax(axis=-1)
            assert rates[k] == pytest.approx((preds != c.y).mean())

    def test_uniform_vs_weighted_differ_when_sizes_differ(self, cifar):
        trainer = make_trainer(cifar)
        trainer.run(4)
        rates = trainer.eval_error_rates()
        w_err = federated_error(rates, cifar.eval_weights("weighted"))
        u_err = federated_error(rates, cifar.eval_weights("uniform"))
        sizes = cifar.eval_weights("weighted")
        if rates.std() > 1e-6 and sizes.std() > 0:
            assert w_err != pytest.approx(u_err, abs=1e-9)
