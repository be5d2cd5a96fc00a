"""Tests for FL extensions: FedProx proximal training and tail metrics."""

import numpy as np
import pytest

from repro.datasets import ClientData, TaskSpec, load_dataset
from repro.datasets.base import classification_error
from repro.fl import (
    ClientTrainer,
    FedAdam,
    FederatedTrainer,
    LocalTrainingConfig,
    federated_error,
    tail_error,
)
from repro.nn import make_mlp, softmax_cross_entropy
from repro.nn.module import get_flat_params


def mlp_task(d=4, classes=2):
    return TaskSpec(
        kind="classification",
        build_model=lambda seed: make_mlp(d, classes, hidden=(8,), rng=seed),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )


def separable_client(rng, n=40, d=4):
    x = rng.normal(size=(n, d))
    y = (x[:, 0] > 0).astype(int)
    return ClientData(x, y)


class TestFedProx:
    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            ClientTrainer(mlp_task(), lr=0.1, prox_mu=-1.0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(lr=0.1, prox_mu=-0.5)

    def test_mu_zero_matches_plain_sgd(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        client = separable_client(np.random.default_rng(1))
        plain = ClientTrainer(task, lr=0.1).train(model, params, client, np.random.default_rng(5))
        prox0 = ClientTrainer(task, lr=0.1, prox_mu=0.0).train(
            model, params, client, np.random.default_rng(5)
        )
        assert np.array_equal(plain, prox0)

    def test_large_mu_anchors_to_global(self, rng):
        """Strong proximal pull keeps the local update close to the global
        parameters — the defining FedProx behaviour."""
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        client = separable_client(np.random.default_rng(1))
        free = ClientTrainer(task, lr=0.2, epochs=5).train(
            model, params, client, np.random.default_rng(5)
        )
        # Stability of the proximal pull requires lr * mu < 2 (it is a
        # quadratic penalty); mu = 5 with lr = 0.2 is a strong stable anchor.
        anchored = ClientTrainer(task, lr=0.2, epochs=5, prox_mu=5.0).train(
            model, params, client, np.random.default_rng(5)
        )
        assert np.linalg.norm(anchored - params) < np.linalg.norm(free - params)

    def test_federated_training_with_prox_learns(self):
        ds = load_dataset("cifar10", "test", seed=0)
        trainer = FederatedTrainer(
            ds,
            FedAdam(lr=3e-2),
            LocalTrainingConfig(lr=0.1, momentum=0.9, prox_mu=0.1),
            seed=0,
        )
        weights = ds.eval_weights("weighted")
        before = federated_error(trainer.eval_error_rates(), weights)
        trainer.run(12)
        assert federated_error(trainer.eval_error_rates(), weights) < before

    def test_prox_reduces_client_drift_across_cohort(self):
        """With heterogeneous clients, the spread of client updates around
        the global model shrinks as mu grows."""
        ds = load_dataset("cifar10", "test", seed=0)
        task = ds.task
        model = task.build_model(0)
        params = get_flat_params(model)

        def drift(mu):
            trainer = ClientTrainer(task, lr=0.2, epochs=3, prox_mu=mu)
            updates = [
                trainer.train(model, params, c, np.random.default_rng(7))
                for c in ds.train_clients[:6]
            ]
            return np.mean([np.linalg.norm(u - params) for u in updates])

        # lr * mu must stay well below 2 once loss curvature adds in;
        # mu = 1 with lr = 0.2 is comfortably in the contracting regime.
        assert drift(1.0) < drift(0.0)


class TestTailError:
    def test_percentile_semantics(self):
        rates = np.linspace(0.0, 1.0, 101)
        assert tail_error(rates, 90.0) == pytest.approx(0.9)
        assert tail_error(rates, 100.0) == pytest.approx(1.0)

    def test_subset(self):
        rates = np.array([0.1, 0.9, 0.5])
        assert tail_error(rates, 100.0, subset=np.array([0, 2])) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_error(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            tail_error(np.array([0.5]), 101.0)
        with pytest.raises(ValueError):
            tail_error(np.array([]), 90.0)

    def test_tail_at_least_mean_for_any_distribution(self, rng):
        rates = rng.random(50)
        assert tail_error(rates, 90.0) >= rates.mean() - 1e-12

    def test_heterogeneity_widens_mean_tail_gap(self):
        """The §6 motivation: on a heterogeneous dataset the tail objective
        diverges from the mean objective."""
        ds = load_dataset("cifar10", "test", seed=0)
        trainer = FederatedTrainer(
            ds, FedAdam(lr=3e-2), LocalTrainingConfig(lr=0.1, momentum=0.9), seed=0
        )
        trainer.run(12)
        rates = trainer.eval_error_rates()
        assert tail_error(rates, 90.0) >= rates.mean()
