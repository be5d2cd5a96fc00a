"""Tests for client-side local training and evaluation."""

import numpy as np
import pytest

from repro.datasets import ClientData, TaskSpec
from repro.datasets.base import classification_error
from repro.fl import ClientTrainer, evaluate_client
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


class TestClientTrainer:
    def test_rejects_bad_hps(self):
        task = mlp_task()
        with pytest.raises(ValueError):
            ClientTrainer(task, lr=0.0)
        with pytest.raises(ValueError):
            ClientTrainer(task, lr=0.1, batch_size=0)
        with pytest.raises(ValueError):
            ClientTrainer(task, lr=0.1, epochs=0)

    def test_training_changes_params(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        start = get_flat_params(model)
        trainer = ClientTrainer(task, lr=0.1)
        out = trainer.train(model, start, separable_client(rng), rng)
        assert not np.allclose(out, start)

    def test_training_reduces_local_error(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        client = separable_client(rng, n=60)
        params = get_flat_params(model)
        e_before = evaluate_client(model, client, task)
        trainer = ClientTrainer(task, lr=0.3, momentum=0.9, epochs=10)
        new_params = trainer.train(model, params, client, rng)
        from repro.nn.module import set_flat_params

        set_flat_params(model, new_params)
        e_after = evaluate_client(model, client, task)
        assert e_after[0] < e_before[0]

    def test_does_not_mutate_global_params(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        snapshot = params.copy()
        ClientTrainer(task, lr=0.5).train(model, params, separable_client(rng), rng)
        assert np.array_equal(params, snapshot)

    def test_deterministic_given_rng(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        client = separable_client(np.random.default_rng(1))
        out1 = ClientTrainer(task, lr=0.1).train(model, params, client, np.random.default_rng(5))
        out2 = ClientTrainer(task, lr=0.1).train(model, params, client, np.random.default_rng(5))
        assert np.array_equal(out1, out2)

    def test_divergent_lr_returns_finite_or_freezes(self, rng):
        """A huge lr must not crash; the result may be bad but training
        proceeds (divergence is a valid HP-tuning signal)."""
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        client = separable_client(rng)
        out = ClientTrainer(task, lr=1e6, epochs=3).train(model, params, client, rng)
        assert out.shape == params.shape

    def test_batch_size_larger_than_data_ok(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        params = get_flat_params(model)
        client = separable_client(rng, n=5)
        out = ClientTrainer(task, lr=0.1, batch_size=1000).train(model, params, client, rng)
        assert np.all(np.isfinite(out))


class TestEvaluateClient:
    def test_error_counts_bounds(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        client = separable_client(rng, n=25)
        n_err, n_tot = evaluate_client(model, client, task)
        assert n_tot == 25
        assert 0 <= n_err <= 25

    def test_diverged_model_counts_all_wrong(self, rng):
        task = mlp_task()
        model = task.build_model(0)
        for p in model.parameters():
            p.data[:] = np.nan
        client = separable_client(rng, n=10)
        n_err, n_tot = evaluate_client(model, client, task)
        assert (n_err, n_tot) == (10, 10)
