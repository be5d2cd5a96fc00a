"""Tests for dataset containers and task specs."""

import numpy as np
import pytest

from repro.datasets import ClientData, FederatedDataset, TaskSpec
from repro.datasets.base import classification_error, next_token_error
from repro.nn import make_mlp, softmax_cross_entropy


def tiny_task():
    return TaskSpec(
        kind="classification",
        build_model=lambda seed: make_mlp(3, 2, hidden=(), rng=seed),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )


def make_client(n, rng, d=3):
    return ClientData(rng.normal(size=(n, d)), rng.integers(0, 2, size=n))


class TestClientData:
    def test_n(self, rng):
        assert make_client(5, rng).n == 5

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ValueError):
            ClientData(rng.normal(size=(3, 2)), np.zeros(4, dtype=int))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClientData(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_subset(self, rng):
        c = make_client(5, rng)
        s = c.subset(np.array([0, 2]))
        assert s.n == 2
        assert np.array_equal(s.x, c.x[[0, 2]])


class TestTaskSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="regression", build_model=None, loss_fn=None, error_fn=None)

    def test_classification_error_counts(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        y = np.array([0, 1, 1])
        assert classification_error(logits, y) == (1, 3)

    def test_next_token_error_counts(self):
        logits = np.zeros((1, 3, 4))
        logits[0, :, 2] = 5.0  # always predicts token 2
        y = np.array([[2, 2, 0]])
        assert next_token_error(logits, y) == (1, 3)


class TestFederatedDataset:
    def make_ds(self, rng, n_train=3, n_eval=2):
        return FederatedDataset(
            name="toy",
            task=tiny_task(),
            train_clients=[make_client(i + 2, rng) for i in range(n_train)],
            eval_clients=[make_client(2 * i + 2, rng) for i in range(n_eval)],
        )

    def test_counts(self, rng):
        ds = self.make_ds(rng)
        assert ds.num_train_clients == 3
        assert ds.num_eval_clients == 2

    def test_requires_clients(self, rng):
        with pytest.raises(ValueError):
            FederatedDataset("x", tiny_task(), [], [make_client(2, rng)])
        with pytest.raises(ValueError):
            FederatedDataset("x", tiny_task(), [make_client(2, rng)], [])

    def test_eval_weights_weighted(self, rng):
        ds = self.make_ds(rng)
        assert np.array_equal(ds.eval_weights("weighted"), [c.n for c in ds.eval_clients])

    def test_eval_weights_uniform(self, rng):
        ds = self.make_ds(rng)
        assert np.array_equal(ds.eval_weights("uniform"), np.ones(2))

    def test_weights_reject_unknown_scheme(self, rng):
        ds = self.make_ds(rng)
        with pytest.raises(ValueError):
            ds.eval_weights("quadratic")
        with pytest.raises(ValueError):
            ds.train_weights("quadratic")
