"""Tests for Module/Parameter/Sequential and flat-parameter access."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    ReLU,
    Sequential,
    get_flat_params,
    set_flat_params,
)
from repro.nn.module import Parameter, get_flat_grads


class TestParameter:
    def test_grad_initialised_to_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_zero_grad_resets(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_data_cast_to_float64(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        assert p.data.dtype == np.float64

    def test_shape_and_size(self):
        p = Parameter(np.zeros((3, 5)))
        assert p.shape == (3, 5)
        assert p.size == 15


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential()

    def test_forward_chains(self, rng):
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        y = model(rng.normal(size=(5, 4)))
        assert y.shape == (5, 2)

    def test_parameters_stable_order(self, rng):
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        names = [p.name for p in model.parameters()]
        assert names == [p.name for p in model.parameters()]
        assert len(model.parameters()) == 4  # two weights + two biases

    def test_len_getitem_iter(self, rng):
        layers = [Linear(4, 4, rng), ReLU()]
        model = Sequential(*layers)
        assert len(model) == 2
        assert model[1] is layers[1]
        assert list(model) == layers

    def test_num_parameters(self, rng):
        model = Sequential(Linear(4, 8, rng), Linear(8, 2, rng))
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


class TestFlatParams:
    def test_roundtrip(self, rng):
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        flat = get_flat_params(model)
        assert flat.shape == (model.num_parameters(),)
        set_flat_params(model, flat * 2.0)
        assert np.allclose(get_flat_params(model), flat * 2.0)

    def test_set_rejects_wrong_size(self, rng):
        model = Sequential(Linear(4, 4, rng))
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros(3))

    def test_set_rejects_wrong_ndim(self, rng):
        model = Sequential(Linear(2, 2, rng))
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros((model.num_parameters(), 1)))

    def test_flat_grads_match_order(self, rng):
        model = Sequential(Linear(3, 3, rng))
        x = rng.normal(size=(2, 3))
        model.zero_grad()
        y = model(x)
        model.backward(np.ones_like(y))
        flat_g = get_flat_grads(model)
        manual = np.concatenate([p.grad.ravel() for p in model.parameters()])
        assert np.array_equal(flat_g, manual)

    def test_set_then_forward_uses_new_params(self, rng):
        model = Sequential(Linear(3, 2, rng, bias=False))
        set_flat_params(model, np.zeros(model.num_parameters()))
        y = model(rng.normal(size=(4, 3)))
        assert np.all(y == 0)
