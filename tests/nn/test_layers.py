"""Shape, error-path, and gradient-check tests for feed-forward layers."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Embedding,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
    gradcheck_module,
)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng)
        assert layer(rng.normal(size=(7, 5))).shape == (7, 3)

    def test_three_dim_input(self, rng):
        layer = Linear(5, 3, rng)
        assert layer(rng.normal(size=(2, 4, 5))).shape == (2, 4, 3)

    def test_rejects_bad_last_dim(self, rng):
        layer = Linear(5, 3, rng)
        with pytest.raises(ValueError):
            layer(rng.normal(size=(7, 4)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.zeros((1, 2)))

    def test_no_bias(self, rng):
        layer = Linear(4, 2, rng, bias=False)
        assert len(layer.parameters()) == 1

    def test_gradcheck_2d(self, rng):
        gradcheck_module(Linear(4, 3, rng), rng.normal(size=(5, 4)))

    def test_gradcheck_3d(self, rng):
        gradcheck_module(Linear(4, 3, rng), rng.normal(size=(2, 3, 4)))

    def test_known_values(self):
        layer = Linear(2, 1, rng=0)
        layer.weight.data[:] = [[2.0], [3.0]]
        layer.bias.data[:] = [1.0]
        y = layer(np.array([[1.0, 1.0]]))
        assert np.allclose(y, [[6.0]])


class TestConv2D:
    def test_output_shape_with_padding(self, rng):
        conv = Conv2D(3, 8, kernel_size=3, pad=1, rng=rng)
        assert conv(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_output_shape_no_padding(self, rng):
        conv = Conv2D(1, 2, kernel_size=3, rng=rng)
        assert conv(rng.normal(size=(1, 1, 5, 5))).shape == (1, 2, 3, 3)

    def test_stride(self, rng):
        conv = Conv2D(1, 2, kernel_size=3, stride=2, pad=1, rng=rng)
        assert conv(rng.normal(size=(1, 1, 8, 8))).shape == (1, 2, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        conv = Conv2D(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            conv(rng.normal(size=(1, 2, 8, 8)))

    def test_gradcheck(self, rng):
        gradcheck_module(Conv2D(2, 3, 3, pad=1, rng=rng), rng.normal(size=(2, 2, 4, 4)))

    def test_gradcheck_stride2(self, rng):
        gradcheck_module(Conv2D(1, 2, 2, stride=2, rng=rng), rng.normal(size=(2, 1, 4, 4)))

    def test_matches_naive_convolution(self, rng):
        conv = Conv2D(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 3, 3))
        y = conv(x)
        k = conv.weight.data[0, 0]
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, i : i + 2, j : j + 2] * k).sum() + conv.bias.data[0]
        assert np.allclose(y[0, 0], expected)


class TestMaxPool2D:
    def test_shape(self, rng):
        pool = MaxPool2D(2)
        assert pool(rng.normal(size=(2, 3, 8, 8))).shape == (2, 3, 4, 4)

    def test_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y = pool(x)
        assert np.array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_rejects_non_divisible(self, rng):
        with pytest.raises(ValueError):
            MaxPool2D(2)(rng.normal(size=(1, 1, 5, 5)))

    def test_gradcheck(self, rng):
        gradcheck_module(MaxPool2D(2), rng.normal(size=(2, 2, 4, 4)))

    def test_tie_splits_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        pool(x)
        dx = pool.backward(np.ones((1, 1, 1, 1)))
        assert np.allclose(dx, 0.25)


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid])
    def test_shape_preserved(self, cls, rng):
        layer = cls()
        x = rng.normal(size=(3, 4))
        assert layer(x).shape == x.shape

    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid])
    def test_gradcheck(self, cls, rng):
        # Offset away from ReLU's kink at 0.
        x = rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.1
        gradcheck_module(cls(), x)

    def test_relu_clamps_negatives(self):
        y = ReLU()(np.array([[-1.0, 2.0]]))
        assert np.array_equal(y, [[0.0, 2.0]])

    def test_sigmoid_stable_at_extremes(self):
        y = Sigmoid()(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(y))
        assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert y[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_tanh_range(self, rng):
        y = Tanh()(rng.normal(size=(10,)) * 10)
        assert np.all(np.abs(y) <= 1.0)


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        y = layer(x)
        assert y.shape == (2, 60)
        assert layer.backward(y).shape == x.shape


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        assert emb(rng.integers(0, 10, size=(3, 7))).shape == (3, 7, 4)

    def test_rejects_float_ids(self, rng):
        emb = Embedding(10, 4, rng)
        with pytest.raises(TypeError):
            emb(np.zeros((2, 2)))

    def test_rejects_out_of_range(self, rng):
        emb = Embedding(10, 4, rng)
        with pytest.raises(ValueError):
            emb(np.array([[10]]))

    def test_gradient_accumulates_per_token(self, rng):
        emb = Embedding(5, 3, rng)
        ids = np.array([[0, 0, 1]])
        out = emb(ids)
        emb.zero_grad()
        emb.backward(np.ones_like(out))
        # Token 0 appears twice -> grad 2, token 1 once -> grad 1, rest 0.
        assert np.allclose(emb.weight.grad[0], 2.0)
        assert np.allclose(emb.weight.grad[1], 1.0)
        assert np.allclose(emb.weight.grad[2:], 0.0)
