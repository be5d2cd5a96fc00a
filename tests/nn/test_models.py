"""Tests for the paper-shaped model factories."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    LanguageModel,
    make_cnn,
    make_lstm_lm,
    make_mlp,
    sequence_cross_entropy,
    softmax_cross_entropy,
)


class TestMakeMLP:
    def test_shapes(self, rng):
        model = make_mlp(10, 4, hidden=(16, 8), rng=rng)
        assert model(rng.normal(size=(3, 10))).shape == (3, 4)

    def test_no_hidden(self, rng):
        model = make_mlp(10, 4, hidden=(), rng=rng)
        assert len(model) == 1


class TestMakeCNN:
    def test_shapes(self, rng):
        model = make_cnn(8, 3, 10, channels=(4, 8), rng=rng)
        assert model(rng.normal(size=(2, 3, 8, 8))).shape == (2, 10)

    def test_rejects_non_divisible_image(self, rng):
        with pytest.raises(ValueError):
            make_cnn(6, 3, 10, channels=(4, 8), rng=rng)

    def test_deterministic_construction(self):
        m1 = make_cnn(8, 1, 5, rng=11)
        m2 = make_cnn(8, 1, 5, rng=11)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_trains_on_separable_images(self, rng):
        # Class 0: bright top half; class 1: bright bottom half.
        n = 32
        x = rng.normal(size=(n, 1, 8, 8)) * 0.1
        y = rng.integers(0, 2, size=n)
        x[y == 0, :, :4, :] += 1.0
        x[y == 1, :, 4:, :] += 1.0
        model = make_cnn(8, 1, 2, channels=(4, 4), rng=rng)
        opt = SGD(model.parameters(), lr=0.3, momentum=0.9)
        losses = []
        for _ in range(30):
            model.zero_grad()
            loss, d = softmax_cross_entropy(model(x), y)
            losses.append(loss)
            model.backward(d)
            opt.step()
        assert losses[-1] < losses[0] * 0.5


class TestLanguageModel:
    def test_shapes(self, rng):
        lm = make_lstm_lm(vocab_size=30, embed_dim=8, hidden=8, num_layers=2, rng=rng)
        assert isinstance(lm, LanguageModel)
        out = lm(rng.integers(0, 30, size=(4, 6)))
        assert out.shape == (4, 6, 30)

    def test_learns_deterministic_sequence(self, rng):
        # Sequence 0,1,2,...,v-1 repeated: next token always (t+1) % v.
        v = 8
        seq = np.tile(np.arange(v), 4)
        x = seq[:-1][None, :].repeat(4, axis=0)
        y = seq[1:][None, :].repeat(4, axis=0)
        lm = make_lstm_lm(v, embed_dim=8, hidden=16, num_layers=1, rng=rng)
        opt = SGD(lm.parameters(), lr=0.5, momentum=0.9)
        losses = []
        for _ in range(80):
            lm.zero_grad()
            loss, d = sequence_cross_entropy(lm(x), y)
            losses.append(loss)
            lm.backward(d)
            opt.step()
        assert losses[-1] < 0.5 * losses[0]
        preds = lm(x).argmax(axis=-1)
        assert (preds == y).mean() > 0.9
