"""Tests for the FedAdam server optimizer."""

import numpy as np
import pytest

from repro.fl import FedAdam


class TestAdaptive:
    def test_fedadam_first_step_magnitude(self):
        # First step: m = (1-b1) g, v = (1-b2) g^2; with g=1, b1=0.9, b2=0.99:
        # step = lr * 0.1 / (sqrt(0.01) + tau)
        opt = FedAdam(lr=1.0, beta1=0.9, beta2=0.99, tau=1e-3)
        p = opt.step(np.array([0.0]), np.array([1.0]))
        expected = -1.0 * 0.1 / (np.sqrt(0.01) + 1e-3)
        assert p[0] == pytest.approx(expected)

    def test_fedadam_converges_on_quadratic(self):
        opt = FedAdam(lr=0.1, beta1=0.9, beta2=0.99)
        w = np.array([4.0])
        for _ in range(500):
            w = opt.step(w, 2.0 * w)
        assert abs(w[0]) < 0.05

    def test_rejects_bad_lr_hps(self):
        with pytest.raises(ValueError):
            FedAdam(lr=0.0)
        with pytest.raises(ValueError):
            FedAdam(lr=1.0, lr_decay=0.0)
        with pytest.raises(ValueError):
            FedAdam(lr=1.0, lr_decay=1.5)

    def test_rejects_bad_hps(self):
        with pytest.raises(ValueError):
            FedAdam(lr=1.0, beta1=1.0)
        with pytest.raises(ValueError):
            FedAdam(lr=1.0, beta2=1.5)
        with pytest.raises(ValueError):
            FedAdam(lr=1.0, tau=0.0)

    def test_decay_reduces_lr_over_rounds(self):
        opt = FedAdam(lr=1.0, lr_decay=0.9)
        assert opt.current_lr == pytest.approx(1.0)
        opt.step(np.zeros(1), np.ones(1))
        assert opt.current_lr == pytest.approx(0.9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            FedAdam(lr=1.0).step(np.zeros(3), np.zeros(2))
