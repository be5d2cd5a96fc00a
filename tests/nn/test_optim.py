"""Tests for SGD and the fused slab optimizer kernels."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Linear,
    Sequential,
    copy_slab_rows,
    fused_sgd_step,
    perturb_rows,
    softmax_cross_entropy,
)
from repro.nn.module import Parameter


def quadratic_param(start=5.0):
    """A single scalar parameter minimising f(w) = w^2 (grad = 2w)."""
    return Parameter(np.array([start]))


class TestSGD:
    def test_rejects_bad_hyperparameters(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, weight_decay=-1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_plain_step(self):
        p = quadratic_param(1.0)
        opt = SGD([p], lr=0.1)
        p.grad[:] = 2.0
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_momentum_accumulates(self):
        p = quadratic_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()  # v = 1, w = -1
        assert p.data[0] == pytest.approx(-1.0)
        p.grad[:] = 1.0
        opt.step()  # v = 1.5, w = -2.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_weight_decay_shrinks_weights(self):
        p = quadratic_param(10.0)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad[:] = 0.0
        opt.step()
        assert p.data[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            p.zero_grad()
            p.grad[:] = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_zero_grad(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        p.grad[:] = 3.0
        opt.zero_grad()
        assert np.all(p.grad == 0)


class TestFlatSGD:
    """SGD on one flat buffer (:func:`fused_sgd_step`) must match the
    per-parameter SGD loop bit-for-bit — the contract the slab trainer
    relies on."""

    def run_pair(self, rng, momentum, weight_decay, steps=5):
        shapes = [(4, 3), (3,), (3, 2), (2,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        flat = np.concatenate([p.data.ravel() for p in params])
        velocity = np.zeros_like(flat)
        looped = SGD(params, lr=0.1, momentum=momentum, weight_decay=weight_decay)
        for _ in range(steps):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            looped.step()
            fused_sgd_step(
                flat, np.concatenate([g.ravel() for g in grads]), lr=0.1,
                momentum=momentum, weight_decay=weight_decay, velocity=velocity,
            )
        flat_looped = np.concatenate([p.data.ravel() for p in params])
        assert np.array_equal(flat, flat_looped)

    def test_matches_sgd_loop_plain(self, rng):
        self.run_pair(rng, momentum=0.0, weight_decay=0.0)

    def test_matches_sgd_loop_momentum(self, rng):
        self.run_pair(rng, momentum=0.9, weight_decay=0.0)

    def test_matches_sgd_loop_momentum_weight_decay(self, rng):
        self.run_pair(rng, momentum=0.9, weight_decay=0.01)

    def test_matches_sgd_loop_weight_decay_only(self, rng):
        self.run_pair(rng, momentum=0.0, weight_decay=0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fused_sgd_step(np.zeros(4), np.zeros(4), lr=0.1, work=np.zeros(5))
        with pytest.raises(ValueError):
            fused_sgd_step(np.zeros((2, 4)), np.zeros((2, 4)), lr=np.array([0.1, 0.1, 0.1]))

    def test_stacked_rows_match_independent_vectors(self, rng):
        """A (C, P) slab step equals C independent (P,) steps — per-row
        momentum included."""
        c_copies, p_size = 3, 7
        slab = rng.normal(size=(c_copies, p_size))
        rows = [slab[i].copy() for i in range(c_copies)]
        velocity = np.zeros_like(slab)
        row_velocities = [np.zeros(p_size) for _ in rows]
        work = np.empty_like(slab)
        for _ in range(4):
            grads = rng.normal(size=(c_copies, p_size))
            fused_sgd_step(
                slab, grads, lr=0.2, momentum=0.8, weight_decay=0.01,
                velocity=velocity, work=work,
            )
            for row, v, g in zip(rows, row_velocities, grads):
                fused_sgd_step(row, g, lr=0.2, momentum=0.8, weight_decay=0.01, velocity=v)
        for i, row in enumerate(rows):
            assert np.array_equal(slab[i], row)

    def test_fused_step_does_not_mutate_grads(self, rng):
        params = rng.normal(size=8)
        grads = rng.normal(size=8)
        snapshot = grads.copy()
        v = np.zeros(8)
        fused_sgd_step(params, grads, lr=0.1, momentum=0.9, weight_decay=0.1, velocity=v)
        assert np.array_equal(grads, snapshot)

    def test_momentum_requires_velocity(self, rng):
        with pytest.raises(ValueError):
            fused_sgd_step(np.zeros(3), np.zeros(3), lr=0.1, momentum=0.5)


class TestSlabRowOps:
    """Population exploit/explore primitives over (R, P) slabs and (R,)
    per-row hyperparameter vectors."""

    def test_copy_rows_across_aligned_buffers(self):
        slab = np.arange(12, dtype=float).reshape(4, 3)
        lr = np.array([0.1, 0.2, 0.3, 0.4])
        copy_slab_rows([slab, lr], src=[0, 1], dst=[3, 2])
        assert np.array_equal(slab[3], [0.0, 1.0, 2.0])
        assert np.array_equal(slab[2], [3.0, 4.0, 5.0])
        assert np.array_equal(lr, [0.1, 0.2, 0.2, 0.1])
        # Winners untouched.
        assert np.array_equal(slab[0], [0.0, 1.0, 2.0])

    def test_copy_rows_rejects_overlap_and_shape_mismatch(self):
        slab = np.zeros((4, 3))
        with pytest.raises(ValueError, match="overlap"):
            copy_slab_rows([slab], src=[0, 1], dst=[1, 2])
        with pytest.raises(ValueError, match="unique"):
            copy_slab_rows([slab], src=[0, 1], dst=[2, 2])
        with pytest.raises(ValueError, match="equal length"):
            copy_slab_rows([slab], src=[0], dst=[1, 2])
        with pytest.raises(ValueError, match="row-axis"):
            copy_slab_rows([slab, np.zeros(5)], src=[0], dst=[1])

    def test_perturb_rows_multiplicative_with_clip(self):
        momentum = np.array([0.5, 0.8, 0.1, 0.6])
        perturb_rows(momentum, [1, 2], np.array([1.25, 0.8]), low=0.0, high=0.9)
        assert momentum[1] == pytest.approx(0.9)  # 1.0 clipped to the cap
        assert momentum[2] == pytest.approx(0.08)
        assert momentum[0] == 0.5 and momentum[3] == 0.6

    def test_perturb_rows_shape_validation(self):
        with pytest.raises(ValueError, match="factors"):
            perturb_rows(np.ones(4), [0, 1], np.array([2.0]))


class TestTrainingIntegration:
    def test_sgd_reduces_classification_loss(self, rng):
        """End-to-end: a small MLP fits a linearly separable problem."""
        x = rng.normal(size=(64, 5))
        w_true = rng.normal(size=(5,))
        y = (x @ w_true > 0).astype(int)
        model = Sequential(Linear(5, 8, rng), Linear(8, 2, rng))
        opt = SGD(model.parameters(), lr=0.5, momentum=0.9)
        first_loss = None
        for _ in range(60):
            model.zero_grad()
            logits = model(x)
            loss, dlogits = softmax_cross_entropy(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(dlogits)
            opt.step()
        assert loss < first_loss * 0.5
