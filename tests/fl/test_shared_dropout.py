"""Shared-generator Dropout on the slab: the last serial fallback is gone.

Serial training with one generator shared across several Dropout layers
draws masks interleaved — client -> step -> layer in forward order. The
slab trainer reproduces that stream exactly by pre-drawing every mask
eagerly in the same serial visit order (``SlabTrainer._predraw_interleaved``)
and installing per-row mask streams into each ``StackedDropout``
(:meth:`~repro.nn.stacked.StackedDropout.install_masks`), with layer
feature shapes discovered by a one-shot forward probe. These tests pin
the equivalence contract: bit-identical parameters and RNG end states vs
serial with uniform client sizes, the standard ~1e-15 ragged-padding
tolerance otherwise, on standalone and pooled slabs — and that every
registered model stacks, so nothing in the repo falls back to serial
under ``--cohort-mode fused``.
"""

import warnings

import numpy as np
import pytest

from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.fl import FedAdam, FederatedTrainer, LocalTrainingConfig
from repro.fl.fused import FusedTrainerPool
from repro.nn import Sequential, make_mlp, softmax_cross_entropy
from repro.nn.layers import Dropout, Linear, ReLU
from repro.nn.stacked import StackedModel, collect_dropout_rngs, supports_stacking

RTOL, ATOL = 1e-8, 1e-11  # documented ragged-cohort tolerance (multi-round)


@pytest.fixture(autouse=True)
def _float64_reference(monkeypatch):
    """Stacked-vs-serial mask-stream equivalence is a float64-reference
    contract: an ambient REPRO_DTYPE=float32 (the CI float32 leg) must
    not move the slab off the serial path's float64."""
    from repro.nn.backend import DTYPE_ENV

    monkeypatch.delenv(DTYPE_ENV, raising=False)


def dropout_dataset(seed=0, lo=16, hi=16, n_dropouts=2):
    """Synthetic classification dataset whose model shares one dropout
    generator across ``n_dropouts`` active layers (the make_mlp idiom)."""
    rng = np.random.default_rng(seed)
    hidden = (8,) * n_dropouts if n_dropouts else (8,)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(6, 3, hidden=hidden, rng=s, dropout=0.25),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        n = int(rng.integers(lo, hi + 1))
        x = rng.normal(size=(n, 6))
        w = rng.normal(size=(6, 3))
        return ClientData(x, (x @ w).argmax(axis=1))

    return FederatedDataset(
        "synth-dropout", task, [client() for _ in range(12)], [client() for _ in range(4)]
    )


def make_trainer(ds, mode, seed=7, lr=0.1, epochs=2):
    return FederatedTrainer(
        ds,
        FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
        LocalTrainingConfig(lr=lr, momentum=0.9, batch_size=8, epochs=epochs),
        clients_per_round=5,
        seed=seed,
        cohort_mode=mode,
    )


class TestStackedVsSerial:
    def test_uniform_cohort_bit_identical(self):
        """Shared-generator masks pre-drawn in serial visit order: with no
        ragged padding the slab matches serial bit for bit."""
        ds = dropout_dataset()
        a = make_trainer(ds, "serial")
        b = make_trainer(ds, "fused")
        assert b.cohort_mode_effective == "fused"  # no fallback
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a degradation warning = failure
            a.run(3)
            b.run(3)
        assert np.array_equal(a.params, b.params)

    def test_rng_end_states_identical(self):
        """The pre-draw consumes exactly the draws serial training would:
        trainer and every dropout generator land in the same end state."""
        ds = dropout_dataset()
        a = make_trainer(ds, "serial")
        b = make_trainer(ds, "fused")
        a.run(3)
        b.run(3)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
        for ra, rb in zip(collect_dropout_rngs(a.model), collect_dropout_rngs(b.model)):
            assert ra.bit_generator.state == rb.bit_generator.state

    def test_ragged_cohort_within_tolerance(self):
        ds = dropout_dataset(lo=10, hi=25)
        a = make_trainer(ds, "serial")
        b = make_trainer(ds, "fused")
        a.run(3)
        b.run(3)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_three_shared_layers(self):
        ds = dropout_dataset(n_dropouts=3)
        a = make_trainer(ds, "serial", epochs=1)
        b = make_trainer(ds, "fused", epochs=1)
        a.run(2)
        b.run(2)
        assert np.array_equal(a.params, b.params)

    def test_fused_matches_serial(self):
        """Two shared-dropout trainers in one cross-trial slab, each
        bit-identical to its own serial run."""
        ds = dropout_dataset()
        f1 = make_trainer(ds, "fused", lr=0.1)
        f2 = make_trainer(ds, "fused", lr=0.05, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FusedTrainerPool().advance([f1, f2], [3, 3])
        s1 = make_trainer(ds, "serial", lr=0.1)
        s2 = make_trainer(ds, "serial", lr=0.05, seed=9)
        s1.run(3)
        s2.run(3)
        assert np.array_equal(f1.params, s1.params)
        assert np.array_equal(f2.params, s2.params)


class TestMaskSeams:
    def test_shape_probe_records_feature_shape(self):
        from repro.nn.stacked import StackedDropout

        shared = np.random.default_rng(0)
        model = Sequential(Linear(4, 6, rng=1), ReLU(), Dropout(0.3, shared))
        stacked = StackedModel(model, 2)
        drop = [m for m in stacked.layers if isinstance(m, StackedDropout)][0]
        drop.begin_shape_probe()
        stacked.train()
        x = np.zeros((2, 3, 4))
        out = stacked.forward(x)
        assert drop.probe_shape == (6,)
        assert np.array_equal(out[..., :4], np.zeros((2, 3, 4)))  # passthrough probe
        # Probe consumed no randomness and disarmed itself.
        assert shared.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_forward_without_plan_or_masks_raises(self):
        from repro.nn.stacked import StackedDropout

        model = Sequential(Linear(4, 4, rng=1), Dropout(0.3, np.random.default_rng(0)))
        stacked = StackedModel(model, 2)
        stacked.train()
        with pytest.raises(RuntimeError, match="begin_round"):
            stacked.forward(np.zeros((2, 3, 4)))


class TestEveryRegisteredModelStacks:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_supports_stacking(self, name):
        """No registered model falls back to serial under fused mode."""
        ds = load_dataset(name, "test", seed=0)
        assert supports_stacking(ds.task.build_model(0)), name

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_effective_mode_is_vectorized(self, name):
        """Every registered model takes the vectorized (lockstep slab)
        path under ``cohort_mode="fused"`` — none reports "serial"."""
        ds = load_dataset(name, "test", seed=0)
        t = FederatedTrainer(
            ds,
            FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
            LocalTrainingConfig(lr=0.1, momentum=0.9, batch_size=4, epochs=1),
            clients_per_round=3,
            seed=1,
            cohort_mode="fused",
        )
        assert t.cohort_mode_effective == "fused", name
