"""Serial vs standalone slab cohort training: the equivalence contract.

A standalone ``FederatedTrainer(cohort_mode="fused")`` trains its cohort
on its own T=1 slab, which must be numerically equivalent to the serial
per-client loop: bit-identical when no ragged-batch padding occurs, and
allclose at float tolerance otherwise (padding changes only per-client
reduction *order*). It must also leave the shared trainer RNG in the
identical state, fall back to serial semantics exactly on divergence, and
fall back permanently for model families without stacked kernels.

Per-round tolerance for padded (ragged) cohorts: observed drift is at the
1e-15 level per round; the multi-round assertions use rtol=1e-8 /
atol=1e-11 to leave headroom for accumulation across rounds.
"""

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, GridSearch, Hyperband, NoiseConfig, RandomSearch
from repro.core.hyperband import SuccessiveHalving
from repro.core.search_space import paper_space
from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.fl import (
    COHORT_MODES,
    COHORT_VECTOR_ENV,
    FedAdam,
    FederatedTrainer,
    LocalTrainingConfig,
    SlabTrainer,
    resolve_cohort_mode,
)
from repro.nn import make_mlp, softmax_cross_entropy
from repro.nn.stacked import DTYPE_ENV

RTOL, ATOL = 1e-8, 1e-11  # documented ragged-cohort tolerance (multi-round)


@pytest.fixture(autouse=True)
def _float64_reference(monkeypatch):
    """Serial-vs-slab equivalence is a float64-reference contract: the
    serial path always computes in float64, so an ambient
    REPRO_DTYPE=float32 (the CI float32 leg) must not move the slab off
    the reference dtype. float32 coverage lives in tests/fl/test_float32.py."""
    monkeypatch.delenv(DTYPE_ENV, raising=False)


def mlp_dataset(n_train=16, n_eval=4, d=6, classes=3, n_lo=10, n_hi=24, seed=0, hidden=(8,)):
    """A small synthetic MLP classification dataset; ``n_lo == n_hi`` gives
    uniform client sizes (no padding in lockstep training)."""
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=hidden, rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        n = int(rng.integers(n_lo, n_hi + 1))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, classes))
        y = (x @ w + rng.normal(scale=0.5, size=(n, classes))).argmax(axis=1)
        return ClientData(x, y)

    return FederatedDataset(
        "synth-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
    )


def make_trainer(ds, mode, seed=7, lr=0.1, momentum=0.9, batch_size=8, epochs=1, prox_mu=0.0):
    return FederatedTrainer(
        ds,
        FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
        LocalTrainingConfig(
            lr=lr, momentum=momentum, batch_size=batch_size, epochs=epochs, prox_mu=prox_mu
        ),
        clients_per_round=5,
        seed=seed,
        cohort_mode=mode,
    )


def run_pair(ds, rounds, **kwargs):
    a = make_trainer(ds, "serial", **kwargs)
    b = make_trainer(ds, "fused", **kwargs)
    a.run(rounds)
    b.run(rounds)
    return a, b


@pytest.fixture(scope="module")
def cifar():
    return load_dataset("cifar10", "test", seed=0)


class TestResolveCohortMode:
    def test_explicit_modes(self):
        assert COHORT_MODES == ("serial", "fused")
        assert resolve_cohort_mode("serial") == "serial"
        assert resolve_cohort_mode("fused") == "fused"
        for gone in ("lockstep", "vectorized"):
            with pytest.raises(ValueError, match="fused"):
                resolve_cohort_mode(gone)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(COHORT_VECTOR_ENV, raising=False)
        assert resolve_cohort_mode(None) == "serial"
        for raw, expected in (("", "serial"), ("serial", "serial"), ("fused", "fused"), (" Fused ", "fused")):
            monkeypatch.setenv(COHORT_VECTOR_ENV, raw)
            assert resolve_cohort_mode(None) == expected

    def test_env_rejects_unknown_values(self, monkeypatch):
        """Typos must error loudly, not silently run serial (regression:
        e.g. REPRO_COHORT_VECTOR=vectorised used to degrade to serial) —
        and so must the retired "vectorized" mode and its boolean
        spellings, with a message naming the surviving slab mode."""
        for bad in ("vectorised", "lockstep", "2", "Fused mode", "vectorized", "1", "true", "on", "0", "off"):
            monkeypatch.setenv(COHORT_VECTOR_ENV, bad)
            with pytest.raises(ValueError, match="REPRO_COHORT_VECTOR.*fused"):
                resolve_cohort_mode(None)


class TestSmokeEquivalence:
    """Fast-tier 1-round slab-vs-serial smoke checks (run in CI's fast
    job on every push)."""

    def test_mlp_one_round(self):
        a, b = run_pair(mlp_dataset(), 1)
        assert b.cohort_mode_effective == "fused"
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_cnn_one_round(self, cifar):
        a, b = run_pair(cifar, 1)
        assert b.cohort_mode_effective == "fused"
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_rng_stream_identical_after_round(self, cifar):
        """Regression: lockstep pre-draws permutations in the serial draw
        order, so the shared generator ends in the identical state."""
        a, b = run_pair(cifar, 1)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
        a2, b2 = run_pair(mlp_dataset(), 3)
        assert a2._rng.bit_generator.state == b2._rng.bit_generator.state


class TestTrajectoryEquivalence:
    def test_uniform_clients_bit_identical(self):
        """No padding (uniform client sizes divisible by the batch) ->
        lockstep math is bit-identical to the serial loop."""
        ds = mlp_dataset(n_lo=16, n_hi=16)
        a, b = run_pair(ds, 4, batch_size=8)
        assert np.array_equal(a.params, b.params)

    def test_ragged_clients_allclose(self):
        ds = mlp_dataset(n_lo=10, n_hi=24, seed=3)
        a, b = run_pair(ds, 6, batch_size=8)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_cnn_multi_round_allclose(self, cifar):
        a, b = run_pair(cifar, 5)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_momentum_and_weight_decay(self):
        ds = mlp_dataset(seed=5)
        a, b = run_pair(ds, 4, momentum=0.8)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_no_momentum(self):
        ds = mlp_dataset(seed=6)
        a, b = run_pair(ds, 3, momentum=0.0)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_fedprox_proximal_term(self):
        ds = mlp_dataset(seed=7)
        a, b = run_pair(ds, 3, prox_mu=0.1)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_multi_epoch(self):
        ds = mlp_dataset(seed=8)
        a, b = run_pair(ds, 3, epochs=2)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_batch_larger_than_every_client(self):
        ds = mlp_dataset(n_lo=4, n_hi=9, seed=9)
        a, b = run_pair(ds, 3, batch_size=64)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)

    def test_resumable_equals_one_shot(self):
        ds = mlp_dataset(seed=10)
        a = make_trainer(ds, "fused")
        a.run(4)
        b = make_trainer(ds, "fused")
        b.run(2).run(2)
        assert np.array_equal(a.params, b.params)


class TestFallbacks:
    def test_divergence_falls_back_to_serial_exactly(self):
        """A non-finite client loss aborts the lockstep round; the serial
        rerun must reproduce serial semantics bit-for-bit (including the
        RNG stream and the diverged client's early stop)."""
        ds = mlp_dataset(seed=11)
        a, b = run_pair(ds, 3, lr=1e9)
        assert np.array_equal(a.params, b.params)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_text_model_trains_in_lockstep(self):
        """Stacked Embedding/LSTM kernels: text models no longer fall back."""
        ds = load_dataset("stackoverflow", "test", seed=0)
        b = make_trainer(ds, "fused", batch_size=4)
        assert b.cohort_mode_effective == "fused"
        a = make_trainer(ds, "serial", batch_size=4)
        a.run(2)
        b.run(2)
        np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_shared_dropout_rng_trains_on_the_slab(self):
        """Two active Dropout layers sharing one generator pre-draw their
        masks eagerly in serial visit order (client -> step -> layer), so
        the model trains on the slab instead of falling back to serial."""
        from repro.nn import Sequential
        from repro.nn.layers import Dropout, Linear

        shared = np.random.default_rng(0)
        model = Sequential(
            Linear(6, 8, rng=1), Dropout(0.2, rng=shared), Linear(8, 3, rng=2), Dropout(0.1, rng=shared)
        )
        ds = mlp_dataset()
        assert SlabTrainer.supports(ds.task, model)
        SlabTrainer(ds.task, model, 5)  # builds without raising

    def test_supports_accepts_text_and_image_models(self, cifar):
        ds = load_dataset("reddit", "test", seed=0)
        assert SlabTrainer.supports(ds.task, ds.task.build_model(0))
        assert SlabTrainer.supports(cifar.task, cifar.task.build_model(0))

    def test_supports_rejects_models_without_stacked_kernels(self):
        """A model family without stacked kernels is never slab-capable:
        the check is free, and building a slab for it raises."""
        from repro.nn.module import Module

        class Opaque(Module):
            def forward(self, x):
                return x

            def backward(self, grad):
                return grad

        ds = mlp_dataset()
        assert not SlabTrainer.supports(ds.task, Opaque())
        with pytest.raises(ValueError, match="stacked kernels"):
            SlabTrainer(ds.task, Opaque(), 5)

    def test_state_dict_round_trip_across_modes(self, cifar):
        """state_dict from one slab trainer resumes another: the slab
        adds no hidden mutable state."""
        a = make_trainer(cifar, "fused", seed=13)
        a.run(2)
        state = a.state_dict()
        b = make_trainer(cifar, "fused", seed=13)
        b.load_state_dict(state)
        a.run(2)
        b.run(2)
        assert np.array_equal(a.params, b.params)


class TestAggregationBuffers:
    def test_buffer_average_matches_np_average(self, rng):
        """run_round's multiply + axis-sum + divide replaces np.average;
        the arithmetic must be bit-identical."""
        updates = rng.normal(size=(10, 37))
        weights = rng.uniform(0.5, 3.0, size=10)
        weighted = np.empty_like(updates)
        avg = np.empty(37)
        np.multiply(updates, weights[:, None], out=weighted)
        np.sum(weighted, axis=0, out=avg)
        avg /= weights.sum()
        assert np.array_equal(avg, np.average(updates, axis=0, weights=weights))

    def test_rounds_do_not_alias_each_other(self):
        """Reused aggregation buffers must not leak state across rounds:
        two fresh trainers and one chained trainer agree."""
        ds = mlp_dataset(seed=14)
        a = make_trainer(ds, "serial", seed=2)
        a.run(3)
        b = make_trainer(ds, "serial", seed=2)
        b.run(1).run(1).run(1)
        assert np.array_equal(a.params, b.params)


SPACE = paper_space(batch_sizes=(4, 8, 16))


@pytest.mark.slow
class TestTunerFamilyEquivalence:
    """Serial vs slab cohort training under each tuner family. Tuner
    decisions compare per-client error *counts*, so float-tolerance
    parameter drift only rarely crosses a decision boundary; with these
    fixed seeds the full trajectories agree."""

    def run_tuner(self, dataset, tuner_cls, mode, **kwargs):
        runner = FederatedTrialRunner(dataset, max_rounds=9, seed=11, cohort_mode=mode)
        return tuner_cls(SPACE, runner, NoiseConfig(subsample=4), seed=3, **kwargs).run()

    def assert_equivalent(self, a, b):
        assert len(a.observations) == len(b.observations)
        for oa, ob in zip(a.observations, b.observations):
            assert oa.trial_id == ob.trial_id
            assert oa.config == ob.config
            assert oa.rounds == ob.rounds
            assert oa.budget_used == ob.budget_used
            assert oa.noisy_error == pytest.approx(ob.noisy_error, rel=1e-6, abs=1e-9)
        assert a.best_trial_id == b.best_trial_id
        assert a.final_full_error == pytest.approx(b.final_full_error, rel=1e-6, abs=1e-9)
        assert a.rounds_used == b.rounds_used

    def pair(self, dataset, tuner_cls, **kwargs):
        a = self.run_tuner(dataset, tuner_cls, "serial", **kwargs)
        b = self.run_tuner(dataset, tuner_cls, "fused", **kwargs)
        return a, b

    def test_random_search(self, cifar):
        self.assert_equivalent(*self.pair(cifar, RandomSearch, n_configs=4, total_budget=24))

    def test_grid_search(self, cifar):
        self.assert_equivalent(
            *self.pair(cifar, GridSearch, levels=2, max_configs=4, total_budget=24)
        )

    def test_successive_halving(self, cifar):
        self.assert_equivalent(
            *self.pair(cifar, SuccessiveHalving, n_configs=4, total_budget=36)
        )

    def test_hyperband(self, cifar):
        self.assert_equivalent(*self.pair(cifar, Hyperband, total_budget=60))

    def test_mlp_random_search(self):
        ds = mlp_dataset(n_train=12, n_eval=4, seed=15)
        self.assert_equivalent(*self.pair(ds, RandomSearch, n_configs=3, total_budget=18))
