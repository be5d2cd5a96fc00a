"""Trial-fused execution: the cross-trial slab equivalence contract.

``cohort_mode="fused"`` (FusedTrainerPool, driven by
FederatedTrialRunner.advance_many) must be numerically equivalent to
advancing each trainer on its own: bit-identical when no ragged-batch
padding occurs (uniform client sizes), allclose at the documented float
tolerance otherwise, identical per-trial RNG end states, and exact serial
semantics for trials that diverge mid-round. Mixed-architecture batches
must split into per-slab groups rather than fuse incorrectly, and trials
with different local step schedules must never share a slab pass.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import repro.fl.cohort as cohort_module
import repro.fl.fused as fused_module
from repro.core import FederatedTrialRunner, Hyperband, NoiseConfig, RandomSearch
from repro.core.search_space import paper_space
from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.datasets.registry import DATASET_NAMES
from repro.fl import FedAdam, FederatedTrainer, FusedTrainerPool, LocalTrainingConfig, SlabTrainer
from repro.fl.evaluation import client_error_rates
from repro.nn import make_mlp, softmax_cross_entropy
from repro.nn.module import set_flat_params
from repro.nn.stacked import DTYPE_ENV, StackedModel, supports_stacking

RTOL, ATOL = 1e-8, 1e-11  # documented ragged-cohort tolerance (multi-round)


@pytest.fixture(autouse=True)
def _float64_reference(monkeypatch):
    """Fused-vs-serial equivalence is a float64-reference contract: an
    ambient REPRO_DTYPE=float32 (the CI float32 leg) must not move the
    slab off the serial path's float64. float32 self-consistency lives in
    tests/fl/test_float32.py."""
    monkeypatch.delenv(DTYPE_ENV, raising=False)


def mlp_dataset(n_train=16, n_eval=4, d=6, classes=3, n_lo=10, n_hi=24, seed=0, hidden=(8,)):
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


def assert_pairs_equal(serial_trainers, fused_trainers, exact):
    for a, b in zip(serial_trainers, fused_trainers):
        if exact:
            assert np.array_equal(a.params, b.params)
        else:
            np.testing.assert_allclose(b.params, a.params, rtol=RTOL, atol=ATOL)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
        assert a.rounds_completed == b.rounds_completed


class TestFusedTrainerPool:
    HPS = [
        dict(lr=0.1, momentum=0.9),
        dict(lr=0.05, momentum=0.3),
        dict(lr=0.2, momentum=0.7),
        dict(lr=0.08, momentum=0.0),
    ]

    def run_pair(self, ds, hps, rounds, **common):
        serial = [make_trainer(ds, "serial", seed=i, **h, **common) for i, h in enumerate(hps)]
        fused = [make_trainer(ds, "fused", seed=i, **h, **common) for i, h in enumerate(hps)]
        for t, r in zip(serial, rounds):
            t.run(r)
        FusedTrainerPool().advance(fused, rounds)
        return serial, fused

    def test_uniform_sizes_bit_identical(self):
        """Uniform client sizes divisible by one shared batch size: no
        padding anywhere, so the mega-slab must be bit-identical even
        with four different hyperparameter vectors in one slab."""
        ds = mlp_dataset(n_lo=16, n_hi=16)
        serial, fused = self.run_pair(ds, self.HPS, [4] * 4, batch_size=8)
        assert_pairs_equal(serial, fused, exact=True)

    def test_ragged_mixed_batch_sizes_allclose(self):
        ds = mlp_dataset(n_lo=10, n_hi=24, seed=3)
        hps = [
            dict(lr=0.1, momentum=0.9, batch_size=8),
            dict(lr=0.05, momentum=0.3, batch_size=16),
            dict(lr=0.15, momentum=0.0, batch_size=4),
        ]
        serial = [make_trainer(ds, "serial", seed=10 + i, **h) for i, h in enumerate(hps)]
        fused = [make_trainer(ds, "fused", seed=10 + i, **h) for i, h in enumerate(hps)]
        for t in serial:
            t.run(5)
        FusedTrainerPool().advance(fused, [5, 5, 5])
        assert_pairs_equal(serial, fused, exact=False)

    def test_mixed_epochs_and_prox(self):
        ds = mlp_dataset(seed=5)
        hps = [
            dict(lr=0.1, momentum=0.8, epochs=2),
            dict(lr=0.05, momentum=0.2, epochs=1, prox_mu=0.1),
            dict(lr=0.12, momentum=0.5, epochs=2, prox_mu=0.05),
        ]
        serial = [make_trainer(ds, "serial", seed=40 + i, **h) for i, h in enumerate(hps)]
        fused = [make_trainer(ds, "fused", seed=40 + i, **h) for i, h in enumerate(hps)]
        for t in serial:
            t.run(3)
        FusedTrainerPool().advance(fused, [3, 3, 3])
        assert_pairs_equal(serial, fused, exact=False)

    def test_variable_rounds_per_trial(self):
        ds = mlp_dataset(n_lo=16, n_hi=16)
        serial, fused = self.run_pair(ds, self.HPS, [2, 5, 0, 3], batch_size=8)
        assert_pairs_equal(serial, fused, exact=True)

    def test_divergent_trial_exact_serial_fallback(self):
        """One trial diverging (huge lr) must not disturb the other rows
        and must itself reproduce serial semantics bit-for-bit."""
        ds = mlp_dataset(n_lo=10, n_hi=24, seed=3)
        hps = [dict(lr=0.1, momentum=0.9), dict(lr=1e9, momentum=0.0), dict(lr=0.05, momentum=0.5)]
        serial = [make_trainer(ds, "serial", seed=20 + i, **h) for i, h in enumerate(hps)]
        fused = [make_trainer(ds, "fused", seed=20 + i, **h) for i, h in enumerate(hps)]
        for t in serial:
            t.run(3)
        FusedTrainerPool().advance(fused, [3, 3, 3])
        assert np.array_equal(serial[1].params, fused[1].params)
        assert_pairs_equal(serial, fused, exact=False)

    def test_text_models_fuse(self):
        ds = load_dataset("stackoverflow", "test", seed=0)
        serial = [make_trainer(ds, "serial", seed=60 + i, batch_size=4, lr=0.5) for i in range(2)]
        fused = [make_trainer(ds, "fused", seed=60 + i, batch_size=4, lr=0.5) for i in range(2)]
        for t in serial:
            t.run(1)
        FusedTrainerPool().advance(fused, [1, 1])
        assert_pairs_equal(serial, fused, exact=False)

    def test_state_with_retired_dropout_key_resumes(self):
        """Checkpoints written before layer Dropout was removed carry a
        ``"dropout_rngs": []`` trainer entry. Such a state still loads,
        and the restored trainer continues bit-identically."""
        ds = mlp_dataset()
        a = make_trainer(ds, "fused", seed=55)
        a.run(2)
        state = a.state_dict()
        assert "dropout_rngs" not in state
        state["dropout_rngs"] = []
        b = make_trainer(ds, "fused", seed=55)
        b.load_state_dict(state)
        a.run(2)
        b.run(2)
        assert np.array_equal(a.params, b.params)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
        assert a.rounds_completed == b.rounds_completed == 4

    def test_mixed_architectures_split_into_groups(self):
        """One advance over MLP + CNN + text trainers must group by
        architecture signature and still match serial results."""
        mlp = mlp_dataset(n_lo=16, n_hi=16)
        mlp_wide = mlp_dataset(n_lo=16, n_hi=16, hidden=(12,), seed=1)
        cifar = load_dataset("cifar10", "test", seed=0)
        spec = [
            (mlp, dict(lr=0.1, momentum=0.9)),
            (cifar, dict(lr=0.05, momentum=0.5)),
            (mlp, dict(lr=0.07, momentum=0.2)),
            (mlp_wide, dict(lr=0.09, momentum=0.6)),
            (cifar, dict(lr=0.12, momentum=0.1)),
        ]
        serial = [make_trainer(ds, "serial", seed=70 + i, **h) for i, (ds, h) in enumerate(spec)]
        fused = [make_trainer(ds, "fused", seed=70 + i, **h) for i, (ds, h) in enumerate(spec)]
        pool = FusedTrainerPool()
        for t in serial:
            t.run(2)
        pool.advance(fused, [2] * len(spec))
        assert_pairs_equal(serial, fused, exact=False)
        # One pool slab per architecture (mlp x2, cnn x2, and the lone
        # mlp_wide trainer, which trains as T=1 on its own pool slab).
        assert len(pool._slabs) == 3
        assert all(t._slab is None for t in fused)

    def test_slab_capacity_grows_across_batches(self):
        """A later, larger batch reuses the cached slab trainer, growing
        its capacity in place; results still match serial."""
        ds = mlp_dataset(n_lo=16, n_hi=16)
        pool = FusedTrainerPool()
        first_serial = [make_trainer(ds, "serial", seed=90 + i) for i in range(2)]
        first_fused = [make_trainer(ds, "fused", seed=90 + i) for i in range(2)]
        for t in first_serial:
            t.run(2)
        pool.advance(first_fused, [2, 2])
        assert_pairs_equal(first_serial, first_fused, exact=True)
        (slab,) = pool._slabs.values()
        assert slab.capacity == 10  # 2 trials x cohort 5
        second_serial = [make_trainer(ds, "serial", seed=94 + i) for i in range(5)]
        second_fused = [make_trainer(ds, "fused", seed=94 + i) for i in range(5)]
        for t in second_serial:
            t.run(2)
        pool.advance(second_fused, [2] * 5)
        assert_pairs_equal(second_serial, second_fused, exact=True)
        assert slab.capacity == 25

    def test_singleton_group_trains_on_pool_slab(self):
        ds = mlp_dataset(n_lo=16, n_hi=16)
        serial = [make_trainer(ds, "serial", seed=80)]
        fused = [make_trainer(ds, "fused", seed=80)]
        serial[0].run(3)
        pool = FusedTrainerPool()
        pool.advance(fused, [3])
        assert_pairs_equal(serial, fused, exact=True)
        (slab,) = pool._slabs.values()
        assert slab.capacity == 5  # T=1: one cohort
        assert fused[0]._slab is None  # no per-trainer slab was built

    def test_mixed_batch_sizes_never_share_a_slab_pass(self, monkeypatch):
        """A rung mixing batch sizes 8/16/32 (the paper space tunes
        batch_size) trains one slab pass per (batch_size, epochs)
        schedule — a mixed pass would pad every row to the widest batch
        and run as long as the smallest — and a singleton bucket trains
        on the pool's slab, not on a per-trainer one."""
        ds = mlp_dataset(n_lo=40, n_hi=40, seed=6)
        sizes = [8, 16, 32, 8, 16, 8]
        epochs = [1, 1, 1, 1, 2, 1]
        hps = [
            dict(lr=0.05 + 0.01 * i, momentum=0.5, batch_size=b, epochs=e)
            for i, (b, e) in enumerate(zip(sizes, epochs))
        ]
        serial = [make_trainer(ds, "serial", seed=30 + i, **h) for i, h in enumerate(hps)]
        fused = [make_trainer(ds, "fused", seed=30 + i, **h) for i, h in enumerate(hps)]
        calls = []
        train_groups = SlabTrainer.train_groups

        def spy(self, groups, outs):
            calls.append((self, [(g.batch_size, g.epochs) for g in groups]))
            return train_groups(self, groups, outs)

        monkeypatch.setattr(SlabTrainer, "train_groups", spy)
        pool = FusedTrainerPool()
        pool.advance(fused, [2] * len(hps))
        monkeypatch.undo()
        for t in serial:
            t.run(2)
        assert_pairs_equal(serial, fused, exact=True)  # uniform sizes: no padding anywhere
        (slab,) = pool._slabs.values()
        assert all(owner is slab for owner, _ in calls)
        assert all(len(set(schedules)) == 1 for _, schedules in calls)
        # Four buckets x two rounds; (8, 1) holds three trials, the
        # (32, 1), (16, 1) and (16, 2) buckets one each.
        assert sorted(len(schedules) for _, schedules in calls) == [1] * 6 + [3] * 2
        assert all(t._slab is None for t in fused)

    def test_input_validation(self):
        ds = mlp_dataset()
        pool = FusedTrainerPool()
        with pytest.raises(ValueError):
            pool.advance([make_trainer(ds, "fused")], [1, 2])
        with pytest.raises(ValueError):
            pool.advance([make_trainer(ds, "fused")], [-1])


class TestPassTiling:
    """A bucket trains in passes of whole trials within one activation
    byte budget (``repro.fl.fused.PASS_BYTES``). Tiling only regroups
    independent rows, so a one-trial-per-pass bucket ends bit-identical
    to the untiled pass and to serial ``t.run(n)``."""

    @staticmethod
    def advance_spied(monkeypatch, trainers, rounds):
        """Advance on a fresh pool; return it and the trials of each pass."""
        passes = []
        train_groups = SlabTrainer.train_groups

        def spy(self, groups, outs):
            passes.append(len(groups))
            return train_groups(self, groups, outs)

        monkeypatch.setattr(SlabTrainer, "train_groups", spy)
        pool = FusedTrainerPool()
        pool.advance(trainers, rounds)
        monkeypatch.setattr(SlabTrainer, "train_groups", train_groups)
        return pool, passes

    def test_one_trial_passes_match_untiled_and_serial(self, monkeypatch):
        ds = mlp_dataset(n_lo=16, n_hi=16)
        hps = TestFusedTrainerPool.HPS
        rounds = [3, 1, 4, 2]
        serial = [make_trainer(ds, "serial", seed=40 + i, **h) for i, h in enumerate(hps)]
        untiled = [make_trainer(ds, "fused", seed=40 + i, **h) for i, h in enumerate(hps)]
        tiled = [make_trainer(ds, "fused", seed=40 + i, **h) for i, h in enumerate(hps)]
        for t, r in zip(serial, rounds):
            t.run(r)
        _, untiled_passes = self.advance_spied(monkeypatch, untiled, rounds)
        assert untiled_passes == [4, 3, 2, 1]  # one pass; trials retire as they finish
        monkeypatch.setattr(fused_module, "PASS_BYTES", 1)
        pool, tiled_passes = self.advance_spied(monkeypatch, tiled, rounds)
        assert tiled_passes == [1] * sum(rounds)
        (slab,) = pool._slabs.values()
        assert slab.capacity == 5  # the largest pass, one cohort
        assert_pairs_equal(serial, untiled, exact=True)
        assert_pairs_equal(serial, tiled, exact=True)

    def test_passes_fill_in_bucket_order(self, monkeypatch):
        """Trials join the open pass while their estimated bytes fit, and
        an oversize trial still gets a pass of its own."""
        ds = mlp_dataset(n_lo=16, n_hi=16)
        trainers = [make_trainer(ds, "fused", seed=i) for i in range(5)]
        per_trial = 5 * 8 * fused_module.example_activation_bytes(
            StackedModel(trainers[0].model, 1), ds.train_clients[0].x[0]
        )
        monkeypatch.setattr(fused_module, "PASS_BYTES", 2 * per_trial)
        _, passes = self.advance_spied(monkeypatch, trainers, [1] * 5)
        assert passes == [2, 2, 1]
        monkeypatch.setattr(fused_module, "PASS_BYTES", per_trial - 1)
        _, passes = self.advance_spied(monkeypatch, trainers, [1] * 5)
        assert passes == [1] * 5

    @pytest.mark.parametrize("name", ["cifar10", "stackoverflow"])
    def test_paper_models_train_one_trial_per_pass(self, name, monkeypatch):
        """At the ``test`` preset's cohort of ten and its smallest batch,
        the CNN and the LSTM already train one trial per pass."""
        ds = load_dataset(name, "test", seed=0)
        trainers = [
            FederatedTrainer(
                ds,
                FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
                LocalTrainingConfig(lr=0.05, batch_size=4),
                clients_per_round=10,
                seed=i,
                cohort_mode="fused",
            )
            for i in range(3)
        ]
        pool, passes = self.advance_spied(monkeypatch, trainers, [1] * 3)
        assert passes == [1, 1, 1]
        (slab,) = pool._slabs.values()
        assert slab.capacity == 10

    def test_activation_estimate_keyed_by_example_shape(self):
        """Two text datasets with equal LSTM sizes share a slab, but their
        sequences differ in length, and so do their per-example bytes."""
        from repro.datasets.text import make_stackoverflow_like

        pool = FusedTrainerPool()
        for seq_len in (8, 16):
            ds = make_stackoverflow_like(
                n_train_clients=4, n_eval_clients=2, mean_sequences=4, seq_len=seq_len, seed=0
            )
            trainer = FederatedTrainer(
                ds,
                FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
                LocalTrainingConfig(lr=0.05, batch_size=4),
                clients_per_round=2,
                seed=0,
                cohort_mode="fused",
            )
            pool.advance([trainer], [1])
        assert len(pool._slabs) == 1
        short, long = pool._example_bytes.values()
        assert long > short

    def test_default_rung_peaks_within_twice_serial(self, cifar_test, monkeypatch):
        """A default-mode random-search run of one k=4 rung (``test``
        CIFAR10, training and evaluation) peaks no higher than twice its
        serial run under tracemalloc: the slab holds one trial's cohort,
        not the rung's (untiled, the pool peaked at three times serial)."""
        monkeypatch.delenv(cohort_module.COHORT_VECTOR_ENV, raising=False)

        def peak(mode):
            runner = FederatedTrialRunner(cifar_test, max_rounds=3, seed=1, cohort_mode=mode)
            tuner = RandomSearch(SPACE, runner, NoiseConfig(), n_configs=4, total_budget=12)
            tracemalloc.start()
            try:
                tuner.run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(None) <= 2 * peak("serial")


@pytest.fixture(scope="module")
def cifar_test():
    return load_dataset("cifar10", "test", seed=0)


SPACE = paper_space(batch_sizes=(4, 8, 16))


class TestTrialFusedRunner:
    """``FederatedTrialRunner(cohort_mode="fused")`` — the one spelling of
    the trial-fused runner — against the serial runner."""

    def run_both(self, ds, cfgs, rounds, max_rounds=9, seed=2):
        def run(runner):
            trials = [runner.create(c) for c in cfgs]
            consumed = runner.advance_many([(t, rounds) for t in trials])
            return trials, consumed

        st, sc = run(
            FederatedTrialRunner(ds, max_rounds=max_rounds, seed=seed, cohort_mode="serial")
        )
        ft, fc = run(
            FederatedTrialRunner(ds, max_rounds=max_rounds, seed=seed, cohort_mode="fused")
        )
        assert sc == fc
        return st, ft

    def test_advance_many_matches_serial_runner(self):
        ds = mlp_dataset(seed=2)
        rng = np.random.default_rng(5)
        cfgs = [SPACE.sample(rng) for _ in range(4)]
        st, ft = self.run_both(ds, cfgs, rounds=5)
        for a, b in zip(st, ft):
            np.testing.assert_allclose(b.state.params, a.state.params, rtol=RTOL, atol=ATOL)
            assert a.state._rng.bit_generator.state == b.state._rng.bit_generator.state
            assert a.rounds == b.rounds

    def test_round_cap_respected(self):
        ds = mlp_dataset(seed=2)
        rng = np.random.default_rng(6)
        cfgs = [SPACE.sample(rng) for _ in range(3)]
        st, ft = self.run_both(ds, cfgs, rounds=7, max_rounds=4)
        for a, b in zip(st, ft):
            assert a.rounds == b.rounds == 4

    def test_single_trial_advance(self):
        ds = mlp_dataset(seed=2)
        runner = FederatedTrialRunner(ds, max_rounds=9, seed=3, cohort_mode="fused")
        trial = runner.create(SPACE.sample(np.random.default_rng(7)))
        assert runner.advance(trial, 4) == 4
        serial = FederatedTrialRunner(ds, max_rounds=9, seed=3, cohort_mode="serial")
        strial = serial.create(dict(trial.config))
        serial.advance(strial, 4)
        np.testing.assert_allclose(
            trial.state.params, strial.state.params, rtol=RTOL, atol=ATOL
        )

    def test_duplicate_trial_rejected(self):
        ds = mlp_dataset(seed=2)
        runner = FederatedTrialRunner(ds, max_rounds=9, seed=3, cohort_mode="fused")
        t = runner.create(SPACE.sample(np.random.default_rng(8)))
        with pytest.raises(ValueError):
            runner.advance_many([(t, 1), (t, 1)])


@pytest.mark.slow
class TestTunerFamilyEquivalence:
    """Serial vs trial-fused execution under each tuner family (the
    acceptance contract: HB / SHA / RS / grid). Tuner decisions compare
    per-client error *counts*, so float-tolerance parameter drift only
    rarely crosses a decision boundary; with these fixed seeds the full
    trajectories agree."""

    def run_tuner(self, dataset, tuner_cls, fused, **kwargs):
        runner = FederatedTrialRunner(
            dataset, max_rounds=9, seed=11, cohort_mode="fused" if fused else "serial"
        )
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
        a = self.run_tuner(dataset, tuner_cls, fused=False, **kwargs)
        b = self.run_tuner(dataset, tuner_cls, fused=True, **kwargs)
        return a, b

    @pytest.fixture(scope="class")
    def cifar(self):
        return load_dataset("cifar10", "test", seed=0)

    def test_random_search(self, cifar):
        self.assert_equivalent(*self.pair(cifar, RandomSearch, n_configs=4, total_budget=24))

    def test_hyperband(self, cifar):
        self.assert_equivalent(*self.pair(cifar, Hyperband, total_budget=60))

    def test_mlp_random_search(self):
        ds = mlp_dataset(n_train=12, n_eval=4, seed=15)
        self.assert_equivalent(*self.pair(ds, RandomSearch, n_configs=3, total_budget=18))


class TestFusedBankBuild:
    @pytest.mark.parametrize("dataset", ["mlp", "cifar10"])
    def test_bank_matches_serial_build(self, dataset):
        from repro.experiments.bank import ConfigBank

        if dataset == "mlp":
            ds, max_rounds = mlp_dataset(seed=4), 9
        else:
            ds, max_rounds = load_dataset("cifar10", "test", seed=0), 3
        kwargs = dict(n_configs=4, max_rounds=max_rounds, seed=0, store_params=True)
        serial = ConfigBank.build(ds, SPACE, cohort_mode="serial", **kwargs)
        fused = ConfigBank.build(ds, SPACE, cohort_mode="fused", **kwargs)
        assert serial.checkpoints == fused.checkpoints
        assert serial.configs == fused.configs
        np.testing.assert_allclose(fused.errors, serial.errors, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(fused.params, serial.params, rtol=RTOL, atol=1e-8)
        # Both builds read every checkpoint in float64: bit for bit the
        # serial oracle on the build's own stored parameters.
        model = ds.task.build_model(0)
        for bank in (serial, fused):
            for k in range(bank.n_configs):
                for c in range(len(bank.checkpoints)):
                    set_flat_params(model, bank.params[k, c])
                    oracle = client_error_rates(model, ds.eval_clients, ds.task)
                    assert np.array_equal(bank.errors[k, c], oracle)


class _Sentinel(Exception):
    """Raised by a mutated slab target; no layer may catch it."""


def _raise_sentinel(*args, **kwargs):
    raise _Sentinel()


def _fused_runner_trials(ds, n=3):
    runner = FederatedTrialRunner(ds, max_rounds=4, seed=1, cohort_mode="fused")
    return runner, [runner.create(SPACE.sample(np.random.default_rng(s))) for s in range(n)]


def _standalone_run(ds):
    make_trainer(ds, "fused").run(2)


def _pool_advance(ds):
    FusedTrainerPool().advance([make_trainer(ds, "fused", seed=s) for s in (1, 2)], [2, 2])


def _runner_advance_many(ds):
    runner, trials = _fused_runner_trials(ds)
    runner.advance_many([(t, 2) for t in trials])


def _runner_error_rates_many(ds):
    runner, trials = _fused_runner_trials(ds)
    runner.error_rates_many(trials)


def _bank_build(ds):
    from repro.experiments.bank import ConfigBank

    ConfigBank.build(ds, SPACE, n_configs=3, max_rounds=3, seed=0, cohort_mode="fused")


#: Mutation target -> (owner, attribute). ``fused_sgd_step`` is patched in
#: the module namespace ``SlabTrainer.train_groups`` resolves it from.
_TARGETS = {
    "train_groups": (SlabTrainer, "train_groups"),
    "slab_init": (SlabTrainer, "__init__"),
    "fused_sgd_step": (cohort_module, "fused_sgd_step"),
    "forward_eval": (StackedModel, "forward_eval"),
}
_TRAINING_ENTRIES = [_standalone_run, _pool_advance, _runner_advance_many, _bank_build]
_MUTATIONS = [
    (target, entry)
    for target in ("train_groups", "slab_init", "fused_sgd_step")
    for entry in _TRAINING_ENTRIES
] + [("forward_eval", _runner_error_rates_many), ("forward_eval", _bank_build)]


class TestNoSilentFallback:
    """A broken slab must fail loudly. Each target is forced to raise a
    private sentinel; every fused entry point that reaches it must
    propagate that exception, with no RuntimeWarning on the way — a
    catch-all that reroutes through the serial oracle would make the
    serial-vs-fused contracts compare the oracle with itself."""

    @pytest.mark.parametrize(
        "target, entry", _MUTATIONS, ids=[f"{t}-{e.__name__[1:]}" for t, e in _MUTATIONS]
    )
    def test_mutation_propagates(self, monkeypatch, target, entry):
        ds = mlp_dataset(seed=9)
        owner, name = _TARGETS[target]
        monkeypatch.setattr(owner, name, _raise_sentinel)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(_Sentinel):
                entry(ds)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestEveryRegisteredModelStacks:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_supports_stacking(self, name):
        """Every registered model has stacked kernels, which fused mode requires."""
        ds = load_dataset(name, "test", seed=0)
        assert supports_stacking(ds.task.build_model(0)), name

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_effective_mode_is_vectorized(self, name, monkeypatch):
        """With no cohort mode set, every registered model builds fused
        (which raises for a model without stacked kernels) and trains its
        round on its own lockstep slab."""
        monkeypatch.delenv(cohort_module.COHORT_VECTOR_ENV, raising=False)
        ds = load_dataset(name, "test", seed=0)
        t = FederatedTrainer(
            ds,
            FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
            LocalTrainingConfig(lr=0.1, momentum=0.9, batch_size=4, epochs=1),
            clients_per_round=3,
            seed=1,
        )
        assert t.cohort_mode == "fused", name
        t.run(1)
        assert t._slab is not None, name
        assert t.rounds_completed == 1
