"""Fused evaluation: the stacked cross-trial inference equivalence contract.

``error_rates_many`` (trial runners / FusedTrainerPool.evaluate /
StackedEvalEngine) must be *bit-identical* per trial to the serial
``client_error_rates`` on the unstacked models: same chunk plan, same
per-copy logits per dgemm, integer-exact counts, and the diverged-model
→ 1.0 convention applied per copy. The chunk-plan cache must be invariant
in the budget (same rates for any ``max_chunk_examples``), and
``NoisyEvaluator.evaluate_many`` over one config's rates repeated R times
(robust RS resampling) must reproduce the serial per-repeat loop draw for
draw.
"""

import contextlib

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig, RandomSearch
from repro.core.evaluator import TrialRunner
from repro.core.hyperband import SuccessiveHalving
from repro.core.noise import NoisyEvaluator
from repro.core.search_space import paper_space
from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.fl import FusedTrainerPool
from repro.fl.evaluation import (
    client_error_rates,
    eval_chunk_plan,
    stacked_client_error_rates,
)
from repro.nn import (
    Dropout,
    Linear,
    ReLU,
    Sequential,
    eval_stack_signature,
    make_mlp,
    resolve_dtype,
    softmax_cross_entropy,
    supports_stacking,
)
from repro.nn.module import get_flat_params
from repro.nn.stacked import StackedModel

SPACE = paper_space()


def mlp_dataset(n_train=12, n_eval=9, d=6, classes=3, n_lo=10, n_hi=24, seed=0, hidden=(8,)):
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


def shared_dropout_dataset(seed=0, d=6, classes=3):
    """Model whose two active Dropout layers share one generator: training
    refuses to stack, but inference dropout is the identity, so fused
    *evaluation* must still engage."""
    base = mlp_dataset(seed=seed, d=d, classes=classes)

    def build_model(s):
        rng = np.random.default_rng(s)
        return Sequential(
            Linear(d, 8, rng),
            Dropout(0.3, rng),
            ReLU(),
            Dropout(0.2, rng),
            Linear(8, classes, rng),
        )

    task = TaskSpec(
        kind="classification",
        build_model=build_model,
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )
    return FederatedDataset("synth-shared-dropout", task, base.train_clients, base.eval_clients)


def sample_configs(n, seed=7):
    rng = np.random.default_rng(seed)
    return [SPACE.sample(rng) for _ in range(n)]


def trained_trials(runner, n_trials, rounds=2, seed=7):
    trials = [runner.create(c) for c in sample_configs(n_trials, seed)]
    runner.advance_many([(t, rounds) for t in trials])
    return trials


class TestStackedVsSerial:
    def test_mlp_rung_bit_identical(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        trials = trained_trials(runner, 5)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        batch = runner.error_rates_many(trials)
        for ref, got in zip(reference, batch):
            assert np.array_equal(ref, got)
        # Batch results landed in the cache and serial reads agree.
        for t, ref in zip(trials, reference):
            assert np.array_equal(runner.error_rates(t), ref)

    def test_cnn_rung_bit_identical(self):
        ds = load_dataset("cifar10", "test", seed=0)
        runner = FederatedTrialRunner(ds, max_rounds=4, seed=5)
        trials = trained_trials(runner, 3, rounds=1)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(reference, runner.error_rates_many(trials)):
            assert np.array_equal(ref, got)

    def test_text_rung_bit_identical(self):
        ds = load_dataset("stackoverflow", "test", seed=0)
        runner = FederatedTrialRunner(ds, max_rounds=4, seed=5)
        trials = trained_trials(runner, 3, rounds=1)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(reference, runner.error_rates_many(trials)):
            assert np.array_equal(ref, got)

    def test_fused_runner_borrows_training_slab(self):
        """A fused rung evaluates straight from the slab it just trained:
        the eval engine allocates no slab of its own."""
        ds = mlp_dataset(n_lo=16, n_hi=16)
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3, cohort_mode="fused")
        trials = trained_trials(runner, 4)
        assert runner._fused_pool is not None  # the rung actually fused
        reference = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(reference, runner.error_rates_many(trials)):
            assert np.array_equal(ref, got)
        assert runner._eval_engine is not None
        assert len(runner._eval_engine._models) == 0  # borrowed, not allocated

    def test_shared_dropout_model_fuses_for_eval(self):
        ds = shared_dropout_dataset()
        model = ds.task.build_model(0)
        assert supports_stacking(model)  # trains on the slab too, now
        assert eval_stack_signature(model) is not None
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        trials = trained_trials(runner, 3)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(reference, runner.error_rates_many(trials)):
            assert np.array_equal(ref, got)
        # Actually went through the stacked engine (no borrowable slab here).
        assert runner._eval_engine is not None and len(runner._eval_engine._models) == 1


def _slab_overflow():
    """Writing 1e300 into a float32 slab (``REPRO_DTYPE=float32``)
    overflows to inf, which NumPy reports; a float64 slab holds it."""
    if np.dtype(resolve_dtype(None)) == np.float32:
        return pytest.warns(RuntimeWarning, match="overflow encountered in cast")
    return contextlib.nullcontext()


class TestDivergedConvention:
    def test_diverged_copy_scores_one_per_client(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        trials = trained_trials(runner, 4)
        trials[1].state.params = np.full_like(trials[1].state.params, 1e300)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        assert np.all(reference[1] == 1.0)  # serial convention sanity
        with _slab_overflow():
            batch = runner.error_rates_many(trials)
        for ref, got in zip(reference, batch):
            assert np.array_equal(ref, got)
        # The diverged copy did not contaminate its slab neighbours.
        assert not np.all(batch[0] == 1.0) or not np.all(batch[2] == 1.0)

    def test_stacked_rates_direct_nonfinite_per_copy(self):
        ds = mlp_dataset()
        models = [ds.task.build_model(s) for s in range(3)]
        stacked = StackedModel(models[0], 3)
        for i, m in enumerate(models):
            stacked.slab[i] = get_flat_params(m)
        with _slab_overflow():
            stacked.slab[2] = 1e300
        rates = stacked_client_error_rates(stacked, ds.eval_clients, ds.task)
        for i, m in enumerate(models[:2]):
            assert np.array_equal(rates[i], client_error_rates(m, ds.eval_clients, ds.task))
        assert np.all(rates[2] == 1.0)


class TestMixedArchitectures:
    def test_pool_evaluate_splits_by_signature(self):
        mlp = mlp_dataset(n_lo=16, n_hi=16)
        mlp_wide = mlp_dataset(n_lo=16, n_hi=16, hidden=(12,), seed=1)
        cifar = load_dataset("cifar10", "test", seed=0)

        def trainer(ds, seed):
            cfg = sample_configs(1, seed)[0]
            from repro.core.evaluator import config_to_trainer

            return config_to_trainer(cfg, ds, clients_per_round=4, seed=seed)

        trainers = [
            trainer(mlp, 1),
            trainer(cifar, 2),
            trainer(mlp, 3),
            trainer(mlp_wide, 4),
            trainer(cifar, 5),
        ]
        for t in trainers:
            t.run(1)
        pool = FusedTrainerPool()
        fused = pool.evaluate(trainers)
        for t, got in zip(trainers, fused):
            assert np.array_equal(t.eval_error_rates(), got)


class TestChunkPlanCache:
    def test_rates_invariant_in_chunk_budget(self):
        ds = mlp_dataset()
        model = ds.task.build_model(0)
        reference = client_error_rates(model, ds.eval_clients, ds.task, max_chunk_examples=4096)
        for budget in (1, 17, 64, 10_000):
            assert np.array_equal(
                client_error_rates(model, ds.eval_clients, ds.task, max_chunk_examples=budget),
                reference,
            )
        stacked = StackedModel(model, 2)
        stacked.slab[:] = get_flat_params(model)
        for budget in (1, 17, 64, 10_000):
            rates = stacked_client_error_rates(
                stacked, ds.eval_clients, ds.task, max_chunk_examples=budget
            )
            assert np.array_equal(rates[0], reference)
            assert np.array_equal(rates[1], reference)

    def test_plan_cached_per_pool_and_budget(self):
        ds = mlp_dataset()
        a = eval_chunk_plan(ds.eval_clients, 4096)
        assert eval_chunk_plan(ds.eval_clients, 4096) is a
        assert eval_chunk_plan(ds.eval_clients, 64) is not a
        assert eval_chunk_plan(list(ds.eval_clients), 4096) is a  # identity of clients, not list
        total = sum(len(c.clients) for c in a.chunks)
        assert total == len(ds.eval_clients)
        for chunk in a.chunks:
            if len(chunk.clients) > 1:
                assert not chunk.x.flags.writeable


class TestRunnerCachesAndRetire:
    def test_eval_weights_cached_and_read_only(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        w = runner.eval_weights("weighted")
        assert runner.eval_weights("weighted") is w
        assert not w.flags.writeable
        assert np.array_equal(w, ds.eval_weights("weighted"))
        assert runner.eval_weights("uniform") is runner.eval_weights("uniform")

    def test_retire_evicts_rates_and_rereads_work(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        (trial,) = trained_trials(runner, 1)
        rates = runner.error_rates(trial)
        assert trial.trial_id in runner._rates_cache
        runner.retire(trial)
        assert trial.trial_id not in runner._rates_cache
        assert np.array_equal(runner.error_rates(trial), rates)

    def test_advance_drops_stale_cache_entry(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        (trial,) = trained_trials(runner, 1)
        runner.error_rates(trial)
        runner.advance(trial, 1)
        assert trial.trial_id not in runner._rates_cache

    def test_tuner_run_retires_all_but_incumbent(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=6, seed=3)
        rs = RandomSearch(
            SPACE, runner, NoiseConfig(subsample=3), n_configs=5, total_budget=30, seed=1
        )
        result = rs.run()
        assert set(runner._rates_cache) <= {result.best_trial_id}

    def test_sha_rung_losers_are_retired(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=9, seed=3)
        sha = SuccessiveHalving(
            SPACE, runner, NoiseConfig(subsample=3), n_configs=4, r0=1,
            total_budget=60, seed=1,
        )
        sha.run()
        # Everything but (at most) the protected incumbent was released.
        assert len(runner._rates_cache) <= 1


class TestTunerBatchEquivalence:
    def test_sha_observations_match_serial_evaluation(self):
        """Same tuner, same seed: a runner whose error_rates_many is forced
        to the serial base-class loop must produce bit-identical
        observations and curves to the stacked batch evaluation."""
        ds = mlp_dataset()

        def run(serial_eval):
            runner = FederatedTrialRunner(ds, max_rounds=9, seed=3)
            if serial_eval:
                runner.error_rates_many = lambda trials: TrialRunner.error_rates_many(
                    runner, trials
                )
            sha = SuccessiveHalving(
                SPACE, runner, NoiseConfig(subsample=3), n_configs=4, r0=1,
                total_budget=60, seed=1,
            )
            return sha.run()

        a, b = run(True), run(False)
        assert len(a.observations) == len(b.observations)
        for oa, ob in zip(a.observations, b.observations):
            assert oa.noisy_error == ob.noisy_error
            assert oa.exact_error == ob.exact_error
        assert [p.full_error for p in a.curve] == [p.full_error for p in b.curve]
        assert a.final_full_error == b.final_full_error


class TestEvaluateRepeated:
    """Repeated releases of one rate vector: ``evaluate_many`` over
    ``np.broadcast_to(rates, (R, n))``, as robust RS calls it."""

    WEIGHTS_SEED = 11

    def _rates_weights(self, n=40):
        rng = np.random.default_rng(self.WEIGHTS_SEED)
        return rng.uniform(0, 1, size=n), rng.uniform(1, 5, size=n)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(subsample=10),
            NoiseConfig(subsample=10, bias_b=2.0),
            NoiseConfig(subsample=10, epsilon=1.0, scheme="uniform"),
            NoiseConfig(subsample=10, bias_b=2.0, epsilon=1.0, scheme="uniform"),
            NoiseConfig(),  # full pool, no noise
        ],
    )
    def test_bit_identical_to_serial_loop(self, noise):
        rates, weights = self._rates_weights()
        serial_eval = NoisyEvaluator(weights, noise, rng=np.random.default_rng(5))
        batch_eval = NoisyEvaluator(weights, noise, rng=np.random.default_rng(5))
        n_repeats = 7
        serial = [serial_eval.evaluate(rates) for _ in range(n_repeats)]
        batched = batch_eval.evaluate_many(np.broadcast_to(rates, (n_repeats, rates.size)))
        for a, b in zip(serial, batched):
            assert a.error == b.error
            assert a.exact_subsampled_error == b.exact_subsampled_error
            assert np.array_equal(a.cohort, b.cohort)
        # The generators end in the same state: interleaving is preserved.
        assert (
            serial_eval.rng.bit_generator.state == batch_eval.rng.bit_generator.state
        )

    def test_resampled_rs_matches_serial_resampling(self):
        from repro.core.robust import ResampledRandomSearch

        ds = mlp_dataset()

        def run(patched):
            runner = FederatedTrialRunner(ds, max_rounds=6, seed=3)
            rs = ResampledRandomSearch(
                SPACE, runner, NoiseConfig(subsample=3), n_configs=3,
                n_resamples=3, total_budget=18, seed=1,
            )
            if patched:
                # Force the pre-batching per-repeat loop.
                rs._evaluate_rates = lambda rates: _serial_resample(rs, rates)
            return rs.run()

        def _serial_resample(rs, rates):
            from repro.core.noise import NoisyEvaluation

            evals = [rs.evaluator.evaluate(rates) for _ in range(rs.n_resamples)]
            agg = np.mean
            return NoisyEvaluation(
                error=float(agg([e.error for e in evals])),
                cohort=np.unique(np.concatenate([e.cohort for e in evals])),
                exact_subsampled_error=float(agg([e.exact_subsampled_error for e in evals])),
            )

        a, b = run(True), run(False)
        assert [o.noisy_error for o in a.observations] == [o.noisy_error for o in b.observations]
        assert a.final_full_error == b.final_full_error

    def test_input_validation(self):
        rates, weights = self._rates_weights()
        ev = NoisyEvaluator(weights, NoiseConfig(subsample=10), rng=0)
        with pytest.raises(ValueError):
            ev.evaluate_many(np.broadcast_to(rates, (0, rates.size)))
        with pytest.raises(ValueError):
            ev.evaluate_many(np.broadcast_to(rates[:-1], (2, rates.size - 1)))


class TestBankReevaluate:
    def test_stacked_reevaluate_matches_serial(self):
        from repro.experiments.bank import ConfigBank
        from repro.nn.module import set_flat_params

        ds = mlp_dataset()
        bank = ConfigBank.build(
            ds, SPACE, n_configs=3, max_rounds=3, store_params=True, seed=0
        )
        re = bank.reevaluate(ds)
        model = ds.task.build_model(0)
        for k in range(bank.n_configs):
            for c in range(len(bank.checkpoints)):
                set_flat_params(model, bank.params[k, c])
                assert np.array_equal(
                    re.errors[k, c], client_error_rates(model, ds.eval_clients, ds.task)
                )
