"""Fused evaluation: the stacked cross-trial inference equivalence contract.

Every production read — trial runners' ``error_rates``/``error_rates_many``,
``FusedTrainerPool.evaluate``, bank builds — scores through
``StackedEvalEngine`` and must be *bit-identical* per trial (in float64)
to the serial oracle ``client_error_rates`` on the unstacked models: same chunk plan, same
per-copy logits per dgemm, integer-exact counts, and the diverged-model
→ 1.0 convention applied per copy. The chunk-plan cache must be invariant
in the budget (same rates for any ``max_chunk_examples``), and
``NoisyEvaluator.evaluate_many`` over one config's rates repeated R times
must reproduce the serial per-repeat loop draw for draw — and robust RS,
which draws its R releases first and scores the union of their cohorts,
must reproduce that.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig, RandomSearch
from repro.core.evaluator import TrialRunner
from repro.core.hyperband import Hyperband
from repro.core.noise import NoisyEvaluator
from repro.core.population import WeightSharingTuner
from repro.core.tuner import BaseTuner
from repro.core.search_space import paper_space
from repro.core.tpe import TPE
from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.fl import FusedTrainerPool
from repro.fl.evaluation import (
    StackedEvalEngine,
    client_error_rates,
    eval_chunk_plan,
    stacked_client_error_rates,
)
from repro.nn import (
    make_mlp,
    resolve_dtype,
    softmax_cross_entropy,
    stack_signature,
    supports_stacking,
)
from repro.nn.module import get_flat_params, set_flat_params
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
        # Single-trial reads take the same engine and agree.
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

    @pytest.mark.parametrize("mode", ["serial", "fused"])
    @pytest.mark.parametrize("name", ["cifar10", "stackoverflow"])
    def test_single_trial_read_bit_identical(self, name, mode):
        """A k=1 read, on the CNN and the LSTM in both cohort modes,
        equals the serial oracle bit for bit."""
        ds = load_dataset(name, "test", seed=0)
        runner = FederatedTrialRunner(
            ds, max_rounds=4, seed=5, cohort_mode=mode, cohort_dtype="float64"
        )
        (trial,) = trained_trials(runner, 1, rounds=1)
        model = trial.state.model
        set_flat_params(model, trial.state.params)
        reference = client_error_rates(model, ds.eval_clients, ds.task)
        assert np.array_equal(runner.error_rates(trial), reference)
        assert len(runner._eval_engine._models) == 1  # scored by the engine

    def test_serial_runner_evaluates_on_its_own_slab(self):
        """The eval engine stacks a serial rung's trials on a slab of its
        own."""
        ds = mlp_dataset()
        model = ds.task.build_model(0)
        assert supports_stacking(model)
        assert stack_signature(model) is not None
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        trials = trained_trials(runner, 3)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        for ref, got in zip(reference, runner.error_rates_many(trials)):
            assert np.array_equal(ref, got)
        # Actually went through the stacked engine.
        assert runner._eval_engine is not None and len(runner._eval_engine._models) == 1


def _slab_overflow(dtype=None):
    """Writing 1e300 into a float32 slab (``dtype``, default
    ``REPRO_DTYPE``) overflows to inf, which NumPy reports; a float64
    slab holds it."""
    if np.dtype(resolve_dtype(dtype)) == np.float32:
        return pytest.warns(RuntimeWarning, match="overflow encountered in cast")
    return contextlib.nullcontext()


class TestDivergedConvention:
    def test_diverged_copy_scores_one_per_client(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3, cohort_mode="serial")
        trials = trained_trials(runner, 4)
        trials[1].state.params = np.full_like(trials[1].state.params, 1e300)
        reference = [t.state.eval_error_rates().copy() for t in trials]
        assert np.all(reference[1] == 1.0)  # serial convention sanity
        with _slab_overflow("float64"):  # serial-mode runners read in float64
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

    def test_custom_error_fn_raises_on_stacked_path(self):
        """A task whose error function has no stacked counter is rejected,
        not scored copy by copy; the serial path still scores it."""
        ds = mlp_dataset()

        def top1_error(logits, y):
            return classification_error(logits, y)

        task = TaskSpec(
            kind="classification",
            build_model=ds.task.build_model,
            loss_fn=ds.task.loss_fn,
            error_fn=top1_error,
        )
        model = task.build_model(0)
        stacked = StackedModel(model, 2)
        stacked.slab[:] = get_flat_params(model)
        with pytest.raises(ValueError, match="top1_error"):
            stacked_client_error_rates(stacked, ds.eval_clients, task)
        assert np.array_equal(
            client_error_rates(model, ds.eval_clients, task),
            client_error_rates(model, ds.eval_clients, ds.task),
        )


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
        total = sum(len(c.sizes) for c in a.chunks)
        assert total == len(ds.eval_clients)
        for chunk in a.chunks:
            if len(chunk.sizes) > 1:
                assert not chunk.x.flags.writeable


    def test_plan_dies_with_its_pool(self):
        # A cached plan holds no reference to its clients: once the dataset
        # is dropped, its clients die and their plan leaves the cache.
        from repro.fl import evaluation

        ds = mlp_dataset(seed=21)
        model = ds.task.build_model(0)
        StackedEvalEngine().error_rates_many(
            model, [get_flat_params(model)], ds.eval_clients, ds.task
        )
        plan = weakref.ref(eval_chunk_plan(ds.eval_clients))
        client = weakref.ref(ds.eval_clients[0])
        ids = {id(c) for c in ds.eval_clients}
        del ds
        gc.collect()
        assert client() is None
        assert plan() is None
        assert not any(ids & set(key[1:]) for key in evaluation._PLAN_CACHE)

    def test_dead_plan_freed_without_gc(self):
        # Eviction and freeing are plain reference counting: no cycle
        # through the plan is left for the cyclic collector, whether the
        # plan leaves the cache with its clients or before them.
        from repro.fl import evaluation

        clients = [ClientData(c.x, c.y) for c in mlp_dataset(seed=22).eval_clients]
        gc.disable()
        try:
            plan = weakref.ref(eval_chunk_plan(clients))
            del clients
            assert plan() is None

            clients = [ClientData(c.x, c.y) for c in mlp_dataset(seed=23).eval_clients]
            plan = weakref.ref(eval_chunk_plan(clients))
            evaluation._PLAN_CACHE.clear()
            assert plan() is None
            assert eval_chunk_plan(clients) is eval_chunk_plan(list(clients))
        finally:
            gc.enable()


class TestRunnerEvalWeights:
    def test_eval_weights_cached_and_read_only(self):
        ds = mlp_dataset()
        runner = FederatedTrialRunner(ds, max_rounds=10, seed=3)
        w = runner.eval_weights("weighted")
        assert runner.eval_weights("weighted") is w
        assert not w.flags.writeable
        assert np.array_equal(w, ds.eval_weights("weighted"))
        assert runner.eval_weights("uniform") is runner.eval_weights("uniform")

class TestScoringCount:
    """No cache and no rescoring: a tuning run scores each observation on
    the clients of its cohort only, and reads the whole pool only when the
    incumbent's full-error memo misses. So the (model, client) cells it
    scores are exactly the sum of its cohort sizes plus the pool size per
    memo miss, and the final report is the last curve point."""

    POOL, COHORT = 9, 3

    @staticmethod
    def count_cells(monkeypatch):
        """Record ``(rows, clients)`` of every engine read."""
        reads = []
        many = StackedEvalEngine.error_rates_many

        def counting(self, template, params_rows, clients, *args, **kwargs):
            reads.append((len(params_rows), len(clients)))
            return many(self, template, params_rows, clients, *args, **kwargs)

        monkeypatch.setattr(StackedEvalEngine, "error_rates_many", counting)
        return reads

    @staticmethod
    def count_memo_misses(monkeypatch):
        """Record the ``(trial_id, rounds)`` key of every incumbent
        full-error lookup; the memo misses when the key changes."""
        keys = []
        full_error = BaseTuner._incumbent_full_error

        def recording(self, in_hand):
            keys.append((self._incumbent.trial_id, self._incumbent.rounds))
            return full_error(self, in_hand)

        monkeypatch.setattr(BaseTuner, "_incumbent_full_error", recording)
        return keys

    @pytest.mark.parametrize("mode", ["serial", "fused"])
    @pytest.mark.parametrize("method", ["rs", "hb", "tpe", "fedex"])
    def test_one_row_per_observed_state(self, monkeypatch, method, mode):
        """One cohort row per observation, one pool row per memo miss."""
        reads = self.count_cells(monkeypatch)
        keys = self.count_memo_misses(monkeypatch)
        ds = mlp_dataset()
        assert len(ds.eval_clients) == self.POOL
        runner = FederatedTrialRunner(ds, max_rounds=9, seed=3, cohort_mode=mode)
        noise = NoiseConfig(subsample=self.COHORT)
        if method == "rs":
            tuner = RandomSearch(SPACE, runner, noise, n_configs=5, total_budget=30, seed=1)
        elif method == "hb":
            # The final rung is cut short by the budget.
            tuner = Hyperband(SPACE, runner, noise, total_budget=60, seed=1)
        elif method == "tpe":
            tuner = TPE(SPACE, runner, noise, n_configs=6, total_budget=36, seed=1)
        else:
            # The last step is truncated: only a prefix of the arms trains,
            # and the incumbent is an arm whose weights the last
            # weight-sharing step rewrote after its observation.
            tuner = WeightSharingTuner(
                SPACE, runner, noise, population_size=4, total_budget=35, seed=3
            )
        result = tuner.run()
        misses = sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])
        cells = sum(rows * clients for rows, clients in reads)
        assert cells == self.COHORT * len(result.observations) + self.POOL * misses
        # Every full-pool read is one incumbent's curve point.
        assert sorted({clients for _, clients in reads}) == [self.COHORT, self.POOL]
        assert [rows for rows, clients in reads if clients == self.POOL] == [1] * misses
        assert result.final_full_error == result.curve[-1].full_error
        observed = [(o.trial_id, o.rounds) for o in result.observations]
        # FedEx's truncated last step hands one arm a zero-round grant and
        # observes it again at an unchanged round count.
        if method != "fedex":
            assert len(set(observed)) == len(observed)

    def test_two_stage_rescores_one_cohort_per_finalist(self, monkeypatch):
        """Stage 2 of two-stage RS re-evaluates each finalist on a fresh
        cohort, not on the whole pool."""
        from repro.core.robust import TwoStageRandomSearch

        reads = self.count_cells(monkeypatch)
        keys = self.count_memo_misses(monkeypatch)
        runner = FederatedTrialRunner(mlp_dataset(), max_rounds=6, seed=3)
        tuner = TwoStageRandomSearch(
            SPACE, runner, NoiseConfig(subsample=self.COHORT), n_configs=6,
            n_finalists=3, total_budget=36, seed=1,
        )
        result = tuner.run()
        assert len(result.observations) == 6 + 3
        misses = sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])
        cells = sum(rows * clients for rows, clients in reads)
        assert cells == self.COHORT * (6 + 3) + self.POOL * misses
        assert [clients for _, clients in reads].count(self.POOL) == misses


class TestTunerBatchEquivalence:
    def test_sha_observations_match_serial_evaluation(self):
        """Same tuner, same seed: a runner whose error_rates_many is forced
        to the serial base-class loop must produce bit-identical
        observations and curves to the stacked batch evaluation."""
        ds = mlp_dataset()

        def run(serial_eval):
            runner = FederatedTrialRunner(ds, max_rounds=9, seed=3)
            if serial_eval:
                runner.error_rates_many = lambda trials, clients=None: (
                    TrialRunner.error_rates_many(runner, trials, clients)
                )
            hb = Hyperband(SPACE, runner, NoiseConfig(subsample=3), total_budget=60, seed=1)
            return hb.run()

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

    def test_resampled_rs_matches_serial_resampling(self, monkeypatch):
        """Resampled RS draws its m releases of a trial back to back and
        scores them on the union of their cohorts; that must equal
        ``evaluate_many`` over the trial's full-pool rates repeated m
        times, for uniform, DP and biased cohorts."""
        from repro.core.noise import NoisyEvaluation
        from repro.core.robust import ResampledRandomSearch

        ds = mlp_dataset()
        reads = []
        many = StackedEvalEngine.error_rates_many

        def counting(self, template, params_rows, clients, *args, **kwargs):
            reads.append(len(clients))
            return many(self, template, params_rows, clients, *args, **kwargs)

        monkeypatch.setattr(StackedEvalEngine, "error_rates_many", counting)

        def full_pool_resample(rs, trials):
            rows = rs.runner.error_rates_many(trials)
            released = []
            for rates in rows:
                evals = rs.evaluator.evaluate_many(
                    np.broadcast_to(rates, (rs.n_resamples, rates.size))
                )
                released.append(
                    NoisyEvaluation(
                        error=float(np.mean([e.error for e in evals])),
                        cohort=np.unique(np.concatenate([e.cohort for e in evals])),
                        exact_subsampled_error=float(
                            np.mean([e.exact_subsampled_error for e in evals])
                        ),
                    )
                )
            return released, {t.trial_id: row for t, row in zip(trials, rows)}

        def run(noise, reference):
            runner = FederatedTrialRunner(ds, max_rounds=6, seed=3)
            rs = ResampledRandomSearch(
                SPACE, runner, noise, n_configs=3, n_resamples=3, total_budget=18, seed=1,
            )
            if reference:
                rs._release_many = lambda trials: full_pool_resample(rs, trials)
            return rs, rs.run()

        for noise in (
            NoiseConfig(subsample=3),
            NoiseConfig(subsample=3, epsilon=1.0, scheme="uniform"),
            NoiseConfig(subsample=3, bias_b=2.0),
        ):
            reads.clear()
            rs, a = run(noise, reference=False)
            # Uniform draws read cohort unions (plus the pool for incumbent
            # curve points); the biased sampler reads the pool to draw.
            assert (min(reads) < len(ds.eval_clients)) == (noise.bias_b == 0)
            ref, b = run(noise, reference=True)
            assert a.observations == b.observations
            assert a.curve == b.curve
            assert a.final_full_error == b.final_full_error
            assert rs.rng.bit_generator.state == ref.rng.bit_generator.state

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
