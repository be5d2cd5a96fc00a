"""Tests for the configuration bank and its trial runner."""

import numpy as np
import pytest

from repro.core import NoiseConfig, RandomSearch, paper_space
from repro.datasets import load_dataset
from repro.experiments import (
    BANK_ID_KEY,
    BankTrialRunner,
    ConfigBank,
    bank_config_source,
    bootstrap_rs_curves,
    bootstrap_rs_final_errors,
    checkpoint_schedule,
)
from repro.utils.rng import RngFactory

SPACE = paper_space(batch_sizes=(4, 8, 16))


@pytest.fixture(scope="module")
def small_bank():
    ds = load_dataset("cifar10", "test", seed=0)
    return ConfigBank.build(ds, SPACE, n_configs=6, max_rounds=9, seed=0, store_params=True)


class TestCheckpointSchedule:
    def test_eta_spacing(self):
        assert checkpoint_schedule(405, 3) == [0, 1, 5, 15, 45, 135, 405]
        assert checkpoint_schedule(9, 3) == [0, 1, 3, 9]

    def test_small_max(self):
        assert checkpoint_schedule(1, 3) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0, 3)
        with pytest.raises(ValueError):
            checkpoint_schedule(9, 1)


class TestConfigBankBuild:
    def test_shapes(self, small_bank):
        assert small_bank.errors.shape == (6, 4, 10)  # 6 cfgs, ckpts {0,1,3,9}, 10 clients
        assert small_bank.params.shape[0:2] == (6, 4)
        assert small_bank.n_configs == 6
        assert small_bank.max_rounds == 9

    def test_bank_ids_attached(self, small_bank):
        for i, cfg in enumerate(small_bank.configs):
            assert cfg[BANK_ID_KEY] == i

    def test_checkpoint_zero_is_untrained(self, small_bank):
        # At 0 rounds all configs share high (near-random) error.
        zero_errors = small_bank.errors[:, 0, :].mean(axis=1)
        assert np.all(zero_errors > 0.5)

    def test_errors_in_unit_interval(self, small_bank):
        assert np.all((small_bank.errors >= 0) & (small_bank.errors <= 1))

    def test_deterministic(self):
        ds = load_dataset("cifar10", "test", seed=0)
        b1 = ConfigBank.build(ds, SPACE, n_configs=3, max_rounds=3, seed=5)
        b2 = ConfigBank.build(ds, SPACE, n_configs=3, max_rounds=3, seed=5)
        assert np.array_equal(b1.errors, b2.errors)

    def test_explicit_configs_shared(self):
        ds = load_dataset("cifar10", "test", seed=0)
        rng = np.random.default_rng(0)
        configs = [SPACE.sample(rng) for _ in range(3)]
        bank = ConfigBank.build(ds, SPACE, n_configs=3, max_rounds=3, seed=0, configs=configs)
        for i, cfg in enumerate(bank.configs):
            assert cfg["server_lr"] == configs[i]["server_lr"]

    def test_explicit_configs_wrong_count(self):
        ds = load_dataset("cifar10", "test", seed=0)
        with pytest.raises(ValueError):
            ConfigBank.build(ds, SPACE, n_configs=4, max_rounds=3, configs=[SPACE.sample(0)])

    def test_bad_checkpoints_rejected(self):
        ds = load_dataset("cifar10", "test", seed=0)
        with pytest.raises(ValueError):
            ConfigBank.build(ds, SPACE, n_configs=2, max_rounds=9, checkpoints=[1, 9])


class TestConfigBankAccessors:
    def test_checkpoint_index(self, small_bank):
        # checkpoints [0, 1, 3, 9]
        assert small_bank.checkpoint_index(0) == 0
        assert small_bank.checkpoint_index(2) == 1
        assert small_bank.checkpoint_index(3) == 2
        assert small_bank.checkpoint_index(100) == 3
        with pytest.raises(ValueError):
            small_bank.checkpoint_index(-1)

    def test_full_errors_weighting(self, small_bank):
        weighted = small_bank.full_errors("weighted")
        uniform = small_bank.full_errors("uniform")
        assert weighted.shape == uniform.shape == (6,)
        manual = small_bank.errors[:, -1, :].mean(axis=1)
        assert np.allclose(uniform, manual)

    def test_best_full_error(self, small_bank):
        assert small_bank.best_full_error() == pytest.approx(small_bank.full_errors().min())

    def test_min_client_errors(self, small_bank):
        mins = small_bank.min_client_errors()
        # Minimum client error never exceeds any weighted average.
        assert np.all(mins <= small_bank.full_errors("uniform") + 1e-12)

    def test_unknown_scheme(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.weights("exotic")

    def test_save_load_roundtrip(self, small_bank, tmp_path):
        path = str(tmp_path / "bank.npz")
        small_bank.save(path)
        loaded = ConfigBank.load(path)
        assert np.array_equal(loaded.errors, small_bank.errors)
        assert loaded.checkpoints == small_bank.checkpoints
        assert loaded.configs[2]["server_lr"] == small_bank.configs[2]["server_lr"]
        assert np.array_equal(loaded.params, small_bank.params)

    def test_reevaluate_same_pool_matches(self, small_bank):
        ds = load_dataset("cifar10", "test", seed=0)
        re_bank = small_bank.reevaluate(ds)
        assert np.allclose(re_bank.errors, small_bank.errors)

    def test_reevaluate_requires_params(self):
        ds = load_dataset("cifar10", "test", seed=0)
        bank = ConfigBank.build(ds, SPACE, n_configs=2, max_rounds=3, seed=0)
        with pytest.raises(ValueError):
            bank.reevaluate(ds)


class TestBankTrialRunner:
    def test_requires_bank_id(self, small_bank):
        runner = BankTrialRunner(small_bank)
        with pytest.raises(ValueError):
            runner.create(SPACE.sample(np.random.default_rng(0)))

    def test_lookup_matches_bank(self, small_bank):
        runner = BankTrialRunner(small_bank)
        trial = runner.create(dict(small_bank.configs[2]))
        runner.advance(trial, 3)
        assert np.array_equal(runner.error_rates(trial), small_bank.errors[2, 2])

    def test_rounds_between_checkpoints_floor(self, small_bank):
        runner = BankTrialRunner(small_bank)
        trial = runner.create(dict(small_bank.configs[0]))
        runner.advance(trial, 2)  # between checkpoints 1 and 3 -> floor to 1
        assert np.array_equal(runner.error_rates(trial), small_bank.errors[0, 1])

    def test_max_rounds_validation(self, small_bank):
        with pytest.raises(ValueError):
            BankTrialRunner(small_bank, max_rounds=100)

    def test_full_error_matches_weights(self, small_bank):
        runner = BankTrialRunner(small_bank)
        trial = runner.create(dict(small_bank.configs[1]))
        runner.advance(trial, 9)
        w = small_bank.weights("weighted")
        expected = float(small_bank.errors[1, -1] @ (w / w.sum()))
        assert runner.full_error(trial) == pytest.approx(expected)

    def test_error_rates_view_is_read_only(self, small_bank):
        """Regression: the runner returns a view into the bank's error
        tensor; a writeable view would let callers corrupt the bank."""
        runner = BankTrialRunner(small_bank)
        trial = runner.create(dict(small_bank.configs[2]))
        runner.advance(trial, 9)
        rates = runner.error_rates(trial)
        original = small_bank.errors[2, -1].copy()
        with pytest.raises((ValueError, RuntimeError)):
            rates += 1.0
        assert np.array_equal(small_bank.errors[2, -1], original)

    def test_config_source_bootstraps_with_replacement(self, small_bank):
        rng = np.random.default_rng(0)
        source = bank_config_source(small_bank, rng)
        ids = [source()[BANK_ID_KEY] for _ in range(50)]
        assert len(set(ids)) <= small_bank.n_configs
        assert len(ids) != len(set(ids))  # duplicates => with replacement

    def test_noiseless_rs_picks_insample_best(self, small_bank):
        rng = np.random.default_rng(3)
        runner = BankTrialRunner(small_bank)
        rs = RandomSearch(
            SPACE,
            runner,
            NoiseConfig(),
            n_configs=6,
            total_budget=6 * 9,
            seed=0,
            config_source=bank_config_source(small_bank, rng),
        )
        result = rs.run()
        sampled_ids = {o.config[BANK_ID_KEY] for o in result.observations}
        best_sampled = min(sampled_ids, key=lambda i: small_bank.full_errors()[i])
        assert result.best_config[BANK_ID_KEY] == best_sampled


def tuner_bootstrap(bank, noise, n_trials, k, seed):
    """Reference replay: one RandomSearch over a BankTrialRunner per trial,
    drawing configs through bank_config_source (the loop the bootstrap
    functions replace, kept verbatim as their oracle)."""
    rngs = RngFactory(seed)
    errors = np.empty(n_trials)
    curves = np.full((n_trials, k), np.nan)
    for t in range(n_trials):
        fac = rngs.child(f"trial-{t}")
        runner = BankTrialRunner(bank)
        rs = RandomSearch(
            SPACE,
            runner,
            noise,
            n_configs=k,
            total_budget=k * bank.max_rounds,
            seed=fac.make("eval"),
            config_source=bank_config_source(bank, fac.make("configs")),
        )
        result = rs.run()
        errors[t] = result.final_full_error
        for i, point in enumerate(result.curve[:k]):
            curves[t, i] = point.full_error
    return errors, curves


def synthetic_bank(n_configs=5, n_clients=10, tied=False, seed=0):
    """A bank straight from an error tensor (no training): ``tied`` rates
    take values in {0, 0.5, 1}, so noisy errors tie across configs whose
    full errors differ, which exercises first-strictly-best selection."""
    rng = np.random.default_rng(seed)
    shape = (n_configs, 3, n_clients)
    errors = rng.integers(0, 3, size=shape) / 2.0 if tied else rng.uniform(0, 1, size=shape)
    return ConfigBank(
        dataset_name="synthetic",
        configs=[{BANK_ID_KEY: i} for i in range(n_configs)],
        checkpoints=[0, 3, 9],
        errors=errors,
        weights_weighted=rng.integers(1, 40, size=n_clients).astype(np.float64),
        weights_uniform=np.ones(n_clients),
    )


N_CLIENTS = 10


class TestBootstrapReplay:
    """bootstrap_rs_final_errors / bootstrap_rs_curves are bit-identical to
    the per-trial tuner loop (tuner_bootstrap) on every noise family."""

    N_TRIALS = 12

    def _check(self, bank, noise, k=16, seed=3):
        ref_errors, ref_curves = tuner_bootstrap(bank, noise, self.N_TRIALS, k, seed)
        errors = bootstrap_rs_final_errors(bank, noise, self.N_TRIALS, k=k, seed=seed)
        curves = bootstrap_rs_curves(bank, noise, self.N_TRIALS, k=k, seed=seed)
        assert np.array_equal(errors, ref_errors)
        assert np.array_equal(curves, ref_curves)
        assert errors.shape == (self.N_TRIALS,) and curves.shape == (self.N_TRIALS, k)

    @pytest.mark.parametrize("scheme", ["weighted", "uniform"])
    @pytest.mark.parametrize("count", [1, 3, N_CLIENTS - 1, None])
    def test_uniform_subsampling(self, count, scheme):
        self._check(synthetic_bank(), NoiseConfig(subsample=count, scheme=scheme))

    @pytest.mark.parametrize("count", [1, None])
    @pytest.mark.parametrize("b", [1.0, 1.5, 3.0])
    def test_biased(self, b, count):
        self._check(synthetic_bank(), NoiseConfig(subsample=count, bias_b=b))

    @pytest.mark.parametrize("count", [1, None])
    @pytest.mark.parametrize("epsilon", [0.1, 10.0])
    def test_private(self, epsilon, count):
        noise = NoiseConfig(subsample=count, epsilon=epsilon, scheme="uniform")
        self._check(synthetic_bank(), noise)

    @pytest.mark.parametrize("k", [1, 8, 16])
    def test_k(self, k):
        self._check(synthetic_bank(), NoiseConfig(subsample=2, bias_b=1.5), k=k)

    @pytest.mark.parametrize("noise", [NoiseConfig(), NoiseConfig(subsample=1)])
    def test_single_config_bank(self, noise):
        self._check(synthetic_bank(n_configs=1), noise)

    @pytest.mark.parametrize("b", [0.0, 3.0])
    @pytest.mark.parametrize("count", [1, 2])
    def test_tied_rates(self, count, b):
        self._check(synthetic_bank(tied=True), NoiseConfig(subsample=count, bias_b=b))

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(subsample=2),
            NoiseConfig(subsample=2, bias_b=3.0),
            NoiseConfig(subsample=2, epsilon=1.0, scheme="uniform"),
        ],
    )
    def test_trained_bank(self, small_bank, noise):
        self._check(small_bank, noise, seed=0)

    def test_rejects_empty_k(self):
        with pytest.raises(ValueError):
            bootstrap_rs_final_errors(synthetic_bank(), NoiseConfig(), 2, k=0)
