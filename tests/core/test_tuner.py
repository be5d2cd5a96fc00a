"""Tests for tuner base machinery: budget ledger, incumbent, curves."""

import numpy as np
import pytest

from repro.core import BudgetLedger, NoiseConfig, RandomSearch, SyntheticRunner, paper_space


class TestBudgetLedger:
    def test_grants_up_to_remaining(self):
        ledger = BudgetLedger(10)
        assert ledger.grant(4) == 4
        assert ledger.grant(10) == 6
        assert ledger.exhausted
        assert ledger.grant(5) == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BudgetLedger(0)
        with pytest.raises(ValueError):
            BudgetLedger(5).grant(-1)

    def test_remaining(self):
        ledger = BudgetLedger(7)
        ledger.grant(3)
        assert ledger.remaining == 4


class TestBaseTunerMechanics:
    def make_rs(self, **kwargs):
        defaults = dict(
            space=paper_space(),
            runner=SyntheticRunner(n_clients=20, max_rounds=27, seed=0),
            noise=NoiseConfig(),
            n_configs=8,
            seed=0,
        )
        defaults.update(kwargs)
        return RandomSearch(**defaults)

    def test_budget_respected(self):
        rs = self.make_rs(total_budget=100)
        result = rs.run()
        assert result.rounds_used <= 100

    def test_default_budget_is_16x_max_rounds(self):
        rs = self.make_rs()
        assert rs.total_budget == 16 * 27

    def test_observations_recorded(self):
        result = self.make_rs().run()
        assert len(result.observations) == 8
        for obs in result.observations:
            assert 0.0 <= obs.exact_error <= 1.0
            assert obs.rounds == 27

    def test_incumbent_improves_monotonically_in_noisy_score(self):
        result = self.make_rs().run()
        noisy = [p.noisy_error for p in result.curve]
        assert all(b <= a + 1e-12 for a, b in zip(noisy, noisy[1:]))

    def test_curve_budget_monotone(self):
        result = self.make_rs().run()
        budgets = [p.budget_used for p in result.curve]
        assert budgets == sorted(budgets)
        assert budgets[-1] == result.rounds_used

    def test_best_config_matches_best_observation(self):
        result = self.make_rs().run()
        best_obs = min(result.observations, key=lambda o: o.noisy_error)
        assert result.best_trial_id == best_obs.trial_id
        assert result.best_noisy_error == pytest.approx(best_obs.noisy_error)

    def test_full_error_at_budget(self):
        result = self.make_rs().run()
        # Before any evaluation: NaN.
        assert np.isnan(result.full_error_at_budget(0))
        # At the end: last curve point.
        assert result.full_error_at_budget(10**9) == pytest.approx(result.curve[-1].full_error)

    def test_deterministic_given_seed(self):
        r1 = self.make_rs(seed=5).run()
        r2 = self.make_rs(seed=5).run()
        assert r1.best_config == r2.best_config
        assert [o.noisy_error for o in r1.observations] == [o.noisy_error for o in r2.observations]

    def test_different_seeds_explore_differently(self):
        r1 = self.make_rs(seed=1).run()
        r2 = self.make_rs(seed=2).run()
        assert r1.observations[0].config != r2.observations[0].config


class TestSyntheticRunner:
    def test_learning_curve_decreases_with_rounds(self):
        runner = SyntheticRunner(max_rounds=81, seed=0)
        space = paper_space()
        cfg = space.sample(np.random.default_rng(0))
        cfg.update(server_lr=1e-2, client_lr=1e-1)  # a converging config
        trial = runner.create(cfg)
        e0 = runner.full_error(trial)
        runner.advance(trial, 81)
        e1 = runner.full_error(trial)
        assert e1 < e0

    def test_max_rounds_cap(self):
        runner = SyntheticRunner(max_rounds=10, seed=0)
        trial = runner.create(paper_space().sample(np.random.default_rng(0)))
        assert runner.advance(trial, 25) == 10
        assert trial.rounds == 10
        assert runner.advance(trial, 5) == 0

    def test_rounds_used_accumulates(self):
        runner = SyntheticRunner(max_rounds=10, seed=0)
        space = paper_space()
        t1 = runner.create(space.sample(np.random.default_rng(0)))
        t2 = runner.create(space.sample(np.random.default_rng(1)))
        runner.advance(t1, 4)
        runner.advance(t2, 5)
        assert runner.rounds_used == 9

    def test_good_config_beats_bad_config(self):
        runner = SyntheticRunner(max_rounds=81, seed=0)
        space = paper_space()
        good = space.sample(np.random.default_rng(0))
        good.update(server_lr=1e-2, client_lr=1e-1)
        bad = dict(good, server_lr=1e-6, client_lr=1e-6)
        tg, tb = runner.create(good), runner.create(bad)
        runner.advance(tg, 81)
        runner.advance(tb, 81)
        assert runner.full_error(tg) < runner.full_error(tb)

    def test_divergent_client_lr_is_terrible(self):
        runner = SyntheticRunner(max_rounds=81, seed=0)
        cfg = paper_space().sample(np.random.default_rng(0))
        cfg.update(client_lr=0.9)
        trial = runner.create(cfg)
        runner.advance(trial, 81)
        assert runner.full_error(trial) > 0.9

    def test_heterogeneity_spreads_clients(self):
        runner = SyntheticRunner(n_clients=30, heterogeneity=0.2, seed=0)
        trial = runner.create(paper_space().sample(np.random.default_rng(0)))
        rates = runner.error_rates(trial)
        assert rates.std() > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticRunner(n_clients=0)
        with pytest.raises(ValueError):
            SyntheticRunner(heterogeneity=-1)
        with pytest.raises(ValueError):
            SyntheticRunner(max_rounds=0)
        runner = SyntheticRunner()
        with pytest.raises(ValueError):
            runner.eval_weights("nope")
