"""Behavioural tests for all tuning methods on the synthetic surface."""

import numpy as np
import pytest

from repro.core import (
    BOHB,
    TPE,
    Hyperband,
    NoiseConfig,
    RandomSearch,
    SyntheticRunner,
    bracket_specs,
    paper_space,
    sha_rungs,
)
from repro.core.hyperband import bracket_cost

SPACE = paper_space()


def run_method(cls, seed=0, noise=NoiseConfig(), max_rounds=27, budget=None, **kwargs):
    runner = SyntheticRunner(n_clients=20, max_rounds=max_rounds, heterogeneity=0.05, seed=0)
    tuner = cls(SPACE, runner, noise, total_budget=budget, seed=seed, **kwargs)
    return tuner.run()


class TestShaSchedule:
    def test_paper_shape(self):
        # Paper: R = 405, eta = 3, 5 brackets -> first bracket 81 configs @ 5.
        specs = bracket_specs(405, 3, n_brackets=5)
        assert specs[0] == (81, 5)
        assert specs[-1][1] == 405
        assert len(specs) == 5

    def test_rungs_eliminate_by_eta(self):
        rungs = sha_rungs(81, 5, 3, 405)
        ns = [n for n, _ in rungs]
        rs = [r for _, r in rungs]
        assert ns == [81, 27, 9, 3, 1]
        assert rs == [5, 15, 45, 135, 405]

    def test_rungs_stop_below_eta(self):
        rungs = sha_rungs(2, 1, 3, 100)
        assert len(rungs) == 1  # 2 // 3 == 0 -> stop after first rung

    def test_rungs_cap_at_max_rounds(self):
        rungs = sha_rungs(27, 50, 3, 100)
        assert rungs[-1][1] == 100

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sha_rungs(0, 1, 3, 10)
        with pytest.raises(ValueError):
            sha_rungs(3, 1, 1, 10)
        with pytest.raises(ValueError):
            bracket_specs(0, 3)
        with pytest.raises(ValueError):
            bracket_specs(10, 3, n_brackets=0)


class TestRandomSearch:
    def test_noiseless_finds_good_region(self):
        # The surface optimum floor is ~0.05; RS-16 should get well below
        # a random config's expected floor.
        result = run_method(RandomSearch, n_configs=16)
        assert result.final_full_error < 0.45

    def test_more_configs_no_worse_in_median(self):
        few = np.median([run_method(RandomSearch, seed=s, n_configs=2).final_full_error for s in range(10)])
        many = np.median([run_method(RandomSearch, seed=s, n_configs=16).final_full_error for s in range(10)])
        assert many <= few + 0.02

    def test_noise_degrades_selection(self):
        """The paper's core finding at unit scale: heavy DP noise makes RS
        no better than a random pick."""
        clean = np.median(
            [run_method(RandomSearch, seed=s, n_configs=16).final_full_error for s in range(8)]
        )
        noisy = np.median(
            [
                run_method(
                    RandomSearch,
                    seed=s,
                    n_configs=16,
                    noise=NoiseConfig(subsample=1, epsilon=0.5, scheme="uniform"),
                ).final_full_error
                for s in range(8)
            ]
        )
        assert noisy > clean + 0.05

    def test_config_source_override(self):
        fixed = SPACE.sample(np.random.default_rng(7))
        runner = SyntheticRunner(max_rounds=27, seed=0)
        rs = RandomSearch(
            SPACE, runner, NoiseConfig(), n_configs=4, seed=0, config_source=lambda: dict(fixed)
        )
        result = rs.run()
        assert all(o.config["server_lr"] == fixed["server_lr"] for o in result.observations)

    def test_rejects_bad_n_configs(self):
        with pytest.raises(ValueError):
            run_method(RandomSearch, n_configs=0)


class TestTPE:
    def test_beats_or_matches_rs_noiseless(self):
        """With a smooth surface and no noise, TPE should be at least
        competitive with RS in the median."""
        rs = np.median([run_method(RandomSearch, seed=s, n_configs=16).final_full_error for s in range(6)])
        tpe = np.median([run_method(TPE, seed=s, n_configs=16).final_full_error for s in range(6)])
        assert tpe <= rs + 0.05

    def test_uses_startup_then_model(self):
        runner = SyntheticRunner(max_rounds=27, seed=0)
        tuner = TPE(SPACE, runner, NoiseConfig(), n_configs=8, n_startup=4, seed=0)
        result = tuner.run()
        assert tuner.sampler.n_observations == 8

    def test_sampler_rejects_bad_gamma(self):
        from repro.core.tpe import TPESampler

        with pytest.raises(ValueError):
            TPESampler(SPACE, gamma=0.0)
        with pytest.raises(ValueError):
            TPESampler(SPACE, gamma=1.0)
        with pytest.raises(ValueError):
            TPESampler(SPACE, n_candidates=0)

    def test_sampler_suggestions_valid(self):
        from repro.core.tpe import TPESampler

        sampler = TPESampler(SPACE, n_startup=2, seed=0)
        rng = np.random.default_rng(0)
        for i in range(12):
            cfg = sampler.suggest()
            SPACE.validate(cfg)
            sampler.tell(cfg, float(rng.random()))

    def test_sampler_concentrates_on_good_region(self):
        """Feed the sampler observations where low server_lr is great and
        high is terrible; its suggestions should skew low."""
        from repro.core.tpe import TPESampler

        sampler = TPESampler(SPACE, n_startup=4, n_candidates=32, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            cfg = SPACE.sample(rng)
            score = 0.1 if cfg["server_lr"] < 1e-4 else 0.9
            sampler.tell(cfg, score)
        suggestions = [sampler.suggest()["server_lr"] for _ in range(20)]
        assert np.median(suggestions) < 1e-3


class TestHyperbandFamily:
    def test_hb_runs_all_brackets(self):
        result = run_method(Hyperband, budget=16 * 27)
        assert result.rounds_used >= 16 * 27 - 27
        assert len(result.observations) > 16  # many low-fidelity evals

    def test_hb_finds_good_config_noiseless(self):
        result = run_method(Hyperband, budget=16 * 27)
        assert result.final_full_error < 0.45

    def test_hb_planned_releases_exceeds_rs(self):
        runner = SyntheticRunner(max_rounds=27, seed=0)
        hb = Hyperband(SPACE, runner, NoiseConfig(), total_budget=16 * 27, seed=0)
        assert hb.planned_releases() > 16

    def test_hb_promotions_follow_noisy_scores(self):
        """In a noiseless run every rung promotes exactly the top n//eta."""
        runner = SyntheticRunner(max_rounds=27, heterogeneity=0.0, seed=0)
        hb = Hyperband(SPACE, runner, NoiseConfig(), total_budget=200, seed=0)
        result = hb.run()
        # Group observations by (bracket) rung structure: within the first
        # bracket, configs observed at the 2nd rung must be the best of the 1st.
        first_rung = [o for o in result.observations if o.rounds == hb._specs[0][1]]
        n0 = hb._specs[0][0]
        rung0 = first_rung[:n0]
        promoted = {o.trial_id for o in result.observations[n0 : n0 + n0 // 3]}
        best = {o.trial_id for o in sorted(rung0, key=lambda o: o.noisy_error)[: n0 // 3]}
        assert promoted == best

    def test_sha_single_bracket(self):
        # A budget of exactly the first bracket's cost runs one SHA bracket.
        runner = SyntheticRunner(n_clients=20, max_rounds=27, heterogeneity=0.05, seed=0)
        n, r0 = bracket_specs(27, 3, 5)[0]
        budget = bracket_cost(n, r0, 3, 27)
        hb = Hyperband(SPACE, runner, NoiseConfig(), total_budget=budget, seed=0)
        result = hb.run()
        assert result.best_config is not None
        assert len({o.trial_id for o in result.observations}) == n
        assert len(result.observations) == sum(k for k, _ in sha_rungs(n, r0, 3, 27))

    def test_sha_release_count(self):
        # One SHA bracket of 9 configs from r0 = 3: rungs (9,3), (3,9),
        # (1,27) -> 13 evaluations, the count Hyperband plans for it.
        assert sum(n for n, _ in sha_rungs(9, 3, 3, 27)) == 13

    def test_eta_validation(self):
        runner = SyntheticRunner(max_rounds=27, seed=0)
        with pytest.raises(ValueError):
            Hyperband(SPACE, runner, eta=1)

    def test_bohb_runs_and_fits_models(self):
        runner = SyntheticRunner(max_rounds=27, seed=0)
        bohb = BOHB(SPACE, runner, NoiseConfig(), total_budget=16 * 27, seed=0)
        result = bohb.run()
        assert result.best_config is not None
        assert len(bohb._models) >= 1
        assert any(m.n_observations > 0 for m in bohb._models.values())

    def test_bohb_noiseless_competitive_with_hb(self):
        hb = np.median([run_method(Hyperband, seed=s, budget=16 * 27).final_full_error for s in range(5)])
        bohb = np.median([run_method(BOHB, seed=s, budget=16 * 27).final_full_error for s in range(5)])
        assert bohb <= hb + 0.1


class TestNoiseHurtsEarlyStoppingMore:
    def test_hb_degrades_more_than_rs_under_dp(self):
        """Observation 6 at unit-test scale: under subsampling + DP, HB's
        many noisy releases hurt it more than RS (in the median over seeds)."""
        noise = NoiseConfig(subsample=1, epsilon=10.0, scheme="uniform")
        seeds = range(10)
        rs_clean = np.median([run_method(RandomSearch, seed=s, n_configs=16).final_full_error for s in seeds])
        hb_clean = np.median([run_method(Hyperband, seed=s, budget=16 * 27).final_full_error for s in seeds])
        rs_noisy = np.median(
            [run_method(RandomSearch, seed=s, n_configs=16, noise=noise).final_full_error for s in seeds]
        )
        hb_noisy = np.median(
            [run_method(Hyperband, seed=s, budget=16 * 27, noise=noise).final_full_error for s in seeds]
        )
        rs_drop = rs_noisy - rs_clean
        hb_drop = hb_noisy - hb_clean
        assert hb_drop > rs_drop
