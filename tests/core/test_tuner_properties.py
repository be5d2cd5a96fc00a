"""Property-based tests: budget invariants hold for every tuner shape."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Hyperband,
    NoiseConfig,
    RandomSearch,
    SyntheticRunner,
    paper_space,
)
from repro.core.hyperband import bracket_cost, bracket_specs

SPACE = paper_space()


class TestBudgetInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        n_configs=st.integers(1, 12),
        max_rounds=st.integers(1, 40),
        budget_factor=st.integers(1, 20),
        seed=st.integers(0, 999),
    )
    def test_rs_never_exceeds_budget(self, n_configs, max_rounds, budget_factor, seed):
        budget = budget_factor * max_rounds
        runner = SyntheticRunner(n_clients=8, max_rounds=max_rounds, seed=0)
        result = RandomSearch(
            SPACE, runner, NoiseConfig(), n_configs=n_configs, total_budget=budget, seed=seed
        ).run()
        assert result.rounds_used <= budget
        assert runner.rounds_used == result.rounds_used
        assert len(result.observations) <= n_configs

    @settings(max_examples=10, deadline=None)
    @given(
        max_rounds=st.integers(3, 40),
        budget_factor=st.integers(1, 8),
        eta=st.integers(2, 4),
        seed=st.integers(0, 999),
    )
    def test_hb_never_exceeds_budget(self, max_rounds, budget_factor, eta, seed):
        budget = budget_factor * max_rounds
        runner = SyntheticRunner(n_clients=8, max_rounds=max_rounds, seed=0)
        hb = Hyperband(
            SPACE, runner, NoiseConfig(), eta=eta, total_budget=budget, seed=seed
        )
        result = hb.run()
        assert result.rounds_used <= budget
        # Conservative DP accounting: planned >= performed.
        assert hb.planned_releases() >= len(result.observations)

    @settings(max_examples=10, deadline=None)
    @given(
        max_rounds=st.integers(3, 30),
        eta=st.integers(2, 4),
        seed=st.integers(0, 999),
    )
    def test_sha_trains_within_per_config_cap(self, max_rounds, eta, seed):
        # A budget of exactly one cycle runs every SHA bracket to completion.
        budget = sum(bracket_cost(n, r0, eta, max_rounds) for n, r0 in bracket_specs(max_rounds, eta, 5))
        runner = SyntheticRunner(n_clients=8, max_rounds=max_rounds, seed=0)
        result = Hyperband(SPACE, runner, NoiseConfig(), eta=eta, total_budget=budget, seed=seed).run()
        assert result.observations
        for obs in result.observations:
            assert obs.rounds <= max_rounds

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 999), subsample=st.integers(1, 8))
    def test_incumbent_noisy_score_monotone(self, seed, subsample):
        runner = SyntheticRunner(n_clients=8, max_rounds=9, seed=0)
        result = RandomSearch(
            SPACE,
            runner,
            NoiseConfig(subsample=subsample),
            n_configs=8,
            total_budget=72,
            seed=seed,
        ).run()
        noisy = [p.noisy_error for p in result.curve]
        assert all(b <= a + 1e-12 for a, b in zip(noisy, noisy[1:]))
