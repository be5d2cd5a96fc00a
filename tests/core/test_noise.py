"""Tests for the evaluation-noise stack."""

import warnings

import numpy as np
import pytest

from repro.core import NoiseConfig, NoisyEvaluator, PrivacyConfig


class TestNoiseConfig:
    def test_noiseless_detection(self):
        assert NoiseConfig().noiseless
        assert not NoiseConfig(subsample=1).noiseless
        assert not NoiseConfig(bias_b=1.0).noiseless
        assert not NoiseConfig(epsilon=1.0, scheme="uniform").noiseless

    def test_inf_epsilon_is_non_private(self):
        cfg = NoiseConfig(epsilon=np.inf)
        assert not cfg.private
        assert cfg.noiseless is False or cfg.subsample is None

    def test_dp_requires_uniform(self):
        with pytest.raises(ValueError):
            NoiseConfig(epsilon=1.0, scheme="weighted")
        NoiseConfig(epsilon=1.0, scheme="uniform")  # fine

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NoiseConfig(subsample=0)
        with pytest.raises(ValueError):
            NoiseConfig(subsample=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(subsample=1.5)
        with pytest.raises(ValueError):
            NoiseConfig(bias_b=-1.0)
        with pytest.raises(ValueError):
            NoiseConfig(scheme="exotic")

    def test_cohort_size_resolution(self):
        assert NoiseConfig().cohort_size(100) == 100
        assert NoiseConfig(subsample=3).cohort_size(100) == 3
        assert NoiseConfig(subsample=0.25).cohort_size(100) == 25
        # Fraction rounding floors at 1 client.
        assert NoiseConfig(subsample=0.001).cohort_size(100) == 1
        # Counts above the pool clamp to the pool.
        assert NoiseConfig(subsample=500).cohort_size(100) == 100


class TestNoisyEvaluator:
    def setup_method(self):
        self.n = 50
        self.weights = np.ones(self.n)
        self.rates = np.linspace(0.2, 0.8, self.n)

    def test_full_noiseless_is_exact(self, rng):
        ev = NoisyEvaluator(self.weights, NoiseConfig(), rng)
        out = ev.evaluate(self.rates)
        assert out.error == pytest.approx(self.rates.mean())
        assert out.cohort.size == self.n

    def test_weighted_aggregation(self, rng):
        weights = np.zeros(self.n)
        weights[0] = 1.0
        ev = NoisyEvaluator(weights + 1e-9, NoiseConfig(), rng)
        out = ev.evaluate(self.rates)
        assert out.error == pytest.approx(self.rates[0], abs=1e-4)

    def test_subsample_cohort_size(self, rng):
        ev = NoisyEvaluator(self.weights, NoiseConfig(subsample=5), rng)
        out = ev.evaluate(self.rates)
        assert out.cohort.size == 5

    def test_subsampling_adds_variance(self):
        full = [
            NoisyEvaluator(self.weights, NoiseConfig(), np.random.default_rng(i))
            .evaluate(self.rates)
            .error
            for i in range(50)
        ]
        sub = [
            NoisyEvaluator(self.weights, NoiseConfig(subsample=2), np.random.default_rng(i))
            .evaluate(self.rates)
            .error
            for i in range(50)
        ]
        assert np.std(full) == pytest.approx(0.0, abs=1e-12)
        assert np.std(sub) > 0.01

    def test_bias_shifts_error_down(self):
        """Systems-heterogeneity bias prefers accurate (low-error) clients,
        so the evaluated error is optimistically low."""
        unbiased, biased = [], []
        for i in range(200):
            rng = np.random.default_rng(i)
            ev_u = NoisyEvaluator(self.weights, NoiseConfig(subsample=3), rng)
            unbiased.append(ev_u.evaluate(self.rates).error)
            rng = np.random.default_rng(i)
            ev_b = NoisyEvaluator(self.weights, NoiseConfig(subsample=3, bias_b=3.0), rng)
            biased.append(ev_b.evaluate(self.rates).error)
        assert np.mean(biased) < np.mean(unbiased) - 0.05

    def test_dp_noise_applied(self):
        rng = np.random.default_rng(0)
        privacy = PrivacyConfig(epsilon=1.0, total_releases=16)
        ev = NoisyEvaluator(
            self.weights, NoiseConfig(subsample=1, epsilon=1.0, scheme="uniform"), rng, privacy
        )
        outs = [ev.evaluate(self.rates) for _ in range(20)]
        # Noisy error differs from the exact subsampled error.
        diffs = [abs(o.error - o.exact_subsampled_error) for o in outs]
        assert max(diffs) > 0.1

    def test_dp_noise_scale_depends_on_cohort(self):
        def spread(n_clients):
            rng = np.random.default_rng(0)
            privacy = PrivacyConfig(epsilon=10.0, total_releases=16)
            ev = NoisyEvaluator(
                self.weights,
                NoiseConfig(subsample=n_clients, epsilon=10.0, scheme="uniform"),
                rng,
                privacy,
            )
            return np.std([o.error - o.exact_subsampled_error for o in (ev.evaluate(self.rates) for _ in range(600))])

        assert spread(1) > 5 * spread(25)

    def test_epsilon_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            NoisyEvaluator(
                self.weights,
                NoiseConfig(subsample=1, epsilon=1.0, scheme="uniform"),
                rng,
                PrivacyConfig(epsilon=2.0),
            )

    def test_shape_mismatch_rejected(self, rng):
        ev = NoisyEvaluator(self.weights, NoiseConfig(), rng)
        with pytest.raises(ValueError):
            ev.evaluate(np.zeros(3))

    def test_empty_weights_rejected(self, rng):
        with pytest.raises(ValueError):
            NoisyEvaluator(np.zeros(0), NoiseConfig(), rng)

    def test_exact_error_tracks_subsample_not_dp(self):
        rng = np.random.default_rng(0)
        privacy = PrivacyConfig(epsilon=0.5, total_releases=4)
        ev = NoisyEvaluator(
            self.weights, NoiseConfig(subsample=10, epsilon=0.5, scheme="uniform"), rng, privacy
        )
        out = ev.evaluate(self.rates)
        manual = self.rates[out.cohort].mean()
        assert out.exact_subsampled_error == pytest.approx(manual)


class TestEvaluateMany:
    """``evaluate_many(rows)`` is exactly ``[evaluate(row) for row in rows]``:
    same errors, cohorts, exact errors, and generator end state."""

    N = 12

    def _rows_weights(self, n_rows=9, tied=False):
        rng = np.random.default_rng(21)
        if tied:
            rows = rng.integers(0, 3, size=(n_rows, self.N)) / 2.0
        else:
            rows = rng.uniform(0, 1, size=(n_rows, self.N))
        return rows, rng.uniform(1, 5, size=self.N)

    def _assert_matches_serial(self, weights, noise, rows, privacy=None, plan=None):
        serial = NoisyEvaluator(weights, noise, np.random.default_rng(5), privacy)
        batch = NoisyEvaluator(weights, noise, np.random.default_rng(5), privacy)
        if plan is not None:
            serial.set_fault_plan(plan)
            batch.set_fault_plan(plan)
        expected = [serial.evaluate(row) for row in rows]
        got = batch.evaluate_many(rows)
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert a.error == b.error
            assert a.exact_subsampled_error == b.exact_subsampled_error
            assert np.array_equal(a.cohort, b.cohort)
        assert serial.rng.bit_generator.state == batch.rng.bit_generator.state
        return batch

    @pytest.mark.parametrize("scheme", ["weighted", "uniform"])
    @pytest.mark.parametrize("count", [1, 3, N - 1, None])
    def test_uniform_cohorts(self, count, scheme):
        rows, weights = self._rows_weights()
        self._assert_matches_serial(weights, NoiseConfig(subsample=count, scheme=scheme), rows)

    @pytest.mark.parametrize("count", [1, None])
    @pytest.mark.parametrize("b", [1.0, 1.5, 3.0])
    def test_biased_cohorts(self, b, count):
        rows, weights = self._rows_weights()
        self._assert_matches_serial(weights, NoiseConfig(subsample=count, bias_b=b), rows)

    @pytest.mark.parametrize("count", [1, None])
    @pytest.mark.parametrize("epsilon", [0.1, 10.0])
    def test_private(self, epsilon, count):
        rows, weights = self._rows_weights()
        noise = NoiseConfig(subsample=count, epsilon=epsilon, scheme="uniform")
        self._assert_matches_serial(
            weights, noise, rows, PrivacyConfig(epsilon=epsilon, total_releases=len(rows))
        )

    def test_biased_private(self):
        rows, weights = self._rows_weights()
        noise = NoiseConfig(subsample=4, bias_b=2.0, epsilon=1.0, scheme="uniform")
        self._assert_matches_serial(weights, noise, rows)

    @pytest.mark.parametrize("b", [0.0, 3.0])
    def test_tied_rates(self, b):
        rows, weights = self._rows_weights(tied=True)
        self._assert_matches_serial(weights, NoiseConfig(subsample=2, bias_b=b), rows)

    def test_single_row(self):
        rows, weights = self._rows_weights(n_rows=1)
        self._assert_matches_serial(weights, NoiseConfig(subsample=5, bias_b=1.5), rows)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_eval_fault_plan(self, b):
        from repro.engine.faults import FaultConfig, FaultPlan

        rows, weights = self._rows_weights()
        plan = FaultPlan(FaultConfig(seed=3, eval_dropout_rate=0.5, quorum=0.5))
        batch = self._assert_matches_serial(
            weights, NoiseConfig(subsample=6, bias_b=b), rows, plan=plan
        )
        assert batch.state_dict()["release_index"] == len(rows)

    def test_biased_underflow_is_silent(self):
        # At b = 200 a zero-accuracy client's weight underflows to 0, so its
        # log-weight is -inf. The serial sampler ignores that divide; the
        # batched path must too (it is an error under -W error).
        rates = np.array([1.0, 0.0, 0.999, 0.5, 1.0])
        noise = NoiseConfig(subsample=2, bias_b=200)
        rows = np.stack([rates, rates])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_matches_serial(np.ones(rates.size), noise, rows)

    def test_shape_mismatch_rejected(self):
        rows, weights = self._rows_weights()
        ev = NoisyEvaluator(weights, NoiseConfig(subsample=3), 0)
        with pytest.raises(ValueError):
            ev.evaluate_many(rows[:, :-1])
        with pytest.raises(ValueError):
            ev.evaluate_many(rows[0])

    def test_no_rows_rejected(self):
        rows, weights = self._rows_weights()
        ev = NoisyEvaluator(weights, NoiseConfig(subsample=3), 0)
        with pytest.raises(ValueError):
            ev.evaluate_many(rows[:0])
