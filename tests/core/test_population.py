"""Population tuners (FedEx weight sharing / FedPop perturbation).

The contract under test:

- the slab (fused-runner) run is **bit-identical** to the serial
  reference run when no ragged padding occurs — identical observations,
  curves, final member parameters, and RNG end states (tuner + every
  trainer);
- a member that diverges mid-round falls back to the exact serial rerun
  without perturbing the rest of the population;
- budget/release accounting is exact: ``planned_releases`` (the DP
  budget M) equals the observations actually performed, including
  budget-truncated final steps;
- exploit/explore and weight sharing invalidate stale evaluation caches
  and keep trial configs in sync with live trainer hyperparameters.
"""

import numpy as np
import pytest

from repro.core import (
    FederatedTrialRunner,
    NoiseConfig,
    PopulationTuner,
    WeightSharingTuner,
)
from repro.core.search_space import paper_space
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.nn import make_mlp, softmax_cross_entropy

TUNERS = (WeightSharingTuner, PopulationTuner)


def mlp_dataset(n_train=12, n_eval=4, d=6, classes=3, n=16, seed=0, hidden=(8,)):
    """Uniform client sizes + one shared batch size => no ragged padding,
    so the slab path must be bit-identical to serial."""
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=hidden, rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, classes))
        y = (x @ w + rng.normal(scale=0.5, size=(n, classes))).argmax(axis=1)
        return ClientData(x, y)

    return FederatedDataset(
        "synth-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
    )


@pytest.fixture(scope="module")
def dataset():
    return mlp_dataset()


@pytest.fixture(scope="module")
def space():
    return paper_space(batch_sizes=(4, 8, 16))


def make_runner(dataset, fused, **kw):
    kw.setdefault("max_rounds", 8)
    kw.setdefault("clients_per_round", 4)
    kw.setdefault("seed", 3)
    return FederatedTrialRunner(dataset, cohort_mode="fused" if fused else "serial", **kw)


def make_tuner(cls, space, runner, **kw):
    kw.setdefault("population_size", 4)
    kw.setdefault("rounds_per_step", 2)
    kw.setdefault("total_budget", 32)
    kw.setdefault("seed", 5)
    kw.setdefault("noise", NoiseConfig(subsample=0.5))
    noise = kw.pop("noise")
    return cls(space, runner, noise, **kw)


def run_pair(cls, dataset, space, runner_kw=None, **tuner_kw):
    """The same tuner run twice: serial reference runner vs fused slab."""
    out = []
    for fused in (False, True):
        runner = make_runner(dataset, fused, **dict(runner_kw or {}))
        tuner = make_tuner(cls, space, runner, **dict(tuner_kw))
        out.append((tuner, tuner.run()))
    return out


def assert_runs_identical(serial, fused):
    tuner_a, result_a = serial
    tuner_b, result_b = fused
    assert [o.noisy_error for o in result_a.observations] == [
        o.noisy_error for o in result_b.observations
    ]
    assert [o.exact_error for o in result_a.observations] == [
        o.exact_error for o in result_b.observations
    ]
    assert [(c.budget_used, c.noisy_error, c.full_error) for c in result_a.curve] == [
        (c.budget_used, c.noisy_error, c.full_error) for c in result_b.curve
    ]
    assert result_a.best_config == result_b.best_config
    assert result_a.final_full_error == result_b.final_full_error
    assert result_a.rounds_used == result_b.rounds_used
    assert tuner_a.rng.bit_generator.state == tuner_b.rng.bit_generator.state
    for ta, tb in zip(tuner_a.population, tuner_b.population):
        assert np.array_equal(ta.state.params, tb.state.params)
        assert ta.state._rng.bit_generator.state == tb.state._rng.bit_generator.state
        assert ta.config == tb.config
        assert ta.rounds == tb.rounds


class TestSlabEquivalence:
    """Fused-slab vs serial-reference bit-equivalence (the PR acceptance
    criterion: no padding => bit-identical, identical RNG end states)."""

    @pytest.fixture(autouse=True)
    def _float64_reference(self, monkeypatch):
        """Bit-equivalence against the serial path needs the float64
        reference dtype; an ambient REPRO_DTYPE=float32 (the CI float32
        leg) must not narrow the slab side of the comparison."""
        from repro.nn.stacked import DTYPE_ENV

        monkeypatch.delenv(DTYPE_ENV, raising=False)

    @pytest.mark.parametrize("cls", TUNERS)
    def test_fused_bit_identical_to_serial(self, cls, dataset, space):
        serial, fused = run_pair(cls, dataset, space)
        assert_runs_identical(serial, fused)

    @pytest.mark.parametrize("cls", TUNERS)
    def test_dp_noise_path(self, cls, dataset, space):
        serial, fused = run_pair(
            cls,
            dataset,
            space,
            runner_kw={"scheme": "uniform"},
            noise=NoiseConfig(subsample=0.5, epsilon=10.0, scheme="uniform"),
        )
        assert_runs_identical(serial, fused)

    @pytest.mark.parametrize("cls", TUNERS)
    def test_biased_noise_path(self, cls, dataset, space):
        serial, fused = run_pair(
            cls, dataset, space, noise=NoiseConfig(subsample=0.5, bias_b=2.0)
        )
        assert_runs_identical(serial, fused)

    @pytest.mark.parametrize("cls", TUNERS)
    def test_divergent_member_falls_back_serially(self, cls, dataset, space):
        """One member's lr guarantees overflow: the fused run must rerun
        exactly that member serially and still match the reference."""

        def source(seed=11):
            rng = np.random.default_rng(seed)
            configs = [space.sample(rng) for _ in range(4)]
            configs[1]["client_lr"] = 1e4
            it = iter(configs)
            return lambda: next(it)

        out = []
        for fused in (False, True):
            runner = make_runner(dataset, fused)
            tuner = make_tuner(cls, space, runner, config_source=source())
            out.append((tuner, tuner.run()))
        assert_runs_identical(out[0], out[1])


class TestScheduleAccounting:
    @pytest.mark.parametrize("cls", TUNERS)
    @pytest.mark.parametrize("budget", [5, 7, 8, 9, 23, 24, 33, 64, 200])
    def test_planned_releases_exact(self, cls, dataset, space, budget):
        """planned_releases (the DP release count M) must equal the
        observations actually performed for divisible, truncated, and
        cap-limited budgets alike."""
        tuner = make_tuner(
            cls, space, make_runner(dataset, False), total_budget=budget
        )
        result = tuner.run()
        assert len(result.observations) == tuner.planned_releases()
        assert result.rounds_used <= budget
        # The per-config cap bounds training even when budget remains.
        assert all(t.rounds <= 8 for t in tuner.population)

    @pytest.mark.parametrize("cls", TUNERS)
    def test_population_advances_in_lockstep(self, cls, dataset, space):
        tuner = make_tuner(cls, space, make_runner(dataset, False), total_budget=24)
        tuner.run()
        rounds = {t.rounds for t in tuner.population}
        assert len(rounds) == 1  # 24 = 3 full steps of 4 x 2 rounds

    @pytest.mark.parametrize("cls", TUNERS)
    def test_final_report_matches_last_observation_on_cap_exit(self, cls, dataset, space):
        """A run that ends via the per-config round cap (budget left over)
        must not adapt after the last observation: final_full_error has to
        score the exact model the incumbent's last curve point scored."""
        tuner = make_tuner(cls, space, make_runner(dataset, False), total_budget=100)
        result = tuner.run()
        assert result.rounds_used == 4 * 8  # cap exit, not budget exhaustion
        assert result.final_full_error == result.curve[-1].full_error

    def test_population_size_validated(self, dataset, space):
        with pytest.raises(ValueError, match="population_size"):
            make_tuner(WeightSharingTuner, space, make_runner(dataset, False), population_size=1)

    def test_rounds_per_step_validated(self, dataset, space):
        with pytest.raises(ValueError, match="rounds_per_step"):
            make_tuner(PopulationTuner, space, make_runner(dataset, False), rounds_per_step=0)

    def test_default_rounds_per_step(self, dataset, space):
        fedex = make_tuner(
            WeightSharingTuner, space, make_runner(dataset, False), rounds_per_step=None
        )
        assert fedex.rounds_per_step == 1
        fedpop = make_tuner(
            PopulationTuner,
            space,
            make_runner(dataset, False, max_rounds=405),
            rounds_per_step=None,
        )
        assert fedpop.rounds_per_step == 405 // 27

    def test_rejects_bank_style_runner(self, dataset, space):
        """Population tuners rewrite live trainer state; a runner whose
        trials do not hold FederatedTrainers must be rejected up front."""
        from repro.core.synthetic import SyntheticRunner

        runner = SyntheticRunner(n_clients=6, max_rounds=8, seed=0)
        tuner = make_tuner(WeightSharingTuner, space, runner)
        with pytest.raises(TypeError, match="live"):
            tuner.run()


class TestWeightSharing:
    def test_probabilities_shift_toward_better_arms(self, dataset, space):
        """Two learning arms vs two inert (lr=1e-6) arms: the noiseless
        errors must separate and EG must move mass onto the learners.
        (Configs are pinned rather than sampled — randomly sampled arms on
        this tiny pool can tie on the coarse per-client error fractions,
        where a uniform distribution is the legitimate EG answer.)"""

        def cfg(client_lr):
            return {
                "server_lr": 5e-2,
                "server_beta1": 0.9,
                "server_beta2": 0.99,
                "server_lr_decay": 0.9999,
                "client_lr": client_lr,
                "client_momentum": 0.5,
                "client_weight_decay": 5e-5,
                "batch_size": 4,
                "epochs": 1,
            }

        configs = iter([cfg(0.3), cfg(1e-6), cfg(0.1), cfg(1e-6)])
        tuner = make_tuner(
            WeightSharingTuner,
            space,
            make_runner(dataset, False),
            noise=NoiseConfig(),  # noiseless: ranking is the exact error
            total_budget=64,
            config_source=lambda: next(configs),
        )
        tuner.run()
        probs = tuner.probabilities
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0)
        assert len(tuner.probability_history) >= 1
        # EG must move mass onto the learning arms and off the inert ones.
        assert min(probs[0], probs[2]) > max(probs[1], probs[3])

    def test_shared_weights_written_to_every_arm(self, dataset, space):
        tuner = make_tuner(WeightSharingTuner, space, make_runner(dataset, False))
        trials = [tuner.runner.create(tuner.propose()) for _ in range(4)]
        tuner.population = trials
        tuner.runner.advance_many([(t, 1) for t in trials])
        errors = np.array([0.9, 0.1, 0.5, 0.4])
        tuner._adapt(trials, errors)
        base = trials[0].state.params
        assert all(np.array_equal(t.state.params, base) for t in trials[1:])
        # Each arm owns an independent copy (training must not alias rows).
        assert not any(t.state.params is base for t in trials[1:])

    def test_adapt_invalidates_rates_cache(self, dataset, space):
        runner = make_runner(dataset, False)
        tuner = make_tuner(WeightSharingTuner, space, runner)
        trials = [runner.create(tuner.propose()) for _ in range(4)]
        tuner.population = trials
        runner.advance_many([(t, 1) for t in trials])
        before = [runner.error_rates(t).copy() for t in trials]
        tuner._adapt(trials, np.array([0.9, 0.1, 0.5, 0.4]))
        after = [runner.error_rates(t) for t in trials]
        # All arms share one parameter vector now: identical rate vectors,
        # freshly computed (stale per-arm caches would differ).
        for rates in after[1:]:
            assert np.array_equal(rates, after[0])
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_arms_share_one_initialization(self, dataset, space):
        """FedEx has ONE shared model: all arms must be aligned on arm 0's
        init before the first step (the runner gives each trial its own
        init seed, which would make the first average mix
        permutation-unaligned networks)."""
        runner = make_runner(dataset, False)
        tuner = make_tuner(WeightSharingTuner, space, runner)
        trials = [runner.create(tuner.propose()) for _ in range(4)]
        tuner.population = trials
        tuner._setup(trials)
        base = trials[0].state.params
        for trial in trials[1:]:
            assert np.array_equal(trial.state.params, base)
            assert trial.state.params is not base  # independent copies

    def test_eg_lr_validation_and_default(self, dataset, space):
        with pytest.raises(ValueError, match="eg_lr"):
            make_tuner(WeightSharingTuner, space, make_runner(dataset, False), eg_lr=0.0)
        tuner = make_tuner(WeightSharingTuner, space, make_runner(dataset, False))
        steps = len(tuner._planned_step_releases())
        assert tuner.eg_lr == pytest.approx(np.sqrt(2 * np.log(4) / steps))


class TestPopulationExploitExplore:
    def make_adapted(self, dataset, space, errors, **kw):
        runner = make_runner(dataset, False)
        tuner = make_tuner(PopulationTuner, space, runner, **kw)
        trials = [runner.create(tuner.propose()) for _ in range(4)]
        tuner.population = trials
        tuner._setup(trials)
        runner.advance_many([(t, 1) for t in trials])
        tuner._adapt(trials, np.asarray(errors, dtype=float))
        return tuner, trials

    def test_loser_copies_winner_state(self, dataset, space):
        tuner, trials = self.make_adapted(dataset, space, [0.1, 0.5, 0.6, 0.9])
        winner, loser = trials[0], trials[3]
        assert np.array_equal(loser.state.params, winner.state.params)
        assert loser.state.server_opt is not winner.state.server_opt
        wsd = winner.state.server_opt.state_dict()
        lsd = loser.state.server_opt.state_dict()
        assert wsd.keys() == lsd.keys()
        for key in wsd:
            np.testing.assert_array_equal(lsd[key], wsd[key])
        # Structural knobs stay the loser's own.
        assert loser.config["batch_size"] == loser.state.local.batch_size
        # Winners and middle ranks are untouched.
        assert trials[1].config["client_lr"] == trials[1].state.local.lr

    def test_explored_hps_perturbed_and_in_sync(self, dataset, space):
        tuner, trials = self.make_adapted(dataset, space, [0.1, 0.5, 0.6, 0.9])
        winner, loser = trials[0], trials[3]
        factors = set(tuner.perturb_factors)
        for key, attr in (
            ("client_lr", "lr"),
            ("client_momentum", "momentum"),
            ("client_weight_decay", "weight_decay"),
        ):
            # config mirrors the live trainer exactly...
            assert loser.config[key] == getattr(loser.state.local, attr)
            # ...and (momentum clipping aside) is winner's value x a factor.
            if key != "client_momentum":
                ratio = loser.config[key] / winner.config[key]
                assert any(abs(ratio - f) < 1e-12 for f in factors)
        assert 0.0 <= loser.config["client_momentum"] <= 0.9

    def test_incumbent_vessel_never_exploited(self, dataset, space):
        """The trial reported as best_config/final_full_error must survive
        exploit even when it ranks in the worst quantile this step."""
        runner = make_runner(dataset, False)
        tuner = make_tuner(PopulationTuner, space, runner, exploit_fraction=0.5)
        trials = [runner.create(tuner.propose()) for _ in range(4)]
        tuner.population = trials
        tuner._setup(trials)
        runner.advance_many([(t, 1) for t in trials])
        tuner._incumbent = trials[3]  # the run's best-ever noisy score
        before_params = trials[3].state.params.copy()
        before_config = dict(trials[3].config)
        tuner._adapt(trials, np.array([0.1, 0.2, 0.8, 0.9]))  # now ranks worst
        assert np.array_equal(trials[3].state.params, before_params)
        assert trials[3].config == before_config
        # The pairing collapses to winner 1 -> loser 2, which IS exploited.
        assert np.array_equal(trials[2].state.params, trials[1].state.params)
        assert trials[2].config["server_lr"] == trials[1].config["server_lr"]

    def test_exploit_fraction_validated(self, dataset, space):
        for bad in (0.0, 0.75):
            with pytest.raises(ValueError, match="exploit_fraction"):
                make_tuner(
                    PopulationTuner, space, make_runner(dataset, False), exploit_fraction=bad
                )

    def test_perturb_factors_validated(self, dataset, space):
        with pytest.raises(ValueError, match="perturb_factors"):
            make_tuner(
                PopulationTuner, space, make_runner(dataset, False), perturb_factors=(0.0, 2.0)
            )

    def test_observations_snapshot_evolving_configs(self, dataset, space):
        """After exploit/explore, later observations of the same trial id
        must record the *new* config (trials are vessels)."""
        tuner = make_tuner(
            PopulationTuner,
            space,
            make_runner(dataset, False),
            total_budget=32,
            exploit_fraction=0.5,
        )
        result = tuner.run()
        by_trial = {}
        changed = False
        for obs in result.observations:
            prev = by_trial.get(obs.trial_id)
            if prev is not None and prev != obs.config:
                changed = True
            by_trial[obs.trial_id] = obs.config
        assert changed, "exploit/explore never changed any member's config"
