"""Cohort-first evaluation: the full-pool equivalence contract.

A tuner draws each release's cohort, eval-fault survivors and Laplace
noise before it has any rates, then scores each trial on the clients of
its cohort only (``BaseTuner._release_many``); the full pool is read only
for the incumbent's curve point and for the accuracy-biased sampler. That
must change no number: observations, curve, ``final_full_error`` and the
tuner RNG end state equal a reference that reads every trial on the full
pool (``runner.error_rates_many``) and releases through
``evaluator.evaluate``, for every registered method, every noise setting
and both paper model families.
"""

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig
from repro.core.search_space import paper_space
from repro.datasets import load_dataset
from repro.engine.faults import FaultConfig
from repro.experiments.fig_methods import METHODS, PAPER_NOISY

SPACE = paper_space(batch_sizes=(4, 8))
MAX_ROUNDS = 3
K = 4

NOISES = {
    "paper-noisy": (PAPER_NOISY, None),
    "noiseless": (NoiseConfig(), None),
    "subsample-weighted": (NoiseConfig(subsample=0.2), None),
    "biased": (NoiseConfig(subsample=0.2, bias_b=0.5), None),
    "eval-dropout": (
        NoiseConfig(subsample=0.5),
        FaultConfig(seed=3, eval_dropout_rate=0.4, quorum=0.5),
    ),
}


@pytest.fixture(scope="module", params=["cifar10", "stackoverflow"])
def dataset(request):
    return load_dataset(request.param, "test", seed=0)


def full_pool_release_many(tuner, trials):
    """The reference read: every trial on the whole pool, one
    ``evaluator.evaluate`` per release."""
    rows = tuner.runner.error_rates_many(trials)
    released = [
        tuner._combine([tuner.evaluator.evaluate(row) for _ in range(tuner.n_resamples)])
        for row in rows
    ]
    return released, {t.trial_id: row for t, row in zip(trials, rows)}


def run(method, dataset, noise, faults, reference):
    runner = FederatedTrialRunner(dataset, max_rounds=MAX_ROUNDS, seed=5)
    cls = METHODS[method]
    budget = K * MAX_ROUNDS
    if method in ("rs", "tpe", "gp-ei", "gp-nei"):
        tuner = cls(SPACE, runner, noise, n_configs=K, total_budget=budget, seed=2)
    elif method in ("fedex", "fedpop"):
        tuner = cls(SPACE, runner, noise, population_size=K, total_budget=budget, seed=2)
    else:
        tuner = cls(SPACE, runner, noise, total_budget=budget, seed=2)
    if faults is not None:
        tuner.attach_faults(faults)
    if reference:
        tuner._release_many = lambda trials: full_pool_release_many(tuner, trials)
    return tuner, tuner.run()


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_cohort_reads_match_full_pool_reference(method, noise_name, dataset):
    noise, faults = NOISES[noise_name]
    tuner, got = run(method, dataset, noise, faults, reference=False)
    ref_tuner, want = run(method, dataset, noise, faults, reference=True)
    assert got.observations and got.observations == want.observations
    assert got.curve == want.curve
    assert got.final_full_error == want.final_full_error
    assert got.best_trial_id == want.best_trial_id
    assert tuner.rng.bit_generator.state == ref_tuner.rng.bit_generator.state
    assert_state_equal(tuner.evaluator.state_dict(), ref_tuner.evaluator.state_dict())


def assert_state_equal(a, b):
    """Evaluator fault state (release index, participation counters)."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_state_equal(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


def test_cohort_read_is_the_pool_read_sliced(dataset):
    """A runner read on a client subset gives exactly the pool read's rates
    on those clients, for a batch and for one trial."""
    runner = FederatedTrialRunner(dataset, max_rounds=MAX_ROUNDS, seed=5)
    rng = np.random.default_rng(0)
    trials = [runner.create(SPACE.sample(rng)) for _ in range(3)]
    runner.advance_many([(t, 2) for t in trials])
    full = runner.error_rates_many(trials)
    n = len(dataset.eval_clients)
    for clients in (np.array([n - 1]), np.array([0, 3, 4]), np.arange(1, n, 2)):
        for row, got in zip(full, runner.error_rates_many(trials, clients)):
            assert np.array_equal(got, row[clients])
        (single,) = runner.error_rates_many(trials[:1], clients)
        assert np.array_equal(single, full[0][clients])
