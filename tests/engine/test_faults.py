"""Chaos tests: deterministic fault injection + graceful degradation.

The contract under test (see ``repro.engine.faults``):

- under ANY fault mix, runs complete and return a valid ``TuningResult``;
- trajectories are bit-reproducible per fault seed — including through a
  kill/resume (across worker counts: tests/engine/test_parallel_equivalence.py);
- the fault-free path (no plan, or a plan with zero rates) is
  bit-identical to an unfaulted run, across all three cohort modes;
- stragglers alone never change trajectories, only simulated time.
"""

import os
import pickle
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig
from repro.core.random_search import RandomSearch
from repro.core.hyperband import Hyperband
from repro.core.search_space import paper_space
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    RunCheckpointer,
    load_checkpoint,
    resume_checkpoint,
    save_checkpoint,
)
from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    TaskTimeoutError,
    default_max_retries,
    default_task_timeout,
    fork_available,
)
from repro.engine.faults import (
    FaultConfig,
    FaultPlan,
    ParticipationLog,
)
from repro.nn import make_mlp, softmax_cross_entropy

SPACE = paper_space(batch_sizes=(4, 8))
MAX_ROUNDS = 4
BUDGET = 16


def mlp_dataset(n_train=6, n_eval=3, d=4, classes=3, n=6, seed=0):
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=(5,), rng=s),
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


def make_runner(dataset, mode="serial"):
    kw = dict(max_rounds=MAX_ROUNDS, clients_per_round=3, scheme="weighted", seed=3)
    return FederatedTrialRunner(dataset, cohort_mode=mode, **kw)


def make_tuner(dataset, method="rs", mode="serial", seed=5, faults=None):
    runner = make_runner(dataset, mode=mode)
    noise = NoiseConfig()
    if method == "rs":
        tuner = RandomSearch(SPACE, runner, noise, n_configs=4, total_budget=BUDGET, seed=seed)
    elif method == "hb":
        tuner = Hyperband(SPACE, runner, noise, n_brackets=2, total_budget=BUDGET, seed=seed)
    else:
        raise ValueError(method)
    if faults is not None:
        tuner.attach_faults(faults)
    return tuner


def run_result(dataset, faults=None, **kw):
    return make_tuner(dataset, faults=faults, **kw).run()


def assert_same_result(a, b):
    assert a.observations == b.observations
    assert a.curve == b.curve
    assert a.best_trial_id == b.best_trial_id
    same = a.final_full_error == b.final_full_error
    both_nan = np.isnan(a.final_full_error) and np.isnan(b.final_full_error)
    assert same or both_nan


# ---------------------------------------------------------------------------
# FaultConfig
# ---------------------------------------------------------------------------
class TestFaultConfig:
    def test_parse_aliases(self):
        cfg = FaultConfig.parse(
            "dropout=0.2,straggler=0.1,delay=3,eval_dropout=0.05,"
            "trial_failure=0.01,task_kill=0.02,retries=3,seed=7,quorum=0.5"
        )
        assert cfg.dropout_rate == 0.2
        assert cfg.straggler_rate == 0.1
        assert cfg.straggler_delay == 3.0
        assert cfg.eval_dropout_rate == 0.05
        assert cfg.trial_failure_rate == 0.01
        assert cfg.task_kill_rate == 0.02
        assert cfg.max_trial_failures == 3
        assert cfg.seed == 7
        assert cfg.quorum == 0.5

    @pytest.mark.parametrize(
        "spec", ("", "   ", "bogus", "dropout=x", "nope=1", "dropout=0.1,=2")
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultConfig.parse(spec)

    @pytest.mark.parametrize(
        "kw",
        (
            {"dropout_rate": 1.5},
            {"dropout_rate": -0.1},
            {"quorum": 1.0001},
            {"straggler_delay": -1.0},
            {"max_trial_failures": 0},
            {"task_kill_rate": 2.0},
        ),
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultConfig(**kw)

    def test_dict_roundtrip(self):
        cfg = FaultConfig(seed=9, dropout_rate=0.3, quorum=0.5)
        assert FaultConfig.from_dict(cfg.to_dict()) == cfg

    def test_reseeded_is_deterministic_and_distinct(self):
        base = FaultConfig(seed=1, dropout_rate=0.1)
        a = base.reseeded("cifar10", "rs", 0)
        b = base.reseeded("cifar10", "rs", 0)
        c = base.reseeded("cifar10", "rs", 1)
        assert a == b
        assert a.seed != c.seed
        assert a.dropout_rate == 0.1  # only the seed changes

    def test_min_reporters(self):
        assert FaultConfig(quorum=0.0).min_reporters(10) == 1
        assert FaultConfig(quorum=1.0).min_reporters(10) == 10
        assert FaultConfig(quorum=0.5).min_reporters(3) == 2

    def test_active_flags(self):
        assert not FaultConfig(quorum=0.9, seed=4).active
        assert FaultConfig(dropout_rate=0.1).injects_client_faults
        assert FaultConfig(straggler_rate=0.1).injects_client_faults
        assert FaultConfig(eval_dropout_rate=0.1).injects_eval_faults
        assert FaultConfig(trial_failure_rate=0.1).active
        assert FaultConfig(task_kill_rate=0.1).active


# ---------------------------------------------------------------------------
# FaultPlan determinism
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_masks_are_deterministic(self):
        plan = FaultPlan(FaultConfig(seed=3, dropout_rate=0.5, straggler_rate=0.5))
        cohort = np.arange(50)
        assert np.array_equal(
            plan.dropout_mask(7, 2, cohort), plan.dropout_mask(7, 2, cohort)
        )
        assert np.array_equal(
            plan.straggler_mask(7, 2, cohort), plan.straggler_mask(7, 2, cohort)
        )

    def test_masks_are_keyed_per_client(self):
        """Whether client k drops never depends on who else was sampled."""
        plan = FaultPlan(FaultConfig(seed=3, dropout_rate=0.5))
        small = plan.dropout_mask("t", 1, [5, 9])
        big = plan.dropout_mask("t", 1, [9, 2, 5, 11])
        assert small[0] == big[2]  # client 5
        assert small[1] == big[0]  # client 9

    def test_zero_rates_draw_nothing(self):
        plan = FaultPlan(FaultConfig(seed=3))
        cohort = np.arange(20)
        assert not plan.dropout_mask(0, 0, cohort).any()
        assert not plan.straggler_mask(0, 0, cohort).any()
        assert not plan.eval_dropout_mask("eval", 0, cohort).any()
        assert not plan.trial_fails(1, 0)
        assert not plan.task_kills(1, 0)

    def test_rate_one_hits_everything(self):
        plan = FaultPlan(FaultConfig(seed=3, dropout_rate=1.0, trial_failure_rate=1.0))
        assert plan.dropout_mask(0, 0, np.arange(20)).all()
        assert plan.trial_fails(4, 2)

    def test_seed_changes_the_draws(self):
        cohort = np.arange(200)
        a = FaultPlan(FaultConfig(seed=1, dropout_rate=0.5)).dropout_mask(0, 0, cohort)
        b = FaultPlan(FaultConfig(seed=2, dropout_rate=0.5)).dropout_mask(0, 0, cohort)
        assert not np.array_equal(a, b)

    def test_rate_is_respected_statistically(self):
        cohort = np.arange(2000)
        mask = FaultPlan(FaultConfig(seed=1, dropout_rate=0.3)).dropout_mask(0, 0, cohort)
        assert 0.2 < mask.mean() < 0.4

    def test_plan_requires_config(self):
        with pytest.raises(TypeError):
            FaultPlan({"dropout_rate": 0.1})


# ---------------------------------------------------------------------------
# ParticipationLog
# ---------------------------------------------------------------------------
class TestParticipationLog:
    def test_counters_and_rates(self):
        log = ParticipationLog(6)
        log.record_round([0, 1, 2], dropped=[1], straggled=[2], delay=2.0)
        log.record_round([0, 1, 3], dropped=[0, 1], lost=True)
        assert log.rounds == 2
        assert log.rounds_lost == 1
        assert log.simulated_time == (1.0 + 2.0) + 1.0
        assert list(log.selected) == [2, 2, 1, 1, 0, 0]
        assert list(log.dropped) == [1, 2, 0, 0, 0, 0]
        assert list(log.straggled) == [0, 0, 1, 0, 0, 0]
        rates = log.survival_rates()
        assert rates[0] == 0.5
        assert rates[1] == 0.0
        assert rates[4] == 1.0  # never selected: no evidence against it
        assert log.drop_fraction() == 3 / 6

    def test_availability_weights_normalized(self):
        log = ParticipationLog(4)
        log.record_round([0, 1], dropped=[1])
        w = log.availability_weights()
        assert w.shape == (4,)
        assert w.sum() == pytest.approx(1.0)
        assert w[1] < w[0]

    def test_state_roundtrip(self):
        log = ParticipationLog(3)
        log.record_round([0, 2], dropped=[2], straggled=[0], lost=False, delay=1.5)
        other = ParticipationLog(3)
        other.load_state_dict(pickle.loads(pickle.dumps(log.state_dict())))
        assert np.array_equal(other.selected, log.selected)
        assert np.array_equal(other.dropped, log.dropped)
        assert np.array_equal(other.straggled, log.straggled)
        assert other.simulated_time == log.simulated_time
        assert other.rounds == log.rounds

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            ParticipationLog(0)


# ---------------------------------------------------------------------------
# Trainer-level faults: dropout, quorum, stragglers
# ---------------------------------------------------------------------------
class TestTrainingFaults:
    def _fresh_trial(self, dataset, plan):
        runner = make_runner(dataset)
        if plan is not None:
            runner.set_fault_plan(plan)
        config = SPACE.sample(np.random.default_rng(11))
        return runner, runner.create(config)

    def test_total_dropout_freezes_the_model(self, dataset):
        """Every round below quorum is lost: params frozen, rounds still
        advance, losses recorded."""
        plan = FaultPlan(FaultConfig(seed=1, dropout_rate=1.0, quorum=0.5))
        runner, trial = self._fresh_trial(dataset, plan)
        p0 = trial.state.params.copy()
        runner.advance(trial, 3)
        assert trial.state.rounds_completed == 3
        assert np.array_equal(trial.state.params, p0)
        assert trial.state.participation.rounds_lost == 3
        assert trial.state.participation.drop_fraction() == 1.0

    def test_full_quorum_with_no_dropout_is_fault_free(self, dataset):
        """quorum=1.0 alone (nothing ever drops) must not perturb training."""
        plan = FaultPlan(
            FaultConfig(seed=1, dropout_rate=0.0, straggler_rate=0.0, quorum=1.0)
        )
        runner_a, trial_a = self._fresh_trial(dataset, plan)
        runner_b, trial_b = self._fresh_trial(dataset, None)
        runner_a.advance(trial_a, 3)
        runner_b.advance(trial_b, 3)
        assert np.array_equal(trial_a.state.params, trial_b.state.params)

    def test_partial_dropout_changes_training(self, dataset):
        plan = FaultPlan(FaultConfig(seed=1, dropout_rate=0.5))
        runner_a, trial_a = self._fresh_trial(dataset, plan)
        runner_b, trial_b = self._fresh_trial(dataset, None)
        runner_a.advance(trial_a, 3)
        runner_b.advance(trial_b, 3)
        assert not np.array_equal(trial_a.state.params, trial_b.state.params)
        assert trial_a.state.participation.dropped.sum() > 0

    def test_stragglers_only_add_simulated_time(self, dataset):
        """Stragglers still report: the trajectory is bit-identical to the
        fault-free run, only the simulated wall-clock grows."""
        plan = FaultPlan(FaultConfig(seed=1, straggler_rate=0.9, straggler_delay=4.0))
        runner_a, trial_a = self._fresh_trial(dataset, plan)
        runner_b, trial_b = self._fresh_trial(dataset, None)
        runner_a.advance(trial_a, 3)
        runner_b.advance(trial_b, 3)
        assert np.array_equal(trial_a.state.params, trial_b.state.params)
        assert trial_a.state.simulated_time > 3.0
        assert trial_b.state.simulated_time == 0.0
        assert trial_a.state.participation.straggled.sum() > 0

    def test_dropout_is_identical_across_cohort_modes(self, dataset, monkeypatch):
        # Cross-mode bit-identity needs the float64 reference dtype: the
        # serial mode always computes float64, so an ambient
        # REPRO_DTYPE=float32 (the CI float32 leg) must not narrow the
        # slab modes it is compared against.
        from repro.nn.stacked import DTYPE_ENV

        monkeypatch.delenv(DTYPE_ENV, raising=False)
        plan = FaultPlan(FaultConfig(seed=6, dropout_rate=0.4, quorum=0.4))
        params = {}
        # advance() trains a fused trial on its own T=1 slab,
        # advance_many() on the runner's pool slab.
        for mode, batched in (("serial", False), ("fused", False), ("fused", True)):
            runner = make_runner(dataset, mode=mode)
            runner.set_fault_plan(plan)
            trial = runner.create(SPACE.sample(np.random.default_rng(11)))
            if batched:
                runner.advance_many([(trial, 3)])
            else:
                runner.advance(trial, 3)
            params[mode, batched] = trial.state.params.copy()
        assert np.array_equal(params["serial", False], params["fused", False])
        assert np.array_equal(params["serial", False], params["fused", True])


# ---------------------------------------------------------------------------
# Evaluation dropout
# ---------------------------------------------------------------------------
class TestEvalFaults:
    def _tuners(self, dataset, config):
        faulted = make_tuner(dataset, faults=FaultPlan(config))
        clean = make_tuner(dataset)
        return faulted, clean

    def test_eval_dropout_changes_releases_reproducibly(self, dataset):
        config = FaultConfig(seed=2, eval_dropout_rate=0.6)
        noise = NoiseConfig(subsample=3)
        runner = make_runner(dataset)
        tuner = RandomSearch(SPACE, runner, noise, n_configs=4, total_budget=BUDGET, seed=5)
        tuner.attach_faults(config)
        result = tuner.run()
        again = RandomSearch(
            SPACE, make_runner(dataset), noise, n_configs=4, total_budget=BUDGET, seed=5
        )
        again.attach_faults(config)
        assert_same_result(again.run(), result)
        log = tuner.evaluator.participation
        assert log is not None and log.dropped.sum() > 0

    def test_quorum_falls_back_to_full_cohort(self, dataset):
        """With 100% eval dropout every release misses quorum and falls
        back to the full drawn cohort — identical releases to fault-free,
        with the losses recorded."""
        noise = NoiseConfig(subsample=3)
        run = []
        for config in (None, FaultConfig(seed=2, eval_dropout_rate=1.0, quorum=0.5)):
            runner = make_runner(dataset)
            tuner = RandomSearch(
                SPACE, runner, noise, n_configs=4, total_budget=BUDGET, seed=5
            )
            if config is not None:
                tuner.attach_faults(config)
            run.append((tuner, tuner.run()))
        assert_same_result(run[0][1], run[1][1])
        log = run[1][0].evaluator.participation
        assert log.rounds_lost == log.rounds > 0


# ---------------------------------------------------------------------------
# Fault-free bit-identity + whole-run reproducibility
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("mode", ("serial", "fused"))
    def test_inactive_plan_is_bit_identical(self, dataset, mode):
        """Attaching an all-zero-rate plan must not move a single bit,
        in any cohort mode."""
        inactive = FaultConfig(seed=9, quorum=0.7)
        assert not inactive.active
        reference = run_result(dataset, mode=mode)
        faulted = run_result(dataset, mode=mode, faults=inactive)
        assert_same_result(faulted, reference)

    def test_faulted_runs_reproduce_per_seed(self, dataset):
        config = FaultConfig(seed=4, dropout_rate=0.3, straggler_rate=0.2, quorum=0.3)
        a = run_result(dataset, faults=FaultPlan(config))
        b = run_result(dataset, faults=FaultPlan(config))
        assert_same_result(a, b)

    def test_fault_seed_changes_the_trajectory(self, dataset):
        mix = dict(dropout_rate=0.5, quorum=0.3)
        a = run_result(dataset, faults=FaultConfig(seed=1, **mix))
        b = run_result(dataset, faults=FaultConfig(seed=2, **mix))
        assert a.observations != b.observations

    def test_straggler_only_run_is_bit_identical(self, dataset):
        config = FaultConfig(seed=4, straggler_rate=0.8, straggler_delay=3.0)
        reference = run_result(dataset)
        faulted = make_tuner(dataset, faults=config)
        assert_same_result(faulted.run(), reference)
        # ...but the simulated clock ran slower.
        live = faulted._live_trials().values()
        assert any(t.state.simulated_time > t.state.rounds_completed for t in live)


# ---------------------------------------------------------------------------
# Trial failure quarantine
# ---------------------------------------------------------------------------
class TestTrialQuarantine:
    def test_repeated_failure_quarantines(self, dataset):
        runner = make_runner(dataset)
        runner.set_fault_plan(FaultPlan(FaultConfig(trial_failure_rate=1.0)))
        trial = runner.create(SPACE.sample(np.random.default_rng(11)))
        p0 = trial.state.params.copy()
        with pytest.warns(RuntimeWarning, match="until quarantine"):
            consumed = runner.advance(trial, 2)
        assert consumed == 2  # granted rounds are burned, not refunded
        assert trial.failures == 1 and not trial.failed
        with pytest.warns(RuntimeWarning, match="quarantined"):
            runner.advance(trial, 1)
        assert trial.failed
        # Quarantined: budget still burns, training stays frozen, the
        # rate vector reads all-wrong.
        runner.advance(trial, 1)
        assert trial.rounds == 4
        assert np.array_equal(trial.state.params, p0)
        rates = runner.error_rates(trial)
        assert np.all(rates == 1.0)
        assert runner.full_error(trial) == 1.0
        assert not rates.flags.writeable

    def test_run_with_injected_trial_crashes_completes(self, dataset):
        config = FaultConfig(seed=8, trial_failure_rate=1.0, max_trial_failures=1)
        tuner = make_tuner(dataset, faults=config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = tuner.run()
        assert result.observations  # the run produced a valid result
        assert result.rounds_used <= BUDGET
        live = tuner._live_trials().values()
        assert live and all(t.failed for t in live)
        # Every observation scored the all-wrong vector (noiseless eval).
        assert all(obs.noisy_error == 1.0 for obs in result.observations)

    def test_partial_crash_rate_reproduces(self, dataset):
        config = FaultConfig(seed=8, trial_failure_rate=0.4, max_trial_failures=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = run_result(dataset, method="hb", faults=config)
            b = run_result(dataset, method="hb", faults=config)
        assert_same_result(a, b)

    def test_abstract_interface_errors_are_not_swallowed(self, dataset):
        """NotImplementedError is interface misuse, not a trial fault —
        it must propagate instead of being quarantined."""
        from repro.core.evaluator import Trial, TrialRunner

        runner = TrialRunner(max_rounds=4)
        trial = Trial(trial_id=0, config={})
        with pytest.raises(NotImplementedError):
            runner.advance(trial, 1)
        assert not trial.failed


# ---------------------------------------------------------------------------
# Executor: retries, backoff, timeouts, injected kills
# ---------------------------------------------------------------------------
def _double(payload, task):
    return task * 2


def _sleep_forever(payload, task):
    time.sleep(60)
    return task


needs_fork = pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")


class TestExecutorFaults:
    def test_retry_knobs_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
        assert default_max_retries() == 4
        assert ProcessExecutor(n_workers=2).max_retries == 4
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        with pytest.raises(ValueError):
            default_max_retries()
        monkeypatch.setenv("REPRO_MAX_RETRIES", "x")
        with pytest.raises(ValueError):
            default_max_retries()

    def test_timeout_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert default_task_timeout() == 2.5
        assert ProcessExecutor(n_workers=2).timeout == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-3")
        with pytest.raises(ValueError):
            default_task_timeout()

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=2, max_retries=0)
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=2, backoff_base=-1)
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=2, timeout=-1.0)

    @needs_fork
    def test_injected_kills_always_converge(self):
        """task_kill_rate=1.0 SIGKILLs every pooled attempt; the final
        serial in-parent attempt (no injection there) still produces the
        exact serial answer, with one warning per retry."""
        plan = FaultPlan(FaultConfig(seed=1, task_kill_rate=1.0))
        ex = ProcessExecutor(n_workers=2, max_retries=2, backoff_base=0.0, faults=plan)
        tasks = list(range(5))
        with pytest.warns(RuntimeWarning, match=r"retry [12]/2") as captured:
            assert ex.map(_double, tasks) == [t * 2 for t in tasks]
        messages = [str(w.message) for w in captured]
        assert any("retry 1/2" in m and "in a fresh pool" in m for m in messages)
        assert any("retry 2/2" in m and "serially in the parent" in m for m in messages)

    @needs_fork
    def test_partial_kill_rate_matches_serial(self):
        plan = FaultPlan(FaultConfig(seed=3, task_kill_rate=0.5))
        ex = ProcessExecutor(n_workers=2, max_retries=3, backoff_base=0.0, faults=plan)
        tasks = list(range(8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = ex.map(_double, tasks)
        assert result == SerialExecutor().map(_double, tasks)

    @needs_fork
    def test_hung_task_raises_timeout_error(self):
        """A task that only ever hangs must raise TaskTimeoutError rather
        than hang the parent (the final serial attempt is skipped for it)."""
        ex = ProcessExecutor(n_workers=2, max_retries=1, backoff_base=0.0, timeout=0.5)
        start = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TaskTimeoutError) as info:
                ex.map(_sleep_forever, [0, 1])
        assert time.monotonic() - start < 30
        assert info.value.timeout == 0.5
        assert "task timeout" in str(info.value)


# ---------------------------------------------------------------------------
# Checkpoint/resume under faults
# ---------------------------------------------------------------------------
class Killed(Exception):
    pass


def run_until_killed(tuner, checkpoint, kill_after):
    orig = tuner._observe  # the path every observation takes
    seen = [0]

    def observe(*args):
        out = orig(*args)
        seen[0] += 1
        if seen[0] >= kill_after:
            raise Killed()
        return out

    tuner._observe = observe
    with pytest.raises(Killed):
        tuner.run(checkpoint=checkpoint)


class TestFaultCheckpointResume:
    CONFIG = FaultConfig(
        seed=7, dropout_rate=0.3, straggler_rate=0.3, quorum=0.3, eval_dropout_rate=0.3
    )

    def test_kill_resume_replays_the_same_faults(self, tmp_path, dataset):
        path = str(tmp_path / "faulted.ckpt")
        reference = make_tuner(dataset, faults=self.CONFIG)
        ref_result = reference.run()

        killed = make_tuner(dataset, faults=self.CONFIG)
        run_until_killed(killed, RunCheckpointer(path), kill_after=2)

        resumed = make_tuner(dataset, faults=self.CONFIG)
        resume_checkpoint(resumed, path)
        result = resumed.run(checkpoint=RunCheckpointer(path))
        assert_same_result(result, ref_result)
        # The fault bookkeeping came back too, and matches the
        # uninterrupted run's (evaluator release cursor + participation).
        assert (
            resumed.evaluator._release_index == reference.evaluator._release_index
        )
        assert np.array_equal(
            resumed.evaluator.participation.dropped,
            reference.evaluator.participation.dropped,
        )

    def test_resume_rejects_a_different_fault_config(self, tmp_path, dataset):
        path = str(tmp_path / "faulted.ckpt")
        tuner = make_tuner(dataset, faults=self.CONFIG)
        tuner.run()
        save_checkpoint(path, tuner)

        other = make_tuner(dataset, faults=FaultConfig(seed=8, dropout_rate=0.3))
        with pytest.raises(ValueError, match="attach_faults"):
            resume_checkpoint(other, path)

        unfaulted = make_tuner(dataset)
        with pytest.raises(ValueError, match="attach_faults"):
            resume_checkpoint(unfaulted, path)

    def test_unfaulted_checkpoints_stay_loadable(self, tmp_path, dataset):
        path = str(tmp_path / "plain.ckpt")
        tuner = make_tuner(dataset)
        tuner.run()
        save_checkpoint(path, tuner)
        resumed = make_tuner(dataset)
        resume_checkpoint(resumed, path)
        assert resumed.ledger.used == tuner.ledger.used


# ---------------------------------------------------------------------------
# Corrupt-checkpoint quarantine
# ---------------------------------------------------------------------------
class TestCorruptCheckpointQuarantine:
    def _assert_quarantined(self, path):
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_truncated_checkpoint(self, tmp_path, dataset):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_tuner(dataset))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        self._assert_quarantined(path)

    def test_garbage_payload(self, tmp_path):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"this is not a pickle at all")
        with pytest.warns(RuntimeWarning, match="quarantined as"):
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        self._assert_quarantined(path)

    def test_non_checkpoint_pickle(self, tmp_path):
        path = str(tmp_path / "list.ckpt")
        with open(path, "wb") as fh:
            pickle.dump([1, 2, 3], fh)
        with pytest.warns(RuntimeWarning, match="not a run checkpoint"):
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        self._assert_quarantined(path)

    def test_version_mismatch_is_not_quarantined(self, tmp_path):
        path = str(tmp_path / "future.ckpt")
        with open(path, "wb") as fh:
            pickle.dump({"format_version": CHECKPOINT_FORMAT_VERSION + 1}, fh)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)
        assert os.path.exists(path)  # still a valid file from another build
        assert not os.path.exists(path + ".corrupt")

    def test_missing_file_raises_plain(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "never-written.ckpt"))


# ---------------------------------------------------------------------------
# SIGTERM / SIGINT: checkpoint-and-exit at the next safe boundary
# ---------------------------------------------------------------------------
_PREEMPT_CHILD = """\
import os, pickle, signal, sys

sys.path.insert(0, {test_dir!r})
sys.path.insert(0, {src_dir!r})
from test_faults import make_tuner, mlp_dataset
from repro.engine.checkpoint import RunCheckpointer, resume_checkpoint

mode, ckpt, out = sys.argv[1], sys.argv[2], sys.argv[3]
sig = getattr(signal, sys.argv[4]) if len(sys.argv) > 4 else signal.SIGTERM
dataset = mlp_dataset()
tuner = make_tuner(dataset)

if mode == "ref":
    result = tuner.run()
elif mode == "victim":
    hook = RunCheckpointer(ckpt)
    orig = hook.save
    fired = [False]
    def save(tuner, force=False):
        wrote = orig(tuner, force=force)
        if wrote and not fired[0]:
            fired[0] = True
            os.kill(os.getpid(), sig)
        return wrote
    hook.save = save
    tuner.run(checkpoint=hook)  # exits via SystemExit(128 + sig) at a boundary
    raise AssertionError("victim was not terminated")
elif mode == "resume":
    resume_checkpoint(tuner, ckpt)
    result = tuner.run(checkpoint=RunCheckpointer(ckpt))
else:
    raise AssertionError(mode)

with open(out, "wb") as fh:
    pickle.dump(
        {{
            "observations": result.observations,
            "curve": result.curve,
            "final": result.final_full_error,
        }},
        fh,
    )
"""


class TestPreemptCheckpoint:
    def _run_child(self, script, mode, ckpt, out, sig_name="SIGTERM"):
        env = dict(os.environ)
        return subprocess.run(
            [sys.executable, script, mode, ckpt, out, sig_name],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    @pytest.mark.parametrize("sig_name", ["SIGTERM", "SIGINT"])
    def test_signal_saves_and_exits_then_resumes_bit_identically(
        self, tmp_path, sig_name
    ):
        script = str(tmp_path / "child.py")
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with open(script, "w") as fh:
            fh.write(
                _PREEMPT_CHILD.format(
                    test_dir=os.path.dirname(os.path.abspath(__file__)),
                    src_dir=os.path.join(repo, "src"),
                )
            )
        ckpt = str(tmp_path / "run.ckpt")
        ref_out = str(tmp_path / "ref.pkl")
        res_out = str(tmp_path / "resumed.pkl")

        ref = self._run_child(script, "ref", ckpt, ref_out, sig_name)
        assert ref.returncode == 0, ref.stderr

        victim = self._run_child(script, "victim", ckpt, str(tmp_path / "x.pkl"), sig_name)
        # 128 + signum: the run saved a final checkpoint and exited
        # cleanly instead of dying mid-step (143 SIGTERM, 130 SIGINT).
        assert victim.returncode == 128 + signal_num(sig_name), victim.stderr
        assert os.path.exists(ckpt)

        resumed = self._run_child(script, "resume", ckpt, res_out, sig_name)
        assert resumed.returncode == 0, resumed.stderr

        with open(ref_out, "rb") as fh:
            expected = pickle.load(fh)
        with open(res_out, "rb") as fh:
            actual = pickle.load(fh)
        assert actual["observations"] == expected["observations"]
        assert actual["curve"] == expected["curve"]
        same = actual["final"] == expected["final"]
        both_nan = np.isnan(actual["final"]) and np.isnan(expected["final"])
        assert same or both_nan

    def test_signals_untouched_without_checkpointer(self, dataset):
        """Without a checkpointer no handler is ever installed."""
        import signal as _signal

        before_term = _signal.getsignal(_signal.SIGTERM)
        before_int = _signal.getsignal(_signal.SIGINT)
        make_tuner(dataset).run()
        assert _signal.getsignal(_signal.SIGTERM) is before_term
        assert _signal.getsignal(_signal.SIGINT) is before_int


def signal_num(sig_name="SIGTERM"):
    import signal as _signal

    return int(getattr(_signal, sig_name))


# ---------------------------------------------------------------------------
# Sweep containment (experiments layer)
# ---------------------------------------------------------------------------
class TestSweepContainment:
    def test_failed_run_is_recorded_and_sweep_continues(self, tmp_path):
        from repro.experiments import ExperimentContext, run_method_comparison
        from repro.experiments.fig_methods import METHODS, bars_at_budget, curve_medians

        class Broken:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("injected sweep failure")

        METHODS["broken"] = Broken
        try:
            # The runs are mapped across two workers; containment and its
            # warnings happen in this process either way.
            ctx = ExperimentContext(preset="test", seed=0, n_bank_configs=4, n_workers=2)
            with pytest.warns(RuntimeWarning, match="failed") as captured:
                records = run_method_comparison(
                    ctx, methods=("rs", "broken"), n_trials=1, budget_points=4
                )
        finally:
            del METHODS["broken"]
        failed = [r for r in records if r.get("failed")]
        ok = [r for r in records if not r.get("failed")]
        assert len(failed) == 2  # noiseless + noisy
        messages = [str(w.message) for w in captured]
        assert sum("continuing the sweep" in m for m in messages) == 2
        assert any("runs failed" in m for m in messages)
        assert all(r.method == "broken" for r in failed)
        assert all("injected sweep failure" in r.error for r in failed)
        assert len(ok) == 2 and all(r.method == "rs" for r in ok)
        # Analysis views skip failure entries instead of crashing on the
        # missing curve fields.
        medians = curve_medians(records, "cifar10", "rs", "noisy")
        assert np.isfinite(medians["median"]).any()
        bars = bars_at_budget(records)
        assert {r.method for r in bars} == {"rs"}
        with pytest.raises(ValueError):
            curve_medians(records, "cifar10", "broken", "noisy")

    def test_unknown_dataset_fails_its_runs_only(self):
        from repro.experiments import ExperimentContext, run_method_comparison

        ctx = ExperimentContext(preset="test", seed=0, n_bank_configs=4)
        with pytest.warns(RuntimeWarning, match="imagenet"):
            records = run_method_comparison(
                ctx, dataset_names=("imagenet",), methods=("rs",), n_trials=1
            )
        assert [(r.setting, r.failed) for r in records] == [("noiseless", True), ("noisy", True)]
        assert all("unknown dataset" in r.error for r in records)

    def test_make_tuner_survives_a_corrupt_resume(self, tmp_path):
        from repro.experiments import ExperimentContext
        from repro.experiments.fig_methods import PAPER_NOISELESS
        from repro.experiments.fig_methods import make_tuner as make_fig_tuner

        ctx = ExperimentContext(preset="test", seed=0, n_bank_configs=4)
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.warns(RuntimeWarning, match="the run fresh") as captured:
            tuner = make_fig_tuner(
                "rs", ctx, "cifar10", PAPER_NOISELESS, seed=3, resume=path
            )
        messages = [str(w.message) for w in captured]
        assert any(m.startswith("corrupt checkpoint") for m in messages)
        assert any("starting the run fresh" in m for m in messages)
        assert not tuner.observations  # fresh run, not a partial restore
        assert os.path.exists(path + ".corrupt")


# ---------------------------------------------------------------------------
# The chaos matrix (slow tier)
# ---------------------------------------------------------------------------
FAULT_MIXES = {
    "dropout-heavy": dict(dropout_rate=0.5, quorum=0.5),
    "stragglers": dict(straggler_rate=0.6, straggler_delay=5.0),
    "eval-dropout": dict(eval_dropout_rate=0.5, quorum=0.3),
    "trial-crashes": dict(trial_failure_rate=0.3, max_trial_failures=1),
    "everything": dict(
        dropout_rate=0.3,
        straggler_rate=0.3,
        quorum=0.3,
        eval_dropout_rate=0.3,
        trial_failure_rate=0.2,
    ),
}


@pytest.mark.slow
class TestChaosMatrix:
    @pytest.mark.parametrize("mode", ("serial", "fused"))
    @pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
    @pytest.mark.parametrize("fault_seed", (1, 2))
    def test_any_fault_mix_completes_and_reproduces(self, dataset, mode, mix, fault_seed):
        config = FaultConfig(seed=fault_seed, **FAULT_MIXES[mix])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = run_result(dataset, mode=mode, faults=FaultPlan(config))
            b = run_result(dataset, mode=mode, faults=FaultPlan(config))
        assert a.observations and a.rounds_used <= BUDGET
        assert_same_result(a, b)

    @pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
    def test_kill_resume_under_any_mix(self, tmp_path, dataset, mix):
        config = FaultConfig(seed=3, **FAULT_MIXES[mix])
        path = str(tmp_path / f"{mix}.ckpt")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = run_result(dataset, faults=FaultPlan(config))
            killed = make_tuner(dataset, faults=FaultPlan(config))
            run_until_killed(killed, RunCheckpointer(path), kill_after=2)
            resumed = make_tuner(dataset, faults=FaultPlan(config))
            resume_checkpoint(resumed, path)
            result = resumed.run(checkpoint=RunCheckpointer(path))
        assert_same_result(result, reference)
