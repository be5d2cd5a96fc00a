"""Serial/parallel bit-equivalence: the engine's core guarantee.

Parallelism must change wall-clock time and nothing else. Workers map
whole tuning runs of a sweep and the configs of a bank build; these tests
run the same seeded work through the serial and the process-pool paths
and require identical results — sweep records, warnings, bank tensors,
trainer states.
"""

import json
import os
import pickle
from functools import lru_cache

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, paper_space
from repro.datasets import load_dataset
from repro.engine.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointVersionError
from repro.engine.executor import ProcessExecutor, SerialExecutor, fork_available
from repro.engine.faults import FaultConfig, FaultPlan
from repro.experiments import ExperimentContext, run_fault_sweep, run_method_comparison
from repro.experiments.bank import ConfigBank
from repro.experiments.fig_methods import (
    METHODS,
    PAPER_NOISY,
    RunSpec,
    _file_stamp,
    _run_task,
    make_tuner,
)

SPACE = paper_space(batch_sizes=(4, 8, 16))

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


@pytest.fixture(scope="module")
def cifar():
    return load_dataset("cifar10", "test", seed=0)


@needs_fork
class TestBankBuildEquivalence:
    def test_bank_build_identical(self, cifar):
        kwargs = dict(n_configs=4, max_rounds=9, seed=7, store_params=True)
        serial = ConfigBank.build(cifar, SPACE, executor=SerialExecutor(), **kwargs)
        parallel = ConfigBank.build(cifar, SPACE, executor=ProcessExecutor(2), **kwargs)
        assert np.array_equal(serial.errors, parallel.errors)
        assert np.array_equal(serial.params, parallel.params)
        assert serial.configs == parallel.configs
        assert serial.checkpoints == parallel.checkpoints


class TestAdvanceManyEquivalence:
    def test_consumed_rounds_match_serial(self, cifar):
        """A batch advance applies the per-trial round cap and skips no-op
        requests exactly as a loop of single advances does."""

        def build_trials(runner):
            rng = np.random.default_rng(5)
            return [runner.create(SPACE.sample(rng)) for _ in range(3)]

        serial_runner = FederatedTrialRunner(cifar, max_rounds=6, seed=2)
        batch_runner = FederatedTrialRunner(cifar, max_rounds=6, seed=2)
        ts = build_trials(serial_runner)
        tb = build_trials(batch_runner)
        requests = [4, 10, 0]  # includes a cap overflow and a no-op
        consumed_serial = [serial_runner.advance(t, r) for t, r in zip(ts, requests)]
        consumed_batch = batch_runner.advance_many(list(zip(tb, requests)))
        assert consumed_batch == consumed_serial == [4, 6, 0]
        assert batch_runner.rounds_used == serial_runner.rounds_used
        for a, b in zip(ts, tb):
            assert a.rounds == b.rounds
            assert np.array_equal(a.state.params, b.state.params)
            assert serial_runner.error_rates(a).tolist() == batch_runner.error_rates(b).tolist()

    def test_duplicate_trial_rejected(self, cifar):
        runner = FederatedTrialRunner(cifar, max_rounds=6, seed=2)
        trial = runner.create(SPACE.sample(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            runner.advance_many([(trial, 1), (trial, 1)])

    def test_trainer_state_round_trip(self, cifar):
        """state_dict/load_state_dict captures everything: a restored
        trainer continues bit-identically."""
        runner = FederatedTrialRunner(cifar, max_rounds=9, seed=4)
        a = runner.create(SPACE.sample(np.random.default_rng(1)))
        runner.advance(a, 3)
        state = a.state.state_dict()
        # Continue the original.
        a.state.run(3)
        ref = a.state.params.copy()
        # Restore into a freshly-built twin and continue the same rounds.
        runner2 = FederatedTrialRunner(cifar, max_rounds=9, seed=4)
        b = runner2.create(SPACE.sample(np.random.default_rng(1)))
        b.state.load_state_dict(state)
        b.state.run(3)
        assert np.array_equal(b.state.params, ref)


# ---------------------------------------------------------------------------
# Sweeps: the executor maps whole runs
# ---------------------------------------------------------------------------
#: Cohort modes of the sweep rows; serial-mode runs cost twice as much, so
#: that leg runs in the slow tier.
MODES = (pytest.param("serial", marks=pytest.mark.slow), "fused")


def sweep_ctx(mode, n_workers, **kwargs):
    return ExperimentContext(
        preset="test", seed=0, n_bank_configs=4, cohort_mode=mode, n_workers=n_workers, **kwargs
    )


def comparison(ctx):
    return run_method_comparison(ctx, methods=("hb", "rs"), n_trials=1, budget_points=4)


def fault_sweep(ctx):
    return run_fault_sweep(ctx, dropout_rates=(0.0, 0.3), n_trials=1)


def as_json(records):
    return json.dumps([r.to_builtin() for r in records])


@lru_cache(maxsize=None)
def serial_records(mode, sweep):
    """The serial reference of one sweep (computed once per session)."""
    return as_json(sweep(sweep_ctx(mode, 1)))


class BrokenRun:
    """A tuner whose run raises — inside whichever process runs it."""

    def __init__(self, *args, **kwargs):
        pass

    def run(self, checkpoint=None):
        raise RuntimeError("injected run failure")


@needs_fork
class TestSweepEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_method_comparison_matches_serial(self, mode):
        pooled = comparison(sweep_ctx(mode, 2))
        assert as_json(pooled) == serial_records(mode, comparison)

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_sweep_matches_serial_and_leaves_executor_unfaulted(self, mode):
        ctx = sweep_ctx(mode, 2)
        assert isinstance(ctx.executor, ProcessExecutor) and ctx.executor.faults is None
        # Each run's own plan stays with its run: building a faulted tuner
        # or running the sweep never writes it onto the shared executor.
        plan = FaultPlan(FaultConfig(task_kill_rate=0.5, seed=3))
        make_tuner("rs", ctx, "cifar10", PAPER_NOISY, seed=1, faults=plan)
        assert ctx.executor.faults is None
        pooled = fault_sweep(ctx)
        assert ctx.executor.faults is None
        assert as_json(pooled) == serial_records(mode, fault_sweep)

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", MODES)
    def test_killed_workers_retry_whole_runs(self, mode):
        """task_kill_rate SIGKILLs workers at task start; each killed run
        is retried whole and the records do not change."""
        ctx = sweep_ctx(mode, 2, faults=FaultConfig(task_kill_rate=0.5, seed=3))
        assert ctx.executor.faults is ctx.faults
        with pytest.warns(RuntimeWarning, match="retry 1/1"):
            pooled = comparison(ctx)
        assert as_json(pooled) == serial_records(mode, comparison)

    def test_failed_run_in_a_worker_matches_serial(self, monkeypatch):
        monkeypatch.setitem(METHODS, "broken", BrokenRun)
        outcomes = []
        for n_workers in (1, 2):
            ctx = sweep_ctx("serial", n_workers)
            with pytest.warns(RuntimeWarning) as captured:
                records = run_method_comparison(ctx, methods=("broken",), n_trials=1)
            outcomes.append((as_json(records), [str(w.message) for w in captured]))
        assert outcomes[0] == outcomes[1]
        records = json.loads(outcomes[0][0])
        assert [(r["setting"], r["failed"]) for r in records] == [("noiseless", True), ("noisy", True)]
        assert records[0]["error"] == "RuntimeError('injected run failure')"
        messages = outcomes[0][1]
        assert messages[0] == (
            "run cifar10/noiseless/broken/t0 failed: "
            "RuntimeError('injected run failure'); continuing the sweep"
        )
        assert messages[-1].startswith("2 of the sweep's runs failed")

    def test_refused_resume_in_a_worker_propagates(self, tmp_path):
        ckdir = tmp_path / "ckpt"
        ckdir.mkdir()
        for setting in ("noiseless", "noisy"):
            with open(ckdir / f"fig8-cifar10-{setting}-rs-t0.ckpt", "wb") as fh:
                pickle.dump({"format_version": CHECKPOINT_FORMAT_VERSION + 1}, fh)
        ctx = sweep_ctx("serial", 2, checkpoint_dir=str(ckdir))
        with pytest.raises(CheckpointVersionError):
            run_method_comparison(ctx, methods=("rs",), n_trials=1, resume=True)
        # The refused checkpoints are left untouched.
        assert sorted(os.listdir(ckdir)) == [
            "fig8-cifar10-noiseless-rs-t0.ckpt", "fig8-cifar10-noisy-rs-t0.ckpt",
        ]

    def test_retried_run_resumes_only_its_own_checkpoint(self, tmp_path, monkeypatch):
        """A task whose worker died is retried; the retry resumes from what
        the first attempt saved, never from a file older than the sweep.
        (The checkpoint here is refused on load, so a resume attempt shows
        as CheckpointVersionError.)"""
        monkeypatch.setitem(METHODS, "broken", BrokenRun)
        path = tmp_path / "run.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"format_version": CHECKPOINT_FORMAT_VERSION + 1}, fh)
        spec = RunSpec(
            name="r", method="broken", dataset="cifar10", noise=PAPER_NOISY, seed=0,
            fields={}, checkpoint=str(path),
        )
        ctx = sweep_ctx("serial", 1)
        # The file predates the sweep: the run starts fresh.
        record = _run_task((ctx, [spec], None, [_file_stamp(str(path))]), 0)
        assert record == {"failed": True, "error": "RuntimeError('injected run failure')"}
        # The file was written after the sweep started: the run resumes it.
        with pytest.raises(CheckpointVersionError):
            _run_task((ctx, [spec], None, [None]), 0)
