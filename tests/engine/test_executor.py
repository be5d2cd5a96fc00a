"""Tests for the process-pool execution primitive."""

import ctypes
import os
import signal

import numpy as np
import pytest

from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    TrialExecutor,
    WorkerCrashedError,
    default_workers,
    fork_available,
    make_executor,
)


def _square(payload, task):
    return task * task


def _with_payload(payload, task):
    return payload["base"] + task


def _pid(payload, task):
    return os.getpid()


def _kill_worker_on_task(payload, task):
    """SIGKILL the current process when it is a pool *worker* and the task
    is the designated crasher; the parent's serial retry then succeeds."""
    from repro.engine import executor

    if executor._IN_WORKER and task == payload["crash_task"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return task * task


def _always_crash(payload, task):
    """Deterministic crasher: fails in workers AND in the serial retry
    (with an exception in the parent, so the test process survives)."""
    from repro.engine import executor

    if task == payload["crash_task"]:
        if executor._IN_WORKER:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("boom")
    return task * task


def _blas_lib_and_threads():
    """``(lib, threads)`` of the first loaded OpenBLAS exporting a thread
    getter, else ``(None, None)``."""
    from repro.engine.executor import _loaded_openblas

    for lib in _loaded_openblas():
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return lib, getter()
    return None, None


def _blas_threads(payload, task):
    return _blas_lib_and_threads()[1]


class TestSerialExecutor:
    def test_maps_in_order(self):
        out = SerialExecutor().map(_square, [3, 1, 2])
        assert out == [9, 1, 4]

    def test_payload_passed(self):
        out = SerialExecutor().map(_with_payload, [1, 2], payload={"base": 10})
        assert out == [11, 12]

    def test_empty_tasks(self):
        assert SerialExecutor().map(_square, []) == []


class TestProcessExecutor:
    def test_results_match_serial(self):
        tasks = list(range(20))
        serial = SerialExecutor().map(_square, tasks)
        parallel = ProcessExecutor(2).map(_square, tasks)
        assert parallel == serial

    def test_order_preserved_with_payload(self):
        tasks = list(range(17))
        out = ProcessExecutor(3).map(_with_payload, tasks, payload={"base": 100})
        assert out == [100 + t for t in tasks]

    def test_unpicklable_payload_rides_fork(self):
        # Closures cannot cross a pickle boundary; the payload must not.
        big = {"fn": lambda x: x + 1, "arr": np.arange(5)}

        out = ProcessExecutor(2).map(_payload_arr_sum, [0, 1, 2], payload=big)
        assert out == [10.0, 10.0, 10.0]

    def test_single_task_runs_serial(self):
        assert ProcessExecutor(4).map(_square, [5]) == [25]

    def test_single_worker_runs_serial(self):
        assert ProcessExecutor(1).map(_square, [2, 3]) == [4, 9]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_runs_in_distinct_processes(self):
        pids = set(ProcessExecutor(2).map(_pid, list(range(8))))
        assert os.getpid() not in pids

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_workers_run_one_blas_thread(self):
        # Forked workers would inherit the parent's BLAS pool and
        # oversubscribe the cores; each caps itself at one thread, and the
        # parent keeps its own count.
        from repro.engine.executor import _BLAS_THREAD_SETTERS

        lib, threads = _blas_lib_and_threads()
        setter = None if lib is None else next(
            (getattr(lib, n) for n in _BLAS_THREAD_SETTERS if hasattr(lib, n)), None
        )
        if setter is None:
            pytest.skip("no OpenBLAS thread-count symbols loaded")
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(2)  # so a worker that kept the parent's count reads 2, not 1
        try:
            assert ProcessExecutor(2).map(_blas_threads, [0, 1]) == [1, 1]
            assert _blas_lib_and_threads()[1] == 2
        finally:
            setter(threads)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestWorkerCrash:
    """A worker dying mid-task (OOM-reaped, segfault, kill -9) must not
    surface as an anonymous BrokenProcessPool: the affected tasks get one
    serial in-parent retry, and only a task that fails again raises a
    WorkerCrashedError naming it."""

    def test_sigkilled_worker_recovers_via_serial_retry(self):
        tasks = list(range(8))
        with pytest.warns(RuntimeWarning, match=r"retry 1/1 .* serially in the parent"):
            out = ProcessExecutor(2).map(
                _kill_worker_on_task, tasks, payload={"crash_task": 3}
            )
        assert out == [t * t for t in tasks]

    def test_unrecoverable_task_raises_naming_it(self):
        with pytest.warns(RuntimeWarning, match=r"retry 1/1 .* serially in the parent"):
            with pytest.raises(WorkerCrashedError) as excinfo:
                ProcessExecutor(2).map(
                    _always_crash, list(range(8)), payload={"crash_task": 5}
                )
        assert excinfo.value.task == 5
        assert "5" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_error_names_task(self):
        err = WorkerCrashedError(("trial", 7), detail="oom")
        assert err.task == ("trial", 7)
        assert "('trial', 7)" in str(err)
        assert "oom" in str(err)


def _payload_arr_sum(payload, task):
    return float(payload["arr"].sum())


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_workers_is_process(self):
        ex = make_executor(4)
        if fork_available():
            assert isinstance(ex, ProcessExecutor)
            assert ex.n_workers == 4
        else:
            assert isinstance(ex, SerialExecutor)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TrialExecutor().map(_square, [1])
