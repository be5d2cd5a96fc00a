"""Process-pool execution primitive for independent trial work.

Design constraints, in order of importance:

1. **Determinism.** ``executor.map(fn, tasks, payload)`` must return exactly
   what a serial ``[fn(payload, t) for t in tasks]`` returns, in order. All
   randomness must already be bound into ``payload``/``tasks`` by the
   caller (e.g. per-trial seeds drawn serially before dispatch).
2. **Unpicklable shared state.** Datasets carry model-builder closures and
   cannot cross a pickle boundary. The payload therefore travels to
   workers by *fork inheritance*: it is parked in a module-level slot just
   before the pool forks, and workers read their inherited copy. Only the
   per-task argument and the per-task result are pickled, so ``fn`` must
   return plain data (arrays, dicts, numbers).
3. **Graceful degradation.** On platforms without ``fork``, with a single
   worker, with a single task, or when already inside a worker process,
   ``map`` silently runs serially — same results, no surprises.
4. **Crash containment.** A worker dying mid-task (OOM kill, segfault)
   raises an opaque ``BrokenProcessPool`` from stdlib pools, and a hung
   worker blocks forever. ``map`` instead re-runs the affected tasks
   through a bounded retry schedule with exponential backoff —
   ``max_retries`` pooled attempts (``REPRO_MAX_RETRIES``), the last of
   which runs serially in the parent, each preceded by one warning naming
   the retried tasks. ``fn`` is deterministic, so retried results are
   exactly what the workers would have produced; only a task that fails
   on its final attempt raises :class:`WorkerCrashedError` (or
   :class:`TaskTimeoutError` when it exceeded the per-task ``timeout`` /
   ``REPRO_TASK_TIMEOUT``) naming the culprit.

A :class:`repro.engine.faults.FaultPlan` with a nonzero ``task_kill_rate``
can be attached to deterministically SIGKILL workers mid-task (chaos
testing of the retry machinery); injected kills never change results —
the retry schedule always converges to the serial in-parent answer.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

# Fork-inherited slot: (fn, payload, fault plan, map index) for the map()
# attempt currently in flight. Workers fork after this is set and read
# their copy-on-write view; the parent clears it as soon as the pool is
# done.
_PAYLOAD: Any = None

# Set in worker processes so nested map() calls degrade to serial instead
# of forking pools from inside pool workers.
_IN_WORKER = False

# The fork-inherited payload slot above is process-global, so only one
# pooled attempt may be in flight at a time. This lock serializes pooled
# attempts from different threads so a fork can never snapshot another
# thread's payload. Single-threaded callers never contend.
_POOL_LOCK = threading.Lock()


#: Thread-count setters an OpenBLAS build may export, probed in order.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> List[ctypes.CDLL]:
    """Handles to the OpenBLAS libraries this process has already mapped
    (NumPy's bundled one), found in ``/proc/self/maps``; nothing new is
    loaded. Empty where that file does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5])
            }
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _single_thread_blas() -> None:
    """Cap every loaded OpenBLAS at one thread in this process.

    A forked worker inherits the parent's BLAS thread count, so n workers
    on n cores would each run that many BLAS threads and oversubscribe the
    machine. A library without a known setter is left as it is.
    """
    for lib in _loaded_openblas():
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    _single_thread_blas()


class WorkerCrashedError(RuntimeError):
    """A pool worker died mid-task (killed, segfaulted, OOM-reaped) and
    every retry of that task — including the final serial in-parent
    attempt — failed too.

    Carries the offending task so callers can log *which* trial/config
    brought the worker down instead of an anonymous BrokenProcessPool.
    """

    def __init__(self, task: Any, detail: str = ""):
        self.task = task
        message = f"worker process died while running task {task!r}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class TaskTimeoutError(WorkerCrashedError):
    """A pool task exceeded the per-task timeout on its final attempt."""

    def __init__(self, task: Any, timeout: float):
        self.timeout = timeout
        super().__init__(task, detail=f"exceeded the {timeout:g}s task timeout")


def _invoke(task: Any) -> Any:
    fn, payload, plan, map_index = _PAYLOAD
    if plan is not None and _IN_WORKER and plan.task_kills(map_index, task):
        # Injected chaos: die the way an OOM-reaped worker dies. Keyed by
        # the per-attempt map index, so a retry of this task redraws.
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(payload, task)


def fork_available() -> bool:
    """Whether the fork start method (required for unpicklable payloads)
    exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (else: one per CPU)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def default_max_retries() -> int:
    """Retry budget from ``REPRO_MAX_RETRIES`` (else 1 — the final serial
    in-parent attempt, matching the engine's original behavior)."""
    env = os.environ.get("REPRO_MAX_RETRIES")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_MAX_RETRIES must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"REPRO_MAX_RETRIES must be >= 1, got {value}")
        return value
    return 1


def default_task_timeout() -> Optional[float]:
    """Per-task timeout in seconds from ``REPRO_TASK_TIMEOUT`` (else None —
    no timeout; 0 also means no timeout)."""
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be a number of seconds, got {env!r}"
            ) from None
        if value < 0:
            raise ValueError(f"REPRO_TASK_TIMEOUT must be >= 0, got {value}")
        return value if value > 0 else None
    return None


class TrialExecutor:
    """Interface: ordered parallel map with a fork-shared payload."""

    n_workers: int = 1

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        payload: Any = None,
    ) -> List[Any]:
        """Return ``[fn(payload, task) for task in tasks]`` (order kept)."""
        raise NotImplementedError


class SerialExecutor(TrialExecutor):
    """In-process reference implementation."""

    def map(self, fn, tasks, payload=None):
        return [fn(payload, task) for task in tasks]


class ProcessExecutor(TrialExecutor):
    """Fork-based process-pool executor.

    A fresh pool is created per :meth:`map` attempt so each fork snapshots
    the current payload; worker startup is cheap under copy-on-write.

    Parameters
    ----------
    n_workers : pool size (``None``: ``REPRO_WORKERS`` / CPU count).
    max_retries : crash/timeout retry budget per map call (``None``:
        ``REPRO_MAX_RETRIES``, default 1). Retries before the last re-run
        the affected tasks in a fresh pool; the last retry runs them
        serially in the parent. Each retry emits one RuntimeWarning naming
        the retried tasks and sleeps an exponential backoff beforehand.
    backoff_base, backoff_cap : the sleep before retry ``k`` is
        ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds.
    timeout : per-task timeout in seconds (``None``: ``REPRO_TASK_TIMEOUT``,
        default no timeout). A task that exceeds it has its pool torn down
        (hung workers killed) and is retried; timing out on the final
        attempt raises :class:`TaskTimeoutError`. The final serial retry is
        not subjected to the timeout *unless* the task already timed out
        in a pool — a task that only ever hangs raises rather than hanging
        the parent.
    faults : optional :class:`repro.engine.faults.FaultPlan` whose
        ``task_kill_rate`` SIGKILLs workers mid-task (chaos testing).
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        max_retries: Optional[int] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        timeout: Optional[float] = None,
        faults=None,
    ):
        self.n_workers = n_workers if n_workers is not None else default_workers()
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self.max_retries = max_retries if max_retries is not None else default_max_retries()
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError(
                f"backoff must be >= 0, got base={backoff_base}, cap={backoff_cap}"
            )
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout if timeout is not None else default_task_timeout()
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        self.faults = faults
        # Per-attempt counter keying injected kill draws: a retried task
        # redraws, so injection exercises the retry path without ever
        # changing results. Deliberately NOT part of any serialized state —
        # kills are result-invariant, only coverage-relevant.
        self._attempts = 0

    def map(self, fn, tasks, payload=None):
        tasks = list(tasks)
        if len(tasks) <= 1 or self.n_workers <= 1 or _IN_WORKER or not fork_available():
            return SerialExecutor().map(fn, tasks, payload)
        results: List[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        ever_timed_out: set = set()
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
                names = ", ".join(repr(tasks[i]) for i in pending)
                mode = "serially in the parent" if attempt == self.max_retries else "in a fresh pool"
                warnings.warn(
                    f"retry {attempt}/{self.max_retries} for {len(pending)} "
                    f"task(s) [{names}] {mode} after {delay:.2g}s backoff",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if delay > 0:
                    time.sleep(delay)
            if attempt == self.max_retries:
                # Final attempt: serial, in-parent, no injection — the one
                # environment where only a genuinely-broken task can fail.
                for i in pending:
                    if i in ever_timed_out:
                        raise TaskTimeoutError(tasks[i], self.timeout)
                    try:
                        results[i] = fn(payload, tasks[i])
                    except Exception as exc:
                        raise WorkerCrashedError(
                            tasks[i], detail=f"serial retry failed: {exc}"
                        ) from exc
                return results
            crashed, timed_out = self._run_pooled(fn, payload, tasks, pending, results)
            ever_timed_out.update(timed_out)
            pending = sorted(crashed + timed_out)
            if not pending:
                return results
        raise AssertionError("unreachable: retry loop exits via return/raise")

    def _run_pooled(self, fn, payload, tasks, indices, results):
        """One pooled attempt over ``tasks[i] for i in indices``; fills
        ``results`` in place and returns ``(crashed, timed_out)`` index
        lists. A dying worker breaks every task queued behind it, so most
        crashed entries are innocent bystanders — the caller retries them.

        Holds :data:`_POOL_LOCK` end to end: the fork-inherited payload
        slot is process-global, so concurrent ``map`` calls from different
        threads take turns at the pool (their results are unaffected —
        ordering and randomness are bound into the tasks, not the pool).
        """
        with _POOL_LOCK:
            return self._run_pooled_locked(fn, payload, tasks, indices, results)

    def _run_pooled_locked(self, fn, payload, tasks, indices, results):
        global _PAYLOAD
        self._attempts += 1
        _PAYLOAD = (fn, payload, self.faults, self._attempts)
        crashed: List[int] = []
        timed_out: List[int] = []
        try:
            ctx = multiprocessing.get_context("fork")
            workers = min(self.n_workers, len(indices))
            pool = _PoolExecutor(
                max_workers=workers, mp_context=ctx, initializer=_mark_worker
            )
            try:
                futures = {i: pool.submit(_invoke, tasks[i]) for i in indices}
                resolved: set = set()
                for i in indices:
                    try:
                        results[i] = futures[i].result(timeout=self.timeout)
                        resolved.add(i)
                    except BrokenProcessPool:
                        crashed.append(i)
                        resolved.add(i)
                    except _FutureTimeout:
                        # The worker is hung; the whole pool is suspect.
                        # Tear it down and let the caller retry everything
                        # still unresolved.
                        timed_out.append(i)
                        resolved.add(i)
                        break
                if timed_out:
                    for i in indices:
                        if i not in resolved:
                            futures[i].cancel()
                            crashed.append(i)
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        proc.terminate()
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
            except SystemExit:
                # A task's checkpoint-and-exit preemption: every in-flight
                # task was signalled too, so let each reach its own save
                # before the exit propagates; queued tasks never start.
                pool.shutdown(wait=True, cancel_futures=True)
                raise
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        finally:
            _PAYLOAD = None
        return crashed, timed_out


def make_executor(n_workers: Optional[int] = None, faults=None) -> TrialExecutor:
    """Build the right executor for ``n_workers``.

    ``None`` resolves via :func:`default_workers` (``REPRO_WORKERS`` or the
    CPU count); a resolved count of 1 yields a :class:`SerialExecutor`.
    ``faults`` (a :class:`repro.engine.faults.FaultPlan`) rides into the
    process executor for chaos-testing worker kills.
    """
    workers = n_workers if n_workers is not None else default_workers()
    if workers <= 1 or not fork_available():
        return SerialExecutor()
    return ProcessExecutor(workers, faults=faults)
