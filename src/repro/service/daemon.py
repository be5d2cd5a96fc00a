"""The multi-tenant runner daemon of the tuning service.

One :class:`TuningService` process executes up to ``n_slots`` jobs
concurrently, each in its own thread, all fair-scheduled (round-robin over
tenants, via :meth:`repro.service.queue.JobQueue.lease`). A job is one
tuning run — a single-process runner that never builds a bank — and the
slots share one bank store under the service root.

Liveness and crash-safety split cleanly:

- The **main loop** owns all leases: it heartbeats every active job at
  ``heartbeat_interval`` regardless of what the job threads are doing, so
  a job wedged in a long bank build keeps its lease, while a ``kill -9``
  of the whole daemon stops all heartbeats at once and every lease
  expires for the next daemon to recover.
- **Job threads** only execute: checkpoint + stream + result write happen
  inside :func:`repro.service.worker.execute_job`; exceptions map to the
  queue's fail/quarantine path, and the checkpoint file makes any re-run
  bit-identical. A job thread that ends wakes the main loop, which leases
  the freed slot at once: ``poll_interval`` bounds only how long
  heartbeats and expiry sweeps wait, never a slot refill or a drain exit.

Graceful drain: SIGTERM and SIGINT (handled identically, the PR 7 → PR 9
contract) stop leasing, ask every active tuner to preempt
(:meth:`~repro.core.tuner.BaseTuner.request_preempt` — the thread-safe
flag, since signal handlers cannot be installed in worker threads), wait
for each to checkpoint at its next safe boundary and release its job, and
exit with code ``128 + signum`` (143 / 130).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Dict, Optional

from repro.service.queue import (
    FAILED,
    LEASED,
    PENDING,
    RUNNING,
    JobQueue,
    StaleLeaseError,
)
from repro.service.store import ExperimentStore
from repro.service.worker import execute_job

#: Queue states that still need daemon attention.
_LIVE_STATES = (PENDING, LEASED, RUNNING, FAILED)


class TuningService:
    """The runner daemon (see module docstring).

    Parameters
    ----------
    root : service root directory; holds ``queue/``, ``store/``,
        ``jobs/`` (checkpoints), ``results/``, and ``banks/``.
    n_slots : concurrent jobs this daemon executes.
    lease_duration / max_job_failures : queue parameters (see
        :class:`~repro.service.queue.JobQueue`).
    heartbeat_interval : seconds between lease renewals; default a third
        of the lease so two missed beats still keep the lease alive.
    poll_interval : longest main-loop wait; a job ending wakes it early.
    """

    def __init__(
        self,
        root: str,
        n_slots: int = 2,
        lease_duration: float = 30.0,
        max_job_failures: int = 3,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.05,
        clock=time.time,
    ):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        self.n_slots = int(n_slots)
        self.queue = JobQueue(
            os.path.join(self.root, "queue"),
            lease_duration=lease_duration,
            max_job_failures=max_job_failures,
            clock=clock,
        )
        self.store = ExperimentStore(os.path.join(self.root, "store"))
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else self.queue.lease_duration / 3.0
        )
        self.poll_interval = float(poll_interval)
        self.clock = clock
        self.worker_id = f"daemon-{os.getpid()}"
        self._active: Dict[str, Dict] = {}  # job_id -> {job, thread, handle}
        self._wake = threading.Event()  # set by an ending job and by request_drain
        self._drain_signum: Optional[int] = None
        self._prev_handlers: Dict[int, object] = {}

    # -- signals ----------------------------------------------------------------
    def request_drain(self, signum: int = signal.SIGTERM) -> None:
        """Begin graceful drain: stop leasing, preempt active tuners.

        Callable from any thread; idempotent (the first signal wins the
        exit code).
        """
        self._preempt(signum)
        self._wake.set()

    def _preempt(self, signum: int) -> None:
        # The signal handler: it runs on the main loop's thread, where
        # setting the wake event could deadlock on the event's own lock.
        if self._drain_signum is None:
            self._drain_signum = int(signum)
        for entry in list(self._active.values()):
            tuner = entry["handle"].get("tuner")
            if tuner is not None:
                tuner.request_preempt(self._drain_signum)

    def _install_signals(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # signal handlers are main-thread-only; drain stays callable
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._prev_handlers[signum] = signal.signal(
                signum, lambda s, frame: self._preempt(s)
            )

    def _restore_signals(self) -> None:
        for signum, handler in self._prev_handlers.items():
            signal.signal(signum, handler)
        self._prev_handlers.clear()

    # -- job threads ------------------------------------------------------------
    def _run_job(self, job: Dict, handle: Dict) -> None:
        job_id = job["job_id"]
        try:
            self.queue.mark_running(job_id, self.worker_id)
            execute_job(job, self.root, store=self.store, handle=handle)
            self.queue.complete(job_id, self.worker_id)
        except StaleLeaseError:
            # The lease moved on (expiry + re-lease); abandon quietly —
            # whoever holds it now resumes from the checkpoint.
            pass
        except SystemExit:
            # The drain path: the tuner checkpointed at a safe boundary
            # and exited. Give the job back without counting a failure.
            try:
                self.queue.release(job_id, self.worker_id)
            except (StaleLeaseError, KeyError):
                pass
        except BaseException:
            error = traceback.format_exc()
            try:
                self.queue.fail(job_id, self.worker_id, error)
            except (StaleLeaseError, KeyError):
                pass
        finally:
            # Free the slot (unless a newer thread holds the job after
            # this one lost its lease), then wake the main loop.
            if self._active.get(job_id, {}).get("thread") is threading.current_thread():
                del self._active[job_id]
            self._wake.set()

    def _fill_slots(self) -> None:
        while self._drain_signum is None and len(self._active) < self.n_slots:
            job = self.queue.lease(self.worker_id)
            if job is None:
                return
            handle: Dict = {}
            thread = threading.Thread(
                target=self._run_job,
                args=(job, handle),
                name=f"job-{job['job_id']}",
                daemon=True,
            )
            self._active[job["job_id"]] = {
                "job": job, "thread": thread, "handle": handle,
            }
            thread.start()

    def _heartbeat_active(self) -> None:
        for job_id, entry in list(self._active.items()):
            try:
                self.queue.heartbeat(job_id, self.worker_id)
            except (StaleLeaseError, KeyError):
                # Lost the lease (e.g. a long stop-the-world pause let it
                # expire and another daemon took the job): preempt our
                # copy; the thread's next queue op will abandon cleanly.
                tuner = entry["handle"].get("tuner")
                if tuner is not None:
                    tuner.request_preempt()

    # -- main loop --------------------------------------------------------------
    def _idle(self) -> bool:
        """No active jobs and nothing runnable left in the queue."""
        if self._active:
            return False
        counts = self.queue.counts()
        return all(counts[state] == 0 for state in _LIVE_STATES)

    def run(self, once: bool = False) -> None:
        """Serve jobs until drained (or, with ``once``, until the queue
        has no live jobs left). Raises ``SystemExit(128 + signum)`` after
        a signal-initiated drain completes."""
        self._install_signals()
        last_beat = self.clock()
        try:
            while True:
                self._wake.clear()
                self.queue.recover_expired()
                self._fill_slots()
                now = self.clock()
                if now - last_beat >= self.heartbeat_interval:
                    self._heartbeat_active()
                    last_beat = now
                if self._drain_signum is not None:
                    self._preempt(self._drain_signum)  # reach late tuners
                    if not self._active:
                        raise SystemExit(128 + self._drain_signum)
                elif once and self._idle():
                    return
                self._wake.wait(self.poll_interval)
        finally:
            self._restore_signals()

    def drain_and_wait(self, signum: int = signal.SIGTERM,
                       timeout: float = 60.0) -> None:
        """Programmatic drain (for embedding/tests): preempt everything
        and wait for the job threads to finish."""
        self.request_drain(signum)
        deadline = self.clock() + timeout
        for entry in list(self._active.values()):
            remaining = max(0.0, deadline - self.clock())
            entry["thread"].join(timeout=remaining)
