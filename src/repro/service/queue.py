"""Crash-safe job queue with at-least-once semantics and expiring leases.

Jobs move PENDING → LEASED → RUNNING → DONE / FAILED / QUARANTINED. Every
transition is committed to the write-ahead journal
(:class:`repro.service.journal.Journal`) *before* it takes effect, so the
queue's full state is a pure function of journal replay — a ``kill -9``
anywhere loses at most the transition being written, and the journal's
torn-tail handling drops exactly that.

Liveness is lease-driven: a worker holds an expiring lease on each job it
executes and renews it by heartbeat. A worker that dies stops
heartbeating; once the lease expires, the next ``lease()`` or
``recover_expired()`` sweep requeues the job as PENDING, and the
checkpoint/resume contract makes the re-run bit-identical. Lease expiry is
*not* a failure — only an exception raised by the job itself counts toward
``max_job_failures``, after which the job is QUARANTINED as poison with
its traceback, out of the way of its sibling tenants.

Cross-process writers (the REST front end submitting while the daemon
leases) serialize on an ``flock`` file lock. Every op first catches up
under the lock, reading only what was appended since this instance last
looked: it keeps a cursor ``(st_dev, st_ino, offset)`` into the journal,
and its own appends advance it in place. A missing, replaced (new inode)
or shrunk journal resets the cursor to a full replay, as on construction.

Fairness: ``lease()`` rotates round-robin over tenants with pending work,
so one tenant's deep backlog cannot starve another's single job. The
rotation cursor is deliberately in-memory only — fairness is a scheduling
preference, not a durability invariant.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.journal import FileLock, Journal

# Job lifecycle states.
PENDING = "PENDING"          # submitted, waiting for a worker
LEASED = "LEASED"            # held by a worker, not yet executing
RUNNING = "RUNNING"          # actively executing under a live lease
DONE = "DONE"                # finished; result persisted
FAILED = "FAILED"            # last attempt raised; retryable, awaiting requeue
QUARANTINED = "QUARANTINED"  # poison: failed max_job_failures times, parked

STATES = (PENDING, LEASED, RUNNING, DONE, FAILED, QUARANTINED)

#: States in which a worker holds the job.
_HELD = (LEASED, RUNNING)


class StaleLeaseError(RuntimeError):
    """A worker acted on a job whose lease it no longer holds.

    Raised when the lease expired (and the job was requeued, possibly to
    another worker) between the worker's operations. The correct worker
    response is to abandon the job — its progress is safe in the
    checkpoint, and whoever holds the lease now will resume from it.
    """


class JobQueue:
    """Journal-backed job queue (see module docstring).

    Parameters
    ----------
    root : directory holding ``queue.jsonl`` (the journal) and
        ``queue.lock`` (the cross-process mutex).
    lease_duration : seconds a lease lives without a heartbeat.
    max_job_failures : executions that may raise before the job is
        quarantined as poison.
    clock : time source (seconds); injectable so tests can expire leases
        without sleeping.
    """

    def __init__(
        self,
        root: str,
        lease_duration: float = 30.0,
        max_job_failures: int = 3,
        clock: Callable[[], float] = time.time,
    ):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.lease_duration = float(lease_duration)
        if self.lease_duration <= 0:
            raise ValueError(f"lease_duration must be > 0, got {lease_duration}")
        self.max_job_failures = int(max_job_failures)
        if self.max_job_failures < 1:
            raise ValueError(f"max_job_failures must be >= 1, got {max_job_failures}")
        self.clock = clock
        self.journal = Journal(os.path.join(self.root, "queue.jsonl"))
        self.lock = FileLock(os.path.join(self.root, "queue.lock"))
        self._cursor: Optional[Tuple[int, int, int]] = None
        self._rr_cursor = 0          # in-memory tenant rotation (fairness only)
        self.reload()

    # -- state reconstruction ---------------------------------------------------
    def reload(self) -> None:
        """Catch up with the journal: apply the entries committed since
        this instance last looked (a full replay the first time, or when
        the journal is missing, replaced or shrunk).

        Called under the lock before every op, so concurrent processes
        (REST submitter, daemon) always see each other's committed
        transitions.
        """
        try:
            st = os.stat(self.journal.path)
        except FileNotFoundError:
            st = None
        cursor, self._cursor = self._cursor, None  # a replay that raises re-reads all
        if st is None or cursor is None or cursor[:2] != (st.st_dev, st.st_ino) \
                or st.st_size < cursor[2]:
            self._jobs: Dict[str, Dict] = {}
            self._order: List[str] = []  # submission order, for deterministic scans
            self._next_seq = 1           # the first free default id is j{_next_seq:04d}
            cursor = None
        if st is not None:
            for entry in self.journal.replay(cursor[2] if cursor else 0):
                self._apply(entry)
            self._cursor = (st.st_dev, st.st_ino, self.journal.offset)

    def _apply(self, entry: Dict) -> None:
        """Apply one committed journal entry to the in-memory state."""
        op = entry.get("op")
        job_id = entry.get("job_id")
        if op == "submit":
            if job_id in self._jobs:
                return  # duplicate submit (at-least-once REST retry)
            self._jobs[job_id] = {
                "job_id": job_id,
                "tenant": entry.get("tenant", "default"),
                "spec": entry.get("spec", {}),
                "state": PENDING,
                "worker": None,
                "lease_expires": None,
                "failures": 0,
                "error": None,
            }
            self._order.append(job_id)
            # Ids are never removed: the first free default id only moves forward.
            while f"j{self._next_seq:04d}" in self._jobs:
                self._next_seq += 1
            return
        job = self._jobs.get(job_id)
        if job is None:
            return  # transition for a lost submit; at-least-once tolerates
        if op == "lease":
            job.update(state=LEASED, worker=entry.get("worker"),
                       lease_expires=entry.get("expires"))
        elif op == "running":
            job["state"] = RUNNING
        elif op == "heartbeat":
            job["lease_expires"] = entry.get("expires")
        elif op in ("expire", "release", "requeue"):
            job.update(state=PENDING, worker=None, lease_expires=None)
        elif op == "done":
            job.update(state=DONE, worker=None, lease_expires=None)
        elif op == "fail":
            job.update(state=FAILED, worker=None, lease_expires=None,
                       failures=job["failures"] + 1, error=entry.get("error"))
        elif op == "quarantine":
            job.update(state=QUARANTINED, worker=None, lease_expires=None,
                       failures=job["failures"] + 1, error=entry.get("error"))

    def _commit(self, entry: Dict) -> None:
        """Append ``entry`` and apply it (the caller holds the lock and is
        caught up). An append that sealed a torn tail first, or began a new
        journal, reloads instead, to read the sealed line as others do."""
        start, end = self.journal.append(entry)
        if self._cursor is None or start != self._cursor[2]:
            return self.reload()
        self._apply(entry)
        self._cursor = self._cursor[:2] + (end,)

    # -- submission -------------------------------------------------------------
    def submit(self, spec: Dict, tenant: str = "default",
               job_id: Optional[str] = None) -> str:
        """Durably enqueue a job; returns its id.

        Ids default to a monotonic sequence ("j0001", "j0002", ...) so a
        reference run and a crash-recovery run of the same submissions
        produce identically-named results. An explicitly-passed id that
        already exists is an idempotent no-op (the REST retry case).
        """
        with self.lock:
            self.reload()
            if job_id is None:
                job_id = f"j{self._next_seq:04d}"
            elif job_id in self._jobs:
                return job_id
            self._commit({
                "op": "submit", "job_id": job_id, "tenant": str(tenant),
                "spec": spec,
            })
        return job_id

    # -- leasing ----------------------------------------------------------------
    def _sweep_expired_locked(self) -> int:
        """Requeue jobs whose lease has lapsed (caller holds the lock).

        Expiry does not count as a failure: the worker died (or wedged),
        the job didn't. Returns the number of jobs requeued.
        """
        now = self.clock()
        swept = 0
        for job_id in self._order:
            job = self._jobs[job_id]
            if job["state"] in _HELD and job["lease_expires"] is not None \
                    and job["lease_expires"] <= now:
                self._commit({
                    "op": "expire", "job_id": job_id, "worker": job["worker"],
                })
                swept += 1
        return swept

    def recover_expired(self) -> int:
        """Public sweep: requeue all expired leases; returns the count."""
        with self.lock:
            self.reload()
            return self._sweep_expired_locked()

    def lease(self, worker: str) -> Optional[Dict]:
        """Lease the next runnable job to ``worker`` (or ``None`` if idle).

        FAILED jobs requeue automatically here (they are retryable by
        definition — non-retryable ones went straight to QUARANTINED).
        Tenant selection is round-robin so every tenant with pending work
        gets a turn before any tenant gets a second.
        """
        with self.lock:
            self.reload()
            self._sweep_expired_locked()
            runnable = [self._jobs[j] for j in self._order
                        if self._jobs[j]["state"] in (PENDING, FAILED)]
            if not runnable:
                return None
            tenants = sorted({job["tenant"] for job in runnable})
            tenant = tenants[self._rr_cursor % len(tenants)]
            self._rr_cursor += 1
            job = next(j for j in runnable if j["tenant"] == tenant)
            if job["state"] == FAILED:
                self._commit({"op": "requeue", "job_id": job["job_id"]})
            expires = self.clock() + self.lease_duration
            self._commit({
                "op": "lease", "job_id": job["job_id"], "worker": str(worker),
                "expires": expires,
            })
            return dict(self._jobs[job["job_id"]])

    def _held_job_locked(self, job_id: str, worker: str) -> Dict:
        """The job iff ``worker`` still holds a live lease on it."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job["state"] not in _HELD or job["worker"] != worker:
            raise StaleLeaseError(
                f"worker {worker!r} no longer holds job {job_id!r} "
                f"(state={job['state']}, holder={job['worker']!r})"
            )
        if job["lease_expires"] is not None and job["lease_expires"] <= self.clock():
            # Expired but not yet swept: same outcome for this worker.
            self._commit({"op": "expire", "job_id": job_id,
                          "worker": job["worker"]})
            raise StaleLeaseError(
                f"worker {worker!r}'s lease on job {job_id!r} expired"
            )
        return job

    def _commit_held(self, op: str, job_id: str, worker: str, **fields) -> None:
        """Commit ``op`` on a job that ``worker`` must still hold."""
        with self.lock:
            self.reload()
            self._held_job_locked(job_id, worker)
            self._commit({"op": op, "job_id": job_id, "worker": worker, **fields})

    def heartbeat(self, job_id: str, worker: str) -> float:
        """Renew the worker's lease; returns the new expiry time."""
        expires = self.clock() + self.lease_duration
        self._commit_held("heartbeat", job_id, worker, expires=expires)
        return expires

    def mark_running(self, job_id: str, worker: str) -> None:
        """Record that execution began (LEASED → RUNNING)."""
        self._commit_held("running", job_id, worker)

    # -- completion -------------------------------------------------------------
    def complete(self, job_id: str, worker: str) -> None:
        """Commit success (→ DONE). The result must already be persisted —
        DONE is the journal's promise that it exists."""
        self._commit_held("done", job_id, worker)

    def fail(self, job_id: str, worker: str, error: str,
             retryable: bool = True) -> str:
        """Commit a raised execution (→ FAILED, or → QUARANTINED once the
        failure count reaches ``max_job_failures`` or the error is marked
        non-retryable). Returns the resulting state."""
        with self.lock:
            self.reload()
            job = self._held_job_locked(job_id, worker)
            poison = (not retryable) or job["failures"] + 1 >= self.max_job_failures
            self._commit({
                "op": "quarantine" if poison else "fail",
                "job_id": job_id, "worker": worker, "error": str(error),
            })
            return self._jobs[job_id]["state"]

    def release(self, job_id: str, worker: str) -> None:
        """Give the job back (→ PENDING) without counting a failure — the
        graceful-drain path: the worker checkpointed and is exiting."""
        self._commit_held("release", job_id, worker)

    # -- inspection -------------------------------------------------------------
    def job(self, job_id: str) -> Optional[Dict]:
        """A snapshot of one job's state (or ``None``)."""
        with self.lock:
            self.reload()
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def jobs(self) -> List[Dict]:
        """Snapshots of all jobs, in submission order."""
        with self.lock:
            self.reload()
            return [dict(self._jobs[j]) for j in self._order]

    def counts(self) -> Dict[str, int]:
        """Job counts by state (all states present, zeros included)."""
        snapshot = self.jobs()
        counts = {state: 0 for state in STATES}
        for job in snapshot:
            counts[job["state"]] += 1
        return counts
