"""Durable tuning-as-a-service layer over the repro engine.

``repro.service`` turns the single-run engine (checkpointed tuners,
deterministic fault injection, fused slab training) into a long-lived
multi-tenant service:

- :mod:`repro.service.store` — a persistent experiment store: append-only,
  atomically-written on-disk records for projects / experiments / runs /
  validation results, plus a streamable incumbent-curve log per run.
- :mod:`repro.service.journal` — the crash-tolerant append-only JSONL
  write-ahead journal under the job queue.
- :mod:`repro.service.queue` — a crash-safe job queue with at-least-once
  semantics: PENDING → LEASED → RUNNING → DONE/FAILED/QUARANTINED, with
  expiring worker leases renewed by heartbeat; an expired lease requeues
  the job, and a poison job is quarantined after ``max_job_failures``.
- :mod:`repro.service.worker` — job specs and the execution path that
  resumes each job bit-identically from its last checkpoint.
- :mod:`repro.service.daemon` — the multi-tenant runner daemon: N
  concurrent job slots fair-scheduled round-robin over tenants, one
  shared bank store, and a graceful-drain SIGTERM/SIGINT path.
- :mod:`repro.service.http` — the stdlib-only REST front end
  (``http.server.ThreadingHTTPServer``, JSON bodies).
- :mod:`repro.service.cli` — the ``repro-serve`` entrypoint.

The durability contract, asserted in ``tests/service/``: ``kill -9`` of
the runner daemon with jobs in flight, followed by a restart, resumes all
leased jobs from their last checkpoints and produces per-job results
bit-identical to uninterrupted runs.
"""

from repro.service.daemon import TuningService
from repro.service.journal import Journal
from repro.service.queue import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    RUNNING,
    JobQueue,
    StaleLeaseError,
)
from repro.service.store import STORE_FORMAT_VERSION, ExperimentStore
from repro.service.worker import JobSpec, execute_job

__all__ = [
    "TuningService",
    "Journal",
    "JobQueue",
    "StaleLeaseError",
    "PENDING",
    "LEASED",
    "RUNNING",
    "DONE",
    "FAILED",
    "QUARANTINED",
    "ExperimentStore",
    "STORE_FORMAT_VERSION",
    "JobSpec",
    "execute_job",
]
