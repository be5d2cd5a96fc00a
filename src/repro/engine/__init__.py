"""Parallel trial-execution engine.

The engine is the execution substrate underneath every online experiment:

- :mod:`repro.engine.executor` — a process-pool map primitive
  (:class:`ProcessExecutor`) built for this codebase's constraints:
  datasets hold closures and are *not* picklable, so heavy shared state
  rides a fork-inherited payload and only small, picklable results cross
  process boundaries. :class:`SerialExecutor` is the drop-in fallback and
  the reference for bit-equivalence.
  Pass one to :class:`repro.core.evaluator.FederatedTrialRunner`
  (``executor=make_executor(n)``) and its ``advance_many`` /
  ``error_rates_many`` batch API fans independent trials across workers
  while preserving per-trial deterministic seeding; without one,
  ``cohort_mode="fused"`` trains the batch in-process as cross-trial
  parameter slabs (:mod:`repro.fl.fused`). Workers and cohort mode are
  orthogonal: a worker's trainer runs whichever mode the runner was given.
- :mod:`repro.engine.bank_store` — :class:`BankStore`, a disk-backed
  memo of built configuration banks keyed by the full build signature
  ``(dataset, preset, seed, n_configs, max_rounds, format_version, ...)``.
- :mod:`repro.engine.checkpoint` — atomic on-disk checkpoint/resume for
  tuning runs: :func:`save_checkpoint`/:func:`resume_checkpoint` and the
  :class:`RunCheckpointer` periodic save hook serialize tuner + runner +
  RNG state so a preempted run continues bit-identically.

Every parallel path is bit-equivalent to its serial counterpart (the
fused path additionally tolerates ~1e-15/round ragged-padding drift,
documented in :mod:`repro.fl.cohort`): the only thing the engine changes
is wall-clock time.
"""

from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    TrialExecutor,
    WorkerCrashedError,
    default_workers,
    make_executor,
)
from repro.engine.bank_store import BANK_FORMAT_VERSION, BankStore
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    RunCheckpointer,
    load_checkpoint,
    resume_checkpoint,
    save_checkpoint,
)

__all__ = [
    "BANK_FORMAT_VERSION",
    "BankStore",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "ProcessExecutor",
    "RunCheckpointer",
    "SerialExecutor",
    "TrialExecutor",
    "WorkerCrashedError",
    "default_workers",
    "load_checkpoint",
    "make_executor",
    "resume_checkpoint",
    "save_checkpoint",
]
