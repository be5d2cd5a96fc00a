"""Parallel trial-execution engine.

The engine is the execution substrate underneath every online experiment:

- :mod:`repro.engine.executor` — a process-pool map primitive
  (:class:`ProcessExecutor`) built for this codebase's constraints:
  datasets hold closures and are *not* picklable, so heavy shared state
  rides a fork-inherited payload and only small, picklable results cross
  process boundaries. :class:`SerialExecutor` is the drop-in fallback and
  the reference for bit-equivalence.
  The experiment drivers map whole tuning runs through it (every
  fig8/15/16 cell and figfaults point is an independent, seeded run;
  :func:`repro.experiments.fig_methods.run_sweep`), and
  :meth:`repro.experiments.bank.ConfigBank.build` maps a serial build's
  configs. Inside a run, fused mode (the default) trains each
  ``advance_many`` batch in-process as cross-trial parameter slabs
  (:mod:`repro.fl.fused`).
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
    CheckpointPrecisionError,
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
    "CheckpointPrecisionError",
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
