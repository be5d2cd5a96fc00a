"""Atomic on-disk checkpoint/resume for tuning runs.

A checkpoint captures everything a run needs to survive preemption and
continue *bit-identically*: the tuner's versioned state dict (budget
ledger, observations, curve, incumbent, per-method cursors and internals,
tuner RNG ``bit_generator`` state) and the runner's counterpart (round
accounting, trial-seed RNG stream; live trainer payloads ride inside the
tuner's trial table). The hard contract — asserted method-by-method in
``tests/engine/test_checkpoint.py`` — is that a run killed after any
observation and resumed from its last checkpoint produces the same
``TuningResult`` (observations, curves, DP release counts) and the same
tuner/trainer RNG end states as the uninterrupted run, across the serial
and fused cohort modes and any ``REPRO_WORKERS`` setting.

Checkpoints are written atomically (temp file + ``os.replace``, the same
pattern as :meth:`repro.engine.bank_store.BankStore.put`), so a crash
mid-save can never leave a truncated checkpoint behind: the file on disk
is always the previous complete snapshot or the new one.

Tuners call the periodic save hook only at *safe* batch boundaries —
points where the serialized state deterministically replays the remainder
of the current step — so resuming from any checkpoint, at any save
granularity, converges on the identical trajectory.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from typing import Dict

#: Version stamp of the on-disk checkpoint layout. Bump whenever the
#: structure of the saved state changes incompatibly; stale checkpoints
#: are rejected with :class:`CheckpointVersionError` instead of being
#: silently misinterpreted mid-run.
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, validated, or applied."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written under an incompatible format version."""


class CheckpointPrecisionError(CheckpointError):
    """The checkpoint was written under a different slab precision."""


def _active_precision(tuner) -> Dict:
    """The precision stamp of the run the tuner is training.

    Stamped into every checkpoint so a run saved under one precision is
    never silently resumed under another — a float32 run resumed in
    float64 (or vice versa) would not replay bit-identically. The
    ``"backend"`` entry is a fixed literal kept so the stamp (and the
    checkpoint bytes) match those of earlier builds.
    """
    import numpy as np

    from repro.nn.stacked import resolve_dtype

    dtype = getattr(tuner.runner, "cohort_dtype", None)
    dtype = np.dtype(dtype) if dtype is not None else resolve_dtype()
    return {"cohort_dtype": dtype.name, "backend": "numpy"}


def capture_run_state(tuner) -> Dict:
    """Snapshot a tuner + its runner as one plain picklable dict."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "method": tuner.method_name,
        "precision": _active_precision(tuner),
        "tuner": tuner.state_dict(),
        "runner": tuner.runner.state_dict(),
    }


def restore_run_state(tuner, state: Dict):
    """Load a :func:`capture_run_state` snapshot into a freshly
    constructed tuner (same method, space, runner wiring, and budget as
    the saved run). Returns the tuner."""
    version = state.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    method = state.get("method")
    if method != tuner.method_name:
        raise CheckpointError(
            f"checkpoint is for method {method!r}, not {tuner.method_name!r}"
        )
    # Precision is validated only when the checkpoint carries it:
    # version-1 checkpoints written before the precision stamp are
    # float64 by construction and stay loadable.
    saved_precision = state.get("precision")
    if saved_precision is not None:
        active = _active_precision(tuner)
        if saved_precision != active:
            raise CheckpointPrecisionError(
                f"checkpoint was written under {saved_precision!r} but this "
                f"run is configured for {active!r}; resuming across "
                "precision changes is not bit-reproducible — resume with "
                f"cohort_dtype={saved_precision.get('cohort_dtype')!r} "
                "(--cohort-dtype / $REPRO_DTYPE)"
            )
    # Runner first: trial payload rehydration inside the tuner's
    # load_state_dict must not consume the runner's trial-seed stream,
    # and the restored stream/ids must be in place before any trial is
    # rebuilt.
    tuner.runner.load_state_dict(state["runner"])
    tuner.load_state_dict(state["tuner"])
    return tuner


def write_state(path: str, state: Dict) -> str:
    """Atomically persist ``state`` at ``path`` (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".ckpt.tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def save_checkpoint(path: str, tuner) -> str:
    """Capture and atomically persist a tuner's full run state."""
    return write_state(path, capture_run_state(tuner))


def _quarantine_corrupt(path: str, reason: str) -> None:
    """Move a corrupt/truncated checkpoint aside as a collision-safe
    ``<path>.corrupt[.N]`` (mirroring
    :meth:`repro.engine.bank_store.BankStore.get`), so the next launch
    finds no checkpoint and starts fresh instead of tripping over the same
    broken file forever. Each corruption event keeps its own evidence
    file for post-mortems — a repeat never clobbers the previous one.
    """
    from repro.engine.atomicio import quarantine

    target = quarantine(path)
    if target is not None:
        note = f"quarantined as {target}"
    else:
        note = "could not be quarantined"
    warnings.warn(
        f"corrupt checkpoint {path}: {reason}; {note} — a re-launch will "
        "start the run fresh",
        RuntimeWarning,
        stacklevel=3,
    )


def load_checkpoint(path: str) -> Dict:
    """Read and validate a checkpoint file (raises on version mismatch).

    A corrupt or truncated file (unreadable pickle, or a pickle that is
    not a run checkpoint) is quarantined as ``<path>.corrupt`` with a
    warning and raises :class:`CheckpointError` — never a raw ``pickle``
    exception. Version mismatches are NOT quarantined: the file is a
    valid checkpoint from another build, and destroying it would be worse
    than refusing it.
    """
    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        _quarantine_corrupt(path, f"unreadable: {exc!r}")
        raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(state, dict) or "format_version" not in state:
        _quarantine_corrupt(path, "not a run checkpoint")
        raise CheckpointError(f"{path!r} is not a run checkpoint")
    if state["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path!r} has format version "
            f"{state['format_version']!r}; this build reads version "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    return state


def resume_checkpoint(tuner, path: str):
    """Restore ``tuner`` from the checkpoint file at ``path``."""
    return restore_run_state(tuner, load_checkpoint(path))


class RunCheckpointer:
    """Periodic save hook for :meth:`repro.core.tuner.BaseTuner.run`.

    ``every`` throttles saves by observation count: a save is skipped
    while fewer than ``every`` new observations have landed since the last
    write (``force=True`` — used for the final save — always writes).
    Skipping saves never affects results, only how much work a resume
    replays.
    """

    def __init__(self, path: str, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = str(path)
        self.every = every
        self._last_saved = -1

    def save(self, tuner, force: bool = False) -> bool:
        """Persist the tuner's state; returns whether a write happened."""
        n = len(tuner.observations)
        if not force and self._last_saved >= 0 and n - self._last_saved < self.every:
            return False
        save_checkpoint(self.path, tuner)
        self._last_saved = n
        return True
