"""Append-only JSONL write-ahead journal for the job queue.

Every job-state transition is one JSON line appended to the journal and
fsync'd before the in-memory state changes — so queue state is always
reconstructible by replay, no matter where a crash lands:

- A crash *before* the append loses the transition entirely: the journal
  still describes the previous consistent state.
- A crash *mid-append* leaves a torn final line, which replay detects and
  drops (the newline is the commit marker). The next append seals the
  fragment with a NUL before the newline, so it never parses.
- A crash *after* the append is the normal case: replay reproduces the
  transition.

Lost transitions are safe because the queue's semantics are at-least-once:
a LEASE that never hit disk simply expires nowhere (the job is still
PENDING after replay), and a DONE that never hit disk re-runs the job —
which the checkpoint/resume contract makes bit-identical.

Readers tail the log: :meth:`Journal.replay` returns the entries past a
byte offset and records in :attr:`Journal.offset` where to pick up next.

Multi-process access (the REST front end submitting while the daemon
leases) is serialized by an ``fcntl.flock`` file lock around each
read-modify-append cycle (see :class:`FileLock`).
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from typing import Dict, List, Tuple

try:  # POSIX; the CI/dev platform. Non-POSIX degrades to no locking.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


class FileLock:
    """A two-level mutex: ``threading.RLock`` within the process,
    ``flock`` across processes (re-entrant per thread).

    Usage: ``with FileLock(path): ...``. The in-process RLock serializes
    the daemon's job threads *before* any of them touches the flock fd —
    without it, two threads racing at depth 0 would both ``os.open``, the
    second overwriting ``self._fd`` and leaking the first thread's locked
    descriptor, which then holds the exclusive flock forever. Across
    processes, waiters queue on the lock file; a ``kill -9``'d holder's
    lock is released automatically by the kernel when the process dies,
    so a dead worker can never wedge the queue.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._fd = None
        self._depth = 0
        self._tlock = threading.RLock()

    def __enter__(self) -> "FileLock":
        self._tlock.acquire()
        if self._depth == 0 and fcntl is not None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        self._tlock.release()


class Journal:
    """Crash-tolerant append-only JSONL log.

    Appends are a single ``write`` + ``fsync`` of one ``\\n``-terminated
    line; replay treats the newline as the commit marker, so a torn tail
    (crash mid-write) is dropped with a warning instead of poisoning the
    log. A corrupt line *before* the tail — disk damage rather than a torn
    append — is also skipped with a warning: the queue's at-least-once
    semantics tolerate lost transitions (lease expiry re-drives liveness),
    which beats refusing to load the whole queue (a tailing reader warns
    about each such line once, as it passes it).
    """

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self.offset = 0  # byte just past the last committed line replayed

    def append(self, entry: Dict) -> Tuple[int, int]:
        """Durably append one entry (the commit point of a transition);
        returns the ``(start, end)`` byte span of its line."""
        line = (json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n").encode()
        with open(self.path, "a+b") as fh:
            fh.seek(0, os.SEEK_END)
            start = fh.tell()
            if start:
                fh.seek(start - 1)
                if fh.read(1) != b"\n":
                    # A previous process died mid-append. Seal the torn
                    # fragment as its own corrupt, skipped line so this
                    # entry doesn't merge into it and get lost with it. The
                    # NUL (never valid in JSON) keeps a fragment that is
                    # already a whole entry from committing after the fact.
                    fh.write(b"\x00\n")
                    start += 2
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        return start, start + len(line)

    def replay(self, start: int = 0) -> List[Dict]:
        """The entries committed from byte ``start`` on, in append order
        (empty if no file yet). Sets :attr:`offset` to the byte just past
        the last committed line: a torn tail stays unconsumed, so every
        replay that reaches it warns again until an append seals it."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(start)
                data = fh.read()
        except FileNotFoundError:
            data = b""
        end = data.rfind(b"\n") + 1  # past the last commit marker
        self.offset = start + end
        torn = data[end:]
        if torn:
            warnings.warn(
                f"journal {self.path} ends with a torn entry "
                f"({len(torn)} bytes); dropping it (the transition never "
                "committed)",
                RuntimeWarning,
                stacklevel=3,
            )
        entries: List[Dict] = []
        bad = 0
        for line in data[:end].split(b"\n"):
            if not line:
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except ValueError:
                bad += 1
                continue
            if isinstance(entry, dict):
                entries.append(entry)
            else:
                bad += 1
        if bad:
            warnings.warn(
                f"journal {self.path}: skipped {bad} corrupt entr"
                f"{'y' if bad == 1 else 'ies'} (at-least-once semantics "
                "recover the lost transitions via lease expiry)",
                RuntimeWarning,
                stacklevel=3,
            )
        return entries
