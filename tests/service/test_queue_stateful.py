"""Stateful check of the journal-tailing queue: two ``JobQueue`` instances
on one root, each catching up from its own cursor, must always agree with
a fresh instance's full replay — through every transition, lease expiry,
torn or sealed garbage at the journal's tail, and an older journal
restored under them. Plus the cost contract:
over a churn of jobs, the entries replayed stay linear in the appends."""

import os
import shutil
import tempfile
import warnings

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.service.journal import Journal
from repro.service.queue import JobQueue, StaleLeaseError


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = float(start)

    def __call__(self):
        return self.now


#: Journal tail fragments: a torn prefix of a real entry, a whole entry
#: missing only its newline (which an append's seal commits), and junk.
FRAGMENTS = (
    '{"job_id":"j0001","op":"done"',
    '{"job_id":"j0002","op":"fail","error":"torn"}',
    '{"job_id":"j0003","op":"submit","spec":{},"tenant":"b"}',
    "@@not json@@",
    "[1, 2]",
)

queue_index = st.integers(0, 1)
worker = st.sampled_from(("w1", "w2"))
job_pick = st.integers(0, 63)


class TwoQueues(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="queue-stateful-")
        self.root = os.path.join(self.tmp, "q")
        self.clock = FakeClock()
        self.queues = [self._open() for _ in range(2)]

    def _open(self):
        return JobQueue(self.root, lease_duration=30.0, max_job_failures=2,
                        clock=self.clock)

    def _job_id(self, pick):
        ids = [job["job_id"] for job in self._open().jobs()]
        return ids[pick % len(ids)] if ids else "j0001"

    def _append_raw(self, text):
        with open(os.path.join(self.root, "queue.jsonl"), "a") as fh:
            fh.write(text)

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @rule(q=queue_index, tenant=st.sampled_from("ab"),
          explicit=st.sampled_from((None, None, "j0002", "j0004", "mine")))
    def submit(self, q, tenant, explicit):
        taken = {job["job_id"] for job in self._open().jobs()}
        expected = explicit or next(
            f"j{n:04d}" for n in range(1, len(taken) + 2)
            if f"j{n:04d}" not in taken
        )
        assert self.queues[q].submit({"n": len(taken)}, tenant=tenant,
                                     job_id=explicit) == expected

    @rule(q=queue_index, w=worker)
    def lease(self, q, w):
        self.queues[q].lease(w)

    @rule(q=queue_index, w=worker, pick=job_pick,
          op=st.sampled_from(("mark_running", "heartbeat", "complete", "release")))
    def transition(self, q, w, pick, op):
        try:
            getattr(self.queues[q], op)(self._job_id(pick), w)
        except (StaleLeaseError, KeyError):
            pass

    @rule(q=queue_index, w=worker, pick=job_pick, retryable=st.booleans())
    def fail(self, q, w, pick, retryable):
        try:
            self.queues[q].fail(self._job_id(pick), w, "boom", retryable=retryable)
        except (StaleLeaseError, KeyError):
            pass

    @rule(seconds=st.sampled_from((1.0, 15.0, 31.0)))
    def advance_clock(self, seconds):
        self.clock.now += seconds

    @rule(q=queue_index)
    def recover_expired(self, q):
        self.queues[q].recover_expired()

    @rule(fragment=st.sampled_from(FRAGMENTS))
    def torn_tail(self, fragment):
        self._append_raw(fragment)

    @rule(fragment=st.sampled_from(FRAGMENTS))
    def sealed_tail(self, fragment):
        self._append_raw(fragment + "\n")

    @rule(percent=st.integers(0, 100), replace=st.booleans())
    def rewind(self, percent, replace):
        """Restore an older journal: truncated in place, or swapped in as
        a new file padded with blank lines to the old length (so only its
        inode tells it apart). Either way every instance must rebuild."""
        path = os.path.join(self.root, "queue.jsonl")
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        keep = len(data) * percent // 100
        if replace:
            with open(path + ".old", "wb") as fh:
                fh.write(data[:keep] + b"\n" * (len(data) - keep))
            os.replace(path + ".old", path)
        else:
            os.truncate(path, keep)

    @invariant()
    def instances_match_a_full_replay(self):
        full = self._open().jobs()
        for queue in self.queues:
            assert queue.jobs() == full


def test_two_tailing_instances_match_a_full_replay():
    # Torn and corrupt lines warn by design (tests/service/test_queue.py
    # pins when); here only the reconstructed state is under test.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="journal ", category=RuntimeWarning)
        run_state_machine_as_test(
            TwoQueues,
            settings=settings(max_examples=50, stateful_step_count=40,
                              deadline=None, database=None),
        )


def test_churn_replays_entries_linear_in_appends(tmp_path, monkeypatch):
    """200 jobs submitted by one instance and run by another: each
    instance reads only the other's entries (its own appends update it in
    place), so the entries replayed sum to about the entries appended. A
    queue that re-replays the whole journal per op reads O(jobs^2)."""
    counts = {"appended": 0, "replayed": 0}
    append, replay = Journal.append, Journal.replay

    def counting_append(self, entry):
        counts["appended"] += 1
        return append(self, entry)

    def counting_replay(self, *args):
        entries = replay(self, *args)
        counts["replayed"] += len(entries)
        return entries

    monkeypatch.setattr(Journal, "append", counting_append)
    monkeypatch.setattr(Journal, "replay", counting_replay)
    root = str(tmp_path / "q")
    submitter, runner = JobQueue(root), JobQueue(root)
    for n in range(200):
        job_id = submitter.submit({"n": n}, tenant="abc"[n % 3])
        job = runner.lease("w")
        assert job["job_id"] == job_id
        runner.mark_running(job_id, "w")
        runner.heartbeat(job_id, "w")
        runner.complete(job_id, "w")
        assert submitter.job(job_id)["state"] == "DONE"
    assert counts["appended"] == 1000
    # + 1 per instance: a queue's first append to a new journal re-reads it.
    assert counts["replayed"] <= counts["appended"] + 2
