"""Tests for the crash-safe job queue: the lease state machine, expiry
recovery, poison quarantine, fairness, and cross-process consistency."""

import os
import warnings

import pytest

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


class FakeClock:
    """Deterministic time source: leases expire by advancing, not sleeping."""

    def __init__(self, start=1000.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    return JobQueue(str(tmp_path / "q"), lease_duration=30.0,
                    max_job_failures=3, clock=clock)


SPEC = {"dataset": "cifar10", "method": "rs"}


class TestSubmit:
    def test_sequential_ids(self, queue):
        assert queue.submit(SPEC) == "j0001"
        assert queue.submit(SPEC) == "j0002"
        assert queue.submit(SPEC) == "j0003"

    def test_default_ids_skip_colliding_explicit_ids(self, queue, tmp_path):
        assert queue.submit(SPEC, job_id="j0002") == "j0002"
        assert queue.submit(SPEC) == "j0001"
        assert queue.submit(SPEC) == "j0003"  # past the explicit j0002
        assert queue.submit(SPEC, job_id="j0005") == "j0005"
        assert queue.submit(SPEC) == "j0004"
        assert queue.submit(SPEC) == "j0006"
        # A fresh instance's full replay lands on the same next id.
        assert JobQueue(str(tmp_path / "q")).submit(SPEC) == "j0007"

    def test_explicit_id_is_idempotent(self, queue):
        assert queue.submit(SPEC, job_id="mine") == "mine"
        assert queue.submit({"other": True}, job_id="mine") == "mine"
        assert queue.job("mine")["spec"] == SPEC  # first submit wins

    def test_submitted_job_is_pending(self, queue):
        job_id = queue.submit(SPEC, tenant="alice")
        job = queue.job(job_id)
        assert job["state"] == PENDING
        assert job["tenant"] == "alice"
        assert job["spec"] == SPEC
        assert job["failures"] == 0

    def test_counts(self, queue):
        queue.submit(SPEC)
        queue.submit(SPEC)
        counts = queue.counts()
        assert counts[PENDING] == 2
        assert sum(counts.values()) == 2


class TestLifecycle:
    def test_happy_path(self, queue):
        job_id = queue.submit(SPEC)
        job = queue.lease("w1")
        assert job["job_id"] == job_id
        assert job["state"] == LEASED
        assert job["worker"] == "w1"
        queue.mark_running(job_id, "w1")
        assert queue.job(job_id)["state"] == RUNNING
        queue.complete(job_id, "w1")
        done = queue.job(job_id)
        assert done["state"] == DONE
        assert done["worker"] is None

    def test_lease_empty_queue_returns_none(self, queue):
        assert queue.lease("w1") is None

    def test_done_jobs_are_not_releasable(self, queue):
        job_id = queue.submit(SPEC)
        queue.lease("w1")
        queue.complete(job_id, "w1")
        with pytest.raises(StaleLeaseError):
            queue.release(job_id, "w1")

    def test_unknown_job_raises_keyerror(self, queue):
        with pytest.raises(KeyError):
            queue.heartbeat("nope", "w1")

    def test_release_requeues_without_counting_failure(self, queue):
        # The graceful-drain path: checkpoint, release, exit.
        job_id = queue.submit(SPEC)
        queue.lease("w1")
        queue.release(job_id, "w1")
        job = queue.job(job_id)
        assert job["state"] == PENDING
        assert job["failures"] == 0
        assert queue.lease("w2")["job_id"] == job_id


class TestLeases:
    def test_heartbeat_extends_lease(self, queue, clock):
        job_id = queue.submit(SPEC)
        job = queue.lease("w1")
        first_expiry = job["lease_expires"]
        clock.advance(20.0)
        new_expiry = queue.heartbeat(job_id, "w1")
        assert new_expiry > first_expiry
        clock.advance(20.0)  # past the original expiry, within the renewed
        assert queue.recover_expired() == 0
        assert queue.job(job_id)["state"] == LEASED

    def test_expired_lease_requeues_without_failure(self, queue, clock):
        # The kill -9 story: the dead worker stops heartbeating; expiry
        # requeues the job and does NOT count toward quarantine.
        job_id = queue.submit(SPEC)
        queue.lease("w1")
        clock.advance(31.0)
        assert queue.recover_expired() == 1
        job = queue.job(job_id)
        assert job["state"] == PENDING
        assert job["failures"] == 0

    def test_lease_sweeps_expired_first(self, queue, clock):
        job_id = queue.submit(SPEC)
        queue.lease("w-dead")
        clock.advance(31.0)
        job = queue.lease("w-live")  # no explicit recover_expired needed
        assert job["job_id"] == job_id
        assert job["worker"] == "w-live"

    def test_stale_worker_ops_raise(self, queue, clock):
        job_id = queue.submit(SPEC)
        queue.lease("w1")
        clock.advance(31.0)
        queue.lease("w2")
        for op in (queue.heartbeat, queue.mark_running, queue.complete,
                   queue.release):
            with pytest.raises(StaleLeaseError):
                op(job_id, "w1")
        # The new holder is unaffected.
        queue.complete(job_id, "w2")
        assert queue.job(job_id)["state"] == DONE

    def test_expired_but_unswept_lease_is_stale_for_its_worker(self, queue, clock):
        job_id = queue.submit(SPEC)
        queue.lease("w1")
        clock.advance(31.0)
        with pytest.raises(StaleLeaseError, match="expired"):
            queue.complete(job_id, "w1")
        assert queue.job(job_id)["state"] == PENDING  # swept on the way


class TestFailuresAndPoison:
    def _fail_once(self, queue, error="boom"):
        job = queue.lease("w1")
        return queue.fail(job["job_id"], "w1", error)

    def test_fail_requeues_until_max(self, queue):
        job_id = queue.submit(SPEC)
        assert self._fail_once(queue, "first") == FAILED
        job = queue.job(job_id)
        assert job["failures"] == 1
        assert job["error"] == "first"
        assert self._fail_once(queue, "second") == FAILED
        assert queue.job(job_id)["failures"] == 2

    def test_quarantined_at_max_failures_with_traceback(self, queue):
        job_id = queue.submit(SPEC)
        self._fail_once(queue, "t1")
        self._fail_once(queue, "t2")
        assert self._fail_once(queue, "Traceback: poison") == QUARANTINED
        job = queue.job(job_id)
        assert job["state"] == QUARANTINED
        assert job["failures"] == 3
        assert "poison" in job["error"]
        assert queue.lease("w1") is None  # quarantined jobs never re-lease

    def test_non_retryable_failure_quarantines_immediately(self, queue):
        job_id = queue.submit(SPEC)
        job = queue.lease("w1")
        assert queue.fail(job["job_id"], "w1", "fatal", retryable=False) \
            == QUARANTINED
        assert queue.job(job_id)["failures"] == 1

    def test_poison_does_not_block_siblings(self, queue):
        poison = queue.submit({"bad": True}, tenant="alice")
        good = queue.submit(SPEC, tenant="bob")
        for _ in range(3):
            job = queue.lease("w1")
            if job["job_id"] == poison:
                queue.fail(poison, "w1", "boom")
            else:
                queue.complete(good, "w1")
        # Drain whatever is left runnable.
        while True:
            job = queue.lease("w1")
            if job is None:
                break
            if job["job_id"] == poison:
                queue.fail(poison, "w1", "boom")
            else:
                queue.complete(good, "w1")
        assert queue.job(poison)["state"] == QUARANTINED
        assert queue.job(good)["state"] == DONE


class TestFairness:
    def test_round_robin_over_tenants(self, queue):
        a1 = queue.submit(SPEC, tenant="alice")
        a2 = queue.submit(SPEC, tenant="alice")
        b1 = queue.submit(SPEC, tenant="bob")
        order = [queue.lease(f"w{i}")["job_id"] for i in range(3)]
        # alice's backlog cannot take both first slots: bob goes second.
        assert order[0] == a1
        assert order[1] == b1
        assert order[2] == a2

    def test_single_tenant_fifo(self, queue):
        ids = [queue.submit(SPEC) for _ in range(3)]
        assert [queue.lease(f"w{i}")["job_id"] for i in range(3)] == ids


class TestCrossProcessConsistency:
    def test_second_instance_sees_submissions(self, tmp_path, clock):
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        q2 = JobQueue(root, clock=clock)
        job_id = q1.submit(SPEC)
        assert q2.job(job_id)["state"] == PENDING
        job = q2.lease("w2")
        assert job["job_id"] == job_id
        # ... and q1 sees q2's lease before trying to double-lease.
        assert q1.lease("w1") is None
        q2.complete(job_id, "w2")
        assert q1.job(job_id)["state"] == DONE

    def test_torn_journal_tail_is_tolerated(self, tmp_path, clock):
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        job_id = q1.submit(SPEC)
        with open(os.path.join(root, "queue.jsonl"), "a") as fh:
            fh.write('{"op": "done", "job_id": "j0001"')  # torn: no newline
        with pytest.warns(RuntimeWarning, match="torn entry"):
            q2 = JobQueue(root, clock=clock)
            job = q2.job(job_id)
        assert job["state"] == PENDING  # the torn DONE never committed


class TestJournalCursor:
    """Each instance tails the journal from its own cursor and rebuilds
    by full replay when the file it was reading is gone, replaced or
    shrunk."""

    def test_corrupt_line_warns_once_per_instance(self, tmp_path, clock):
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        q1.submit(SPEC)
        with open(os.path.join(root, "queue.jsonl"), "a") as fh:
            fh.write("@@not json@@\n")
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            q1.submit(SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # past the cursor: silent now
            q1.lease("w1")
            assert len(q1.jobs()) == 2
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert len(JobQueue(root, clock=clock).jobs()) == 2

    def test_torn_tail_warns_on_every_op_until_sealed(self, tmp_path, clock):
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        job_id = q1.submit(SPEC)
        with open(os.path.join(root, "queue.jsonl"), "a") as fh:
            fh.write('{"op": "done", "job_id": "j0001"')  # torn: no newline
        for _ in range(2):  # the cursor stays before the torn entry
            with pytest.warns(RuntimeWarning, match="torn entry"):
                assert q1.job(job_id)["state"] == PENDING
        # The next op warns once more, then its append seals the fragment
        # as a corrupt line, which the queue reads past (warning) once.
        with pytest.warns(RuntimeWarning) as record:
            q1.submit(SPEC)
        messages = " ".join(str(w.message) for w in record)
        assert "torn entry" in messages and "corrupt entr" in messages
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [j["state"] for j in q1.jobs()] == [PENDING, PENDING]

    def test_sealed_whole_done_entry_stays_uncommitted(self, tmp_path, clock):
        """A torn DONE that is already a whole JSON entry (cut just before
        its newline) must not commit when an unrelated append seals it:
        the job stays PENDING for the writer and for a fresh replay."""
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        job_id = q1.submit(SPEC)
        with open(os.path.join(root, "queue.jsonl"), "a") as fh:
            fh.write('{"op": "done", "job_id": "j0001"}')  # torn: no newline
        with pytest.warns(RuntimeWarning) as record:  # torn, then sealed
            q1.submit(SPEC)
        assert "corrupt entr" in " ".join(str(w.message) for w in record)
        assert q1.job(job_id)["state"] == PENDING
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert JobQueue(root, clock=clock).job(job_id)["state"] == PENDING

    def test_missing_journal_resets_state(self, tmp_path, clock):
        root = str(tmp_path / "q")
        q1 = JobQueue(root, clock=clock)
        q1.submit(SPEC)
        os.remove(os.path.join(root, "queue.jsonl"))
        assert q1.jobs() == []
        assert q1.submit(SPEC) == "j0001"

    @pytest.mark.parametrize("how", ["shrunk", "replaced"])
    def test_restored_older_journal_is_replayed_in_full(self, tmp_path, clock, how):
        root = str(tmp_path / "q")
        path = os.path.join(root, "queue.jsonl")
        q1 = JobQueue(root, clock=clock)
        q1.submit(SPEC)
        with open(path, "rb") as fh:
            backup = fh.read()
        q1.lease("w1")
        q1.submit(SPEC)
        if how == "shrunk":
            os.truncate(path, len(backup))
        else:  # same length as the live journal: only the inode differs
            size = os.path.getsize(path)
            with open(path + ".bak", "wb") as fh:
                fh.write(backup + b"\n" * (size - len(backup)))
            os.replace(path + ".bak", path)
        assert q1.jobs() == JobQueue(root, clock=clock).jobs()
        assert [j["state"] for j in q1.jobs()] == [PENDING]
        assert q1.submit(SPEC) == "j0002"
