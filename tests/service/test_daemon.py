"""Fast-tier smoke tests for the runner daemon: multi-tenant execution,
poison quarantine, and the graceful-drain path — all in-process.

The cross-process ``kill -9`` recovery contract lives in
``test_recovery.py`` (slow tier / nightly ``service-recovery`` CI job).
"""

import json
import os
import signal
import threading
import time

from repro.service import (
    DONE,
    PENDING,
    QUARANTINED,
    RUNNING,
    JobSpec,
    TuningService,
)
from repro.service import daemon

TINY = dict(dataset="cifar10", method="rs", setting="noisy", preset="test",
            k=2, n_bank_configs=2, total_budget=18)


def tiny_spec(**overrides):
    return JobSpec(**{**TINY, **overrides}).to_dict()


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("n_slots", 2)
    kwargs.setdefault("lease_duration", 30.0)
    kwargs.setdefault("poll_interval", 0.01)
    return TuningService(str(tmp_path / "svc"), **kwargs)


class TestOnceMode:
    def test_runs_all_tenants_to_done(self, tmp_path):
        svc = make_service(tmp_path)
        a = svc.queue.submit(tiny_spec(), tenant="alice")
        b = svc.queue.submit(tiny_spec(method="tpe"), tenant="bob")
        svc.run(once=True)
        assert svc.queue.job(a)["state"] == DONE
        assert svc.queue.job(b)["state"] == DONE
        for job_id, method in ((a, "rs"), (b, "tpe")):
            result = json.load(
                open(os.path.join(svc.root, "results", f"{job_id}.json"))
            )
            assert result["method"] == method
        # The experiment store recorded both tenants' hierarchies.
        assert svc.store.ids("project") == ["alice", "bob"]
        assert svc.store.ids("run") == [a, b]
        assert len(svc.store.curve_points(a)) >= 1

    def test_empty_queue_returns_immediately(self, tmp_path):
        make_service(tmp_path).run(once=True)

    def test_signal_handlers_restored(self, tmp_path):
        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        make_service(tmp_path).run(once=True)
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int


class TestPoisonQuarantine:
    def test_poison_quarantined_without_blocking_siblings(self, tmp_path):
        svc = make_service(tmp_path, max_job_failures=2)
        poison = svc.queue.submit(tiny_spec(dataset="imagenet"), tenant="alice")
        good = svc.queue.submit(tiny_spec(), tenant="bob")
        svc.run(once=True)  # terminates: poison quarantines after 2 failures
        poisoned = svc.queue.job(poison)
        assert poisoned["state"] == QUARANTINED
        assert poisoned["failures"] == 2
        assert "unknown dataset" in poisoned["error"]
        assert "Traceback" in poisoned["error"]  # full diagnosis kept
        assert svc.queue.job(good)["state"] == DONE
        # The poison job never produced a result file.
        assert not os.path.exists(
            os.path.join(svc.root, "results", f"{poison}.json")
        )


class TestGracefulDrain:
    def _wait_for(self, predicate, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_drain_checkpoints_releases_and_exits_143(self, tmp_path):
        svc = make_service(tmp_path, n_slots=1)
        job_id = svc.queue.submit(tiny_spec(total_budget=720, k=16))
        exit_code = []

        def runner():
            try:
                svc.run()
            except SystemExit as exc:
                exit_code.append(exc.code)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        # Wait until the job is executing and has checkpointed progress.
        ckpt = os.path.join(svc.root, "jobs", job_id, "run.ckpt")
        assert self._wait_for(
            lambda: svc.queue.job(job_id)["state"] == RUNNING
            and os.path.exists(ckpt)
        )
        svc.request_drain(signal.SIGTERM)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert exit_code == [128 + signal.SIGTERM]
        # The drain released the job (no failure counted) and left its
        # checkpoint behind as the resume point.
        job = svc.queue.job(job_id)
        assert job["state"] == PENDING
        assert job["failures"] == 0
        assert os.path.exists(ckpt)

    def test_drained_job_resumes_to_the_reference_result(self, tmp_path):
        # Reference: the same spec run uninterrupted in a sibling root.
        ref = make_service(tmp_path / "ref")
        ref_id = ref.queue.submit(tiny_spec(total_budget=720, k=16))
        ref.run(once=True)
        ref_bytes = open(
            os.path.join(ref.root, "results", f"{ref_id}.json"), "rb"
        ).read()

        svc = make_service(tmp_path, n_slots=1)
        job_id = svc.queue.submit(tiny_spec(total_budget=720, k=16))
        assert job_id == ref_id  # seq ids align the two roots
        exit_code = []

        def runner():
            try:
                svc.run()
            except SystemExit as exc:
                exit_code.append(exc.code)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        ckpt = os.path.join(svc.root, "jobs", job_id, "run.ckpt")
        assert self._wait_for(lambda: os.path.exists(ckpt))
        svc.request_drain(signal.SIGINT)
        thread.join(timeout=60)
        assert exit_code == [128 + signal.SIGINT]

        # A fresh daemon picks the released job back up and finishes it
        # bit-identically to the uninterrupted reference.
        svc2 = TuningService(svc.root, n_slots=1, poll_interval=0.01)
        svc2.run(once=True)
        assert svc2.queue.job(job_id)["state"] == DONE
        out = open(
            os.path.join(svc.root, "results", f"{job_id}.json"), "rb"
        ).read()
        assert out == ref_bytes


class TestPromptRefill:
    """A job ending or a drain request wakes the main loop: ``poll_interval``
    (5 s here) bounds heartbeats and sweeps, never a slot refill or an exit."""

    def test_freed_slot_is_leased_without_waiting_out_the_tick(
            self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(daemon, "execute_job",
                            lambda job, root, store, handle: ran.append(job["job_id"]))
        svc = make_service(tmp_path, n_slots=1, poll_interval=5.0)
        ids = [svc.queue.submit({"note": i}) for i in range(3)]
        start = time.monotonic()
        svc.run(once=True)
        assert time.monotonic() - start < 5.0  # one tick per job would be 15 s
        assert ran == ids
        assert [svc.queue.job(j)["state"] for j in ids] == [DONE] * 3

    def test_drain_mid_job_exits_without_waiting_out_the_tick(
            self, tmp_path, monkeypatch):
        started = threading.Event()

        class Tuner:
            def __init__(self):
                self.preempted = threading.Event()

            def request_preempt(self, signum=None):
                self.preempted.set()

        def execute_job(job, root, store, handle):
            tuner = handle["tuner"] = Tuner()
            started.set()
            assert tuner.preempted.wait(30)
            raise SystemExit(128 + signal.SIGTERM)  # checkpointed and exited

        monkeypatch.setattr(daemon, "execute_job", execute_job)
        svc = make_service(tmp_path, n_slots=1, poll_interval=5.0)
        job_id = svc.queue.submit({"note": 0})
        exit_code = []

        def runner():
            try:
                svc.run()
            except SystemExit as exc:
                exit_code.append(exc.code)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(30)
        start = time.monotonic()
        svc.request_drain(signal.SIGTERM)
        thread.join(timeout=30)
        # The loop began its 5 s wait just before the job started: an
        # exit on the tick would take ~5 s from here.
        assert time.monotonic() - start < 2.5
        assert exit_code == [128 + signal.SIGTERM]
        assert svc.queue.job(job_id)["state"] == PENDING
