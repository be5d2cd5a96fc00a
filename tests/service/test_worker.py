"""Tests for job specs and the execution path: lazy validation,
deterministic results, checkpoint resume, and curve streaming."""

import json
import os

import pytest

from repro.service.store import ExperimentStore
from repro.service.worker import (
    JobSpec,
    checkpoint_path,
    execute_job,
    result_path,
)

TINY = dict(dataset="cifar10", method="rs", setting="noisy", preset="test",
            k=2, n_bank_configs=2, total_budget=18)


def tiny_job(job_id="j0001", tenant="alice", **overrides):
    return {
        "job_id": job_id,
        "tenant": tenant,
        "spec": JobSpec(**{**TINY, **overrides}).to_dict(),
    }


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(**TINY)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_land_in_extra(self):
        spec = JobSpec.from_dict({"dataset": "cifar10", "future_knob": 7})
        assert spec.dataset == "cifar10"
        assert spec.extra == {"future_knob": 7}
        # ... and survive a re-serialization round trip.
        assert JobSpec.from_dict(spec.to_dict()).extra == {"future_knob": 7}

    def test_missing_dataset_parses_but_fails_validation(self):
        spec = JobSpec.from_dict({})
        with pytest.raises(ValueError, match="unknown dataset"):
            spec.validate()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("dataset", "imagenet", "unknown dataset"),
            ("method", "sgd", "unknown method"),
            ("setting", "loud", "unknown setting"),
            ("checkpoint_every", 0, "checkpoint_every"),
        ],
    )
    def test_validate_rejects(self, field, value, match):
        spec = JobSpec(**{**TINY, field: value})
        with pytest.raises(ValueError, match=match):
            spec.validate()

    def test_noise_config_settings(self):
        noisy = JobSpec(**TINY).noise_config()
        assert noisy.subsample == 0.01 and noisy.epsilon == 100.0
        clean = JobSpec(**{**TINY, "setting": "noiseless"}).noise_config()
        assert clean.subsample is None or clean.subsample != 0.01

    def test_noise_config_overrides(self):
        spec = JobSpec(**{**TINY, "noise": {"epsilon": 10.0}})
        cfg = spec.noise_config()
        assert cfg.epsilon == 10.0
        assert cfg.subsample == 0.01  # untouched fields keep paper values


class TestExecuteJob:
    def test_writes_result_and_checkpoint(self, tmp_path):
        root = str(tmp_path)
        path = execute_job(tiny_job(), root)
        assert path == result_path(root, "j0001")
        result = json.load(open(path))
        assert result["job_id"] == "j0001"
        assert result["method"] == "rs"
        assert result["n_observations"] == 2
        assert len(result["curve"]) >= 1
        assert os.path.exists(checkpoint_path(root, "j0001"))

    def test_results_are_deterministic_bytes(self, tmp_path):
        # The byte-identity contract the recovery tests build on: two
        # independent executions of the same spec produce identical files.
        path_a = execute_job(tiny_job(), str(tmp_path / "a"))
        path_b = execute_job(tiny_job(), str(tmp_path / "b"))
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_reexecution_resumes_from_final_checkpoint(self, tmp_path):
        # At-least-once: a DONE transition lost in a crash re-runs the
        # job; the final checkpoint makes the re-run a pure replay with
        # byte-identical output.
        root = str(tmp_path)
        first = execute_job(tiny_job(), root)
        first_bytes = open(first, "rb").read()
        second = execute_job(tiny_job(), root)
        assert open(second, "rb").read() == first_bytes

    def test_streams_curve_and_records_hierarchy(self, tmp_path):
        root = str(tmp_path)
        store = ExperimentStore(os.path.join(root, "store"))
        path = execute_job(tiny_job(), root, store=store)
        result = json.load(open(path))
        points = store.curve_points("j0001")
        assert [p["index"] for p in points] == list(range(len(result["curve"])))
        assert [
            [p["budget_used"], p["incumbent_trial_id"],
             p["noisy_error"], p["full_error"]]
            for p in points
        ] == result["curve"]
        assert store.get("project", "alice") == {"tenant": "alice"}
        run = store.get("run", "j0001")
        assert run["experiment_id"] == "alice-cifar10-rs-noisy"
        assert run["result_path"] == path
        assert store.get("validation", "j0001")["n_observations"] == 2

    def test_invalid_spec_raises_the_poison_path(self, tmp_path):
        job = tiny_job()
        job["spec"]["dataset"] = "imagenet"
        with pytest.raises(ValueError, match="unknown dataset"):
            execute_job(job, str(tmp_path))

    def test_faulty_job_still_deterministic(self, tmp_path):
        # A fault spec rides inside the job and the injected run is as
        # reproducible as a clean one. (No divergence-from-clean check:
        # at test-preset scale heavy dropout shifts the params without
        # necessarily flipping any discrete error rate.)
        spec = dict(faults="dropout=0.2,straggler=0.1,seed=3")
        path_a = execute_job(tiny_job(**spec), str(tmp_path / "a"))
        path_b = execute_job(tiny_job(**spec), str(tmp_path / "b"))
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
