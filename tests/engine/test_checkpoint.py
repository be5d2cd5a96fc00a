"""Checkpoint/resume bit-identity tests.

The hard contract: a tuning run killed after any observation and resumed
from its last on-disk checkpoint produces the *same* ``TuningResult`` —
observations, curves, DP release counts — and the same tuner/trainer RNG
end states as the uninterrupted run. Asserted here for every method in
the registry (plus the non-registry robust RS variants), under plain /
DP / biased evaluation noise, across the serial and fused cohort modes,
and at every kill point. At the sweep level, a
``--workers 2`` figure run preempted by SIGTERM or killed with SIGKILL
resumes to the uninterrupted output.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import FederatedTrialRunner, NoiseConfig
from repro.core.bohb import BOHB
from repro.core.gp_bo import GPBO
from repro.core.hyperband import Hyperband
from repro.core.population import PopulationTuner, WeightSharingTuner
from repro.core.random_search import RandomSearch
from repro.core.robust import ResampledRandomSearch, TwoStageRandomSearch
from repro.core.search_space import paper_space
from repro.core.tpe import TPE
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    RunCheckpointer,
    capture_run_state,
    load_checkpoint,
    restore_run_state,
    resume_checkpoint,
    save_checkpoint,
)
from repro.nn import make_mlp, softmax_cross_entropy

SPACE = paper_space(batch_sizes=(4, 8))
MAX_ROUNDS = 6
BUDGET = 24

#: Evaluation-noise regimes: noiseless, subsampled + DP release noise,
#: and subsampled + adversarial bias.
NOISES = {
    "plain": NoiseConfig(),
    "dp": NoiseConfig(subsample=2, epsilon=50.0, scheme="uniform"),
    "biased": NoiseConfig(subsample=2, bias_b=1.0),
}

#: Every tuner under the checkpoint contract: the fig8 METHODS registry
#: (rs, tpe, hb, bohb, fedex, fedpop, gp-ei, gp-nei) plus the tuners it
#: doesn't expose.
ALL_METHODS = (
    "rs",
    "tpe",
    "hb",
    "bohb",
    "fedex",
    "fedpop",
    "gp-ei",
    "gp-nei",
    "rs-resampled",
    "rs-two-stage",
)


def mlp_dataset(n_train=8, n_eval=3, d=4, classes=3, n=8, seed=0, hidden=(6,)):
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=hidden, rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, classes))
        y = (x @ w + rng.normal(scale=0.5, size=(n, classes))).argmax(axis=1)
        return ClientData(x, y)

    return FederatedDataset(
        "synth-mlp", task, [client() for _ in range(n_train)], [client() for _ in range(n_eval)]
    )


@pytest.fixture(scope="module")
def dataset():
    return mlp_dataset()


def make_runner(dataset, mode="serial", scheme="weighted"):
    kw = dict(max_rounds=MAX_ROUNDS, clients_per_round=3, scheme=scheme, seed=3)
    return FederatedTrialRunner(dataset, cohort_mode=mode, **kw)


def build_tuner(method, dataset, noise, mode="serial", seed=5):
    """One identically-constructed tuner per call — the resume contract
    requires rebuilding the exact run before loading its state."""
    runner = make_runner(dataset, mode=mode, scheme=noise.scheme)
    kw = dict(total_budget=BUDGET, seed=seed)
    if method == "rs":
        return RandomSearch(SPACE, runner, noise, n_configs=4, **kw)
    if method == "tpe":
        return TPE(SPACE, runner, noise, n_configs=4, n_startup=2, **kw)
    if method in ("gp-ei", "gp-nei"):
        return GPBO(
            SPACE, runner, noise, n_configs=4, n_startup=2,
            acquisition=method.split("-")[1], **kw,
        )
    if method == "hb":
        return Hyperband(SPACE, runner, noise, n_brackets=2, **kw)
    if method == "bohb":
        return BOHB(SPACE, runner, noise, n_brackets=2, **kw)
    if method == "rs-resampled":
        return ResampledRandomSearch(SPACE, runner, noise, n_configs=3, n_resamples=2, **kw)
    if method == "rs-two-stage":
        return TwoStageRandomSearch(SPACE, runner, noise, n_configs=4, n_finalists=2, **kw)
    if method == "fedex":
        return WeightSharingTuner(
            SPACE, runner, noise, population_size=3, rounds_per_step=2, **kw
        )
    if method == "fedpop":
        return PopulationTuner(
            SPACE, runner, noise, population_size=3, rounds_per_step=2, **kw
        )
    raise ValueError(method)


class Killed(Exception):
    """Stands in for SIGKILL: aborts the run at an arbitrary point
    *between* two observations, exactly where preemption can land."""


def run_until_killed(tuner, checkpoint, kill_after):
    """Run with a checkpoint hook, aborting right after the kill_after-th
    observation. Every observation — ``observe``, ``observe_many`` and
    subclass overrides — goes through ``_observe``, so wrapping that bound
    method as an instance attribute intercepts every path."""
    orig = tuner._observe
    seen = [0]

    def observe(*args):
        out = orig(*args)
        seen[0] += 1
        if seen[0] >= kill_after:
            raise Killed()
        return out

    tuner._observe = observe
    with pytest.raises(Killed):
        tuner.run(checkpoint=checkpoint)
    return seen[0]


def assert_tree_equal(a, b, path=""):
    """Bitwise structural equality for nested state (dicts/arrays/scalars)."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), f"{path}: keys differ"
        for k in a:
            assert_tree_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True), f"{path}: arrays differ"
    else:
        assert a == b or (a != a and b != b), f"{path}: {a!r} != {b!r}"


def assert_identical_outcome(resumed, reference, resumed_tuner, ref_tuner):
    assert resumed.observations == reference.observations
    assert resumed.curve == reference.curve
    assert resumed.best_config == reference.best_config
    assert resumed.best_trial_id == reference.best_trial_id
    assert resumed.best_noisy_error == reference.best_noisy_error
    same_final = resumed.final_full_error == reference.final_full_error
    both_nan = np.isnan(resumed.final_full_error) and np.isnan(reference.final_full_error)
    assert same_final or both_nan
    assert resumed.rounds_used == reference.rounds_used
    # RNG end states: the resumed run must leave every stream exactly
    # where the uninterrupted run leaves it.
    assert_tree_equal(
        resumed_tuner.rng.bit_generator.state, ref_tuner.rng.bit_generator.state, "tuner-rng"
    )
    assert_tree_equal(
        resumed_tuner.runner.state_dict(), ref_tuner.runner.state_dict(), "runner"
    )
    # Incumbent trainer state (params, server opt, per-client RNG streams).
    a, b = resumed_tuner._incumbent, ref_tuner._incumbent
    assert (a is None) == (b is None)
    if a is not None and hasattr(a.state, "state_dict"):
        assert_tree_equal(a.state.state_dict(), b.state.state_dict(), "incumbent")


def kill_resume_roundtrip(tmp_path, dataset, method, noise, mode="serial", kill_after=2):
    path = str(tmp_path / f"{method}.ckpt")
    reference = build_tuner(method, dataset, noise, mode=mode)
    ref_result = reference.run()
    if kill_after >= len(ref_result.observations):
        pytest.skip(
            f"{method} run makes only {len(ref_result.observations)} observations"
        )

    killed = build_tuner(method, dataset, noise, mode=mode)
    run_until_killed(killed, RunCheckpointer(path), kill_after)
    assert os.path.exists(path)

    resumed = build_tuner(method, dataset, noise, mode=mode)
    resume_checkpoint(resumed, path)
    result = resumed.run(checkpoint=RunCheckpointer(path))
    assert_identical_outcome(result, ref_result, resumed, reference)


class TestKillResumeBitIdentity:
    """The tentpole contract, method by method."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_serial_plain(self, tmp_path, dataset, method):
        kill_resume_roundtrip(tmp_path, dataset, method, NOISES["plain"])

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("noise_name", ("dp", "biased"))
    def test_serial_noisy(self, tmp_path, dataset, method, noise_name):
        kill_resume_roundtrip(tmp_path, dataset, method, NOISES[noise_name])

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ("fused",))
    def test_cohort_modes(self, tmp_path, dataset, method, mode):
        kill_resume_roundtrip(tmp_path, dataset, method, NOISES["plain"], mode=mode)

    @pytest.mark.parametrize("method", ("rs", "hb", "fedex"))
    def test_serial_checkpoint_resumes_under_default_mode(
        self, tmp_path, dataset, method, monkeypatch
    ):
        """Checkpoints carry no cohort mode, and float64 serial and fused
        runs are bit-identical: a run killed under ``cohort_mode="serial"``
        resumes in the default (fused) mode onto the serial trajectory and
        writes the same final checkpoint state, bit for bit."""
        monkeypatch.delenv("REPRO_COHORT_VECTOR", raising=False)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)  # a float64 contract
        noise = NOISES["plain"]
        ref_path, path = str(tmp_path / "ref.ckpt"), str(tmp_path / f"{method}.ckpt")
        reference = build_tuner(method, dataset, noise, mode="serial")
        ref_result = reference.run(checkpoint=RunCheckpointer(ref_path))
        killed = build_tuner(method, dataset, noise, mode="serial")
        run_until_killed(killed, RunCheckpointer(path), kill_after=2)
        resumed = build_tuner(method, dataset, noise, mode=None)
        assert resumed.runner.cohort_mode == "fused"
        resume_checkpoint(resumed, path)
        result = resumed.run(checkpoint=RunCheckpointer(path))
        assert_identical_outcome(result, ref_result, resumed, reference)
        assert_tree_equal(load_checkpoint(path), load_checkpoint(ref_path), "checkpoint")

    @pytest.mark.slow
    @pytest.mark.parametrize("kill_after", (1, 3, 5, 8, 13))
    @pytest.mark.parametrize("method", ("hb", "fedex", "rs-two-stage"))
    def test_any_kill_point(self, tmp_path, dataset, method, kill_after):
        """Killing after *any* observation resumes onto the same
        trajectory — not just at the default kill point."""
        kill_resume_roundtrip(
            tmp_path, dataset, method, NOISES["dp"], kill_after=kill_after
        )

    def test_kill_before_first_boundary(self, tmp_path, dataset):
        """run() saves an initial checkpoint, so a preemption before the
        first method-declared boundary still leaves a resumable file."""
        kill_resume_roundtrip(
            tmp_path, dataset, "rs", NOISES["plain"], kill_after=1
        )

    def test_finished_checkpoint_replays_result(self, tmp_path, dataset):
        """Resuming a *completed* run repackages the identical result
        without consuming any budget or RNG."""
        path = str(tmp_path / "done.ckpt")
        first = build_tuner("rs", dataset, NOISES["dp"])
        ref = first.run(checkpoint=RunCheckpointer(path))

        replay = build_tuner("rs", dataset, NOISES["dp"])
        resume_checkpoint(replay, path)
        rng_before = pickle.dumps(replay.rng.bit_generator.state)
        result = replay.run()
        assert replay.rng.bit_generator.state == pickle.loads(rng_before)
        assert_identical_outcome(result, ref, replay, first)

    @pytest.mark.parametrize("method", ("hb", "bohb"))
    def test_state_with_retired_trials_resumes(self, dataset, method):
        """Version-2 tuner states written while runners still cached rate
        vectors carry a ``retire_on_dethrone`` id list and the trials it
        named in their trial table. Such a state loads and resumes onto
        the uninterrupted trajectory, and the next save drops the field."""
        reference = build_tuner(method, dataset, NOISES["dp"])
        ref_result = reference.run()

        blobs, created = [], []

        class Capture:
            def save(self, tuner, force=False):
                blobs.append(pickle.dumps(capture_run_state(tuner)))

        writer = build_tuner(method, dataset, NOISES["dp"])
        create = writer.runner.create
        writer.runner.create = lambda config: created.append(create(config)) or created[-1]
        writer.run(checkpoint=Capture())
        state = pickle.loads(blobs[len(blobs) // 2])
        tuner_state = state["tuner"]
        seen = {obs["trial_id"] for obs in tuner_state["observations"]}
        # A trial observed before the save that the table no longer holds:
        # never advanced again, so its end-of-run payload is its payload
        # at save time.
        extra = next(
            t for t in created if t.trial_id in seen and t.trial_id not in tuner_state["trials"]
        )
        tuner_state["retire_on_dethrone"] = [extra.trial_id]
        tuner_state["trials"][extra.trial_id] = writer.runner.trial_state(extra)

        resumed = build_tuner(method, dataset, NOISES["dp"])
        assert resumed.STATE_VERSION == tuner_state["state_version"] == 2
        restore_run_state(resumed, state)
        result = resumed.run()
        assert_identical_outcome(result, ref_result, resumed, reference)
        assert "retire_on_dethrone" not in resumed.state_dict()


REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIG8 = [
    sys.executable, "-m", "repro.experiments.cli", "--artifact", "fig8", "--preset", "test",
    "--trials", "10", "--methods", "rs,hb", "--cohort-mode", "fused",
]


def run_cli(args, **kwargs):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.Popen(
        FIG8 + args, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, **kwargs,
    )


@pytest.mark.slow
class TestSweepKillResume:
    """A fig8 sweep whose runs are mapped across two worker processes,
    interrupted and relaunched with ``--resume``, writes the same bytes as
    the uninterrupted single-process sweep."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("ref") / "fig8.json")
        proc = run_cli(["--workers", "1", "--out", out])
        assert proc.wait(timeout=600) == 0, proc.stderr.read()
        with open(out, "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize("sig_name", ["SIGTERM", "SIGKILL"])
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path, reference, sig_name):
        ckdir = str(tmp_path / "ckpt")
        victim = run_cli(
            ["--workers", "2", "--checkpoint-dir", ckdir, "--out", str(tmp_path / "x.json")],
            start_new_session=True,
        )
        deadline = time.monotonic() + 300
        while not (os.path.isdir(ckdir) and any(n.endswith(".ckpt") for n in os.listdir(ckdir))):
            assert victim.poll() is None, victim.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        if sig_name == "SIGTERM":
            # A polite preemption reaches the sweep's parent only: every
            # in-flight run must save at its next boundary, and the sweep
            # must exit 143 only after all of its workers have.
            os.kill(victim.pid, signal.SIGTERM)
            assert victim.wait(timeout=300) == 143, victim.stderr.read()
            with pytest.raises(ProcessLookupError):
                os.killpg(victim.pid, 0)
        else:
            # kill -9 of the whole process group, as a preempted node dies.
            os.killpg(victim.pid, signal.SIGKILL)
            assert victim.wait(timeout=60) == -signal.SIGKILL
        assert not os.path.exists(tmp_path / "x.json")
        # The sweep (2 settings x 2 methods) stopped early: some run never
        # started or was saved mid-way.
        names = [n for n in os.listdir(ckdir) if n.endswith(".ckpt")]
        states = [load_checkpoint(os.path.join(ckdir, n)) for n in names]
        assert len(states) < 4 or not all(state["tuner"]["finished"] for state in states)

        out = str(tmp_path / "resumed.json")
        resumed = run_cli(["--workers", "2", "--checkpoint-dir", ckdir, "--resume", "--out", out])
        assert resumed.wait(timeout=600) == 0, resumed.stderr.read()
        with open(out, "rb") as fh:
            assert fh.read() == reference


class TestCheckpointStore:
    def test_version_mismatch_rejected(self, tmp_path, dataset):
        path = str(tmp_path / "stale.ckpt")
        tuner = build_tuner("rs", dataset, NOISES["plain"])
        save_checkpoint(path, tuner)
        state = load_checkpoint(path)
        state["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        with open(path, "wb") as fh:
            pickle.dump(state, fh)
        with pytest.raises(CheckpointVersionError):
            resume_checkpoint(build_tuner("rs", dataset, NOISES["plain"]), path)

    def test_method_mismatch_rejected(self, tmp_path, dataset):
        path = str(tmp_path / "rs.ckpt")
        save_checkpoint(path, build_tuner("rs", dataset, NOISES["plain"]))
        with pytest.raises(CheckpointError):
            resume_checkpoint(build_tuner("hb", dataset, NOISES["plain"]), path)

    def test_budget_mismatch_rejected(self, tmp_path, dataset):
        path = str(tmp_path / "rs.ckpt")
        save_checkpoint(path, build_tuner("rs", dataset, NOISES["plain"]))
        runner = make_runner(dataset)
        other = RandomSearch(
            SPACE, runner, NOISES["plain"], n_configs=4, total_budget=BUDGET * 2, seed=5
        )
        with pytest.raises(ValueError):
            resume_checkpoint(other, path)

    def test_missing_file_raises_file_not_found(self, tmp_path, dataset):
        with pytest.raises(FileNotFoundError):
            resume_checkpoint(
                build_tuner("rs", dataset, NOISES["plain"]),
                str(tmp_path / "nope.ckpt"),
            )

    def test_garbage_file_raises_checkpoint_error(self, tmp_path, dataset):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_non_checkpoint_pickle_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.ckpt")
        with open(path, "wb") as fh:
            pickle.dump({"something": "else"}, fh)
        with pytest.warns(RuntimeWarning, match="not a run checkpoint"):
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_write_is_atomic(self, tmp_path, dataset):
        """A save over an existing checkpoint never leaves temp debris,
        and the file always holds one complete snapshot."""
        path = str(tmp_path / "atomic.ckpt")
        tuner = build_tuner("rs", dataset, NOISES["plain"])
        save_checkpoint(path, tuner)
        tuner.run(checkpoint=RunCheckpointer(path))
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        state = load_checkpoint(path)
        assert state["tuner"]["finished"] is True

    def test_run_checkpointer_throttles_by_observation_count(self, tmp_path):
        class StubRunner:
            def state_dict(self):
                return {}

        class StubTuner:
            method_name = "stub"
            observations = []
            runner = StubRunner()

            def state_dict(self):
                return {"n": len(self.observations)}

        path = str(tmp_path / "throttled.ckpt")
        tuner = StubTuner()
        hook = RunCheckpointer(path, every=3)
        assert hook.save(tuner) is True  # initial save always lands
        assert hook.save(tuner) is False  # no new observations
        tuner.observations = [None] * 2
        assert hook.save(tuner) is False  # 2 < every
        tuner.observations = [None] * 3
        assert hook.save(tuner) is True
        tuner.observations = [None] * 4
        assert hook.save(tuner) is False
        assert hook.save(tuner, force=True) is True

    def test_run_checkpointer_rejects_bad_every(self, tmp_path):
        with pytest.raises(ValueError):
            RunCheckpointer(str(tmp_path / "x.ckpt"), every=0)
