"""Opt-in float32 slab mode: self-consistency, tolerance, and memory.

The precision contract (README "Precision"):

- float64 is the bit-exact serial-equivalence reference, and the default
  everywhere — passing ``cohort_dtype="float64"`` explicitly changes
  nothing, bit for bit.
- float32 halves slab memory. Within float32 the engine is
  self-consistent — a standalone T=1 slab and a pooled cross-trial slab
  produce bit-identical parameters — and tracks the float64 trajectory at a documented
  per-round tolerance (rtol=1e-3, atol=1e-5 over a few rounds on these
  workloads) without ever being bit-equal to it.
- Global parameters, aggregation, the server optimizer, and the serial
  path stay float64 in every mode; only slab compute narrows.
- RNG streams (cohort sampling, permutations, dropout masks) are drawn
  in float64 regardless of slab dtype, so RNG end states are identical
  across dtypes.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.base import ClientData, FederatedDataset, TaskSpec, classification_error
from repro.fl import FedAdam, FederatedTrainer, LocalTrainingConfig
from repro.fl.cohort import SlabTrainer
from repro.fl.evaluation import eval_chunk_plan, stacked_client_error_rates
from repro.fl.fused import FusedTrainerPool
from repro.nn import make_mlp, softmax_cross_entropy
from repro.nn.module import get_flat_params
from repro.nn.stacked import DTYPE_ENV, StackedModel

F32_RTOL, F32_ATOL = 1e-3, 1e-5  # documented float32-vs-float64 tolerance


def mlp_dataset(seed=0, d=6, classes=3, size=16):
    """Uniform-size clients (no ragged padding -> slab paths bit-equal)."""
    rng = np.random.default_rng(seed)
    task = TaskSpec(
        kind="classification",
        build_model=lambda s: make_mlp(d, classes, hidden=(8,), rng=s),
        loss_fn=softmax_cross_entropy,
        error_fn=classification_error,
    )

    def client():
        x = rng.normal(size=(size, d))
        w = rng.normal(size=(d, classes))
        return ClientData(x, (x @ w).argmax(axis=1))

    return FederatedDataset(
        "synth-f32", task, [client() for _ in range(12)], [client() for _ in range(4)]
    )


def make_trainer(ds, mode, dtype=None, seed=7, lr=0.1):
    return FederatedTrainer(
        ds,
        FedAdam(lr=3e-2, beta1=0.9, beta2=0.99),
        LocalTrainingConfig(lr=lr, momentum=0.9, batch_size=8, epochs=1),
        clients_per_round=4,
        seed=seed,
        cohort_mode=mode,
        cohort_dtype=dtype,
    )


class TestFloat64Reference:
    @pytest.fixture(autouse=True)
    def _default_is_float64(self, monkeypatch):
        # "Explicit float64 == the default" only holds with no ambient
        # REPRO_DTYPE override (the CI float32 leg sets one).
        monkeypatch.delenv(DTYPE_ENV, raising=False)

    def test_explicit_float64_is_the_default_bit_for_bit(self):
        ds = mlp_dataset()
        for mode in ("serial", "fused"):
            a = make_trainer(ds, mode)
            b = make_trainer(ds, mode, dtype="float64")
            a.run(3)
            b.run(3)
            assert np.array_equal(a.params, b.params), mode

    def test_explicit_float64_fused_matches_default(self):
        ds = mlp_dataset()
        pools = []
        results = []
        for dtype in (None, "float64"):
            t1 = make_trainer(ds, "fused", dtype=dtype, lr=0.1)
            t2 = make_trainer(ds, "fused", dtype=dtype, lr=0.05, seed=9)
            pool = FusedTrainerPool(dtype=dtype)
            pool.advance([t1, t2], [3, 3])
            pools.append(pool)
            results.append((t1.params.copy(), t2.params.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestFloat32SelfConsistency:
    def test_vectorized_and_fused_bit_identical(self):
        """Within float32 a standalone trainer's own (vectorized, T=1)
        slab and the pool's cross-trial slab agree bit for bit, including
        the per-row hyperparameter-vector path (heterogeneous lr in the
        pooled slab vs the scalar path in per-trainer slabs)."""
        ds = mlp_dataset()
        v1 = make_trainer(ds, "fused", dtype="float32", lr=0.1)
        v2 = make_trainer(ds, "fused", dtype="float32", lr=0.05, seed=9)
        v1.run(3)
        v2.run(3)
        f1 = make_trainer(ds, "fused", dtype="float32", lr=0.1)
        f2 = make_trainer(ds, "fused", dtype="float32", lr=0.05, seed=9)
        FusedTrainerPool(dtype="float32").advance([f1, f2], [3, 3])
        assert np.array_equal(v1.params, f1.params)
        assert np.array_equal(v2.params, f2.params)

    def test_resumable_equals_one_shot(self):
        ds = mlp_dataset(seed=3)
        a = make_trainer(ds, "fused", dtype="float32")
        a.run(4)
        b = make_trainer(ds, "fused", dtype="float32")
        b.run(2).run(2)
        assert np.array_equal(a.params, b.params)


class TestFloat32Tolerance:
    def test_tracks_float64_at_documented_tolerance(self):
        ds = mlp_dataset()
        a = make_trainer(ds, "fused", dtype="float64")
        b = make_trainer(ds, "fused", dtype="float32")
        a.run(3)
        b.run(3)
        np.testing.assert_allclose(b.params, a.params, rtol=F32_RTOL, atol=F32_ATOL)
        # float32 genuinely computed in float32 — never bit-equal to the
        # reference (a bit-equal result would mean the dtype never plumbed
        # through and the "tolerance" test was vacuous).
        assert not np.array_equal(a.params, b.params)

    def test_global_state_stays_float64(self):
        ds = mlp_dataset()
        t = make_trainer(ds, "fused", dtype="float32")
        t.run(2)
        assert t.params.dtype == np.float64
        assert t._updates.dtype == np.float64

    def test_rng_end_states_identical_across_dtypes(self):
        """Permutations are drawn the same way regardless of slab dtype,
        so the trainer generators land in exactly the same end state."""
        ds = mlp_dataset()
        a = make_trainer(ds, "fused", dtype="float64")
        b = make_trainer(ds, "fused", dtype="float32")
        a.run(3)
        b.run(3)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state


class TestFloat32Evaluation:
    def test_stacked_eval_computes_in_float32(self):
        """Float features are cast to the slab dtype once per plan, so a
        float32 inference slab never upcasts to float64 at its first
        layer; its rates track the float64 slab's."""
        ds = load_dataset("cifar10", "test", seed=0)
        template = ds.task.build_model(0)
        plan = eval_chunk_plan(ds.eval_clients)
        assert plan.inputs(np.float64)[0] is plan.chunks[0].x
        x32 = plan.inputs(np.float32)
        assert plan.inputs(np.float32) is x32
        assert x32[0].dtype == np.float32
        slabs = {}
        for dtype in ("float64", "float32"):
            stacked = StackedModel(template, 4, dtype=dtype)
            stacked.slab[:] = get_flat_params(template) * np.arange(1, 5)[:, None]
            slabs[dtype] = stacked
        logits = []
        forward_eval = slabs["float32"].forward_eval
        slabs["float32"].forward_eval = lambda x, k: logits.append(forward_eval(x, k)) or logits[-1]
        r64 = stacked_client_error_rates(slabs["float64"], ds.eval_clients, ds.task, plan=plan)
        r32 = stacked_client_error_rates(slabs["float32"], ds.eval_clients, ds.task, plan=plan)
        assert logits and all(out.dtype == np.float32 for out in logits)
        # Rates are exact counts; float32 may flip a near-tied argmax.
        np.testing.assert_allclose(r32, r64, atol=0.02)

    def test_token_ids_pass_through(self):
        ds = load_dataset("stackoverflow", "test", seed=0)
        plan = eval_chunk_plan(ds.eval_clients)
        for chunk, x in zip(plan.chunks, plan.inputs(np.float32)):
            assert x is chunk.x


class TestSlabMemory:
    def test_float32_slab_is_half_the_bytes(self):
        ds = mlp_dataset()
        template = ds.task.build_model(0)
        s64 = SlabTrainer(ds.task, template, 6, dtype="float64")
        s32 = SlabTrainer(ds.task, template, 6, dtype="float32")
        assert s32.stacked_model.slab.dtype == np.float32
        assert s32.stacked_model.slab.nbytes * 2 == s64.stacked_model.slab.nbytes


class TestPlumbing:
    def test_env_var_selects_float32(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        ds = mlp_dataset()
        t = make_trainer(ds, "fused")
        assert t.cohort_dtype == np.dtype(np.float32)
        explicit = make_trainer(ds, "fused", dtype="float32")
        t.run(2)
        explicit.run(2)
        assert np.array_equal(t.params, explicit.params)

    def test_explicit_dtype_beats_env(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        ds = mlp_dataset()
        assert make_trainer(ds, "fused", dtype="float64").cohort_dtype == np.dtype(
            np.float64
        )

    def test_mixed_dtype_trainers_never_share_a_slab(self):
        ds = mlp_dataset()
        ts = [
            make_trainer(ds, "fused", dtype=dt, seed=s)
            for s, dt in enumerate(("float64", "float64", "float32", "float32"))
        ]
        pool = FusedTrainerPool()
        pool.advance(ts, [1] * 4)
        assert sorted(key[-1] for key in pool._slabs) == ["float32", "float64"]
        dtypes = {key[-1]: slab.stacked_model.dtype for key, slab in pool._slabs.items()}
        assert dtypes["float32"] == np.float32
        assert dtypes["float64"] == np.float64

    def test_invalid_dtype_rejected_at_construction(self):
        ds = mlp_dataset()
        with pytest.raises(ValueError):
            make_trainer(ds, "fused", dtype="float16")

    def test_runner_layers_forward_cohort_dtype(self):
        from repro.core.evaluator import FederatedTrialRunner
        from repro.core.search_space import paper_space

        ds = mlp_dataset()
        for kwargs in ({}, {"cohort_mode": "fused"}):
            runner = FederatedTrialRunner(ds, max_rounds=2, cohort_dtype="float32", **kwargs)
            assert runner.cohort_dtype == np.dtype(np.float32), kwargs
            trial = runner.create(paper_space(batch_sizes=(8,)).sample(np.random.default_rng(0)))
            assert trial.state.cohort_dtype == np.dtype(np.float32), kwargs


class TestBankKeys:
    def test_float32_never_aliases_float64_cache_entries(self, monkeypatch):
        from repro.experiments.context import ExperimentContext

        monkeypatch.delenv(DTYPE_ENV, raising=False)
        ctx64 = ExperimentContext(preset="test", n_bank_configs=2)
        ctx32 = ExperimentContext(preset="test", n_bank_configs=2, cohort_dtype="float32")
        k64 = ctx64.bank_key_fields("cifar10")
        k32 = ctx32.bank_key_fields("cifar10")
        assert k64 != k32
        assert k32["cohort_dtype"] == "float32"
        # float64 keeps its historical key shape: no dtype field.
        assert "cohort_dtype" not in k64
        assert "backend" not in k64

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            ({"cohort_mode": "serial"}, "c21cf47cd8f496ed586a"),
            ({"cohort_mode": "serial", "cohort_dtype": "float32"}, "42936e303ee57588a51b"),
            ({"cohort_mode": "fused"}, "8e842141ab21b0739c79"),
            # No mode set: banks build fused, and key as fused builds.
            ({}, "8e842141ab21b0739c79"),
            ({"cohort_dtype": "float32"}, "e60db758739ada73706f"),
        ],
    )
    def test_bank_key_digests_are_pinned(self, monkeypatch, kwargs, digest):
        # Cache files are named by this digest: a change here orphans
        # every bank already on disk.
        from repro.engine.bank_store import BankStore
        from repro.experiments.context import ExperimentContext

        for name in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        fields = ExperimentContext(preset="test", n_bank_configs=2, **kwargs).bank_key_fields(
            "cifar10"
        )
        key = BankStore.canonical_key(fields).encode()
        assert hashlib.sha256(key).hexdigest()[:20] == digest

    def test_checkpoint_refuses_cross_precision_resume(self):
        from repro.engine.checkpoint import (
            CheckpointPrecisionError,
            capture_run_state,
            restore_run_state,
        )
        from repro.core import RandomSearch
        from repro.core.evaluator import FederatedTrialRunner
        from repro.core.search_space import paper_space

        ds = mlp_dataset()
        space = paper_space(batch_sizes=(4, 8))

        def make_tuner(dtype):
            runner = FederatedTrialRunner(ds, max_rounds=4, cohort_dtype=dtype)
            return RandomSearch(space, runner, seed=0)

        t64 = make_tuner("float64")
        state = capture_run_state(t64)
        assert state["precision"] == {"cohort_dtype": "float64", "backend": "numpy"}
        restore_run_state(make_tuner("float64"), state)  # same precision: fine
        with pytest.raises(CheckpointPrecisionError, match="precision"):
            restore_run_state(make_tuner("float32"), state)

    def test_sweep_refuses_cross_precision_resume(self, tmp_path, monkeypatch):
        # A float32 sweep re-launched with --resume but without its
        # --cohort-dtype must stop, not restart fresh in float64 and
        # overwrite the float32 checkpoints.
        from repro.engine.checkpoint import CheckpointPrecisionError
        from repro.experiments import ExperimentContext, run_method_comparison

        monkeypatch.delenv(DTYPE_ENV, raising=False)

        def sweep(resume, **kwargs):
            ctx = ExperimentContext(
                preset="test",
                n_bank_configs=2,
                cohort_mode="fused",
                checkpoint_dir=str(tmp_path),
                **kwargs,
            )
            return run_method_comparison(
                ctx, methods=("rs",), n_trials=1, budget_points=4, resume=resume
            )

        sweep(resume=False, cohort_dtype="float32")
        saved = {p.name: p.read_bytes() for p in tmp_path.glob("*.ckpt")}
        assert saved
        with pytest.raises(CheckpointPrecisionError, match="float32"):
            sweep(resume=True)
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.ckpt")} == saved

    def test_legacy_checkpoint_without_precision_loads(self):
        from repro.engine.checkpoint import capture_run_state, restore_run_state
        from repro.core import RandomSearch
        from repro.core.evaluator import FederatedTrialRunner
        from repro.core.search_space import paper_space

        ds = mlp_dataset()
        space = paper_space(batch_sizes=(4, 8))
        tuner = RandomSearch(space, FederatedTrialRunner(ds, max_rounds=4), seed=0)
        state = capture_run_state(tuner)
        del state["precision"]  # pre-stamp checkpoint: float64 by construction
        restore_run_state(
            RandomSearch(space, FederatedTrialRunner(ds, max_rounds=4), seed=0),
            state,
        )
