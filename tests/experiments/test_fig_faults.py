"""Fast-tier smoke tests for the fault-injection sweep (figfaults)."""

import pytest

from repro.engine.faults import FaultConfig
from repro.experiments import ExperimentContext
from repro.experiments.fig_faults import DROPOUT_GRID, run_fault_sweep


@pytest.fixture(scope="module")
def ctx():
    """A sweep of several runs maps them across two worker processes; the
    records equal a serial sweep's (tests/engine/test_parallel_equivalence.py)."""
    return ExperimentContext(preset="test", seed=0, n_workers=2)


def run_tiny_sweep(ctx, **overrides):
    kwargs = dict(
        dataset_names=("cifar10",),
        methods=("rs",),
        dropout_rates=(0.0, 0.3),
        n_trials=1,
    )
    kwargs.update(overrides)
    return run_fault_sweep(ctx, **kwargs)


class TestRunFaultSweep:
    def test_grid_covered_with_realized_stats(self, ctx):
        records = run_tiny_sweep(ctx)
        assert [r["dropout_rate"] for r in records] == [0.0, 0.3]
        for record in records:
            assert record["figure"] == "figfaults"
            assert record["dataset"] == "cifar10"
            assert record["method"] == "rs"
            assert not record.get("failed", False)
            assert 0.0 <= record["final_full_error"] <= 1.0
            assert record["n_evaluations"] >= 1
            # Realized-pressure fields always present, even at rate 0.
            for key in ("train_drop_fraction", "eval_drop_fraction",
                        "rounds_lost", "simulated_time", "quarantined_trials"):
                assert key in record

    def test_zero_rate_injects_nothing(self, ctx):
        clean = run_tiny_sweep(ctx, dropout_rates=(0.0,))[0]
        assert clean["train_drop_fraction"] == 0.0
        assert clean["eval_drop_fraction"] == 0.0
        assert clean["rounds_lost"] == 0

    def test_heavy_dropout_actually_drops_clients(self, ctx):
        heavy = run_tiny_sweep(ctx, dropout_rates=(0.5,))[0]
        assert heavy["train_drop_fraction"] > 0.0
        assert heavy["eval_drop_fraction"] > 0.0

    def test_sweep_is_deterministic(self, ctx):
        first = run_tiny_sweep(ctx, dropout_rates=(0.3,))[0]
        second = run_tiny_sweep(ctx, dropout_rates=(0.3,))[0]
        assert first == second

    def test_distinct_coordinates_get_distinct_fault_seeds(self, ctx):
        records = run_tiny_sweep(ctx, dropout_rates=(0.1, 0.3), n_trials=2)
        seeds = [r["fault_seed"] for r in records]
        assert len(set(seeds)) == len(seeds)

    def test_default_grid_shape(self):
        assert DROPOUT_GRID == (0.0, 0.1, 0.3, 0.5)

    def test_rejects_out_of_range_rate(self, ctx):
        with pytest.raises(ValueError, match="dropout rate"):
            run_tiny_sweep(ctx, dropout_rates=(1.5,))

    def test_failed_run_recorded_and_sweep_continues(self, ctx):
        # An unknown method makes make_tuner raise inside the sweep loop;
        # the containment contract records a failure entry and keeps going.
        with pytest.warns(RuntimeWarning, match="failed"):
            records = run_fault_sweep(
                ctx,
                dataset_names=("cifar10",),
                methods=("nope", "rs"),
                dropout_rates=(0.0,),
                n_trials=1,
            )
        assert len(records) == 2
        assert records[0]["failed"] is True
        assert "nope" in records[0]["error"]
        assert not records[1].get("failed", False)

    def test_base_faults_knobs_respected(self, ctx):
        base = FaultConfig(quorum=0.0, seed=99)
        record = run_tiny_sweep(
            ctx, dropout_rates=(0.5,), base_faults=base
        )[0]
        # Quorum 0: no round is ever lost, however heavy the dropout.
        assert record["rounds_lost"] == 0
        assert record["train_drop_fraction"] > 0.0
