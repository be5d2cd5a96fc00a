"""Tests for the disk-backed bank store: exact round-trips and the
invalidate-on-any-key-change contract."""

import numpy as np
import pytest

from repro.engine.bank_store import BankStore
from repro.experiments.bank import BANK_ID_KEY, ConfigBank


def make_bank(seed=0, n_configs=4, n_clients=6, with_params=False):
    """A synthetic bank (no training needed) with full float64 entropy."""
    rng = np.random.default_rng(seed)
    checkpoints = [0, 1, 3, 9]
    configs = [
        {"server_lr": float(rng.uniform(1e-6, 1e-1)), "batch_size": 8, BANK_ID_KEY: i}
        for i in range(n_configs)
    ]
    return ConfigBank(
        dataset_name="synthetic",
        configs=configs,
        checkpoints=checkpoints,
        errors=rng.random((n_configs, len(checkpoints), n_clients)),
        weights_weighted=rng.integers(1, 50, size=n_clients).astype(np.float64),
        weights_uniform=np.ones(n_clients),
        params=rng.standard_normal((n_configs, len(checkpoints), 11)) if with_params else None,
    )


FIELDS = dict(
    dataset="synthetic", preset="test", seed=0, n_configs=4, max_rounds=9
)


class TestRoundTrip:
    def test_miss_on_empty_store(self, tmp_path):
        assert BankStore(tmp_path).get(FIELDS) is None

    def test_round_trip_bit_exact(self, tmp_path):
        store = BankStore(tmp_path)
        bank = make_bank()
        store.put(FIELDS, bank)
        loaded = store.get(FIELDS)
        assert np.array_equal(loaded.errors, bank.errors)
        assert np.array_equal(loaded.weights_weighted, bank.weights_weighted)
        assert np.array_equal(loaded.weights_uniform, bank.weights_uniform)
        assert loaded.checkpoints == bank.checkpoints
        assert loaded.configs == bank.configs
        assert loaded.dataset_name == bank.dataset_name
        assert loaded.params is None

    def test_round_trip_preserves_params(self, tmp_path):
        store = BankStore(tmp_path)
        bank = make_bank(with_params=True)
        store.put(FIELDS, bank)
        assert np.array_equal(store.get(FIELDS).params, bank.params)

    def test_put_overwrites_atomically(self, tmp_path):
        store = BankStore(tmp_path)
        store.put(FIELDS, make_bank(seed=1))
        store.put(FIELDS, make_bank(seed=2))
        assert len(store) == 1
        assert np.array_equal(store.get(FIELDS).errors, make_bank(seed=2).errors)

    def test_corrupt_file_is_a_quarantined_miss(self, tmp_path):
        """A file that exists but can't load is a miss AND gets renamed to
        <path>.corrupt with a warning naming it — evidence survives for
        diagnosis instead of being overwritten by the rebuild."""
        import os
        import warnings

        store = BankStore(tmp_path)
        path = store.path_for(FIELDS)
        with open(path, "wb") as f:
            f.write(b"not an npz file")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.get(FIELDS) is None
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert path in str(caught[0].message)
        assert not os.path.exists(path)
        with open(path + ".corrupt", "rb") as f:
            assert f.read() == b"not an npz file"
        # The quarantined file is invisible to cache bookkeeping, and the
        # rebuild path is now free for a clean put().
        assert len(store) == 0
        store.put(FIELDS, make_bank())
        assert store.get(FIELDS) is not None

    def test_missing_file_is_a_silent_miss(self, tmp_path):
        """Only *corrupt* entries warn; a plain miss stays silent."""
        import warnings

        store = BankStore(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.get(FIELDS) is None
        assert caught == []


class TestKeyContract:
    @pytest.mark.parametrize(
        "change",
        [
            {"dataset": "other"},
            {"preset": "small"},
            {"seed": 1},
            {"n_configs": 5},
            {"max_rounds": 27},
        ],
    )
    def test_any_key_change_invalidates(self, tmp_path, change):
        store = BankStore(tmp_path)
        store.put(FIELDS, make_bank())
        assert store.get(dict(FIELDS, **change)) is None

    def test_extra_fields_join_the_key(self, tmp_path):
        store = BankStore(tmp_path)
        with_extras = BankStore.key_fields(
            "synthetic", "test", 0, 4, 9, eta=3, store_params=False
        )
        store.put(with_extras, make_bank())
        assert store.get(with_extras) is not None
        assert store.get(dict(with_extras, eta=2)) is None
        assert store.get(dict(with_extras, store_params=True)) is None

    def test_canonical_key_order_independent(self):
        a = BankStore.canonical_key({"x": 1, "y": 2})
        b = BankStore.canonical_key({"y": 2, "x": 1})
        assert a == b


class TestGetOrBuild:
    def test_builds_once_then_hits(self, tmp_path):
        store = BankStore(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return make_bank()

        first = store.get_or_build(FIELDS, builder)
        second = store.get_or_build(FIELDS, builder)
        assert len(calls) == 1
        assert np.array_equal(first.errors, second.errors)

    def test_clear(self, tmp_path):
        store = BankStore(tmp_path)
        store.put(FIELDS, make_bank())
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(FIELDS) is None


class TestFormatVersion:
    """The build signature stamps a semantic format version, so
    behavior-changing PRs auto-invalidate stale caches (e.g. PR 2's ReLU
    NaN-propagation change) instead of relying on a README warning."""

    def test_key_fields_stamp_format_version(self):
        from repro.engine.bank_store import BANK_FORMAT_VERSION

        fields = BankStore.key_fields("synthetic", "test", 0, 4, 9)
        assert fields["format_version"] == BANK_FORMAT_VERSION

    def test_version_bump_invalidates(self, tmp_path):
        store = BankStore(tmp_path)
        fields = BankStore.key_fields("synthetic", "test", 0, 4, 9)
        store.put(fields, make_bank())
        assert store.get(fields) is not None
        stale = dict(fields, format_version=fields["format_version"] - 1)
        assert store.get(stale) is None


class TestCohortModeKeySeparation:
    """Each build path gets its own cache entry: serial (no mode field)
    and fused (cross-config slabs, in-process under any executor)."""

    def context_for(self, tmp_path, mode, n_workers=1):
        from repro.experiments import ExperimentContext

        # n_workers defaults to 1 (not None) so an ambient REPRO_WORKERS —
        # e.g. the nightly CI full job — does not pick the executor.
        return ExperimentContext(
            preset="test",
            seed=0,
            n_bank_configs=4,
            cache_dir=str(tmp_path),
            cohort_mode=mode,
            n_workers=n_workers,
        )

    def test_two_modes_two_cache_paths(self, tmp_path):
        contexts = {
            "serial": self.context_for(tmp_path, "serial"),
            "fused": self.context_for(tmp_path, "fused"),
            "fused-workers": self.context_for(tmp_path, "fused", n_workers=2),
        }
        paths = {
            m: ctx.bank_store.path_for(ctx.bank_key_fields("cifar10")) for m, ctx in contexts.items()
        }
        assert paths["fused-workers"] == paths["fused"] != paths["serial"]

    def test_serial_key_has_no_cohort_field(self, tmp_path):
        ctx = self.context_for(tmp_path, "serial")
        assert "cohort_mode" not in ctx.bank_key_fields("cifar10")

    def test_fused_with_workers_keys_as_in_process(self, tmp_path):
        """An explicit fused build trains cross-config slabs in-process
        whatever the executor, so a multi-worker context keys as the
        in-process one."""
        pooled = self.context_for(tmp_path, "fused", n_workers=2)
        in_process = self.context_for(tmp_path, "fused")
        assert pooled.bank_key_fields("cifar10") == in_process.bank_key_fields("cifar10")
        assert in_process.bank_key_fields("cifar10")["cohort_mode"] == "fused"

    def test_unset_mode_keys_as_in_process_fused(self, tmp_path, monkeypatch):
        """With no cohort mode set, banks build fused in-process under any
        executor, so the key is the in-process fused one."""
        monkeypatch.delenv("REPRO_COHORT_VECTOR", raising=False)
        fused = self.context_for(tmp_path, "fused").bank_key_fields("cifar10")
        for n_workers in (1, 2):
            ctx = self.context_for(tmp_path, None, n_workers=n_workers)
            assert ctx.bank_key_fields("cifar10") == fused

    def test_modes_never_share_entries(self, tmp_path):
        serial_ctx = self.context_for(tmp_path, "serial")
        fused_ctx = self.context_for(tmp_path, "fused")
        store = serial_ctx.bank_store
        store.put(serial_ctx.bank_key_fields("cifar10"), make_bank(seed=1))
        assert store.get(fused_ctx.bank_key_fields("cifar10")) is None
        store.put(fused_ctx.bank_key_fields("cifar10"), make_bank(seed=2))
        assert np.array_equal(
            store.get(serial_ctx.bank_key_fields("cifar10")).errors, make_bank(seed=1).errors
        )


class TestConcurrentWriters:
    """Two *processes* hammering put() on the same key must never expose a
    torn file to a concurrent reader: every get() during the race loads a
    complete bank from exactly one writer (os.replace atomicity), and the
    survivor is bit-exact."""

    _WRITER = """
import sys
import numpy as np
sys.path.insert(0, {src!r})
from repro.engine.bank_store import BankStore
from repro.experiments.bank import BANK_ID_KEY, ConfigBank

seed = int(sys.argv[2])
rng = np.random.default_rng(seed)
checkpoints = [0, 1, 3, 9]
configs = [
    {{"server_lr": float(rng.uniform(1e-6, 1e-1)), "batch_size": 8, BANK_ID_KEY: i}}
    for i in range(4)
]
bank = ConfigBank(
    dataset_name="synthetic",
    configs=configs,
    checkpoints=checkpoints,
    errors=rng.random((4, len(checkpoints), 6)),
    weights_weighted=rng.integers(1, 50, size=6).astype(np.float64),
    weights_uniform=np.ones(6),
    params=None,
)
store = BankStore(sys.argv[1])
fields = dict(dataset="synthetic", preset="test", seed=0, n_configs=4, max_rounds=9)
for _ in range(25):
    store.put(fields, bank)
print("done")
"""

    def test_racing_processes_never_tear_the_store(self, tmp_path):
        import os
        import subprocess
        import sys
        import warnings

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        script = self._WRITER.format(src=src)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for seed in (1, 2)
        ]
        valid = {
            seed: make_bank(seed=seed).errors for seed in (1, 2)
        }
        store = BankStore(tmp_path)
        observed = set()
        # Read continuously while both writers race on the same key. A
        # torn write would surface as a quarantine warning (load failure)
        # or an errors array matching neither writer.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            while any(w.poll() is None for w in writers):
                bank = store.get(FIELDS)
                if bank is None:
                    continue  # nothing published yet
                matches = [s for s, errs in valid.items()
                           if np.array_equal(bank.errors, errs)]
                assert matches, "reader observed a bank neither writer wrote"
                observed.add(matches[0])
        for writer in writers:
            out, err = writer.communicate(timeout=60)
            assert writer.returncode == 0, err
            assert out.strip() == "done"
        # The store holds exactly one entry and it is one writer's bank,
        # bit-exact.
        assert len(store) == 1
        final = store.get(FIELDS)
        assert any(np.array_equal(final.errors, errs) for errs in valid.values())
        assert observed  # the reader actually raced the writers
