"""Disk-backed memoization of built configuration banks.

Building a :class:`repro.experiments.bank.ConfigBank` is the single most
expensive step of every bank-driven experiment — it trains the whole
config pool. The build is a pure function of its inputs (dataset identity,
preset, seed, pool size, round cap, ...), so :class:`BankStore` memoizes
finished banks as ``.npz`` files keyed by a canonical hash of exactly
those inputs.

Cache-key contract: *every* argument that can change the resulting bank
must be part of the key fields. :meth:`BankStore.key_fields` assembles the
standard set; any change to any field — a different seed, pool size,
round cap, eta, cohort size, or param storage — produces a different hash
and therefore a rebuild. The key also stamps :data:`BANK_FORMAT_VERSION`,
the semantic version of the training behavior itself: a PR that changes
what a build produces bumps it, and every stale cache entry becomes a
miss automatically. Unknown files are never overwritten or deleted
except through :meth:`clear`.

The cache directory comes from the caller or the ``REPRO_BANK_CACHE``
environment variable (see :class:`repro.experiments.ExperimentContext`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from typing import Callable, Dict, List, Optional

from repro.experiments.bank import ConfigBank

#: Semantic version of the training/evaluation behavior behind a bank
#: build. Bump whenever a PR changes what a build *produces* for the same
#: inputs — kernel semantics, divergence handling, evaluation order — so
#: every stale cache entry auto-invalidates instead of relying on a README
#: warning. History:
#:
#: 2: PR 2's ReLU forward now propagates NaN/-inf inputs instead of
#:    zeroing them, so diverged-config trajectories can early-stop sooner
#:    than pre-PR serial runs; pre-PR caches of diverged configs differ.
#: 3: a fused build buckets configs by local step schedule before sharing
#:    a slab, so mixed-batch-size pools pad differently than version-2
#:    fused builds (results move at the ~1e-15 ragged-padding tolerance).
BANK_FORMAT_VERSION = 3


class BankStore:
    """File-system cache of built configuration banks.

    Writes are atomic (temp file + ``os.replace``), so a crashed or
    concurrent build can never leave a truncated bank behind; unreadable
    cache entries are quarantined as ``.corrupt`` files and treated as
    misses.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = str(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def key_fields(
        dataset: str,
        preset: str,
        seed: int,
        n_configs: int,
        max_rounds: int,
        **extra,
    ) -> Dict:
        """The canonical key of one bank build.

        ``extra`` carries any further build arguments that influence the
        result (eta, clients_per_round, scheme, store_params, ...). The
        ``format_version`` field stamps :data:`BANK_FORMAT_VERSION` into
        every key, so behavior-changing PRs rebuild stale caches
        automatically.
        """
        fields = {
            "dataset": str(dataset),
            "preset": str(preset),
            "seed": int(seed),
            "n_configs": int(n_configs),
            "max_rounds": int(max_rounds),
            "format_version": BANK_FORMAT_VERSION,
        }
        for name, value in extra.items():
            fields[str(name)] = value
        return fields

    @staticmethod
    def canonical_key(fields: Dict) -> str:
        """Deterministic serialisation of the key fields."""
        return json.dumps(fields, sort_keys=True, separators=(",", ":"), default=str)

    def path_for(self, fields: Dict) -> str:
        """The cache file a key maps to (may not exist yet)."""
        digest = hashlib.sha256(self.canonical_key(fields).encode()).hexdigest()[:20]
        stem = str(fields.get("dataset", "bank")).replace(os.sep, "_")
        return os.path.join(self.cache_dir, f"{stem}-{digest}.npz")

    # -- cache operations -------------------------------------------------------
    def get(self, fields: Dict) -> Optional[ConfigBank]:
        """The cached bank for this key, or ``None`` on a miss.

        A *missing* file is a silent miss. A file that exists but fails to
        load is quarantined — renamed to ``<path>.corrupt`` with a warning
        naming it — so the evidence survives for diagnosis instead of
        being silently overwritten by the rebuild's :meth:`put`.
        """
        path = self.path_for(fields)
        if not os.path.exists(path):
            return None
        try:
            return ConfigBank.load(path)
        except Exception as exc:
            from repro.engine.atomicio import quarantine

            target = quarantine(path) or path
            warnings.warn(
                f"corrupt bank cache entry {path}: {exc!r}; "
                f"quarantined as {target}, treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def put(self, fields: Dict, bank: ConfigBank) -> str:
        """Persist a built bank under this key; returns the cache path."""
        path = self.path_for(fields)
        # ".tmp.npz": numpy requires the .npz suffix (it appends one
        # otherwise), while the ".tmp" infix keeps in-progress/orphaned
        # temp files out of paths()/len()/clear().
        fd, tmp = tempfile.mkstemp(suffix=".tmp.npz", dir=self.cache_dir)
        os.close(fd)
        try:
            bank.save(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    def get_or_build(self, fields: Dict, builder: Callable[[], ConfigBank]) -> ConfigBank:
        """Return the cached bank, building (and storing) it on a miss."""
        bank = self.get(fields)
        if bank is None:
            bank = builder()
            self.put(fields, bank)
        return bank

    # -- maintenance -------------------------------------------------------------
    def paths(self) -> List[str]:
        """All bank files currently in the cache."""
        return sorted(
            os.path.join(self.cache_dir, name)
            for name in os.listdir(self.cache_dir)
            if name.endswith(".npz") and not name.endswith(".tmp.npz")
        )

    def __len__(self) -> int:
        return len(self.paths())

    def clear(self) -> int:
        """Delete every cached bank; returns how many were removed."""
        removed = 0
        for path in self.paths():
            os.unlink(path)
            removed += 1
        return removed
