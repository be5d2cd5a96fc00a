"""Deterministic random-number management.

Every stochastic component in the library takes either a seed or a
:class:`numpy.random.Generator`. Experiments need many independent streams
(per client, per trial, per tuning method); :class:`RngFactory` derives them
reproducibly from a single root seed using NumPy's ``SeedSequence`` spawning,
so adding a new consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an int seed, an existing generator (returned unchanged), a
    ``SeedSequence``, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent generators from ``seed``.

    The streams are statistically independent regardless of how many are
    requested, and the i-th stream is stable across runs for a fixed seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive child sequences from the generator itself so repeated calls
        # advance deterministically rather than duplicating streams.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def _fold(key: int, part: str) -> int:
    """Fold ``part`` into a running path key: a stable string -> int hash
    (Python's ``hash()`` is randomized per process). Folding is
    sequential, so a path's key extends its parent's by the last part."""
    for ch in part:
        key = (key * 1000003 + ord(ch)) % (2**63)
    return key


class RngFactory:
    """A named, hierarchical source of reproducible random generators.

    Children are derived from ``(root_seed, name)`` so that each named
    consumer gets a stable, independent stream::

        factory = RngFactory(seed=0)
        rng_train = factory.make("train")
        rng_eval = factory.make("eval")      # independent of rng_train
        sub = factory.child("trial-3")        # a nested factory
    """

    def __init__(self, seed: SeedLike = 0, _path: Sequence[str] = ()):
        if isinstance(seed, np.random.Generator):
            # Freeze the generator's state into an integer root seed.
            seed = int(seed.integers(0, 2**63 - 1))
        self._root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._path = tuple(_path)
        self._key = 0
        for part in self._path:
            self._key = _fold(self._key, part)

    @property
    def path(self) -> tuple:
        """Hierarchical name path of this factory (for debugging)."""
        return self._path

    def _entropy_for(self, name: str) -> np.random.SeedSequence:
        # The path itself is already folded into self._key.
        return self._sequence(_fold(self._key, name))

    def _sequence(self, key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self._root.entropy, spawn_key=(*self._root.spawn_key, key))

    def make(self, name: str) -> np.random.Generator:
        """Return a generator bound to ``name`` under this factory."""
        return np.random.default_rng(self._entropy_for(name))

    def child(self, name: str) -> "RngFactory":
        """Return a nested factory rooted at ``name``."""
        sub = RngFactory.__new__(RngFactory)
        sub._key = _fold(self._key, name)
        sub._root = self._sequence(sub._key)
        sub._path = (*self._path, name)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngFactory(path={'/'.join(self._path) or '<root>'})"
