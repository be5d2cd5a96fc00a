"""Client samplers: uniform and systems-heterogeneity-biased selection.

The paper samples clients *uniformly without replacement* for training and
evaluation (§2.1), and models systems heterogeneity (§3.2) by biasing
evaluation sampling towards clients on which the current model performs
well: client k gets selection weight ``(a_k + δ)^b`` where ``a_k`` is its
accuracy, δ = 1e-4 keeps weights positive, and ``b`` controls bias strength
(b = 0 recovers uniform sampling).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng


class UniformSampler:
    """Sample ``size`` client indices uniformly without replacement."""

    def __init__(self, n_clients: int):
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        self.n_clients = n_clients

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        if not 1 <= size <= self.n_clients:
            raise ValueError(f"size must be in [1, {self.n_clients}], got {size}")
        rng = as_rng(rng)
        return rng.choice(self.n_clients, size=size, replace=False)


def biased_weights(accuracies: np.ndarray, b: float, delta: float = 1e-4) -> np.ndarray:
    """Selection probabilities ``(a_k + δ)^b`` normalised to sum to 1
    along the last axis (each row of a 2-D input is one client pool)."""
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if np.any(accuracies < 0) or np.any(accuracies > 1):
        raise ValueError("accuracies must lie in [0, 1]")
    if b < 0:
        raise ValueError(f"bias exponent b must be >= 0, got {b}")
    w = (accuracies + delta) ** b
    return w / w.sum(axis=-1, keepdims=True)


class BiasedSampler:
    """Accuracy-biased sampling without replacement (systems heterogeneity).

    Uses the Gumbel top-k trick for weighted sampling without replacement:
    perturb log-weights with Gumbel noise and take the top ``size`` — an
    exact sampler for the successive-draws-without-replacement model.

    ``availability`` optionally composes a second per-client weight vector
    into the selection probabilities — typically the *realized* report
    rates measured by a :class:`repro.engine.faults.ParticipationLog`
    (``log.availability_weights()``), so empirically-observed dropout
    biases sampling the same multiplicative way the paper's static
    ``(a_k + δ)^b`` model does. ``None`` (the default) leaves the sampler
    bit-identical to its availability-free behavior.
    """

    def __init__(self, b: float, delta: float = 1e-4, availability=None):
        if b < 0:
            raise ValueError(f"bias exponent b must be >= 0, got {b}")
        self.b = b
        self.delta = delta
        if availability is not None:
            availability = np.asarray(availability, dtype=np.float64)
            if np.any(availability < 0) or not np.any(availability > 0):
                raise ValueError("availability weights must be >= 0 with a positive sum")
        self.availability = availability

    def sample(
        self, accuracies: np.ndarray, size: int, rng: SeedLike = None
    ) -> np.ndarray:
        accuracies = np.asarray(accuracies, dtype=np.float64)
        n = accuracies.size
        if not 1 <= size <= n:
            raise ValueError(f"size must be in [1, {n}], got {size}")
        rng = as_rng(rng)
        if self.b == 0.0 and self.availability is None:
            return rng.choice(n, size=size, replace=False)
        if self.b == 0.0:
            probs = np.full(n, 1.0 / n)
        else:
            probs = biased_weights(accuracies, self.b, self.delta)
        if self.availability is not None:
            if self.availability.size != n:
                raise ValueError(
                    f"availability has {self.availability.size} clients, "
                    f"accuracies have {n}"
                )
            probs = probs * self.availability
            probs = probs / probs.sum()
        gumbel = rng.gumbel(size=n)
        with np.errstate(divide="ignore"):
            # Zero-probability clients (never-available) get -inf keys and
            # are only drawn when size exceeds the available pool.
            keys = np.log(probs) + gumbel
        return np.argpartition(-keys, size - 1)[:size]
