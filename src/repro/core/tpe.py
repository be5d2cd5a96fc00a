"""Tree-structured Parzen Estimator (Bergstra et al., 2011).

TPE models ``p(θ | y)`` with two densities: ``ℓ(θ)`` fit to configs whose
observed score beat the γ-quantile threshold ``y*`` and ``g(θ)`` fit to the
rest. Maximising expected improvement reduces to minimising ``g(θ)/ℓ(θ)``
over candidates sampled from ``ℓ``.

Densities are factorised per dimension: truncated-Gaussian Parzen windows
in the unit cube for numeric dimensions and Laplace-smoothed categoricals
for choices. A uniform prior component is always mixed in so early noise
cannot collapse exploration.

Note the paper's point (§5): EI/TPE assumes noiseless observations. When
``y`` values carry subsampling/DP noise the good/bad split is corrupted —
this implementation deliberately keeps the standard noise-naive form to
reproduce that failure mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.evaluator import TrialRunner
from repro.core.noise import NoiseConfig
from repro.core.random_search import RandomSearch
from repro.core.search_space import Choice, SearchSpace
from repro.utils.rng import SeedLike, as_rng


class ParzenEstimator1D:
    """Truncated-Gaussian kernel density on [0, 1] with a uniform prior."""

    def __init__(self, points: np.ndarray, prior_weight: float = 1.0):
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 1:
            raise ValueError("points must be 1-D")
        n = self.points.size
        # Scott-style bandwidth in the unit interval, floored for stability.
        spread = self.points.std() if n > 1 else 1.0
        self.bandwidth = float(max(1e-2, spread * n ** (-1.0 / 5.0))) if n else 1.0
        self.prior_weight = prior_weight
        self._component_weight = 1.0 / (n + prior_weight) if n else 0.0
        self._prior_mass = prior_weight / (n + prior_weight) if n else 1.0

    def _truncation_mass(self, mu: np.ndarray) -> np.ndarray:
        """Probability mass of N(mu, bw) inside [0, 1] (for renormalising)."""
        from scipy.stats import norm

        return norm.cdf((1.0 - mu) / self.bandwidth) - norm.cdf((0.0 - mu) / self.bandwidth)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at ``x`` (array of unit-interval coordinates)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.full(x.shape, self._prior_mass)  # uniform prior: density 1 on [0,1]
        if self.points.size:
            from scipy.stats import norm

            z = (x[:, None] - self.points[None, :]) / self.bandwidth
            kernels = norm.pdf(z) / self.bandwidth
            kernels /= np.maximum(self._truncation_mass(self.points)[None, :], 1e-12)
            out = out + self._component_weight * kernels.sum(axis=1)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points from the mixture (rejection-free truncation by
        clipping, which matches the density's renormalised kernels closely
        enough for candidate generation)."""
        out = np.empty(n)
        total = self.points.size + self.prior_weight
        for i in range(n):
            if self.points.size == 0 or rng.random() < self.prior_weight / total:
                out[i] = rng.random()
            else:
                center = self.points[int(rng.integers(0, self.points.size))]
                # Redraw until inside the domain (truncated Gaussian).
                for _ in range(100):
                    val = rng.normal(center, self.bandwidth)
                    if 0.0 <= val <= 1.0:
                        break
                else:
                    val = min(max(val, 0.0), 1.0)
                out[i] = val
        return out


class CategoricalEstimator:
    """Laplace-smoothed categorical distribution over option indices."""

    def __init__(self, indices: np.ndarray, n_options: int, smoothing: float = 1.0):
        if n_options < 1:
            raise ValueError("n_options must be >= 1")
        counts = np.bincount(np.asarray(indices, dtype=int), minlength=n_options).astype(float)
        weights = counts + smoothing
        self.probs = weights / weights.sum()

    def pdf(self, indices: np.ndarray) -> np.ndarray:
        return self.probs[np.asarray(indices, dtype=int)]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.probs.size, size=n, p=self.probs)


class TPESampler:
    """The proposal model: fit ℓ/g on observations, minimise g/ℓ."""

    def __init__(
        self,
        space: SearchSpace,
        gamma: float = 0.25,
        n_candidates: int = 24,
        n_startup: int = 4,
        seed: SeedLike = None,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        self.space = space
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.n_startup = n_startup
        self.rng = as_rng(seed)
        self._history: List[Tuple[Dict, float]] = []

    def tell(self, config: Dict, score: float) -> None:
        """Record an observation (``score`` is the noisy error; lower wins)."""
        self._history.append((dict(config), float(score)))

    @property
    def n_observations(self) -> int:
        return len(self._history)

    def _split(self) -> Tuple[List[Dict], List[Dict]]:
        ordered = sorted(self._history, key=lambda cs: cs[1])
        n_good = max(1, int(np.ceil(self.gamma * len(ordered))))
        good = [c for c, _ in ordered[:n_good]]
        bad = [c for c, _ in ordered[n_good:]] or good
        return good, bad

    def suggest(self) -> Dict:
        """Propose the next config."""
        if self.n_observations < self.n_startup:
            return self.space.sample(self.rng)
        good, bad = self._split()
        searched = self.space.searched
        good_units = np.array([self.space.to_unit_vector(c) for c in good])
        bad_units = np.array([self.space.to_unit_vector(c) for c in bad])

        candidates = np.empty((self.n_candidates, len(searched)))
        log_l = np.zeros(self.n_candidates)
        log_g = np.zeros(self.n_candidates)
        for d, param in enumerate(searched):
            if isinstance(param, Choice):
                n_opt = len(param.options)
                good_idx = (good_units[:, d] * n_opt).astype(int).clip(0, n_opt - 1)
                bad_idx = (bad_units[:, d] * n_opt).astype(int).clip(0, n_opt - 1)
                l_est = CategoricalEstimator(good_idx, n_opt)
                g_est = CategoricalEstimator(bad_idx, n_opt)
                samples = l_est.sample(self.n_candidates, self.rng)
                candidates[:, d] = (samples + 0.5) / n_opt
                log_l += np.log(l_est.pdf(samples))
                log_g += np.log(g_est.pdf(samples))
            else:
                l_est = ParzenEstimator1D(good_units[:, d])
                g_est = ParzenEstimator1D(bad_units[:, d])
                samples = l_est.sample(self.n_candidates, self.rng)
                candidates[:, d] = samples
                log_l += np.log(np.maximum(l_est.pdf(samples), 1e-300))
                log_g += np.log(np.maximum(g_est.pdf(samples), 1e-300))
        best = int(np.argmin(log_g - log_l))
        return self.space.from_unit_vector(candidates[best])


class TPE(RandomSearch):
    """TPE as a sequential tuner: the RS loop with model-based proposals.

    Matches the paper's setup: K = 16 configs, each trained for the full
    per-config round allocation, evaluated once (noisily).
    """

    method_name = "tpe"
    # Proposals are fit on earlier observations, so the strict
    # propose -> train -> observe loop must be preserved.
    sequential_proposals = True

    def __init__(
        self,
        space: SearchSpace,
        runner: TrialRunner,
        noise: NoiseConfig = NoiseConfig(),
        n_configs: int = 16,
        total_budget: Optional[int] = None,
        seed: SeedLike = 0,
        gamma: float = 0.25,
        n_candidates: int = 24,
        n_startup: int = 4,
    ):
        super().__init__(
            space, runner, noise, n_configs=n_configs, total_budget=total_budget, seed=seed
        )
        self.sampler = TPESampler(
            space, gamma=gamma, n_candidates=n_candidates, n_startup=n_startup, seed=self.rng
        )

    def propose(self) -> Dict:
        return self.sampler.suggest()

    def _observe(self, trial, budget_used, evaluation, in_hand) -> float:
        noisy = super()._observe(trial, budget_used, evaluation, in_hand)
        self.sampler.tell(trial.config, noisy)
        return noisy

    # -- checkpoint/resume --------------------------------------------------------
    def _state_extra(self) -> Dict:
        # The sampler draws from the tuner's RNG object (seed=self.rng in
        # __init__), so only its observation history needs saving.
        extra = super()._state_extra()
        extra["tpe_history"] = [(dict(c), float(s)) for c, s in self.sampler._history]
        return extra

    def _load_state_extra(self, extra: Dict, trials: Dict) -> None:
        super()._load_state_extra(extra, trials)
        self.sampler._history = [(dict(c), float(s)) for c, s in extra["tpe_history"]]
