"""The federated evaluation-noise stack (Figure 2 of the paper).

A hyperparameter evaluation in cross-device FL is corrupted, in order, by:

1. **Client subsampling** — only ``|S| ≪ N_val`` clients report.
2. **Systems heterogeneity** — participation is biased towards clients on
   which the current model performs well (weight ``(a_k + δ)^b``).
3. **Differential privacy** — Laplace noise is added to the released
   accuracy (scale ``M/(ε|S|)``, see :mod:`repro.core.privacy`).

:class:`NoisyEvaluator` composes all three. A release splits in two:

- the **draw** (:meth:`NoisyEvaluator.draw`) picks the cohort, drops its
  injected evaluation faults and draws the Laplace noise. For uniform
  cohorts none of that reads a rate, so a tuner draws first and then
  scores each trial on the clients of its cohort only;
- the **release** (:meth:`NoisyEvaluator.release`) forms the weighted
  mean of the cohort's rates, in cohort order, and adds the drawn noise.

The accuracy-biased sampler weighs clients by their accuracy, so its draw
takes the full pool's rates; :meth:`NoisyEvaluator.evaluate` and
:meth:`NoisyEvaluator.evaluate_many` release from full-pool rate vectors,
which is what the precomputed configuration bank holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.privacy import PrivacyConfig
from repro.fl.sampling import BiasedSampler, UniformSampler, biased_weights
from repro.utils.rng import SeedLike, as_rng
from repro.utils.stats import weighted_mean


@dataclass(frozen=True)
class NoiseConfig:
    """Declarative description of the evaluation-noise setting.

    ``subsample`` — ``None`` for full evaluation, an ``int`` for a raw
    client count, or a ``float`` in (0, 1] for a fraction of the pool.
    ``bias_b`` — systems-heterogeneity exponent (0 = unbiased).
    ``epsilon`` — DP budget (``None``/``inf`` = non-private).
    ``scheme`` — aggregation weighting; forced to "uniform" under DP
    (paper footnote 1: sensitivity must not depend on local dataset sizes).
    """

    subsample: Union[None, int, float] = None
    bias_b: float = 0.0
    epsilon: Optional[float] = None
    scheme: str = "weighted"

    def __post_init__(self) -> None:
        if isinstance(self.subsample, float) and not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"fractional subsample must be in (0, 1], got {self.subsample}")
        if isinstance(self.subsample, int) and self.subsample < 1:
            raise ValueError(f"integer subsample must be >= 1, got {self.subsample}")
        if self.bias_b < 0:
            raise ValueError(f"bias_b must be >= 0, got {self.bias_b}")
        if self.scheme not in ("weighted", "uniform"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.private and self.scheme == "weighted":
            # DP requires uniform weighting; silently correcting would hide
            # a modelling mistake, so make the caller say what they mean.
            raise ValueError("DP evaluation requires scheme='uniform' (paper footnote 1)")

    @property
    def private(self) -> bool:
        return self.epsilon is not None and self.epsilon != np.inf

    @property
    def noiseless(self) -> bool:
        """True when this config is exactly the paper's noiseless setting."""
        return self.subsample is None and self.bias_b == 0.0 and not self.private

    def cohort_size(self, n_clients: int) -> int:
        """Resolve ``subsample`` to a raw client count for a pool of size n."""
        if self.subsample is None:
            return n_clients
        if isinstance(self.subsample, float):
            return max(1, min(n_clients, int(round(self.subsample * n_clients))))
        return max(1, min(n_clients, self.subsample))


@dataclass
class NoisyEvaluation:
    """One noisy evaluation outcome: the released error plus provenance."""

    error: float
    cohort: np.ndarray
    exact_subsampled_error: float


@dataclass(frozen=True)
class Draw:
    """The rate-free half of one release: the clients that report, in
    draw order, and the noise added to their accuracy (0.0 without DP)."""

    cohort: np.ndarray
    noise: float


class NoisyEvaluator:
    """Applies the noise stack to per-client error-rate vectors.

    Parameters
    ----------
    weights : full-pool per-client aggregation weights (Eq. 2 ``p_val,k``).
    noise : the :class:`NoiseConfig` to apply.
    privacy : a :class:`PrivacyConfig` with the tuner's release count; if
        omitted, one is built from ``noise.epsilon`` with
        ``total_releases = 1``.
    rng : random source for cohort sampling and DP noise.
    """

    def __init__(
        self,
        weights: np.ndarray,
        noise: NoiseConfig,
        rng: SeedLike = None,
        privacy: Optional[PrivacyConfig] = None,
    ):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        self.noise = noise
        self.rng = as_rng(rng)
        if privacy is None:
            privacy = PrivacyConfig(epsilon=noise.epsilon, total_releases=1)
        elif noise.epsilon != privacy.epsilon:
            raise ValueError(
                f"epsilon mismatch: noise has {noise.epsilon}, privacy has {privacy.epsilon}"
            )
        self.privacy = privacy
        self._uniform = UniformSampler(self.weights.size)
        self._biased = BiasedSampler(noise.bias_b) if noise.bias_b > 0 else None
        # Fault injection (repro.engine.faults): evaluation dropout makes
        # the realized cohort differ from the drawn one. _release_index
        # keys each release's deterministic drop draws and is serialized
        # (state_dict), so a resumed run replays the identical fault
        # sequence. No plan (or zero eval rates) leaves every path below
        # byte-identical to the fault-free evaluator.
        self.faults = None
        self.participation = None
        self._release_index = 0

    @property
    def n_clients(self) -> int:
        return self.weights.size

    # -- fault injection -----------------------------------------------------
    def set_fault_plan(self, plan) -> None:
        """Attach a :class:`repro.engine.faults.FaultPlan` whose
        ``eval_dropout_rate`` drops sampled evaluation clients per release.
        A release whose survivors miss the plan's quorum falls back to the
        full drawn cohort (the server waited everyone out)."""
        self.faults = plan
        if plan is not None and plan.injects_eval_faults and self.participation is None:
            from repro.engine.faults import ParticipationLog

            self.participation = ParticipationLog(self.n_clients)

    def _injects_eval_faults(self) -> bool:
        return self.faults is not None and self.faults.injects_eval_faults

    def _apply_eval_faults(self, cohort: np.ndarray) -> np.ndarray:
        """Realized reporters of one release (drawn cohort minus injected
        dropouts). Consumes no RNG — the drop draws are sha-keyed by the
        release index — so attaching a plan never shifts the sampling or
        DP streams."""
        if not self._injects_eval_faults():
            return cohort
        plan = self.faults
        index = self._release_index
        self._release_index += 1
        mask = plan.eval_dropout_mask("eval", index, cohort)
        survivors = cohort[~mask]
        lost = survivors.size < plan.min_reporters(cohort.size)
        if self.participation is not None:
            self.participation.record_round(
                cohort, dropped=cohort[mask], lost=lost
            )
        return cohort if lost else survivors

    def state_dict(self) -> dict:
        """Fault-relevant mutable state (empty-dict-compatible when no
        faults were ever injected)."""
        state = {"release_index": self._release_index}
        if self.participation is not None:
            state["participation"] = self.participation.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        self._release_index = int(state.get("release_index", 0))
        participation = state.get("participation")
        if participation is not None:
            if self.participation is None:
                from repro.engine.faults import ParticipationLog

                self.participation = ParticipationLog(self.n_clients)
            self.participation.load_state_dict(participation)

    @property
    def draws_need_rates(self) -> bool:
        """True when a draw reads the full pool's rates: the accuracy-biased
        sampler weighs every client by its accuracy."""
        return self._biased is not None

    def sample_cohort(self, error_rates: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw the evaluation cohort (uniform, or accuracy-biased)."""
        size = self.noise.cohort_size(self.n_clients)
        if self._biased is not None:
            accuracies = 1.0 - np.asarray(error_rates, dtype=np.float64)
            return self._biased.sample(accuracies, size, self.rng)
        return self._uniform.sample(size, self.rng)

    def draw(self, error_rates: Optional[np.ndarray] = None) -> Draw:
        """Draw one release: cohort, injected eval faults, then DP noise —
        the stream order :meth:`evaluate` has always used. ``error_rates``
        (the full pool's) is read only when :attr:`draws_need_rates`."""
        cohort = self._apply_eval_faults(self.sample_cohort(error_rates))
        # The released accuracy is accuracy + noise, and the noise does not
        # depend on the accuracy: a zero accuracy's release is the noise.
        noise = self.privacy.noisy_accuracy(0.0, cohort.size, self.rng)
        return Draw(cohort=cohort, noise=noise)

    def release(self, draw: Draw, cohort_rates: np.ndarray) -> NoisyEvaluation:
        """The noisy evaluation of ``draw`` given its cohort's error rates
        (``cohort_rates[i]`` is client ``draw.cohort[i]``'s rate)."""
        exact = weighted_mean(cohort_rates, self.weights[draw.cohort])
        return NoisyEvaluation(
            error=1.0 - float((1.0 - exact) + draw.noise),
            cohort=draw.cohort,
            exact_subsampled_error=exact,
        )

    def evaluate(self, error_rates: np.ndarray) -> NoisyEvaluation:
        """Release one noisy evaluation of a config's per-client errors."""
        error_rates = np.asarray(error_rates, dtype=np.float64)
        if error_rates.shape != self.weights.shape:
            raise ValueError(
                f"error_rates shape {error_rates.shape} != weights {self.weights.shape}"
            )
        draw = self.draw(error_rates)
        return self.release(draw, error_rates[draw.cohort])

    def evaluate_many(self, rows: np.ndarray) -> List[NoisyEvaluation]:
        """One release per row of an ``(R, n)`` rate matrix, bit-identical
        to ``[self.evaluate(row) for row in rows]``.

        This is the hot call of the bank bootstrap, which scores a whole
        trial's K configs in one call. Validation and array coercion are
        paid once. The **biased, non-private, fault-free** case (the
        systems-heterogeneity sweeps) also batches its RNG draws: all
        cohorts' Gumbel keys come from ONE ``rng.gumbel((R, n))`` call —
        NumPy fills row-major with one uniform per variate, so the stream
        is consumed exactly as R sequential ``gumbel(n)`` calls consume
        it — followed by one row-wise ``argpartition``. Every other case
        draws row by row (:meth:`draw`): uniform cohorts use
        ``Generator.choice(replace=False)``, whose rejection sampling
        consumes a data-dependent number of variates, DP interleaves a
        Laplace draw after every cohort draw, and injected evaluation
        faults key each release's dropouts by its index.

        The per-row weighted means intentionally reuse
        :func:`~repro.utils.stats.weighted_mean` (one ``np.dot`` per row)
        rather than a row-batched reduction — pairwise-vs-dot summation
        differs in the last ulp, and bit-identity to :meth:`evaluate` wins
        here.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1:] != self.weights.shape:
            raise ValueError(
                f"rows shape {rows.shape} != (R, {self.n_clients}) for weights "
                f"{self.weights.shape}"
            )
        if rows.shape[0] < 1:
            raise ValueError("rows must hold at least one rate vector")
        if self._biased is None or self.privacy.enabled or self._injects_eval_faults():
            draws = [self.draw(row) for row in rows]
        else:
            size = self.noise.cohort_size(self.n_clients)
            # Row r's probabilities are exactly sample_cohort's for row r
            # (biased_weights normalises along the last axis).
            probs = biased_weights(1.0 - rows, self._biased.b, self._biased.delta)
            gumbel = self.rng.gumbel(size=rows.shape)
            with np.errstate(divide="ignore"):
                # As in BiasedSampler.sample: a weight that underflows to
                # 0 is a -inf key, not a warning.
                keys = np.log(probs) + gumbel
            cohorts = np.argpartition(-keys, size - 1, axis=1)[:, :size]
            # Per-row copies: evaluate() hands out independent cohort
            # arrays, and a row view would alias (and pin) the whole batch.
            draws = [Draw(cohort=cohort.copy(), noise=0.0) for cohort in cohorts]
        return [self.release(draw, row[draw.cohort]) for draw, row in zip(draws, rows)]
