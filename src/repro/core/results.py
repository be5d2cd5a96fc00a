"""Result records produced by tuning runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Observation:
    """One noisy evaluation event inside a tuning run."""

    trial_id: int
    config: Dict
    rounds: int  # per-trial rounds trained at evaluation time
    noisy_error: float  # what the tuner saw
    exact_error: float  # subsampled-but-noise-free error (diagnostics)
    budget_used: int  # cumulative training rounds across the whole run


@dataclass
class CurvePoint:
    """Anytime performance: the incumbent after ``budget_used`` rounds.

    ``full_error`` is the incumbent's full-pool validation error — the
    quantity every figure in the paper plots. The tuner itself never sees
    it; it selects by ``noisy_error``.
    """

    budget_used: int
    incumbent_trial_id: int
    noisy_error: float
    full_error: float


@dataclass
class TuningResult:
    """Outcome of one tuning run."""

    method: str
    best_config: Optional[Dict]
    best_trial_id: Optional[int]
    best_noisy_error: float
    final_full_error: float
    curve: List[CurvePoint] = field(default_factory=list)
    observations: List[Observation] = field(default_factory=list)
    rounds_used: int = 0

    def full_error_at_budget(self, budget: int) -> float:
        """Incumbent full error after ``budget`` rounds (step interpolation).

        Before the first evaluation there is no incumbent; returns NaN.
        """
        best = float("nan")
        for point in self.curve:
            if point.budget_used <= budget:
                best = point.full_error
            else:
                break
        return best
