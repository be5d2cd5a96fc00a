"""Deterministic fault injection: client dropout, stragglers, crashes.

The paper's second noise source is *systems heterogeneity* (§3.2): clients
drop out of rounds or straggle behind, biasing which devices participate.
Until this module, the repo modeled that only as a static ``bias_b``
sampling weight; here failure becomes a first-class, *seeded* event that
the engine survives gracefully:

- **Client dropout** — a selected training client fails to report its
  update; the round aggregates over the survivors (or is lost entirely
  when the quorum is missed). See
  :meth:`repro.fl.trainer.FederatedTrainer._finish_round`.
- **Stragglers** — a client reports, but late: the round's simulated
  wall-clock cost grows by ``straggler_delay`` units (the server waits
  for the slowest reporter). Tracked per trainer as ``simulated_time``.
- **Evaluation dropout** — a sampled validation client never reports its
  accuracy, so the *realized* evaluation cohort differs from the drawn
  one: dropout becomes a measurable participation-bias noise source
  (see :class:`repro.core.noise.NoisyEvaluator` and
  :func:`repro.experiments.fig_faults.run_fault_sweep`).
- **Trial failures** — a training step of one trial raises; the runner
  records the failure and, past a failure cap, quarantines the trial
  (error 1.0, like the diverged convention) instead of aborting the run.
- **Worker kills** — a pool worker SIGKILLs itself as a task (a sweep
  run, a bank config) starts, exercising the executor's crash-retry path
  (:mod:`repro.engine.executor`); the task is retried whole.

Determinism contract
--------------------
Every fault draw is a pure function of ``(seed, scope, coordinates)``
computed with sha256 — no RNG object, no stream, no mutable counter that
execution order could perturb. The coordinates (trainer fault key, round
index, client id, trial id, release index) are themselves part of the
deterministic run state, so:

- the same fault seed injects the *same* faults regardless of cohort mode
  (serial / fused), worker count, or batch order;
- a checkpoint/resume replays the identical fault sequence (the plan
  itself has no state to lose — only its config travels, as an echo that
  :meth:`repro.core.tuner.BaseTuner.load_state_dict` validates);
- a zero-rate plan draws nothing and perturbs nothing: the fault-free
  path stays bit-identical to an unfaulted run.

Worker kills are the one scope keyed by a per-process map counter rather
than run state: killed tasks are retried to *identical results* (the
executor's determinism contract), so their exact firing points never
affect trajectories — only coverage of the retry path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FaultConfig",
    "FaultPlan",
    "ParticipationLog",
    "InjectedFault",
    "InjectedTrialFault",
]

#: Knob aliases accepted by :meth:`FaultConfig.parse` (CLI / $REPRO_FAULTS).
_PARSE_ALIASES = {
    "dropout": "dropout_rate",
    "straggler": "straggler_rate",
    "delay": "straggler_delay",
    "eval_dropout": "eval_dropout_rate",
    "trial_failure": "trial_failure_rate",
    "task_kill": "task_kill_rate",
    "retries": "max_trial_failures",
}
_INT_FIELDS = ("seed", "max_trial_failures")


class InjectedFault(RuntimeError):
    """Base class for faults raised by a :class:`FaultPlan` injection."""


class InjectedTrialFault(InjectedFault):
    """A deterministic injected trial crash (``trial_failure_rate``)."""

    def __init__(self, trial_id: int, rounds: int):
        self.trial_id = trial_id
        self.rounds = rounds
        super().__init__(
            f"injected fault: trial {trial_id} crashed at round {rounds}"
        )


@dataclass(frozen=True)
class FaultConfig:
    """Declarative fault-injection setting (all rates are probabilities).

    ``seed`` keys every fault draw; two plans with the same config inject
    identical fault sequences. ``quorum`` is the minimum *fraction* of a
    sampled cohort that must report for the round (or evaluation release)
    to use the survivors — a training round below quorum is lost (global
    model frozen for that round), an evaluation below quorum falls back
    to the full drawn cohort (the server waited everyone out).
    ``max_trial_failures`` is the failure count at which a trial is
    quarantined (error 1.0, retired from training).
    """

    seed: int = 0
    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay: float = 2.0
    quorum: float = 0.0
    eval_dropout_rate: float = 0.0
    trial_failure_rate: float = 0.0
    task_kill_rate: float = 0.0
    max_trial_failures: int = 2

    def __post_init__(self) -> None:
        for name in (
            "dropout_rate",
            "straggler_rate",
            "eval_dropout_rate",
            "trial_failure_rate",
            "task_kill_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.quorum <= 1.0:
            raise ValueError(f"quorum must be in [0, 1], got {self.quorum}")
        if self.straggler_delay < 0:
            raise ValueError(
                f"straggler_delay must be >= 0, got {self.straggler_delay}"
            )
        if self.max_trial_failures < 1:
            raise ValueError(
                f"max_trial_failures must be >= 1, got {self.max_trial_failures}"
            )

    # -- convenience views ---------------------------------------------------
    @property
    def injects_client_faults(self) -> bool:
        """Whether any training-round fault (dropout/straggle) can fire."""
        return self.dropout_rate > 0 or self.straggler_rate > 0

    @property
    def injects_eval_faults(self) -> bool:
        return self.eval_dropout_rate > 0

    @property
    def active(self) -> bool:
        """Whether this config can inject anything at all."""
        return (
            self.injects_client_faults
            or self.injects_eval_faults
            or self.trial_failure_rate > 0
            or self.task_kill_rate > 0
        )

    def min_reporters(self, cohort_size: int) -> int:
        """Quorum resolved to a raw reporter count (always at least 1)."""
        return max(1, math.ceil(self.quorum * cohort_size))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, fields: Dict) -> "FaultConfig":
        return cls(**fields)

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from ``"knob=value,knob=value"`` (CLI /
        ``$REPRO_FAULTS``). Knobs are the dataclass field names or the
        short aliases ``dropout``, ``straggler``, ``delay``,
        ``eval_dropout``, ``trial_failure``, ``task_kill``, ``retries``.
        An empty spec is an error — "no faults" is spelled by not setting
        the knob at all.
        """
        fields: Dict = {}
        valid = set(cls.__dataclass_fields__)
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"fault spec entry {part!r} is not knob=value")
            knob, _, raw = part.partition("=")
            knob = _PARSE_ALIASES.get(knob.strip(), knob.strip())
            if knob not in valid:
                raise ValueError(
                    f"unknown fault knob {knob!r}; choose from "
                    f"{sorted(valid | set(_PARSE_ALIASES))}"
                )
            try:
                fields[knob] = int(raw) if knob in _INT_FIELDS else float(raw)
            except ValueError:
                raise ValueError(
                    f"fault knob {knob!r} needs a number, got {raw!r}"
                ) from None
        if not fields:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(**fields)

    def reseeded(self, *parts) -> "FaultConfig":
        """A copy whose seed is derived from this seed plus ``parts`` —
        how sweeps give every (dataset, method, trial) run its own fault
        stream while staying reproducible."""
        key = "/".join(str(p) for p in (self.seed, *parts))
        seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")
        return replace(self, seed=seed)


def _uniform(seed: int, scope: str, coords: tuple) -> float:
    """One deterministic uniform in [0, 1) keyed by (seed, scope, coords)."""
    key = f"{seed}/{scope}/" + "/".join(str(c) for c in coords)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class FaultPlan:
    """Seeded, order-independent fault event source (see module docstring).

    The plan is *stateless*: every query recomputes its answer from the
    config seed and the caller's coordinates, so the same plan object can
    be shared by a trainer, a runner and an evaluator without any
    cross-talk, and a rebuilt plan (after checkpoint/resume)
    answers identically.
    """

    def __init__(self, config: FaultConfig):
        if not isinstance(config, FaultConfig):
            raise TypeError(f"config must be a FaultConfig, got {type(config).__name__}")
        self.config = config

    # -- training-round faults ----------------------------------------------
    def dropout_mask(
        self, key, round_index: int, cohort: Sequence[int]
    ) -> np.ndarray:
        """Which cohort members drop out of this round (bool per member).

        ``key`` identifies the trainer (the runner passes the trial id),
        ``round_index`` its round counter, and the mask is keyed per
        *client id* — so whether client k drops in trainer t's round r
        never depends on who else was sampled.
        """
        rate = self.config.dropout_rate
        if rate <= 0.0:
            return np.zeros(len(cohort), dtype=bool)
        seed = self.config.seed
        return np.array(
            [_uniform(seed, "drop", (key, round_index, int(k))) < rate for k in cohort],
            dtype=bool,
        )

    def straggler_mask(
        self, key, round_index: int, cohort: Sequence[int]
    ) -> np.ndarray:
        """Which cohort members straggle (report late) this round."""
        rate = self.config.straggler_rate
        if rate <= 0.0:
            return np.zeros(len(cohort), dtype=bool)
        seed = self.config.seed
        return np.array(
            [
                _uniform(seed, "straggle", (key, round_index, int(k))) < rate
                for k in cohort
            ],
            dtype=bool,
        )

    # -- evaluation faults ---------------------------------------------------
    def eval_dropout_mask(
        self, key, release_index: int, cohort: Sequence[int]
    ) -> np.ndarray:
        """Which sampled evaluation clients fail to report this release."""
        rate = self.config.eval_dropout_rate
        if rate <= 0.0:
            return np.zeros(len(cohort), dtype=bool)
        seed = self.config.seed
        return np.array(
            [
                _uniform(seed, "eval-drop", (key, release_index, int(k))) < rate
                for k in cohort
            ],
            dtype=bool,
        )

    # -- engine faults -------------------------------------------------------
    def trial_fails(self, trial_id: int, rounds: int) -> bool:
        """Whether an advance of ``trial_id`` starting at ``rounds``
        crashes (checked once per advance attempt, before training)."""
        rate = self.config.trial_failure_rate
        if rate <= 0.0:
            return False
        return _uniform(self.config.seed, "trial", (trial_id, rounds)) < rate

    def task_kills(self, map_index: int, task) -> bool:
        """Whether the worker running ``task`` of executor map call
        ``map_index`` should be killed (SIGKILL) mid-task."""
        rate = self.config.task_kill_rate
        if rate <= 0.0:
            return False
        return _uniform(self.config.seed, "task", (map_index, task)) < rate

    # -- passthroughs --------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.config.active

    @property
    def injects_client_faults(self) -> bool:
        return self.config.injects_client_faults

    @property
    def injects_eval_faults(self) -> bool:
        return self.config.injects_eval_faults

    def min_reporters(self, cohort_size: int) -> int:
        return self.config.min_reporters(cohort_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.config!r})"


class ParticipationLog:
    """Per-client realized-participation counters for one client pool.

    This is what turns injected faults into a *measurable* noise source:
    ``selected`` counts how often each client was drawn, ``dropped`` how
    often it then failed to report, ``straggled`` how often it reported
    late. :meth:`availability_weights` converts the realized survival
    frequencies into selection weights shaped exactly like
    :func:`repro.fl.sampling.biased_weights` — the empirical counterpart
    of the paper's ``(a_k + δ)^b`` systems-heterogeneity model, ready to
    compose with it (see :meth:`repro.fl.sampling.BiasedSampler.sample`).
    """

    def __init__(self, n_clients: int):
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        self.selected = np.zeros(n_clients, dtype=np.int64)
        self.dropped = np.zeros(n_clients, dtype=np.int64)
        self.straggled = np.zeros(n_clients, dtype=np.int64)
        self.rounds = 0
        self.rounds_lost = 0
        self.simulated_time = 0.0

    @property
    def n_clients(self) -> int:
        return self.selected.size

    def record_round(
        self,
        cohort: Sequence[int],
        dropped: Optional[Iterable[int]] = None,
        straggled: Optional[Iterable[int]] = None,
        lost: bool = False,
        delay: float = 0.0,
    ) -> None:
        """Record one round/release: who was drawn, who dropped, who
        straggled, whether the round was lost to the quorum, and its
        simulated extra wall-clock delay."""
        cohort = np.asarray(cohort, dtype=np.intp)
        np.add.at(self.selected, cohort, 1)
        if dropped is not None:
            dropped = np.asarray(list(dropped), dtype=np.intp)
            if dropped.size:
                np.add.at(self.dropped, dropped, 1)
        if straggled is not None:
            straggled = np.asarray(list(straggled), dtype=np.intp)
            if straggled.size:
                np.add.at(self.straggled, straggled, 1)
        self.rounds += 1
        if lost:
            self.rounds_lost += 1
        self.simulated_time += 1.0 + float(delay)

    # -- measurement ---------------------------------------------------------
    def survival_rates(self) -> np.ndarray:
        """Per-client realized report rate: reported / selected (clients
        never selected report rate 1.0 — no evidence against them)."""
        rates = np.ones(self.n_clients, dtype=np.float64)
        seen = self.selected > 0
        reported = self.selected[seen] - self.dropped[seen]
        rates[seen] = reported / self.selected[seen]
        return rates

    def availability_weights(self, delta: float = 1e-4) -> np.ndarray:
        """Empirical availability as normalized selection weights
        ``(survival_k + δ) / Σ`` — plug-compatible with
        :func:`repro.fl.sampling.biased_weights`."""
        w = self.survival_rates() + delta
        return w / w.sum()

    def drop_fraction(self) -> float:
        """Realized fraction of selections that were dropped."""
        total = int(self.selected.sum())
        return float(self.dropped.sum() / total) if total else 0.0

    # -- state transport -----------------------------------------------------
    def state_dict(self) -> Dict:
        return {
            "selected": self.selected.copy(),
            "dropped": self.dropped.copy(),
            "straggled": self.straggled.copy(),
            "rounds": self.rounds,
            "rounds_lost": self.rounds_lost,
            "simulated_time": self.simulated_time,
        }

    def load_state_dict(self, state: Dict) -> None:
        self.selected = np.asarray(state["selected"], dtype=np.int64).copy()
        self.dropped = np.asarray(state["dropped"], dtype=np.int64).copy()
        self.straggled = np.asarray(state["straggled"], dtype=np.int64).copy()
        self.rounds = int(state["rounds"])
        self.rounds_lost = int(state["rounds_lost"])
        self.simulated_time = float(state["simulated_time"])
