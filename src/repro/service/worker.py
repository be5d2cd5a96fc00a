"""Job specs and the execution path of the tuning service.

A :class:`JobSpec` names everything one tuning job needs — dataset, search
space scale, method, noise setting, fault spec, budget — and
:func:`execute_job` runs it to completion with the full engine durability
stack underneath:

- the run checkpoints to ``<root>/jobs/<job_id>/run.ckpt`` and *always*
  resumes from that file when it exists, so a re-leased job (after a
  worker ``kill -9`` or a graceful drain) continues bit-identically;
- each checkpoint save also streams fresh incumbent-curve points into the
  experiment store, so REST clients watch progress live;
- the finished result is written as canonical JSON (sorted keys, no
  timestamps) to ``<root>/results/<job_id>.json`` — deterministic bytes,
  which is what lets the recovery tests assert byte-identical output
  across a crash.

Spec validation is deliberately *lazy*: :meth:`JobSpec.validate` runs at
execution time, not submission time, so a malformed job (unknown dataset,
bogus method) travels the normal poison path — raise, count a failure,
quarantine after ``max_job_failures`` — instead of being rejected at the
REST boundary where a crashing daemon could lose the diagnosis.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.engine.atomicio import atomic_write_json
from repro.engine.checkpoint import RunCheckpointer


@dataclass
class JobSpec:
    """One tuning job's full configuration (a plain, JSON-able record)."""

    dataset: str
    method: str = "rs"
    setting: str = "noisy"          # "noisy" (paper Fig. 8) or "noiseless"
    preset: str = "test"            # dataset/model scale
    seed: int = 0                   # root seed; the run seed derives from it
    trial: int = 0                  # trial index folded into the run seed
    k: int = 16                     # configs (RS/TPE) / population size
    n_bank_configs: int = 16        # shared config-pool size for the context
    total_budget: Optional[int] = None  # rounds; None = preset default
    noise: Optional[Dict] = None    # NoiseConfig field overrides
    faults: Optional[str] = None    # FaultConfig.parse spec, e.g. "dropout=0.1,seed=3"
    checkpoint_every: int = 1       # observations between checkpoint saves
    extra: Dict = field(default_factory=dict)  # forward-compatible passthrough

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict) -> "JobSpec":
        """Permissive construction — unknown keys land in ``extra`` so a
        newer submitter never crashes an older daemon at parse time, and
        bad *values* surface in :meth:`validate` (the poison path)."""
        raw = dict(raw or {})
        extra = dict(raw.pop("extra", None) or {})
        known = set(cls.__dataclass_fields__) - {"extra"}
        fields = {key: raw.pop(key) for key in list(raw) if key in known}
        extra.update(raw)
        if "dataset" not in fields:
            fields["dataset"] = ""
        return cls(extra=extra, **fields)

    def validate(self) -> "JobSpec":
        """Raise ``ValueError`` on anything the engine would choke on.

        Called by :func:`execute_job`, not at submission — see the module
        docstring for why poison jobs are diagnosed at execution time.
        """
        from repro.datasets.registry import DATASET_NAMES
        from repro.experiments.fig_methods import METHODS

        if self.dataset not in DATASET_NAMES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; choose from {DATASET_NAMES}"
            )
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {sorted(METHODS)}"
            )
        if self.setting not in ("noisy", "noiseless"):
            raise ValueError(
                f"unknown setting {self.setting!r}; choose 'noisy' or 'noiseless'"
            )
        if int(self.checkpoint_every) < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        return self

    def noise_config(self):
        """The run's :class:`~repro.core.noise.NoiseConfig`: the paper's
        Figure-8 noisy setting (or noiseless), with per-field overrides."""
        from repro.experiments.fig_methods import PAPER_NOISELESS, PAPER_NOISY

        base = PAPER_NOISY if self.setting == "noisy" else PAPER_NOISELESS
        if not self.noise:
            return base
        from dataclasses import replace

        return replace(base, **self.noise)


class StreamingCheckpointer(RunCheckpointer):
    """A :class:`RunCheckpointer` that streams curve points on each save.

    Every time a checkpoint actually writes, the incumbent-curve points
    recorded since the stream cursor are appended to the experiment
    store's per-run curve log — so the durable curve is never ahead of the
    checkpoint (a resume can only *re*-append, and readers deduplicate by
    index), and REST clients see progress at checkpoint granularity.
    """

    def __init__(self, path: str, store, run_id: str, every: int = 1):
        super().__init__(path, every=every)
        self.store = store
        self.run_id = str(run_id)
        # Resume the stream where it left off; replayed overlap is
        # harmless (at-least-once + index dedup) but pointless to write.
        self._cursor = store.curve_count(self.run_id) if store is not None else 0

    def save(self, tuner, force: bool = False) -> bool:
        wrote = super().save(tuner, force=force)
        if wrote and self.store is not None:
            curve = tuner.curve
            if len(curve) > self._cursor:
                self.store.append_curve_points(
                    self.run_id,
                    [
                        dict(
                            index=i,
                            budget_used=int(p.budget_used),
                            incumbent_trial_id=int(p.incumbent_trial_id),
                            noisy_error=float(p.noisy_error),
                            full_error=float(p.full_error),
                        )
                        for i, p in enumerate(curve[self._cursor:], self._cursor)
                    ],
                )
                self._cursor = len(curve)
        return wrote


def checkpoint_path(root: str, job_id: str) -> str:
    """Where a job's run checkpoint lives under the service root."""
    return os.path.join(str(root), "jobs", str(job_id), "run.ckpt")


def result_path(root: str, job_id: str) -> str:
    """Where a job's canonical result JSON lands under the service root."""
    return os.path.join(str(root), "results", f"{job_id}.json")


def result_record(job_id: str, spec: JobSpec, result) -> Dict:
    """The deterministic result payload: pure run outcome, no timestamps,
    no hostnames — identical bytes for identical runs, which the recovery
    tests compare directly."""
    return {
        "job_id": str(job_id),
        "dataset": spec.dataset,
        "method": spec.method,
        "setting": spec.setting,
        "seed": int(spec.seed),
        "trial": int(spec.trial),
        "best_trial_id": result.best_trial_id,
        "best_config": result.best_config,
        "best_noisy_error": float(result.best_noisy_error),
        "final_full_error": float(result.final_full_error),
        "rounds_used": int(result.rounds_used),
        "n_observations": len(result.observations),
        "curve": [
            [int(p.budget_used), int(p.incumbent_trial_id),
             float(p.noisy_error), float(p.full_error)]
            for p in result.curve
        ],
    }


def execute_job(
    job: Dict,
    root: str,
    store=None,
    handle: Optional[Dict] = None,
) -> str:
    """Run one leased job to completion; returns the result path.

    Parameters
    ----------
    job : the queue's job snapshot (``job_id`` + ``spec``).
    root : the service root directory (checkpoints, results, banks).
    store : an :class:`~repro.service.store.ExperimentStore` to stream
        curve points into and record the run under (optional).
    handle : a dict the caller can watch; ``handle["tuner"]`` is set as
        soon as the tuner exists, so the daemon's drain path can call
        ``tuner.request_preempt()`` on a job running in a worker thread
        (where signal handlers cannot be installed).

    Raises whatever the engine raises — the caller maps exceptions to the
    queue's fail/quarantine path. ``SystemExit`` (the checkpoint-and-exit
    preemption path) also propagates; the checkpoint it just wrote is the
    resume point.
    """
    from repro.engine.faults import FaultConfig
    from repro.experiments.context import ExperimentContext
    from repro.experiments.fig_methods import make_tuner, run_seed

    job_id = job["job_id"]
    spec = JobSpec.from_dict(job.get("spec")).validate()

    faults = FaultConfig.parse(spec.faults) if spec.faults else None
    ctx = ExperimentContext(
        preset=spec.preset,
        seed=int(spec.seed),
        n_bank_configs=int(spec.n_bank_configs),
        cache_dir=os.path.join(str(root), "banks"),
        faults=faults,
    )

    seed = run_seed(int(spec.seed), spec.dataset, spec.setting, spec.method,
                    int(spec.trial))
    ckpt = checkpoint_path(root, job_id)
    checkpointer = StreamingCheckpointer(
        ckpt, store=store, run_id=job_id, every=int(spec.checkpoint_every)
    )
    tuner = make_tuner(
        spec.method,
        ctx,
        spec.dataset,
        spec.noise_config(),
        seed,
        k=int(spec.k),
        total_budget=spec.total_budget,
        resume=ckpt,  # resumes iff the file exists — the re-lease path
    )
    if handle is not None:
        handle["tuner"] = tuner

    result = tuner.run(checkpoint=checkpointer)

    path = result_path(root, job_id)
    atomic_write_json(path, result_record(job_id, spec, result))
    if store is not None:
        tenant = job.get("tenant", "default")
        experiment_id = f"{tenant}-{spec.dataset}-{spec.method}-{spec.setting}"
        store.put_project(tenant, tenant=tenant)
        store.put_experiment(
            experiment_id, tenant,
            dataset=spec.dataset, method=spec.method, setting=spec.setting,
        )
        store.put_run(
            job_id, experiment_id,
            spec=spec.to_dict(), result_path=path,
            final_full_error=float(result.final_full_error),
            rounds_used=int(result.rounds_used),
        )
        store.put_validation(
            job_id,
            best_noisy_error=float(result.best_noisy_error),
            final_full_error=float(result.final_full_error),
            n_observations=len(result.observations),
            n_curve_points=len(result.curve),
        )
    return path
