"""The configuration bank — the paper's evaluation methodology (§3).

"We train random 128 HP configs and then bootstrap 100 trials, i.e. run RS
on K = 16 HP configs that are resampled from the set of 128."

:class:`ConfigBank` trains each config once, recording per-validation-client
error rates (and optionally model parameters) at η-spaced round checkpoints.
Tuning runs are then *simulated* from the bank via
:class:`BankTrialRunner` — thousands of noisy-evaluation bootstrap trials
cost nothing beyond the initial training sweep, exactly like the paper's
``analysis.ipynb`` over its ``fedtrain_simple`` runs.

Because all four datasets' banks are built from the *same* config list,
cross-dataset experiments (HP transfer, proxy tuning; Figures 10-12, 14)
are bank lookups too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluator import Trial, TrialRunner, config_to_trainer
from repro.core.search_space import SearchSpace
from repro.datasets.base import FederatedDataset
from repro.fl.cohort import resolve_cohort_mode
from repro.fl.evaluation import StackedEvalEngine
from repro.utils.rng import SeedLike, as_rng

BANK_ID_KEY = "_bank_id"


def _build_config_task(payload, k: int):
    """Train config ``k`` serially through every checkpoint (worker task).

    ``payload`` rides fork inheritance (datasets are not picklable); the
    per-config trainer seed was drawn serially in the parent before
    dispatch, so results are bit-identical to the serial loop. Each
    checkpoint is one single-row float64
    :class:`~repro.fl.evaluation.StackedEvalEngine` read.
    """
    dataset, configs, seeds, ckpts, clients_per_round, scheme, store_params = payload
    cfg = configs[k]
    trainer = config_to_trainer(
        {key: v for key, v in cfg.items() if key != BANK_ID_KEY},
        dataset,
        clients_per_round=clients_per_round,
        scheme=scheme,
        seed=seeds[k],
        cohort_mode="serial",
    )
    engine = StackedEvalEngine(dtype=np.float64)
    errors = np.empty((len(ckpts), dataset.num_eval_clients))
    params = np.empty((len(ckpts), trainer.params.size)) if store_params else None
    for c, rounds in enumerate(ckpts):
        trainer.run(rounds - trainer.rounds_completed)
        errors[c] = engine.error_rates_many(
            trainer.model, [trainer.params], dataset.eval_clients, dataset.task
        )[0]
        if store_params:
            params[c] = trainer.params
    return errors, params


def _build_fused(
    dataset, configs, seeds, ckpts, clients_per_round, scheme, store_params, cohort_dtype=None
):
    """Train the whole config pool as cross-config slabs.

    All configs share the dataset's architecture, so the fused pool trains
    every same-schedule config's cohort on one slab, in passes of whole
    configs within :data:`repro.fl.fused.PASS_BYTES`, and advances the
    pool checkpoint to checkpoint. Each checkpoint then
    scores the configs one per read pass (:meth:`FusedTrainerPool.evaluate`).
    In float64 the rates are bit-identical per config to the serial oracle
    on the build's own parameters, with each trainer owning its
    serially-pre-drawn seed and RNG stream.
    """
    from repro.fl.fused import FusedTrainerPool

    trainers = [
        config_to_trainer(
            {key: v for key, v in cfg.items() if key != BANK_ID_KEY},
            dataset,
            clients_per_round=clients_per_round,
            scheme=scheme,
            seed=seeds[k],
            cohort_mode="fused",
            cohort_dtype=cohort_dtype,
        )
        for k, cfg in enumerate(configs)
    ]
    pool = FusedTrainerPool(dtype=cohort_dtype)
    errors = [np.empty((len(ckpts), dataset.num_eval_clients)) for _ in trainers]
    params = [
        np.empty((len(ckpts), t.params.size)) if store_params else None for t in trainers
    ]
    for c, rounds in enumerate(ckpts):
        pool.advance(trainers, [rounds - t.rounds_completed for t in trainers])
        all_rates = pool.evaluate(trainers)
        for k, trainer in enumerate(trainers):
            errors[k][c] = all_rates[k]
            if store_params:
                params[k][c] = trainer.params
    return list(zip(errors, params))


def checkpoint_schedule(max_rounds: int, eta: int = 3) -> List[int]:
    """η-spaced checkpoints ``[0, r_min, ..., max_rounds]`` matching SHA rungs."""
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if eta < 2:
        raise ValueError(f"eta must be >= 2, got {eta}")
    points = {0, max_rounds}
    r = max_rounds
    while r >= eta:
        r = r // eta
        points.add(r)
    return sorted(points)


@dataclass
class ConfigBank:
    """Precomputed per-client evaluations for a pool of configurations.

    ``errors[k, c, j]`` is config ``k``'s error rate on validation client
    ``j`` after ``checkpoints[c]`` training rounds. ``params[k, c]`` (when
    stored) is the flat global parameter vector, enabling re-evaluation on
    repartitioned validation pools (the Figure-4 heterogeneity dial).
    """

    dataset_name: str
    configs: List[Dict]
    checkpoints: List[int]
    errors: np.ndarray  # (n_configs, n_checkpoints, n_eval_clients)
    weights_weighted: np.ndarray
    weights_uniform: np.ndarray
    params: Optional[np.ndarray] = None  # (n_configs, n_checkpoints, n_params)

    def __post_init__(self) -> None:
        n_cfg, n_ckpt, _ = self.errors.shape
        if len(self.configs) != n_cfg:
            raise ValueError("configs/errors size mismatch")
        if len(self.checkpoints) != n_ckpt:
            raise ValueError("checkpoints/errors size mismatch")
        for i, cfg in enumerate(self.configs):
            if cfg.get(BANK_ID_KEY) != i:
                raise ValueError(f"config {i} missing/incorrect {BANK_ID_KEY}")

    # -- construction -----------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: FederatedDataset,
        space: SearchSpace,
        n_configs: int,
        max_rounds: int,
        eta: int = 3,
        clients_per_round: int = 10,
        scheme: str = "weighted",
        seed: SeedLike = 0,
        configs: Optional[Sequence[Dict]] = None,
        store_params: bool = False,
        checkpoints: Optional[Sequence[int]] = None,
        executor=None,
        cohort_mode: Optional[str] = None,
        cohort_dtype=None,
    ) -> "ConfigBank":
        """Train the config pool and record checkpointed evaluations.

        ``configs`` overrides the random pool — pass the same list when
        building banks for several datasets so cross-dataset comparisons
        refer to identical configurations.

        ``executor`` (see :mod:`repro.engine.executor`) fans a serial
        build's per-config training across worker processes. Configs are
        independent and every trainer seed is drawn serially before
        dispatch, so the parallel build is bit-identical to the serial one.

        ``cohort_mode`` selects cohort training (``None`` resolves from
        ``$REPRO_COHORT_VECTOR``, default "fused";
        :func:`repro.fl.cohort.resolve_cohort_mode`). A "fused" build runs
        in-process whatever ``executor`` is: it advances the whole config
        pool checkpoint to checkpoint as cross-config parameter slabs
        (:class:`repro.fl.fused.FusedTrainerPool`) and scores one config
        per read pass. "serial" builds the per-config serial bank, mapped
        over ``executor``: the reference the fused builds are tested
        against.

        ``cohort_dtype`` selects the slab compute dtype of the build
        (``None`` resolves from ``$REPRO_DTYPE``; see
        :func:`repro.nn.stacked.resolve_dtype`) — global parameters, aggregation, and
        the recorded error tensor stay float64 regardless.
        """
        rng = as_rng(seed)
        if configs is None:
            configs = [space.sample(rng) for _ in range(n_configs)]
        else:
            configs = [dict(c) for c in configs]
            if len(configs) != n_configs:
                raise ValueError(f"got {len(configs)} configs, expected {n_configs}")
        for i, cfg in enumerate(configs):
            cfg.pop(BANK_ID_KEY, None)
            space.validate(cfg)
            cfg[BANK_ID_KEY] = i
        ckpts = list(checkpoints) if checkpoints is not None else checkpoint_schedule(max_rounds, eta)
        if ckpts[0] != 0 or ckpts[-1] != max_rounds or ckpts != sorted(set(ckpts)):
            raise ValueError(f"checkpoints must be sorted unique [0..{max_rounds}], got {ckpts}")

        if executor is None:
            from repro.engine.executor import SerialExecutor

            executor = SerialExecutor()
        n_clients = dataset.num_eval_clients
        # Trainer seeds are drawn serially (one rng stream, config order)
        # regardless of how the training is executed.
        seeds = [int(rng.integers(0, 2**63 - 1)) for _ in configs]
        if resolve_cohort_mode(cohort_mode) == "fused":
            results = _build_fused(
                dataset,
                configs,
                seeds,
                ckpts,
                clients_per_round,
                scheme,
                store_params,
                cohort_dtype=cohort_dtype,
            )
        else:
            payload = (dataset, configs, seeds, ckpts, clients_per_round, scheme, store_params)
            results = executor.map(_build_config_task, range(n_configs), payload=payload)
        errors = np.empty((n_configs, len(ckpts), n_clients))
        params_store = None
        for k, (cfg_errors, cfg_params) in enumerate(results):
            errors[k] = cfg_errors
            if store_params:
                if params_store is None:
                    params_store = np.empty((n_configs, len(ckpts), cfg_params.shape[1]))
                params_store[k] = cfg_params
        return cls(
            dataset_name=dataset.name,
            configs=configs,
            checkpoints=ckpts,
            errors=errors,
            weights_weighted=dataset.eval_weights("weighted"),
            weights_uniform=dataset.eval_weights("uniform"),
            params=params_store,
        )

    # -- accessors ---------------------------------------------------------------
    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def max_rounds(self) -> int:
        return self.checkpoints[-1]

    def weights(self, scheme: str) -> np.ndarray:
        if scheme == "weighted":
            return self.weights_weighted
        if scheme == "uniform":
            return self.weights_uniform
        raise ValueError(f"unknown scheme {scheme!r}")

    def checkpoint_index(self, rounds: int) -> int:
        """Index of the largest checkpoint ≤ ``rounds``."""
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        return int(np.searchsorted(self.checkpoints, rounds, side="right") - 1)

    def error_rates(self, config_id: int, rounds: int) -> np.ndarray:
        """Per-client error rates of config ``config_id`` at ``rounds``.

        The returned array is a read-only view: it aliases the bank's
        error tensor, and a caller mutating it would silently corrupt
        every later lookup of the same checkpoint.
        """
        view = self.errors[config_id, self.checkpoint_index(rounds)]
        view.flags.writeable = False
        return view

    def full_errors(self, scheme: str = "weighted", rounds: Optional[int] = None) -> np.ndarray:
        """Full-pool error of every config at ``rounds`` (default: final)."""
        c = self.checkpoint_index(rounds if rounds is not None else self.max_rounds)
        w = self.weights(scheme)
        return self.errors[:, c, :] @ (w / w.sum())

    def best_full_error(self, scheme: str = "weighted") -> float:
        """The "Best HPs" reference line in Figure 3: the pool's best config
        under full evaluation."""
        return float(self.full_errors(scheme).min())

    def min_client_errors(self, rounds: Optional[int] = None) -> np.ndarray:
        """Per-config minimum single-client error (Figure 7's y-axis)."""
        c = self.checkpoint_index(rounds if rounds is not None else self.max_rounds)
        return self.errors[:, c, :].min(axis=1)

    def reevaluate(
        self, dataset: FederatedDataset, eval_clients: Optional[list] = None, dtype=None
    ) -> "ConfigBank":
        """Recompute the error tensor on a replacement validation pool.

        Requires ``store_params=True`` at build time. Used by the Figure-4
        heterogeneity experiment, which repartitions validation data while
        keeping trained models fixed. Every stored checkpoint is scored
        one config per read pass, as the build scores it
        (:meth:`repro.fl.fused.FusedTrainerPool.evaluate` says why), in
        ``dtype`` (:func:`repro.nn.stacked.resolve_dtype`; in float64,
        bit-identical per config to the serial oracle). Pass the dtype
        the build read in, so the new rows are comparable to the bank's
        own.
        """
        if self.params is None:
            raise ValueError("bank was built without store_params=True")
        clients = eval_clients if eval_clients is not None else dataset.eval_clients
        model = dataset.task.build_model(0)
        errors = np.empty((self.n_configs, len(self.checkpoints), len(clients)))
        engine = StackedEvalEngine(dtype=dtype)
        for k in range(self.n_configs):
            for c in range(len(self.checkpoints)):
                errors[k, c] = engine.error_rates_many(
                    model, [self.params[k, c]], clients, dataset.task
                )[0]
        sizes = np.array([cl.n for cl in clients], dtype=np.float64)
        return ConfigBank(
            dataset_name=self.dataset_name,
            configs=[dict(c) for c in self.configs],
            checkpoints=list(self.checkpoints),
            errors=errors,
            weights_weighted=sizes,
            weights_uniform=np.ones(len(clients)),
            params=self.params,
        )

    # -- persistence ----------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the bank to ``path`` (.npz with a JSON config sidecar inside)."""
        payload = {
            "errors": self.errors,
            "checkpoints": np.array(self.checkpoints),
            "weights_weighted": self.weights_weighted,
            "weights_uniform": self.weights_uniform,
            "meta": np.array(
                json.dumps({"dataset_name": self.dataset_name, "configs": self.configs})
            ),
        }
        if self.params is not None:
            payload["params"] = self.params
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "ConfigBank":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            return cls(
                dataset_name=meta["dataset_name"],
                configs=meta["configs"],
                checkpoints=[int(r) for r in data["checkpoints"]],
                errors=data["errors"],
                weights_weighted=data["weights_weighted"],
                weights_uniform=data["weights_uniform"],
                params=data["params"] if "params" in data else None,
            )


class BankTrialRunner(TrialRunner):
    """A :class:`TrialRunner` backed by a :class:`ConfigBank`.

    Configs passed to :meth:`create` must carry the bank id key (use
    :func:`bank_config_source` or :meth:`sample_config`); "training" is a
    checkpoint lookup, so a full tuning run costs microseconds.
    """

    def __init__(self, bank: ConfigBank, max_rounds: Optional[int] = None):
        super().__init__(max_rounds if max_rounds is not None else bank.max_rounds)
        if self.max_rounds > bank.max_rounds:
            raise ValueError(
                f"max_rounds {self.max_rounds} exceeds bank's {bank.max_rounds}"
            )
        self.bank = bank

    def _init_trial(self, trial: Trial) -> None:
        bank_id = trial.config.get(BANK_ID_KEY)
        if bank_id is None or not 0 <= bank_id < self.bank.n_configs:
            raise ValueError(
                f"config lacks a valid {BANK_ID_KEY!r}; sample configs from the bank"
            )
        trial.state = int(bank_id)

    def _advance_trial(self, trial: Trial, rounds: int) -> None:
        pass  # pure lookup

    def error_rates(self, trial: Trial) -> np.ndarray:
        return self.bank.error_rates(trial.state, trial.rounds)

    def eval_weights(self, scheme: str) -> np.ndarray:
        return self.bank.weights(scheme)

    def sample_config(self, rng: SeedLike = None) -> Dict:
        """Resample one config from the bank (with replacement — the
        paper's bootstrap)."""
        rng = as_rng(rng)
        return dict(self.bank.configs[int(rng.integers(0, self.bank.n_configs))])


def bank_config_source(bank: ConfigBank, rng: SeedLike = None) -> Callable[[], Dict]:
    """A ``config_source`` for :class:`repro.core.RandomSearch` that
    bootstraps configs from the bank with replacement."""
    rng = as_rng(rng)

    def source() -> Dict:
        return dict(bank.configs[int(rng.integers(0, bank.n_configs))])

    return source
