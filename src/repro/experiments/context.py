"""Shared experiment state: datasets, search space, and config banks.

Every figure driver runs against an :class:`ExperimentContext`, which pins
the preset scale and the root seed, lazily builds datasets and
configuration banks, and — critically — uses *one shared config pool*
across all four datasets so that cross-dataset experiments (Figures 10-12,
14) compare identical configurations, as the paper does.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.core.search_space import SearchSpace, paper_space
from repro.datasets.registry import DatasetScale, get_scale, load_dataset
from repro.experiments.bank import ConfigBank
from repro.utils.rng import RngFactory

# Environment defaults for the execution engine (see repro.engine):
# REPRO_BANK_CACHE — directory for the disk-backed bank store.
# REPRO_WORKERS — worker-process count for bank builds and sweep runs.
# REPRO_COHORT_VECTOR — cohort mode, "serial" or "fused" (repro.fl.cohort); unset
#   is fused, for tuning runs and bank builds alike.
# REPRO_DTYPE — slab compute dtype ("float64"/"float32"; repro.nn.stacked.resolve_dtype).
# REPRO_CHECKPOINT_DIR — directory for tuning-run checkpoints (repro.engine.checkpoint).
# REPRO_FAULTS — fault-injection spec, e.g. "dropout=0.1,straggler=0.05,seed=3"
#   (repro.engine.faults.FaultConfig.parse).
CACHE_ENV_VAR = "REPRO_BANK_CACHE"
WORKERS_ENV_VAR = "REPRO_WORKERS"
CHECKPOINT_ENV_VAR = "REPRO_CHECKPOINT_DIR"
FAULTS_ENV_VAR = "REPRO_FAULTS"

# Client batch-size choices scale with per-client dataset size so the
# batch-size HP stays meaningful at every preset.
BATCH_CHOICES = {"test": (4, 8, 16), "small": (8, 16, 32), "paper": (32, 64, 128)}


def subsample_grid(n_eval_clients: int) -> List[int]:
    """Powers-of-3 raw client counts up to the full pool (the paper's
    x-axes: 1, 3, 9, 27, ..., N)."""
    if n_eval_clients < 1:
        raise ValueError(f"n_eval_clients must be >= 1, got {n_eval_clients}")
    grid = []
    c = 1
    while c < n_eval_clients:
        grid.append(c)
        c *= 3
    grid.append(n_eval_clients)
    return grid


class ExperimentContext:
    """Lazily-constructed, cached experiment substrate.

    Parameters
    ----------
    preset : dataset/model scale ("test", "small", "paper").
    seed : root seed; every dataset, bank, and trial stream derives from it.
    n_bank_configs : size of the shared config pool (paper: 128).
    clients_per_round : training cohort size (paper: 10).
    cache_dir : directory for the disk-backed :class:`BankStore`; banks
        built here are memoized on disk and shared across processes and
        sessions. Defaults to ``$REPRO_BANK_CACHE`` (no disk cache when
        unset — parallelism and caching never change results, but opting
        in is explicit).
    n_workers : worker processes (``$REPRO_WORKERS`` when unset; both
        unset means serial). The context's executor maps bank configs in
        :meth:`bank` builds and whole tuning runs in the sweep drivers
        (:func:`repro.experiments.fig_methods.run_sweep`).
    cohort_mode : "serial" or "fused" cohort training for every trainer
        this context builds (``$REPRO_COHORT_VECTOR`` when unset, else
        fused; see :mod:`repro.fl.cohort`). "fused" trains tuner rungs and
        bank builds as cross-trial slabs (:mod:`repro.fl.fused`), bank
        builds in-process under any executor; "serial" is the per-client
        reference. A fused build's mode joins the bank-store cache key,
        since lockstep padding can perturb results at float tolerance.
    cohort_dtype : slab compute dtype ("float64" or "float32") for every
        trainer this context builds (``$REPRO_DTYPE`` when unset; see
        :func:`repro.nn.stacked.resolve_dtype`). float32 halves slab
        memory at documented tolerance; float64 stays the bit-exact
        reference. Non-default dtypes join the bank-store cache key so
        precision variants never alias.
    checkpoint_dir : directory for tuning-run checkpoints
        (:mod:`repro.engine.checkpoint`); online drivers save each run's
        state here and — with ``resume`` enabled — pick interrupted runs
        back up bit-identically. Defaults to ``$REPRO_CHECKPOINT_DIR``
        (no checkpointing when unset).
    faults : a :class:`repro.engine.faults.FaultConfig` (or ``FaultPlan``)
        injected into every live tuning run this context drives (see
        :func:`repro.experiments.fig_methods.make_tuner`) and into the
        context's executor (worker kills). Defaults to ``$REPRO_FAULTS``
        parsed via :meth:`FaultConfig.parse` (no injection when unset).
    """

    def __init__(
        self,
        preset: str = "test",
        seed: int = 0,
        n_bank_configs: int = 32,
        clients_per_round: int = 10,
        eta: int = 3,
        cache_dir: Optional[str] = None,
        n_workers: Optional[int] = None,
        cohort_mode: Optional[str] = None,
        cohort_dtype=None,
        checkpoint_dir: Optional[str] = None,
        faults=None,
    ):
        from repro.engine.bank_store import BankStore
        from repro.engine.executor import SerialExecutor, make_executor
        from repro.engine.faults import FaultConfig, FaultPlan
        from repro.fl.cohort import resolve_cohort_mode
        from repro.nn.stacked import resolve_dtype

        self.preset = preset
        self.scale: DatasetScale = get_scale(preset)
        self.seed = seed
        self.n_bank_configs = n_bank_configs
        self.clients_per_round = clients_per_round
        self.eta = eta
        self.cohort_mode = resolve_cohort_mode(cohort_mode)
        self.cohort_dtype = resolve_dtype(cohort_dtype)
        self.rngs = RngFactory(seed)
        self.space: SearchSpace = paper_space(batch_sizes=BATCH_CHOICES[preset])
        shared_rng = self.rngs.make("shared-configs")
        self.shared_configs = [self.space.sample(shared_rng) for _ in range(n_bank_configs)]
        self._datasets: Dict[str, object] = {}
        self._banks: Dict[Tuple[str, bool], ConfigBank] = {}
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV_VAR) or None
        self.bank_store = BankStore(cache_dir) if cache_dir else None
        if checkpoint_dir is None:
            checkpoint_dir = os.environ.get(CHECKPOINT_ENV_VAR) or None
        self.checkpoint_dir = checkpoint_dir
        if faults is None:
            spec = os.environ.get(FAULTS_ENV_VAR) or None
            if spec:
                faults = FaultConfig.parse(spec)
        if isinstance(faults, FaultConfig):
            faults = FaultPlan(faults)
        self.faults = faults
        if n_workers is None and not os.environ.get(WORKERS_ENV_VAR):
            self.executor = SerialExecutor()
        else:
            self.executor = make_executor(n_workers, faults=self.faults)

    @property
    def max_rounds(self) -> int:
        """Per-config round cap (the paper's 405, scaled)."""
        return self.scale.max_rounds_per_config

    @property
    def total_budget(self) -> int:
        """Total tuning budget (the paper's 6480 = 16 x 405, scaled)."""
        return self.scale.total_budget_rounds

    def dataset(self, name: str):
        """Load (and cache) a dataset at this context's preset and seed."""
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, self.preset, seed=self.seed)
        return self._datasets[name]

    def bank(self, name: str, store_params: bool = False) -> ConfigBank:
        """Build (and cache) the dataset's config bank over the shared pool.

        A params-storing bank satisfies requests for either variant, so at
        most one bank per dataset is ever trained.
        """
        key_with = (name, True)
        key_without = (name, False)
        if store_params and key_with not in self._banks and key_without in self._banks:
            # Must rebuild with params; drop the param-less bank.
            del self._banks[key_without]
        if store_params:
            if key_with not in self._banks:
                self._banks[key_with] = self._build_bank(name, store_params=True)
            return self._banks[key_with]
        if key_with in self._banks:
            return self._banks[key_with]
        if key_without not in self._banks:
            self._banks[key_without] = self._build_bank(name, store_params=False)
        return self._banks[key_without]

    def bank_key_fields(self, name: str, store_params: bool = False) -> Dict:
        """The :class:`BankStore` key a bank build of ``name`` maps to.

        A fused build (in-process under any executor) keys with
        ``cohort_mode="fused"``; serial builds carry no mode field. The
        same conditional-field pattern stamps the slab dtype: a float32
        build can never alias a float64 cache entry.
        """
        from repro.engine.bank_store import BankStore

        extra = {}
        if self.cohort_mode != "serial":
            extra["cohort_mode"] = self.cohort_mode
        if self.cohort_dtype.name != "float64":
            extra["cohort_dtype"] = self.cohort_dtype.name
        return BankStore.key_fields(
            dataset=name,
            preset=self.preset,
            seed=self.seed,
            n_configs=self.n_bank_configs,
            max_rounds=self.max_rounds,
            eta=self.eta,
            clients_per_round=self.clients_per_round,
            store_params=store_params,
            **extra,
        )

    def _build_bank(self, name: str, store_params: bool) -> ConfigBank:
        if self.bank_store is None:
            return self._train_bank(name, store_params)
        return self.bank_store.get_or_build(
            self.bank_key_fields(name, store_params),
            lambda: self._train_bank(name, store_params),
        )

    def _train_bank(self, name: str, store_params: bool) -> ConfigBank:
        return ConfigBank.build(
            self.dataset(name),
            self.space,
            n_configs=self.n_bank_configs,
            max_rounds=self.max_rounds,
            eta=self.eta,
            clients_per_round=self.clients_per_round,
            seed=self.rngs.make(f"bank-{name}"),
            configs=self.shared_configs,
            store_params=store_params,
            executor=self.executor,
            cohort_mode=self.cohort_mode,
            cohort_dtype=self.cohort_dtype,
        )

    def grid(self, name: str) -> List[int]:
        """The subsampling grid for a dataset's validation pool."""
        return subsample_grid(self.dataset(name).num_eval_clients)
