"""The paper's subject matter: federated hyperparameter tuning under noise.

Contents:

- :mod:`repro.core.search_space` — the Appendix-B HP space.
- :mod:`repro.core.noise` / :mod:`repro.core.privacy` — the evaluation-noise
  stack (client subsampling, systems-heterogeneity bias, Laplace DP).
- Tuning methods: :class:`RandomSearch`, :class:`TPE`, :class:`Hyperband`
  (successive-halving brackets), :class:`BOHB`, the GP-based :class:`GPBO`,
  the noise-immune :class:`OneShotProxySearch` baseline (§4), and the
  population family :class:`WeightSharingTuner` (FedEx-style) /
  :class:`PopulationTuner` (FedPop-style) riding the fused slab
  (:mod:`repro.core.population`).
- :mod:`repro.core.evaluator` — trial runners bridging tuners to the FL
  simulator (or to a precomputed configuration bank).
"""

from repro.core.search_space import (
    Choice,
    Constant,
    Hyperparameter,
    LogUniform,
    SearchSpace,
    Uniform,
    nested_server_lr_space,
    paper_space,
)
from repro.core.privacy import (
    PrivacyConfig,
    laplace_noise,
    oneshot_laplace_topk,
    oneshot_topk_scale,
    value_release_scale,
)
from repro.core.noise import NoiseConfig, NoisyEvaluation, NoisyEvaluator
from repro.core.evaluator import FederatedTrialRunner, Trial, TrialRunner, config_to_trainer
from repro.core.results import CurvePoint, Observation, TuningResult
from repro.core.tuner import BaseTuner, BudgetLedger
from repro.core.random_search import RandomSearch
from repro.core.tpe import TPE, TPESampler
from repro.core.hyperband import Hyperband, bracket_specs, sha_rungs
from repro.core.bohb import BOHB
from repro.core.proxy import OneShotProxySearch
from repro.core.population import PopulationTuner, PopulationTunerBase, WeightSharingTuner
from repro.core.robust import ResampledRandomSearch, TwoStageRandomSearch
from repro.core.synthetic import SyntheticRunner, default_quality
from repro.core.gp import GaussianProcess, RBFKernel, fit_gp_with_model_selection
from repro.core.gp_bo import GPBO, expected_improvement

__all__ = [
    "ResampledRandomSearch",
    "TwoStageRandomSearch",
    "SyntheticRunner",
    "default_quality",
    "GaussianProcess",
    "RBFKernel",
    "fit_gp_with_model_selection",
    "GPBO",
    "expected_improvement",
    "Choice",
    "Constant",
    "Hyperparameter",
    "LogUniform",
    "SearchSpace",
    "Uniform",
    "nested_server_lr_space",
    "paper_space",
    "PrivacyConfig",
    "laplace_noise",
    "oneshot_laplace_topk",
    "oneshot_topk_scale",
    "value_release_scale",
    "NoiseConfig",
    "NoisyEvaluation",
    "NoisyEvaluator",
    "FederatedTrialRunner",
    "Trial",
    "TrialRunner",
    "config_to_trainer",
    "CurvePoint",
    "Observation",
    "TuningResult",
    "BaseTuner",
    "BudgetLedger",
    "RandomSearch",
    "TPE",
    "TPESampler",
    "Hyperband",
    "bracket_specs",
    "sha_rungs",
    "BOHB",
    "OneShotProxySearch",
    "PopulationTuner",
    "PopulationTunerBase",
    "WeightSharingTuner",
]
