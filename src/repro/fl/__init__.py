"""Cross-device federated learning simulator.

Implements the training/evaluation workflow of the paper's §2.1 and
Algorithm 2: a server holds global model parameters; each round it samples
a small client cohort, runs local SGD on each client, aggregates the
weighted parameter average, and applies a server optimizer (FedAdam,
Reddi et al. 2020) to the pseudo-gradient.
"""

from repro.fl.client import ClientTrainer, evaluate_client
from repro.fl.cohort import (
    COHORT_MODES,
    COHORT_VECTOR_ENV,
    SlabGroup,
    SlabTrainer,
    resolve_cohort_mode,
)
from repro.fl.fused import FusedTrainerPool
from repro.fl.server import FedAdam, ServerOptimizer
from repro.fl.sampling import BiasedSampler, UniformSampler, biased_weights
from repro.fl.trainer import FederatedTrainer, LocalTrainingConfig
from repro.fl.evaluation import (
    EvalChunkPlan,
    StackedEvalEngine,
    client_error_rates,
    eval_chunk_plan,
    federated_error,
    tail_error,
)

__all__ = [
    "ClientTrainer",
    "evaluate_client",
    "COHORT_MODES",
    "COHORT_VECTOR_ENV",
    "FusedTrainerPool",
    "SlabGroup",
    "SlabTrainer",
    "resolve_cohort_mode",
    "ServerOptimizer",
    "FedAdam",
    "UniformSampler",
    "BiasedSampler",
    "biased_weights",
    "FederatedTrainer",
    "LocalTrainingConfig",
    "EvalChunkPlan",
    "StackedEvalEngine",
    "client_error_rates",
    "eval_chunk_plan",
    "federated_error",
    "tail_error",
]
