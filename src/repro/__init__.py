"""Reproduction of "On Noisy Evaluation in Federated Hyperparameter Tuning".

Kuo et al., MLSys 2023 (arXiv:2212.08930).

The package is organised bottom-up:

- :mod:`repro.nn` — a from-scratch NumPy neural-network library (layers,
  losses, optimizers) used as the trainable-model substrate.
- :mod:`repro.datasets` — synthetic federated datasets shaped after the
  paper's four benchmarks (CIFAR10, FEMNIST, StackOverflow, Reddit).
- :mod:`repro.fl` — a cross-device federated learning simulator
  (client sampling, local SGD, FedAdam-family server optimizers,
  federated evaluation).
- :mod:`repro.core` — the paper's subject matter: hyperparameter tuning
  methods (random search, TPE, Hyperband, BOHB, one-shot proxy RS) and the
  evaluation-noise stack (client subsampling, systems-heterogeneity bias,
  differential privacy).
- :mod:`repro.experiments` — drivers that regenerate every table and figure
  in the paper's evaluation.
- :mod:`repro.engine` — the execution substrate: a process-pool executor
  that maps whole tuning runs and bank configs, checkpoint/resume, fault
  injection, and the disk-backed configuration-bank store. Parallelism
  and caching never change results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
