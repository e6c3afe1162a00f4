"""fpsim: deterministic desk-scale simulation of federated learning with
differential privacy.

The pieces, bottom up:

- ``seeds``      labeled deterministic randomness (SeedPath)
- ``tree``       tree-aggregated private prefix sums with restarts
- ``clipping``   adaptive quantile clip estimation and the noise split
- ``secagg``     integer encoding pipeline for modular secure aggregation,
                 with the randomized Hadamard rotation
- ``federation`` clients, timers, cohorts, and the training round loop
- ``accounting`` participation-aware zCDP accountant and conversions
- ``models``     the built-in bag-of-words softmax model
- ``data``       synthetic federated token corpus
- ``config``     flat key=value experiment configuration
- ``harness``    full runs, sweeps, comparison, artifacts
- ``cli``        the ``fpsim`` command

The package root exports the public surface, and ``fpsim.__all__`` lists
exactly these names:

- the configs and their errors: ``ExperimentConfig``, ``SweepConfig``,
  ``PrivacyTerms``, ``ConfigError``;
- the entry points that run, account, sweep and compare:
  ``run_experiment``, ``post_hoc_report``, ``privacy_report``,
  ``sweep_privacy``, ``compare``, and the artifact readers and writers
  ``read_checkpoint``, ``write_checkpoint``, ``read_metrics``;
- the accountant: ``ParticipationSchema``, ``PrivacyLedger``,
  ``worst_case_sensitivity_sq``, ``prefix_sensitivity_sq``,
  ``gaussian_zcdp``, ``zcdp``, ``prefix_zcdp``, ``zcdp_to_eps``,
  ``zcdp_to_delta``, ``loose_eps``;
- the result type and the run errors: ``RunResult``, ``CohortExhausted``,
  ``TrainingDiverged``, ``RoundingRetriesExhausted``;
- ``BACKEND`` and ``__version__``.

These validate what they are given.  Everything else (the noise tree, the
clip state, the SecAgg round, the round loop, the model, the seeds) is an
internal that trusts the invariants a validated ExperimentConfig and the
run's own checks give it; each stays importable from its module, e.g.
``fpsim.tree.TreeState``.  The root does not import ``cli``, so ``import
fpsim`` does not import argparse.

The hot kernels (Hadamard transform, stochastic rounding) live in
``fpsim._kernels`` and have one implementation, in numpy; ``BACKEND`` names
it and is always ``"numpy"``.  It stays in the surface because the
benchmark records it with every run.
"""

from fpsim.accounting import (
    ParticipationSchema, PrivacyLedger, gaussian_zcdp, loose_eps, prefix_sensitivity_sq,
    prefix_zcdp, worst_case_sensitivity_sq, zcdp, zcdp_to_delta, zcdp_to_eps,
)
from fpsim.config import ConfigError, ExperimentConfig, PrivacyTerms, SweepConfig
from fpsim.federation import CohortExhausted, TrainingDiverged
from fpsim.harness import (
    RunResult, compare, post_hoc_report, privacy_report, read_checkpoint, read_metrics,
    run_experiment, sweep_privacy, write_checkpoint,
)
from fpsim.secagg import RoundingRetriesExhausted

__version__ = "0.1.0"

BACKEND = "numpy"

__all__ = [
    "ExperimentConfig", "SweepConfig", "PrivacyTerms", "ConfigError",
    "run_experiment", "post_hoc_report", "privacy_report", "sweep_privacy", "compare",
    "read_checkpoint", "write_checkpoint", "read_metrics",
    "ParticipationSchema", "PrivacyLedger", "worst_case_sensitivity_sq", "prefix_sensitivity_sq",
    "gaussian_zcdp", "zcdp", "prefix_zcdp", "zcdp_to_eps", "zcdp_to_delta", "loose_eps",
    "RunResult", "CohortExhausted", "TrainingDiverged", "RoundingRetriesExhausted",
    "BACKEND", "__version__",
]
