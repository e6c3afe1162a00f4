"""fpsim: deterministic desk-scale simulation of federated learning with
differential privacy.

The pieces, bottom up:

- ``seeds``      labeled deterministic randomness (SeedPath)
- ``vectors``    parameter-vector ops: clipping, randomized Hadamard rotation
- ``tree``       tree-aggregated private prefix sums with restarts
- ``clipping``   adaptive quantile clip estimation and the noise split
- ``secagg``     integer encoding pipeline for modular secure aggregation
- ``federation`` clients, timers, cohorts, and the training round loop
- ``accounting`` participation-aware zCDP accountant and conversions
- ``models``     the built-in bag-of-words softmax model
- ``data``       synthetic federated token corpus
- ``config``     flat key=value experiment configuration
- ``harness``    full runs, sweeps, comparison, artifacts
- ``cli``        the ``fpsim`` command

The hot kernels (Hadamard transform, stochastic rounding) live in
``fpsim._kernels`` and have one implementation, in numpy; ``BACKEND`` names
it and is always ``"numpy"``.
"""

from fpsim.accounting import (
    ParticipationSchema,
    PrivacyLedger,
    brute_force_sensitivity_sq,
    loose_eps,
    sweep,
    prefix_sensitivity_sq,
    prefix_zcdp,
    worst_case_sensitivity_sq,
    zcdp,
    zcdp_to_delta,
    zcdp_to_eps,
)
from fpsim.clipping import ClipState, activate, combined_multiplier, noise_split, update_estimate
from fpsim.config import ConfigError, ExperimentConfig, SweepConfig
from fpsim.data import DataConfig, TokenDataset, synthesize_clients, synthesize_eval_set
from fpsim.federation import (
    AvailabilityModel,
    CohortConfig,
    CohortExhausted,
    RoundMetrics,
    ServerState,
    TrainingDiverged,
    cohort_update,
    observed_limits,
    run_round,
    select_cohort,
)
from fpsim.harness import RunResult, compare, post_hoc_report, run_experiment, sweep_privacy
from fpsim.models import NextTokenBOW
from fpsim.secagg import (
    RoundingRetriesExhausted,
    SecAggConfig,
    bits_per_update,
    decode,
    derive_config,
    encode_client,
    inflated_clip_norm,
    modular_sum,
)
from fpsim.seeds import SeedPath, gaussian_vector, sign_vector
from fpsim.tree import RestartSchedule, TreeState, init_tree, naive_private_sum
from fpsim.vectors import (
    as_param_vector,
    clip_l2,
    inverse_rotation,
    randomized_hadamard,
    rotate_inplace,
)

__version__ = "0.1.0"

BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    # accounting
    "ParticipationSchema",
    "PrivacyLedger",
    "brute_force_sensitivity_sq",
    "worst_case_sensitivity_sq",
    "prefix_sensitivity_sq",
    "zcdp",
    "prefix_zcdp",
    "zcdp_to_delta",
    "zcdp_to_eps",
    "loose_eps",
    "sweep",
    # clipping
    "ClipState",
    "noise_split",
    "combined_multiplier",
    "update_estimate",
    "activate",
    # config
    "ConfigError",
    "ExperimentConfig",
    "SweepConfig",
    # data
    "DataConfig",
    "TokenDataset",
    "synthesize_clients",
    "synthesize_eval_set",
    # federation
    "AvailabilityModel",
    "CohortConfig",
    "CohortExhausted",
    "RoundMetrics",
    "ServerState",
    "TrainingDiverged",
    "cohort_update",
    "select_cohort",
    "run_round",
    "observed_limits",
    # harness
    "RunResult",
    "run_experiment",
    "sweep_privacy",
    "compare",
    "post_hoc_report",
    # models
    "NextTokenBOW",
    # secagg
    "SecAggConfig",
    "derive_config",
    "encode_client",
    "modular_sum",
    "decode",
    "inflated_clip_norm",
    "bits_per_update",
    "RoundingRetriesExhausted",
    # seeds
    "SeedPath",
    "gaussian_vector",
    "sign_vector",
    # tree
    "RestartSchedule",
    "TreeState",
    "init_tree",
    "naive_private_sum",
    # vectors
    "as_param_vector",
    "clip_l2",
    "randomized_hadamard",
    "rotate_inplace",
    "inverse_rotation",
]
