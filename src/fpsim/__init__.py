"""fpsim: deterministic desk-scale simulation of federated learning with
differential privacy.

The pieces, bottom up:

- ``seeds``      labeled deterministic randomness (SeedPath)
- ``vectors``    parameter-vector checks and the randomized Hadamard rotation
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
    loose_eps,
    sweep,
    prefix_sensitivity_sq,
    prefix_zcdp,
    worst_case_sensitivity_sq,
    zcdp,
    zcdp_to_delta,
    zcdp_to_eps,
)
from fpsim.clipping import ClipState, combined_multiplier, noise_split
from fpsim.config import ConfigError, ExperimentConfig, SweepConfig
from fpsim.data import TokenDataset, synthesize_clients, synthesize_eval_set
from fpsim.federation import (
    CohortExhausted,
    RoundMetrics,
    RunState,
    TrainingDiverged,
    availability_weights,
    batch_orders,
    cohort_update,
    observed_limits,
    run_round,
    select_cohort,
)
from fpsim.harness import (
    RunResult,
    compare,
    post_hoc_report,
    run_experiment,
    start_run,
    sweep_privacy,
)
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
from fpsim.tree import RestartSchedule, TreeState
from fpsim.vectors import (
    as_param_vector,
    inverse_rotation,
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
    # config
    "ConfigError",
    "ExperimentConfig",
    "SweepConfig",
    # data
    "TokenDataset",
    "synthesize_clients",
    "synthesize_eval_set",
    # federation
    "CohortExhausted",
    "RoundMetrics",
    "RunState",
    "TrainingDiverged",
    "availability_weights",
    "batch_orders",
    "cohort_update",
    "select_cohort",
    "run_round",
    "observed_limits",
    # harness
    "RunResult",
    "start_run",
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
    # vectors
    "as_param_vector",
    "rotate_inplace",
    "inverse_rotation",
]
