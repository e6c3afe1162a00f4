"""fpsim: deterministic desk-scale simulation of federated learning with
differential privacy.

The pieces, bottom up:

- ``seeds``      labeled deterministic randomness (SeedPath)
- ``vectors``    parameter-vector checks
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

The package root re-exports every module's ``__all__`` except ``cli``'s, so
that ``import fpsim`` does not import argparse.

The hot kernels (Hadamard transform, stochastic rounding) live in
``fpsim._kernels`` and have one implementation, in numpy; ``BACKEND`` names
it and is always ``"numpy"``.
"""

from fpsim import accounting, clipping, config, data, federation, harness, models
from fpsim import secagg, seeds, tree, vectors
from fpsim.accounting import *  # noqa: F403
from fpsim.clipping import *  # noqa: F403
from fpsim.config import *  # noqa: F403
from fpsim.data import *  # noqa: F403
from fpsim.federation import *  # noqa: F403
from fpsim.harness import *  # noqa: F403
from fpsim.models import *  # noqa: F403
from fpsim.secagg import *  # noqa: F403
from fpsim.seeds import *  # noqa: F403
from fpsim.tree import *  # noqa: F403
from fpsim.vectors import *  # noqa: F403

__version__ = "0.1.0"

BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    *accounting.__all__,
    *clipping.__all__,
    *config.__all__,
    *data.__all__,
    *federation.__all__,
    *harness.__all__,
    *models.__all__,
    *secagg.__all__,
    *seeds.__all__,
    *tree.__all__,
    *vectors.__all__,
]
