"""The package's public surface, and every name a module exports, resolve.

``fpsim.__all__`` is the public surface that the package docstring names:
the configs, the entry points, the accountant, the result type and the run
errors.  Internals are imported from their modules.  ``__all__`` lists that
name a deleted definition break ``from fpsim import *`` and mislead readers.
"""

import importlib
import pkgutil
import re

import pytest

import fpsim

MODULES = ["fpsim", *(f"fpsim.{info.name}" for info in pkgutil.iter_modules(fpsim.__path__))]

SURFACE = {
    "ExperimentConfig", "SweepConfig", "PrivacyTerms", "ConfigError",
    "run_experiment", "post_hoc_report", "privacy_report", "sweep_privacy", "compare",
    "read_checkpoint", "write_checkpoint", "read_metrics",
    "ParticipationSchema", "worst_case_sensitivity_sq", "prefix_sensitivity_sq",
    "gaussian_zcdp", "zcdp", "prefix_zcdp", "zcdp_to_eps", "zcdp_to_delta", "loose_eps",
    "RunResult", "CohortExhausted", "TrainingDiverged", "RoundingRetriesExhausted",
    "BACKEND", "__version__",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_all_is_the_surface_the_docstring_names():
    """The docstring's list after "lists exactly these names:" (up to the
    next blank line) names each exported name once, in double backquotes,
    and ``__all__`` lists exactly those, each once."""
    section = fpsim.__doc__.split("exactly these names:\n\n", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"``(\w+)``", section)
    assert len(named) == len(set(named))
    assert len(fpsim.__all__) == len(set(fpsim.__all__))
    assert set(named) == set(fpsim.__all__) == SURFACE


def test_star_import_gives_the_surface_and_no_internal():
    namespace: dict[str, object] = {}
    exec("from fpsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == SURFACE
    for internal in ("TreeState", "ClipState", "SecAggRound", "cohort_update", "run_round",
                     "closing_node", "gaussian_vector", "sign_vector", "batch_orders",
                     "token_dtype", "SeedPath", "NextTokenBOW", "start_run", "cohorts"):
        assert not hasattr(fpsim, internal), internal


def test_names_the_benchmark_worker_reads_resolve():
    """perfbench/worker.py reads these through ``import fpsim`` and
    ``fpsim.harness``; without ``BACKEND`` every repetition fails.  Its round
    clock replaces ``harness.select_cohort``, which the run loop looks up as
    a harness global each round."""
    import fpsim.harness

    assert fpsim.BACKEND == "numpy"
    for name in ("ExperimentConfig", "SweepConfig"):
        assert isinstance(getattr(fpsim, name), type)
    for name in ("select_cohort", "run_experiment", "sweep_privacy", "post_hoc_report",
                 "read_metrics"):
        assert callable(getattr(fpsim.harness, name)), name
    assert "select_cohort" in fpsim.harness.cohorts.__code__.co_names
