"""Every name the package and its modules export resolves.

``__all__`` is the package's public surface: a name left in it after its
definition is deleted breaks ``from fpsim import *`` and misleads readers.
"""

import importlib
import pkgutil

import pytest

import fpsim

MODULES = ["fpsim", *(f"fpsim.{info.name}" for info in pkgutil.iter_modules(fpsim.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
