"""Every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import smc2

MODULES = ["smc2"] + [f"smc2.{info.name}" for info in pkgutil.iter_modules(smc2.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
        assert attr in namespace
