"""Every name a module lists in __all__ exists; the runtime imports no scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_no_scipy():
    """numpy is the only runtime dependency: scipy would dominate set-up time."""
    src = str(Path(smc2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, smc2, smc2.cli, smc2.validate; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
