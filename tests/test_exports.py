"""Every public name the package declares resolves: each module's
``__all__`` lists only names the module defines, every name
``fiberwalk/__init__.py`` exports exists in its source module's
``__all__``, and the package loads a module only when one of its names
is first read."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import fiberwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(fiberwalk.__path__))
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"fiberwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    assert fiberwalk.__all__ == [n for names in fiberwalk._EXPORTS.values() for n in names]
    assert len(set(fiberwalk.__all__)) == len(fiberwalk.__all__)
    for module_name, names in fiberwalk._EXPORTS.items():
        module = importlib.import_module(f"fiberwalk.{module_name}")
        for name in names:
            assert name in module.__all__, f"{module_name}.{name}"
            assert getattr(fiberwalk, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        fiberwalk.nope


def run_python(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_importing_the_solver_loads_no_other_module():
    """A sampler child that imports ``fiberwalk.dpll`` pays for the
    solver alone, not for the walker, the bench module or numpy."""
    run_python("import sys, fiberwalk.dpll\n"
               "loaded = {m for m in sys.modules if m.startswith('fiberwalk')}\n"
               "assert loaded == {'fiberwalk', 'fiberwalk.dpll'}, loaded\n"
               "assert 'numpy' not in sys.modules")


def test_a_name_loads_its_module_on_first_read():
    run_python("import sys, fiberwalk\n"
               "assert 'fiberwalk.walk' not in sys.modules\n"
               "from fiberwalk import run_walk\n"
               "assert run_walk is sys.modules['fiberwalk.walk'].run_walk\n"
               "assert fiberwalk.walk is sys.modules['fiberwalk.walk']\n"
               "assert 'fiberwalk.bench' not in sys.modules\n"
               "ns = {}\n"
               "exec('from fiberwalk import *', ns)\n"
               "assert set(fiberwalk.__all__) <= set(ns)")
