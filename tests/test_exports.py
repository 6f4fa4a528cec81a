"""Every public name the package declares resolves: each module's
``__all__`` lists only names the module defines, and every name
``fiberwalk/__init__.py`` imports exists in its source module's
``__all__``."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fiberwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(fiberwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"fiberwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(fiberwalk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fiberwalk.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert hasattr(fiberwalk, alias.asname or alias.name)
