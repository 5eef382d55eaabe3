"""The public surface: every exported name exists, and the package exports only public names."""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import pytest

import padeval

MODULES = [info.name for info in pkgutil.iter_modules(padeval.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"padeval.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(padeval.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"padeval.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
