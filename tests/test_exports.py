"""The package's exports: every listed name exists, and the package imports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drnewsvendor

MODULES = sorted(info.name for info in pkgutil.iter_modules(drnewsvendor.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"drnewsvendor.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_imports_only_names_its_modules_export():
    tree = ast.parse(Path(drnewsvendor.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    unlisted = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
                if alias.name not in importlib.import_module(f"drnewsvendor.{node.module}").__all__]
    assert unlisted == []
