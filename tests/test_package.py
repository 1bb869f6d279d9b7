"""Package surface: every exported name resolves, every import is used."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import phenopart as pp

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pp.__path__)
    if hasattr(importlib.import_module(f"phenopart.{info.name}"), "__all__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"phenopart.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_unused_imports():
    """Every name a module imports is read in it; `__init__` imports are
    re-exports and `__future__` imports are directives, so both are exempt."""
    unused = []
    for path in sorted(pathlib.Path(pp.__path__[0]).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about a second of start-up and only `Box.sample`
    reads it, so importing the package and its CLI must not load it."""
    code = ("import sys, phenopart, phenopart.cli; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pp.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
