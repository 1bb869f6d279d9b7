"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import phenopart as pp

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pp.__path__)
    if hasattr(importlib.import_module(f"phenopart.{info.name}"), "__all__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"phenopart.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
