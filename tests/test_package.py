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


# (module, package module it imports from or None for every one, the only
# names it may import from there or None, the names it must not import)
IMPORT_RULES = [
    # the oracle shares no code with the particle path
    ("reference", "dynamics", set(), None),
    ("reference", "regularize", set(), None),
    ("reference", "discretize", {"InitialDensity"}, None),
    # the diagnostics measure runs and never make one
    ("analysis", None, None, {"integrate", "partition_support",
                              "reconstruct"}),
]


def _package_imports(module: str) -> set:
    """(package module, name) of every relative import in `module`,
    function-level imports included."""
    path = pathlib.Path(pp.__path__[0]) / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.module, alias.name) if node.module else (alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names}


@pytest.mark.parametrize("module, source, only, never", IMPORT_RULES,
                         ids=[f"{m}-{s or 'any'}" for m, s, *_ in IMPORT_RULES])
def test_import_rules(module, source, only, never):
    names = {name for src, name in _package_imports(module)
             if source is None or src == source}
    if only is not None:
        assert names <= only
    if never is not None:
        assert names.isdisjoint(never)


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about a second of start-up and the package reads
    none of it, so importing the package and its CLI must not load it."""
    code = ("import sys, phenopart, phenopart.cli; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pp.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_leaves_the_process_pool_unloaded():
    """Only `--workers` above 1 needs a process pool, so importing the CLI
    must not load `concurrent.futures` and `multiprocessing`."""
    code = ("import sys, phenopart, phenopart.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pp.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_run_loads_no_scipy(tmp_path):
    """The CLI and the grid reference need no scipy: a small `simulate`
    with the oracle on leaves every scipy module unloaded."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[discretize]\nh = 1/20\n[time]\nt_final = 0.02\n"
                   "dt = 1e-2\n[oracle]\nenabled = true\ndx = 1/50\n"
                   "dt = 1e-2\n")
    code = (
        "import sys, phenopart, phenopart.cli\n"
        f"code = phenopart.cli.main(['simulate', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pp.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
