"""Every name a package module imports is used in that module, and every
private top-level name of the package is read somewhere in it, so dead
imports and dead helpers cannot pile up unnoticed.  The package's
__init__.py is exempt from the import check: its imports are the public
re-exports."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powerlaw_spde"


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os, numpy as np\nfrom .basis import analyze, synthesize\nnp.sum(analyze)\n"
    assert unused_imports(source) == ["os", "synthesize"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private top-level function, class or _UPPER
    constant of the sources that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_dead_private_names_are_found():
    sources = {
        "a.py": "_LIMIT = 3\n_UNUSED = 4\n_lower = 5\ndef _helper():\n    return _LIMIT\n"
                "class _Box:\n    pass\ndef public():\n    return b._shared()\n",
        "b.py": "def _shared():\n    return 1\n",
    }
    assert dead_private_names(sources) == ["a.py:_Box", "a.py:_UNUSED", "a.py:_helper"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_all_lists_exactly_the_reexports():
    # a removed export must not leave a stale __all__ entry behind, which
    # would break `from powerlaw_spde import *`
    import powerlaw_spde

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert sorted(powerlaw_spde.__all__) == sorted(imported)
    assert len(set(powerlaw_spde.__all__)) == len(powerlaw_spde.__all__)


def test_numpy_random_loads_at_the_first_wiener_path():
    # noise._seed_state_type imports numpy.random at the first draw rather
    # than with the package, which kept about 0.5 MB off the peak RSS of
    # every command: importing every module and building a noisy Problem
    # must leave it unloaded, in a fresh interpreter
    code = """
import importlib, pkgutil, sys
import numpy as np
import powerlaw_spde
for module in pkgutil.iter_modules(powerlaw_spde.__path__):
    importlib.import_module("powerlaw_spde." + module.name)
from powerlaw_spde.basis import build_space, suggest_grid
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import Problem, SdeStepConfig
from powerlaw_spde.noise import NoiseModel, WienerPath
Problem(ConstitutiveParams(p=2.0), build_space(2, 4, suggest_grid(2, 4)),
        NoiseModel(family="linear", K=4), None, np.ones(4), SdeStepConfig(dt=0.01), 3)
assert "numpy.random" not in sys.modules, "numpy.random loaded before the first draw"
WienerPath.generate([0], 0.01, 4, 3)
assert "numpy.random" in sys.modules
"""
    path = os.pathsep.join([str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
