"""Every name a package module imports is used in that module, so dead
imports cannot pile up unnoticed.  The package's __init__.py is exempt: its
imports are the public re-exports."""
import ast
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


def test_all_lists_exactly_the_reexports():
    # a removed export must not leave a stale __all__ entry behind, which
    # would break `from powerlaw_spde import *`
    import powerlaw_spde

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert sorted(powerlaw_spde.__all__) == sorted(imported)
    assert len(set(powerlaw_spde.__all__)) == len(powerlaw_spde.__all__)
