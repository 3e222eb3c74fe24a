"""Import hygiene: what the command line loads, and no unused imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import xyquench

SRC = Path(xyquench.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _unused_imports(source: str) -> list:
    """Names bound by import statements and never read; __future__ is skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_cli_import_leaves_the_oracles_out():
    # No scipy module at all: the ED oracle is numpy only and dynamics loads
    # scipy.integrate, which the command line never needs.
    code = ("import sys, xyquench.cli; print([m for m in sys.modules "
            "if m == 'xyquench.dynamics' or m.split('.')[0] == 'scipy'])")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_no_unused_imports():
    assert _unused_imports("import os.path\nfrom a import b as c, d\nprint(d)\n") == ["c", "os"]
    # The package __init__ imports names only to re-export them.
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(TESTS.glob("*.py"))
    found = {p.name: names for p in files if (names := _unused_imports(p.read_text()))}
    assert found == {}
