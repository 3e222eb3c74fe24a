"""Import hygiene: what the command line loads, no unused imports, no orphaned helpers."""

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


def _unread_private_names(source: str) -> list:
    """Module-level private names (_x, not dunders) that the module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def _private_imports(source: str) -> list:
    """Underscore names a module takes from another package module: imported
    from a relative or xyquench module, or read as an attribute of one."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("xyquench")):
            names = [alias.name for alias in node.names]
            found += [name for name in names if name.startswith("_")]
            if node.module in (None, "xyquench"):  # from . import ed: ed is a package module
                modules.update(alias.asname or alias.name for alias in node.names)
    found += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules and node.attr.startswith("_")]
    return sorted(found)


def test_cli_import_leaves_the_oracles_out():
    # No scipy module at all: the ED oracle is numpy only and dynamics loads
    # scipy.integrate, which the command line never needs.  Runs are one
    # process, so no process pool either.
    forbidden = ("scipy", "concurrent", "multiprocessing")
    code = ("import sys, xyquench.cli; print([m for m in sys.modules "
            f"if m == 'xyquench.dynamics' or m.split('.')[0] in {forbidden!r}])")
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


def test_modules_take_no_private_names_from_each_other():
    # Gamma, for one, stays reachable only through contraction_table.
    source = "from .a import _b, c\nfrom xyquench.d import _e\nfrom . import f\nf._g, f.h\nfrom os import _x\n"
    assert _private_imports(source) == ["_b", "_e", "_g"]
    found = {p.name: names for p in sorted(SRC.glob("*.py")) if (names := _private_imports(p.read_text()))}
    assert found == {}


def test_private_names_are_read_in_their_module():
    source = "_a = 1\n_b, c = _a, 2\ndef _f():\n    _g = 3\nclass _K: pass\n__all__ = []\n"
    assert _unread_private_names(source) == ["_K", "_b", "_f"]
    found = {p.name: names for p in sorted(SRC.glob("*.py"))
             if (names := _unread_private_names(p.read_text()))}
    assert found == {}
