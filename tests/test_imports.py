"""Every module-level import in src/, tests/ and scripts/ is used, and no
private definition in src/ is dead.

A stdlib ``ast`` scan stands in for a linter: a name bound by a top-level
``import`` or ``from ... import`` must be referenced somewhere in its module.
``from __future__`` imports, names listed in ``__all__`` and the re-exports
of ``__init__.py`` files are exempt.  A module-level function, class or
assignment in src/ whose name starts with one underscore (not a dunder) must
be loaded somewhere in src/, by name or as an attribute.

Importing the package loads no SciPy module: only the cut-polytope LP
imports ``scipy.optimize``, when it runs.  That is checked in fresh
interpreters, since this test process has SciPy loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each module-level import never referenced."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted(
        p for d in SCANNED for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
    )
    assert files
    unused = [entry for path in files for entry in unused_imports(path)]
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_definitions(paths: list[Path]) -> list[str]:
    """``file:line: name`` for each private module-level definition in
    ``paths`` that no file in ``paths`` loads."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    loaded = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                loaded.add(n.attr)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                     for name in names if _private(name) and name not in loaded]
    return dead


def test_no_dead_private_definitions_in_src():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert unused_private_definitions(files) == []


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports the library from src/
    and return the JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


_SCIPY_LOADED = ("[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]")


def test_package_import_loads_no_scipy():
    loaded = _fresh(f"""
import json, sys
import suffreduce, suffreduce.cli
print(json.dumps({_SCIPY_LOADED}))
""")
    assert loaded == []


def test_cut_membership_loads_the_lp_solver_when_called():
    """The LP still answers, and scipy.optimize arrives with the first call."""
    got = _fresh(f"""
import json, sys
import numpy as np
from suffreduce import SymMatrix, cut_membership
from suffreduce.orbit import _cut_vertices
before = {_SCIPY_LOADED}
y = _cut_vertices(3)
inside = SymMatrix.wrap(0.5 * np.outer(y[1], y[1]) + 0.5 * np.outer(y[2], y[2]))
# unit diagonal and entries in [-1, 1], so only the LP can reject it:
# b01 + b02 + b12 = -2.7 breaks the cut inequality >= -1
outside = SymMatrix.wrap(np.where(np.eye(3, dtype=bool), 1.0, -0.9))
answers = [cut_membership(inside), cut_membership(outside)]
print(json.dumps({{"before": before, "answers": answers,
                  "after": "scipy.optimize" in sys.modules}}))
""")
    assert got == {"before": [], "answers": [True, False], "after": True}
