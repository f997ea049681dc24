"""Every module-level import in src/, tests/ and scripts/ is used, and no
private definition in src/ is dead.

A stdlib ``ast`` scan stands in for a linter: a name bound by a top-level
``import`` or ``from ... import`` must be referenced somewhere in its module.
``from __future__`` imports, names listed in ``__all__`` and the re-exports
of ``__init__.py`` files are exempt.  A module-level function, class or
assignment in src/ whose name starts with one underscore (not a dunder) must
be loaded somewhere in src/, by name or as an attribute.
"""

import ast
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
