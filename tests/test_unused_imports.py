"""Every name a medsql module imports is used in that module, and every
private name a module defines at its top level is read by the package.

The package ``__init__`` is left out of the import check: it imports names
to re-export them. ``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import medsql

MODULES = sorted(p for p in Path(medsql.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with the line of that import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, in code and in string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, list[ast.stmt]]:
    """Each private name a module binds at its top level by a def, class or
    assignment, with the statements that bind it."""
    defined: dict[str, list[ast.stmt]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, []).append(stmt)
    return defined


def test_every_private_module_level_name_is_read():
    # Read: an ast.Name load in its own module outside the statements that bind it,
    # or a from-import of it by any module of the package.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(medsql.__file__).parent.glob("*.py")}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unread = []
    for module, tree in sorted(trees.items()):
        for name, stmts in _private_definitions(tree).items():
            inside = {id(n) for stmt in stmts for n in ast.walk(stmt)}
            loads = (n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            if (module, name) not in imported and not any(n.id == name and id(n) not in inside for n in loads):
                unread.append(f"{module}.{name}")
    assert not unread, f"private names no code of the package reads: {unread}"
