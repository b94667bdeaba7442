"""Code that nothing reads is deleted: every private top-level name of the
package is read somewhere in it, and every module but __init__ reads each
name it imports.  A stdlib ast scan of src/flatcheck; reads are loaded
names, and for private names also attribute names (module._name)."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flatcheck"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _bound_at_top(tree: ast.Module) -> list[str]:
    """The names a module's top-level defs, classes and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def test_package_found():
    assert "__init__.py" in TREES and len(TREES) > 1


def test_every_private_top_level_name_is_read():
    read = set()
    for tree in TREES.values():
        read |= _loaded(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{name}: {binding}" for name, tree in TREES.items()
              for binding in _bound_at_top(tree)
              if binding.startswith("_") and not binding.startswith("__")
              and binding not in read]
    assert not unread


def test_every_import_is_read():
    unread = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue        # it imports to re-export
        read = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{name}: {bound}")
    assert not unread
