"""One unit-scale rule: predicates.unit_exponent is the only place that
takes a binary exponent of coordinates, and the stages that compute with
coordinates apply it themselves, so no caller scales a complex."""

from __future__ import annotations

import ast
from pathlib import Path
from unittest import mock

from flatcheck import CellComplex, build_certificate

from conftest import cube, grid_klein, tetra

SRC = Path(__file__).resolve().parent.parent / "src" / "flatcheck"


def _scoped_names(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(scope, name) for every name and attribute read under tree, scope
    being the enclosing def and class names, and for every imported name."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, ast.Attribute):
            yield scope, node.attr
        elif isinstance(node, ast.Name):
            yield scope, node.id
        elif isinstance(node, ast.alias):
            yield scope, node.name.split(".")[-1]
        yield from _scoped_names(node, inner)


SCOPED = [(path.name, ".".join(scope), name)
          for path in sorted(SRC.glob("*.py"))
          for scope, name in _scoped_names(ast.parse(path.read_text(encoding="utf-8")))]


def test_frexp_only_in_unit_exponent():
    assert [(module, scope) for module, scope, name in SCOPED if name == "frexp"] == [
        ("predicates.py", "unit_exponent")]


def test_callers_do_not_scale():
    """build_certificate and the refine command hand the stages raw
    coordinates, and the star pass scales the vertex array, not a copy of
    the complex."""
    callers = {("certificate.py", "build_certificate"), ("cli.py", "_run_refine"),
               ("flatness.py", "_vertex_stars")}
    found = [(module, scope, name) for module, scope, name in SCOPED
             if (module, scope) in callers and name in ("unit_scaled", "ldexp")]
    assert found == [("flatness.py", "_vertex_stars", "ldexp")]


def test_certificate_never_unit_scales_the_complex(monkeypatch):
    monkeypatch.setattr(CellComplex, "unit_scaled", mock.Mock(side_effect=AssertionError))
    for cx in (tetra(), cube(), grid_klein(4, 4)):
        assert build_certificate(cx)["verdict"]["closed_manifold"]
