"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flatcheck import (
    CellComplex,
    GeneratorSpec,
    TriangleBoxes,
    build_complex,
    candidate_pairs,
    check_closed_manifold,
    generate,
    self_intersections,
    standard_corpus,
    triangle_soup,
    triangulate_faces,
)


def make_complex(vertices, faces) -> CellComplex:
    return build_complex(vertices, faces)


def tetra() -> CellComplex:
    return generate(GeneratorSpec("tetrahedron"))


def cube() -> CellComplex:
    return generate(GeneratorSpec("cube"))


def icosa() -> CellComplex:
    return generate(GeneratorSpec("icosahedron"))


def grid_torus(m=3, n=3) -> CellComplex:
    return generate(GeneratorSpec("grid_torus", m=m, n=n))


def grid_klein(m=3, n=3) -> CellComplex:
    return generate(GeneratorSpec("grid_klein", m=m, n=n))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def independent_soup(coords):
    """Soup of independent triangles, shape (n, 3, 3): triangle t gets
    source face t and corners 3t, 3t+1, 3t+2, so no pair is adjacent."""
    coords = np.asarray(coords, dtype=np.float64)
    faces = [(3 * t, 3 * t + 1, 3 * t + 2) for t in range(len(coords))]
    return triangle_soup(triangulate_faces(build_complex(coords.reshape(-1, 3), faces)))


def brute_report(soup):
    """Referee scan: every triangle gets the whole soup's box, so every pair
    is a candidate and the narrow phase classifies all n(n-1)/2 of them."""
    n = len(soup)
    whole = TriangleBoxes(
        lo=np.broadcast_to(soup.coords.min(axis=(0, 1)), (n, 3)),
        hi=np.broadcast_to(soup.coords.max(axis=(0, 1)), (n, 3)),
    )
    assert len(candidate_pairs(whole)) == n * (n - 1) // 2
    return self_intersections(soup, whole)


@pytest.fixture(scope="session")
def corpus_meshes():
    """Label -> (spec, complex) for the whole generator corpus."""
    out = {}
    for spec in standard_corpus():
        out[spec.label] = (spec, generate(spec))
    return out


@pytest.fixture(scope="session")
def corpus_halfedge(corpus_meshes):
    """Label -> validated half-edge mesh; the corpus is all closed manifolds."""
    return {
        label: check_closed_manifold(cx) for label, (spec, cx) in corpus_meshes.items()
    }


def assert_angle_close(a: float, b: float, tol: float = 1e-12) -> None:
    assert abs(a - b) <= tol, f"angles differ: {a} vs {b}"


TWO_PI = 2.0 * math.pi
