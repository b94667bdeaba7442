"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flatcheck import (
    CellComplex,
    GeneratorSpec,
    IntersectionReport,
    PairContact,
    build_complex,
    check_closed_manifold,
    generate,
    standard_corpus,
    triangle_soup,
    triangulate_faces,
)
from flatcheck import intersect


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
    """Referee scan: all n(n-1)/2 pairs, with no box test and no float
    pass, each classified by the contact kernel and then tested against
    the cells its source faces share."""
    grid, _ = intersect._grid(soup.points)
    corners, faces = soup.corners.tolist(), soup.source_face.tolist()
    tris = [intersect._triangle(grid[a], grid[b], grid[c]) for a, b, c in corners]
    pairs, overlaps = [], []
    n = len(soup)
    for i in range(n):
        for j in range(i + 1, n):
            found = intersect._contact(tris[i], tris[j])
            if found is None:
                continue
            cells = intersect._shared_cells(soup, grid, corners[i], corners[j],
                                            faces[i], faces[j])
            if cells is None:
                pairs.append(PairContact(i, j, found[0]))
            elif intersect._beyond_allowed(*found, *cells):
                overlaps.append(PairContact(i, j, found[0]))
    return IntersectionReport(tuple(pairs), tuple(overlaps), n * (n - 1) // 2)


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
