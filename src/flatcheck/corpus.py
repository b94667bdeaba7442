"""Built-in test surfaces with analytically known properties.

Positive controls (tetrahedron, cube, icosahedron, round torus) have
honest embedded geometry.  The abstract quotient surfaces carry
degenerate coordinates chosen for combinatorial and topological checks
only: grid_klein is drawn on a flat rectangle (its faces overlap in the
plane), folded_flat_torus is the arc-length-preserving planar zigzag
image of the torus grid (flat but not locally injective on fold lines),
and doubled_cone is a doubled flat disk whose apex link winds
total_angle / 2pi times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .mesh import CellComplex, MeshError, build_complex


class GeneratorError(MeshError):
    """Invalid generator parameters."""


# Largest surface a generator builds: 2^22 faces, 128 times the 128^2 grid
# torus, so a mistyped size is refused before any array is allocated.
_MAX_FACES = 1 << 22


def _check_face_count(kind: str, n_faces: int) -> None:
    if n_faces > _MAX_FACES:
        raise GeneratorError(f"{kind} would have {n_faces} faces, more than {_MAX_FACES}")


def _check_grid(kind: str, m: int, n: int) -> None:
    if m < 3 or n < 3:
        # smaller quotients duplicate edges, which the manifold check rejects
        raise GeneratorError(f"{kind} needs m, n >= 3, got {m}x{n}")
    _check_face_count(kind, 2 * m * n)


@dataclass(frozen=True)
class GeneratorSpec:
    """Which surface to build and with what parameters."""

    kind: str
    m: int | None = None
    n: int | None = None
    folds: int | None = None
    total_angle: float | None = None
    segments: int | None = None

    @property
    def label(self) -> str:
        parts = [self.kind]
        if self.m is not None:
            parts.append(f"{self.m}x{self.n}")
        if self.folds is not None:
            parts.append(f"folds{self.folds}")
        if self.total_angle is not None:
            parts.append(f"angle{self.total_angle:g}")
        if self.segments is not None:
            parts.append(f"segments{self.segments}")
        return "_".join(parts)


def generate(spec: GeneratorSpec) -> CellComplex:
    """Build the surface a GeneratorSpec describes.  A field its kind does
    not take must be None."""
    if spec.kind not in GENERATORS:
        raise GeneratorError(f"unknown generator kind {spec.kind!r}")
    build, params, required = GENERATORS[spec.kind]
    takes = {name for name, _ in params}
    for f in fields(GeneratorSpec)[1:]:
        if f.name not in takes and getattr(spec, f.name) is not None:
            raise GeneratorError(f"{spec.kind} takes no {f.name}")
    values = [getattr(spec, name) for name, _ in params]
    if None in values[:required]:
        raise GeneratorError(f"{spec.kind} needs {', '.join(n for n, _ in params[:required])}")
    return build(*values)


def tetrahedron() -> CellComplex:
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64)
    f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return build_complex(v, f)


def cube() -> CellComplex:
    # vertex id = 4x + 2y + z over the unit cube corners
    v = np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.float64
    )
    f = [
        (0, 1, 3, 2), (4, 6, 7, 5),
        (0, 4, 5, 1), (2, 3, 7, 6),
        (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    return build_complex(v, f)


def icosahedron() -> CellComplex:
    p = (1.0 + math.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
        [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
        [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1],
    ], dtype=np.float64)
    f = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return build_complex(v, f)


def _grid_triangles(m: int, n: int, cls) -> list[tuple[int, int, int]]:
    """Both diagonal triangles of every grid quad, corners via cls(i, j)."""
    tris = []
    for j in range(n):
        for i in range(m):
            c00 = cls(i, j)
            c10 = cls(i + 1, j)
            c11 = cls(i + 1, j + 1)
            c01 = cls(i, j + 1)
            tris.append((c00, c10, c11))
            tris.append((c00, c11, c01))
    return tris


def grid_torus(mn: tuple[int, int]) -> CellComplex:
    """Triangulated m x n torus grid on the round embedded torus of radii
    2 and 1."""
    m, n = mn
    _check_grid("grid_torus", m, n)
    v = np.zeros((m * n, 3), dtype=np.float64)
    for j in range(n):
        phi = 2.0 * math.pi * j / n
        ring = 2.0 + math.cos(phi)
        for i in range(m):
            theta = 2.0 * math.pi * i / m
            v[j * m + i] = (ring * math.cos(theta), ring * math.sin(theta), math.sin(phi))

    def cls(i: int, j: int) -> int:
        return (j % n) * m + (i % m)

    return build_complex(v, _grid_triangles(m, n, cls))


def _klein_class(m: int, n: int, i: int, j: int) -> int:
    # vertical wrap reverses the horizontal direction
    if j >= n:
        i, j = (m - i) % m, j - n
    return j * m + (i % m)


def grid_klein(mn: tuple[int, int]) -> CellComplex:
    """Triangulated m x n Klein-bottle grid quotient.

    Coordinates place class (i, j) at (i, j, 0); the wrapped faces overlap
    the others in the plane, so only combinatorial and topological claims
    are meaningful for this surface.
    """
    m, n = mn
    _check_grid("grid_klein", m, n)
    v = np.array([[i, j, 0.0] for j in range(n) for i in range(m)], dtype=np.float64)

    def cls(i: int, j: int) -> int:
        return _klein_class(m, n, i, j)

    return build_complex(v, _grid_triangles(m, n, cls))


def _zigzag(x: int, runs: int, run_length: int) -> int:
    """Unit-slope triangle wave: runs alternating monotone runs per period."""
    k, r = divmod(x % (runs * run_length), run_length)
    return r if k % 2 == 0 else run_length - r


def folded_flat_torus(m: int, n: int, folds: int) -> CellComplex:
    """The torus grid mapped through coordinate zigzags (x, y) -> (f(x), g(y), 0).

    Both zigzags have unit slope, so every edge keeps its length and every
    angle its size: all faces stay planar and every vertex keeps angle
    defect zero.  On the fold lines the map doubles back, so vertex links
    there are not embedded.
    """
    if folds < 2 or folds % 2 != 0:
        raise GeneratorError(f"folded_flat_torus folds must be even and >= 2, got {folds}")
    if m % folds != 0 or n % folds != 0:
        raise GeneratorError(
            f"folded_flat_torus folds must divide both grid sizes, got {m}x{n} with {folds}")
    _check_grid("folded_flat_torus", m, n)
    lm, ln = m // folds, n // folds
    v = np.array(
        [[_zigzag(i, folds, lm), _zigzag(j, folds, ln), 0.0] for j in range(n) for i in range(m)],
        dtype=np.float64,
    )

    def cls(i: int, j: int) -> int:
        return (j % n) * m + (i % m)

    return build_complex(v, _grid_triangles(m, n, cls))


def doubled_cone(total_angle: float, segments: int | None = None) -> CellComplex:
    """Double of a flat disk of the given total apex angle, flattened.

    Two cone sheets share the rim; both apexes sit at the origin and the
    rim winds total_angle / 2pi times around the unit circle, so the
    sheets coincide in the plane.  The apex link winds the same number of
    times: embedded for total_angle 2pi, not embedded for 4pi.
    """
    if not 0.0 < total_angle < math.inf:
        raise GeneratorError(
            f"doubled_cone total_angle must be positive and finite, got {total_angle}")
    quarter_turns = 2.0 * total_angle / math.pi
    if quarter_turns == math.inf:
        raise GeneratorError(f"doubled_cone total_angle {total_angle:g} is too large")
    k = segments if segments is not None else max(3, math.ceil(quarter_turns))
    _check_face_count("doubled_cone", 2 * k)
    if k < 3:
        raise GeneratorError(f"doubled_cone segments must be >= 3, got {k}")
    if total_angle / k >= math.pi:
        raise GeneratorError(
            f"doubled_cone segments={k} gives corner angle {total_angle / k:.3f} >= pi;"
            " increase segments"
        )
    v = np.zeros((k + 2, 3), dtype=np.float64)
    for t in range(k):
        a = total_angle * t / k
        v[2 + t] = (math.cos(a), math.sin(a), 0.0)
    faces = []
    for t in range(k):
        rim0, rim1 = 2 + t, 2 + (t + 1) % k
        faces.append((0, rim0, rim1))
        faces.append((1, rim1, rim0))
    return build_complex(v, faces)


_GRID = (("m", int), ("n", int))

# Every kind: its builder, the GeneratorSpec fields it is called with, in
# order, each with the type a command-line value for it parses to, and how
# many of them are required; the rest may be None
GENERATORS = {
    "tetrahedron": (tetrahedron, (), 0),
    "cube": (cube, (), 0),
    "icosahedron": (icosahedron, (), 0),
    "grid_torus": (lambda m, n: grid_torus((m, n)), _GRID, 2),
    "grid_klein": (lambda m, n: grid_klein((m, n)), _GRID, 2),
    "folded_flat_torus": (folded_flat_torus, _GRID + (("folds", int),), 3),
    "doubled_cone": (doubled_cone, (("total_angle", float), ("segments", int)), 1),
}


def standard_corpus() -> tuple[GeneratorSpec, ...]:
    """The fixed family property tests sweep over."""
    return (
        GeneratorSpec("tetrahedron"),
        GeneratorSpec("cube"),
        GeneratorSpec("icosahedron"),
        GeneratorSpec("grid_torus", m=3, n=3),
        GeneratorSpec("grid_torus", m=4, n=5),
        GeneratorSpec("grid_klein", m=3, n=3),
        GeneratorSpec("grid_klein", m=5, n=4),
        GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
        GeneratorSpec("doubled_cone", total_angle=2.0 * math.pi),
        GeneratorSpec("doubled_cone", total_angle=4.0 * math.pi),
    )
