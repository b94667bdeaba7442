"""Refinement of polygonal complexes: triangulation and subdivision.

Both operations return a Refinement that keeps full provenance (which
source face produced each triangle, where each derived vertex comes
from), so that downstream checks can cross-reference results against the
original cells and so invariance properties (Euler characteristic,
homology, area, defects at original vertices) are testable.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .flatness import DegenerateFaceError, ToleranceProfile, face_geometries
from .mesh import CellComplex, MeshError, build_complex
from .predicates import orient2d


class TriangulationError(MeshError):
    """A face admits no valid triangulation at all."""


@dataclass(frozen=True)
class SourceVertex:
    """Derived vertex that is an original vertex."""
    index: int


@dataclass(frozen=True)
class EdgeMidpoint:
    """Derived vertex at the midpoint of a source edge (u < v)."""
    u: int
    v: int


@dataclass(frozen=True)
class FaceCentroid:
    """Derived vertex at the centroid of a source face."""
    face: int


VertexOrigin = SourceVertex | EdgeMidpoint | FaceCentroid


@dataclass(frozen=True)
class FallbackRecord:
    """A source face triangulated by the fan fallback instead of ear clipping."""

    face: int
    reason: str      # "planarity" | "not-simple" | "degenerate-fit"


@dataclass(frozen=True)
class Refinement:
    """A derived triangulated complex plus provenance back to its source."""

    source: CellComplex
    derived: CellComplex
    triangle_sources: tuple[int, ...]
    vertex_origins: tuple[VertexOrigin, ...]
    fallbacks: tuple[FallbackRecord, ...] = ()


def _fan_order(face: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Fan triangles from the lowest-index corner, preserving orientation."""
    k = len(face)
    m = face.index(min(face))
    rot = face[m:] + face[:m]
    return [(rot[0], rot[i], rot[i + 1]) for i in range(1, k - 1)]


def _ear_clip(face: tuple[int, ...], pts2d: Sequence[Sequence[float]],
              orientation: float) -> list[tuple[int, int, int]] | None:
    """Ear-clipping triangulation of a simple polygon in the plane.

    Among all valid ears the one whose tip has the lowest original vertex
    index is clipped, which makes the triangulation deterministic.  Returns
    None when no ear can be found (degenerate collinear configurations).
    """
    idx = list(range(len(face)))
    triangles: list[tuple[int, int, int]] = []
    while len(idx) > 3:
        best = None
        for pos in range(len(idx)):
            prev = idx[(pos - 1) % len(idx)]
            cur = idx[pos]
            nxt = idx[(pos + 1) % len(idx)]
            a, b, c = pts2d[prev], pts2d[cur], pts2d[nxt]
            if orient2d(a, b, c) * orientation <= 0.0:
                continue   # reflex or straight corner: not an ear tip
            blocked = False
            for other in idx:
                if other in (prev, cur, nxt):
                    continue
                if _point_in_triangle(pts2d[other], a, b, c):
                    blocked = True
                    break
            if blocked:
                continue
            if best is None or face[cur] < face[best[1]]:
                best = (prev, cur, nxt, pos)
        if best is None:
            return None
        prev, cur, nxt, pos = best
        triangles.append((face[prev], face[cur], face[nxt]))
        idx.pop(pos)
    triangles.append((face[idx[0]], face[idx[1]], face[idx[2]]))
    return triangles


def _point_in_triangle(p, a, b, c) -> bool:
    """Inclusive point-in-triangle test; boundary contact blocks an ear."""
    d1, d2, d3 = orient2d(a, b, p), orient2d(b, c, p), orient2d(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def triangulate_faces(complex: CellComplex, tol: ToleranceProfile | None = None,
                      geos=None) -> Refinement:
    """Triangulate every face without introducing new vertices.

    Triangles pass through unchanged.  Larger faces are ear-clipped in
    their fitted plane when they are planar (within tol) and simple there;
    otherwise the face falls back to the fan from its lowest-index corner
    and the substitution is recorded in `fallbacks`.  An n-gon always
    yields n-2 triangles.  TriangulationError is raised when a face cannot
    be triangulated at all (no ear exists even though the polygon passed
    the simplicity test) and when two faces yield the same triangle.

    geos maps every face of degree > 3 to its entry of
    face_geometries(complex); it is built here when not given.
    """
    tol = tol or ToleranceProfile()
    if geos is None:
        polygons = [fi for fi, face in enumerate(complex.faces) if len(face) > 3]
        geos = dict(zip(polygons, face_geometries(complex, polygons)))
    triangles: list[tuple[int, int, int]] = []
    sources: list[int] = []
    fallbacks: list[FallbackRecord] = []

    for fi, face in enumerate(complex.faces):
        if len(face) == 3:
            triangles.append(face)
            sources.append(fi)
            continue
        geo = geos[fi]
        if isinstance(geo, DegenerateFaceError):
            reason = "degenerate-fit"
        elif geo.fit.rel_deviation > tol.planarity_tol:
            reason = "planarity"
        elif not geo.simple:
            reason = "not-simple"
        else:
            reason = None
        if reason is None:
            ears = _ear_clip(face, geo.points2d.tolist(), geo.orientation)
            if ears is None:
                raise TriangulationError(
                    f"face {fi} is simple and planar but admits no ear "
                    "(collinear degeneracy)"
                )
            triangles.extend(ears)
            sources.extend([fi] * len(ears))
        else:
            fans = _fan_order(face)
            triangles.extend(fans)
            sources.extend([fi] * len(fans))
            fallbacks.append(FallbackRecord(face=fi, reason=reason))

    # the triangles reuse the validated vertices of distinct-vertex faces,
    # so a repeated triangle is the only way the derived complex can fail
    corners = np.fromiter(chain.from_iterable(triangles), np.int64, 3 * len(triangles))
    _reject_repeats(corners.reshape(-1, 3), sources)
    return Refinement(
        source=complex,
        derived=CellComplex(complex.vertices, tuple(triangles), corners,
                            np.arange(0, corners.size + 1, 3)),
        triangle_sources=tuple(sources),
        vertex_origins=tuple(SourceVertex(i) for i in range(complex.n_vertices)),
        fallbacks=tuple(fallbacks),
    )


def _reject_repeats(corners: np.ndarray, sources: Sequence[int]) -> None:
    """Raise TriangulationError for the first triangle, in order, that
    repeats an earlier one up to rotation and reversal, naming the source
    faces of both.

    Two triangles are equal up to rotation and reversal iff their sorted
    corners are.  A stable sort of those rows puts each run of equal rows
    in triangle order, so the first repeat is the least second row of a
    run, and the row before it is the run's first.
    """
    key = np.sort(corners, axis=1)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    repeat = np.flatnonzero((key[1:] == key[:-1]).all(axis=1))
    if repeat.size:
        at = repeat[np.argmin(order[repeat + 1])]
        first, later = order[at], order[at + 1]
        raise TriangulationError(
            f"faces {sources[first]} and {sources[later]} both yield triangle "
            f"{tuple(corners[later].tolist())} (identical up to rotation/reversal)"
        )


def barycentric_subdivision(complex: CellComplex) -> Refinement:
    """Barycentric subdivision of a triangulated complex.

    Every triangle splits into six around its centroid and edge midpoints
    (one derived triangle per flag vertex < edge < face), so the derived
    complex has V + E + F vertices and 6F faces.  Orientation follows the
    source triangle.  Raises if any face is not a triangle.
    """
    for fi, face in enumerate(complex.faces):
        if len(face) != 3:
            raise TriangulationError(
                f"barycentric subdivision needs a triangulated complex; face {fi} has degree {len(face)}"
            )
    pts = complex.vertices
    origins: list[VertexOrigin] = [SourceVertex(i) for i in range(complex.n_vertices)]
    coords: list[np.ndarray] = [pts[i] for i in range(complex.n_vertices)]

    edge_mid: dict[tuple[int, int], int] = {}
    edges = sorted({
        tuple(sorted((f[i], f[(i + 1) % 3]))) for f in complex.faces for i in range(3)
    })
    for (u, v) in edges:
        edge_mid[(u, v)] = len(coords)
        coords.append(0.5 * (pts[u] + pts[v]))
        origins.append(EdgeMidpoint(u=u, v=v))

    centroid_of: list[int] = []
    for fi, face in enumerate(complex.faces):
        centroid_of.append(len(coords))
        coords.append(pts[list(face)].mean(axis=0))
        origins.append(FaceCentroid(face=fi))

    triangles: list[tuple[int, int, int]] = []
    sources: list[int] = []
    for fi, (a, b, c) in enumerate(complex.faces):
        g = centroid_of[fi]
        mab = edge_mid[(a, b) if a < b else (b, a)]
        mbc = edge_mid[(b, c) if b < c else (c, b)]
        mca = edge_mid[(c, a) if c < a else (a, c)]
        for tri in ((a, mab, g), (mab, b, g), (b, mbc, g), (mbc, c, g), (c, mca, g), (mca, a, g)):
            triangles.append(tri)
            sources.append(fi)

    derived = build_complex(np.vstack(coords), triangles)
    return Refinement(
        source=complex,
        derived=derived,
        triangle_sources=tuple(sources),
        vertex_origins=tuple(origins),
    )
