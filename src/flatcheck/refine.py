"""Refinement of polygonal complexes: triangulation and subdivision.

Both operations return a Refinement that names the source face of each
derived triangle and keeps the source's vertices first, in order, so that
downstream checks can cross-reference results against the original cells
and so invariance properties (Euler characteristic, homology, area,
defects at original vertices) are testable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flatness import FaceTable, ToleranceProfile, face_geometries
from .mesh import (CellComplex, InvalidComplexError, MeshError, _frozen, _validate_faces,
                   complex_from_flat, edge_table)
from .predicates import orient2d


class TriangulationError(MeshError):
    """A face admits no valid triangulation at all."""


@dataclass(frozen=True)
class FallbackRecord:
    """A source face triangulated by the fan fallback instead of ear clipping."""

    face: int
    reason: str      # "planarity" | "not-simple" | "degenerate-fit"


@dataclass(frozen=True, eq=False)
class Refinement:
    """A derived triangulated complex plus provenance back to its source.

    The derived complex starts with the source's vertices, in order.  A
    source whose faces are all triangles is its own triangulation:
    triangulate_faces returns it as derived.
    """

    source: CellComplex
    derived: CellComplex
    triangle_sources: np.ndarray    # int64, read-only: each triangle's source face
    fallbacks: tuple[FallbackRecord, ...] = ()


def _ear_clip(face: Sequence[int], pts2d: Sequence[Sequence[float]],
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


def _fans(ids: np.ndarray) -> np.ndarray:
    """Fan triangles from each face's lowest-index corner, preserving
    orientation, for the faces with corner ids (F, k), as (F, k - 2, 3)
    rows."""
    k = ids.shape[1]
    low = ids.argmin(axis=1)
    rot = np.take_along_axis(ids, (low[:, None] + np.arange(k)) % k, axis=1)
    return np.stack((np.repeat(rot[:, :1], k - 2, axis=1), rot[:, 1:-1], rot[:, 2:]), axis=2)


def _convex_ears(ids: np.ndarray) -> np.ndarray:
    """_ear_clip's triangles of strictly convex faces with corner ids
    (F, k), as (F, k - 2, 3) rows.

    Every corner of a strictly convex polygon is an ear, and clipping one
    leaves a strictly convex polygon.  So _ear_clip clips the corner of
    lowest id, k - 3 times, each time between its nearest neighbours
    either way round that are still there, which are those of higher id,
    and ends on the last three corners in face order.
    """
    k = ids.shape[1]
    after, before = np.zeros(ids.shape, dtype=np.intp), np.zeros(ids.shape, dtype=np.intp)
    for d in range(k - 1, 0, -1):       # the nearest higher corner is written last
        after = np.where(np.roll(ids, -d, axis=1) > ids, d, after)
        before = np.where(np.roll(ids, d, axis=1) > ids, d, before)
    order = np.argsort(ids, axis=1)
    rows = np.arange(len(ids))[:, None]
    tips = order[:, :k - 3]
    ears = np.stack((ids[rows, (tips - before[rows, tips]) % k], ids[rows, tips],
                     ids[rows, (tips + after[rows, tips]) % k]), axis=2)
    last = ids[rows, np.sort(order[:, k - 3:], axis=1)]
    return np.concatenate((ears, last[:, None]), axis=1)


# why a face of degree > 3 is fanned, by code; 0 is ear-clipped
_REASONS = (None, "degenerate-fit", "planarity", "not-simple")


def triangulate_faces(complex: CellComplex, tol: ToleranceProfile | None = None,
                      geos: FaceTable | None = None) -> Refinement:
    """Triangulate every face without introducing new vertices.

    Triangles pass through unchanged, and a complex of triangles only is
    its own derived complex.  Larger faces are ear-clipped in
    their fitted plane when they are planar (within tol) and simple there;
    otherwise the face falls back to the fan from its lowest-index corner
    and the substitution is recorded in `fallbacks`.  An n-gon always
    yields n-2 triangles.  TriangulationError is raised when a face cannot
    be triangulated at all (no ear exists even though the polygon passed
    the simplicity test) and when two faces yield the same triangle, which
    the triangles' validation as faces of a complex finds.

    Faces of one degree are triangulated as arrays: fans, and the ears of
    faces whose every turn is positive, which _convex_ears gives in closed
    form.  Only a face with a reflex or straight corner runs _ear_clip.

    geos is face_geometries(complex), the table build_certificate shares
    with flatness_report; it is built here when not given and some face
    is not a triangle.
    """
    tol = tol or ToleranceProfile()
    offsets = complex.offsets
    degree = np.diff(offsets)
    sources = _frozen(np.repeat(np.arange(complex.n_faces), degree - 2))
    if not (degree > 3).any():      # triangles pass through without a table
        return Refinement(source=complex, derived=complex, triangle_sources=sources)
    table = face_geometries(complex) if geos is None else geos
    reason = np.zeros(complex.n_faces, dtype=np.int8)
    reason[~table.simple] = 3
    reason[table.rel_deviation > tol.planarity_tol] = 2
    reason[[face for face, _ in table.degenerate]] = 1
    reason[degree == 3] = 0
    clip = (degree > 3) & (reason == 0)
    convex = clip & (np.minimum.reduceat(table.turns, offsets[:-1]) > 0)
    first = np.concatenate(([0], np.cumsum(degree - 2)))    # each face's first triangle
    triangles = np.empty((first[-1], 3), dtype=np.int64)
    for k in np.flatnonzero(np.bincount(degree)).tolist():
        faces = np.flatnonzero(degree == k)
        ids = complex.corners[offsets[faces, None] + np.arange(k)]
        if k == 3:
            triangles[first[faces]] = ids
            continue
        rows = first[faces, None] + np.arange(k - 2)
        easy, fan = convex[faces], reason[faces] > 0
        triangles[rows[easy]] = _convex_ears(ids[easy])
        triangles[rows[fan]] = _fans(ids[fan])
    for fi in np.flatnonzero(clip & ~convex).tolist():
        lo, hi = offsets[fi:fi + 2].tolist()
        ears = _ear_clip(complex.corners[lo:hi].tolist(), table.points2d[lo:hi].tolist(),
                         float(table.orientation[fi]))
        if ears is None:
            raise TriangulationError(
                f"face {fi} is simple and planar but admits no ear "
                "(collinear degeneracy)"
            )
        triangles[first[fi]:first[fi + 1]] = ears

    _reject_repeats(triangles, sources)
    fanned = np.flatnonzero(reason)
    return Refinement(
        source=complex,
        derived=CellComplex(complex.vertices, triangles.ravel(),
                            np.arange(0, triangles.size + 1, 3)),
        triangle_sources=sources,
        fallbacks=tuple(map(FallbackRecord, fanned.tolist(),
                            map(_REASONS.__getitem__, reason[fanned].tolist()))),
    )


def _reject_repeats(triangles: np.ndarray, sources: np.ndarray) -> None:
    """Raise TriangulationError for the first triangle, in order, that
    repeats an earlier one up to rotation and reversal, naming the source
    faces of both.

    The triangles reuse the validated vertices of distinct-vertex faces,
    so a repeat is the only way they can fail mesh's validation as the
    faces of a complex, which names the first face that repeats an
    earlier one.  The first triangle of its run is the first with the
    same three corners.
    """
    corners = triangles.ravel()
    try:
        _validate_faces(corners, np.full(len(triangles), 3), np.arange(0, corners.size + 1, 3),
                        int(corners.max()) + 1, corners, 0)
    except InvalidComplexError as error:
        later = triangles[error.face]
        first = np.argmax(np.isin(triangles, later).all(axis=1))
        raise TriangulationError(
            f"faces {sources[first]} and {sources[error.face]} both yield triangle "
            f"{tuple(later.tolist())} (identical up to rotation/reversal)"
        ) from None


def barycentric_subdivision(complex: CellComplex) -> Refinement:
    """Barycentric subdivision of a triangulated complex.

    Every triangle splits into six around its centroid and edge midpoints
    (one derived triangle per flag vertex < edge < face), so the derived
    complex has V + E + F vertices and 6F faces: the source vertices, then
    vertex V + e at the midpoint of edge_table(complex).ends[e], then
    vertex V + E + f at the centroid of face f.
    Orientation follows the source triangle.  Raises if any face is not a
    triangle.
    Midpoints and centroids are taken on complex.unit_scaled(), where no
    sum overflows, and scaled back; the source's vertices are copied.
    """
    degree = np.diff(complex.offsets)
    odd = np.flatnonzero(degree != 3)
    if odd.size:
        fi = int(odd[0])
        raise TriangulationError(
            f"barycentric subdivision needs a triangulated complex; face {fi} has degree {degree[fi]}"
        )
    unit, e = complex.unit_scaled()
    pts = unit.vertices
    t = edge_table(complex)
    tri = complex.corners.reshape(-1, 3)
    nv, ne, nf = complex.n_vertices, len(t.ends), len(tri)
    u, v = t.ends.T
    made = np.concatenate([0.5 * (pts[u] + pts[v]), pts[tri].mean(axis=1)])
    coords = np.concatenate([complex.vertices, np.ldexp(made, e)])
    a, b, c = tri.T
    mab, mbc, mca = (nv + t.edge_of).reshape(-1, 3).T
    g = np.arange(nv + ne, nv + ne + nf)
    triangles = np.stack([a, mab, g, mab, b, g, b, mbc, g, mbc, c, g, c, mca, g, mca, a, g], axis=1)
    return Refinement(
        source=complex,
        derived=complex_from_flat(coords, triangles.ravel(), np.full(6 * nf, 3)),
        triangle_sources=_frozen(np.repeat(np.arange(nf), 6)),
    )
