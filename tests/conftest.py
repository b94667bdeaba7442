"""Shared fixtures, small helpers and the slow referees the fast paths are checked against."""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import gcd
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from flatcheck import (
    CellComplex,
    ContactRows,
    FormatError,
    GeneratorSpec,
    IntersectionReport,
    InvalidComplexError,
    LoadedMesh,
    ManifoldDefect,
    PairContact,
    Refinement,
    TriangulationError,
    build_complex,
    check_closed_manifold,
    generate,
    standard_corpus,
    triangle_soup,
    triangulate_faces,
)
from flatcheck import flatness, intersect
from flatcheck.flatness import (_PARALLEL_GUARD, DegenerateFaceError, FaceTable, LinkArc,
                                SphericalLink, Vec3, _any_perpendicular, _divided, _norm)
from flatcheck.mesh import HalfEdgeMesh, complex_from_flat, edge_table
from flatcheck.predicates import (NO_CONTACT, OVERLAP, TOUCH_POINT, TOUCH_SEGMENT, cross, dot,
                                  sub, to_grid)


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


def face_area(complex: CellComplex, f: int) -> float:
    """Area of face f over the fan from its lowest-index corner: the
    polygon's area when the fan covers it, the fallback's otherwise."""
    face = complex.faces[f]
    low = face.index(min(face))
    p = complex.vertices[list(face[low:] + face[:low])]
    return 0.5 * float(np.linalg.norm(np.cross(p[1:-1] - p[0], p[2:] - p[0]), axis=1).sum())


def total_area(complex: CellComplex) -> float:
    return math.fsum(face_area(complex, f) for f in range(complex.n_faces))


def fold_vertex_ids(m: int, n: int, folds: int) -> frozenset[int]:
    """Vertices of folded_flat_torus(m, n, folds) lying on a fold line."""
    lm, ln = m // folds, n // folds
    return frozenset(
        j * m + i for j in range(n) for i in range(m)
        if i % lm == 0 or j % ln == 0
    )


def vertex_link(mesh, v):
    """The spherical link flatness_report builds for vertex v, at unit
    scale, or the witness of why it is undefined.  A link_tol far above
    the azimuth certificate's leaves every vertex to the sub-arc test, so
    the star pass builds every link."""
    return flatness._vertex_stars(mesh, flatness.face_geometries(mesh.complex), 1.0)[1][v]


# ---------------------------------------------------------------------------
# Vertex links built one at a time on float 3-tuples, the referee of
# flatness._vertex_stars

class ReferenceStars(NamedTuple):
    """A mesh's vertex stars as plain lists: the corners around vertex v
    are entries offsets[v] .. offsets[v + 1] - 1 of the other three."""

    offsets: list[int]
    entries: list[int]      # the neighbor crossed to enter the corner
    corners: list[int]      # the corner, an index into complex.corners
    faces: list[int]        # the corner's face


def referee_stars(mesh: HalfEdgeMesh) -> ReferenceStars:
    return ReferenceStars(mesh.star_offsets.tolist(), mesh.star_entries.tolist(),
                          mesh.star_corners.tolist(), mesh.face_of[mesh.star_corners].tolist())


def referee_link(mesh: HalfEdgeMesh, vertex: int, table: FaceTable,
                 stars: ReferenceStars) -> SphericalLink:
    """Build the link of a vertex as a closed spherical polygon.

    Link vertices are the unit directions of the incident edges in star
    order; each face corner contributes the great-circle arc between its
    two edge directions, of length equal to its interior angle in the
    face table.  Straight corners (angle pi) are oriented using the face's
    in-plane frame, since the two directions alone leave the great
    semicircle ambiguous.  An undefined link raises DegenerateFaceError.
    flatness_report builds links at unit scale, so a comparison passes
    the mesh of complex.unit_scaled().
    """
    start, stop = stars.offsets[vertex], stars.offsets[vertex + 1]
    neighbors = stars.entries[start:stop]
    count = stop - start
    pos_v, *ends = mesh.complex.vertices[[vertex, *neighbors]].tolist()

    directions: list[Vec3] = []
    for u, end in zip(neighbors, ends):
        d = sub(end, pos_v)
        norm = _norm(d)
        if norm == 0.0:
            raise DegenerateFaceError(
                f"edge ({vertex}, {u}) has zero length; link is undefined"
            )
        directions.append(_divided(d, norm))

    arcs: list[LinkArc] = []
    for k in range(count):
        c, f = stars.corners[start + k], stars.faces[start + k]
        theta = float(table.angles[c])
        d_start = directions[k]
        d_end = directions[(k + 1) % count]
        if theta >= math.pi - _PARALLEL_GUARD and theta <= math.pi + _PARALLEL_GUARD:
            # Straight corner: orient the semicircle through the face's
            # interior.  The interior side of the (projected) straight edge
            # is the left side for positive orientation.
            first, stop = mesh.complex.offsets[f:f + 2].tolist()
            (x0, y0), (x1, y1) = table.points2d[[c, c + 1 if c + 1 < stop else first]].tolist()
            ex, ey = x1 - x0, y1 - y0
            nrm = math.hypot(ex, ey)
            if nrm == 0.0:
                raise DegenerateFaceError("straight corner with zero-length projected edge")
            orientation = float(table.orientation[f])
            wx, wy = orientation * -(ey / nrm), orientation * (ex / nrm)
            # The interior normal must point away from the direction we
            # start at; which of +-exit matches d_start is irrelevant for
            # the midpoint construction below.
            b0, b1 = table.basis[f].tolist()
            w3 = (wx * b0[0] + wy * b1[0], wx * b0[1] + wy * b1[1], wx * b0[2] + wy * b1[2])
            along = dot(w3, d_start)
            w3 = sub(w3, (d_start[0] * along, d_start[1] * along, d_start[2] * along))
            nw = _norm(w3)
            if nw <= _PARALLEL_GUARD:
                raise DegenerateFaceError(
                    f"face {f}: cannot orient straight corner {c - first} from its plane"
                )
            axis = cross(d_start, _divided(w3, nw))
            axis = _divided(axis, _norm(axis))
        else:
            normal = cross(d_start, d_end)
            nc = _norm(normal)
            if nc <= _PARALLEL_GUARD:
                # Directions (anti)parallel away from a straight corner:
                # a zero-angle spike; callers flag it via the embedding test.
                axis = tuple(_any_perpendicular(np.array([d_start]))[0].tolist())
            else:
                axis = _divided(normal, nc)
            if theta > math.pi:
                axis = (-axis[0], -axis[1], -axis[2])
        arcs.append(LinkArc(start=d_start, end=d_end, axis=axis, length=theta))

    return SphericalLink(
        vertex=vertex,
        directions=tuple(directions),
        arcs=tuple(arcs),
    )


def _in_sector(x, p, q, n) -> bool:
    """Whether x, in the plane of the sector from p to q (narrower than
    pi, normal n = p x q), lies in it, boundary rays included."""
    return dot(cross(p, x), n) >= 0 and dot(cross(x, q), n) >= 0


def exact_link_contact(mesh: HalfEdgeMesh, vertex: int) -> bool:
    """Whether two arcs of a vertex link share a direction, decided in
    integers, with no tolerance.  Triangle stars only.

    The arc of face (v, a, b) is the cone of directions s (a - v) +
    t (b - v), s, t >= 0, a sector narrower than pi.  Two arcs share a
    direction iff their cones meet beyond v.  Two cones on distinct
    planes can meet only on the planes' common line, which is w = nA x nB
    for the normals n = (a - v) x (b - v); cones on one plane meet iff
    one holds a boundary ray of the other.  Adjacent arcs share the ray
    of their common edge; off it they meet only on one plane, with their
    other rays on the same side of it.  Every sign is that of an integer
    triple product on predicates.to_grid coordinates.
    """
    start, stop = mesh.star_offsets[vertex:vertex + 2].tolist()
    corners = mesh.star_corners[start:stop]
    if (np.diff(mesh.complex.offsets)[mesh.face_of[corners]] != 3).any():
        raise ValueError(f"vertex {vertex}: the star holds a face that is not a triangle")
    ids = [vertex, *mesh.star_entries[start:stop].tolist()]
    grid, _ = to_grid(mesh.complex.vertices[ids].ravel().tolist())
    pts = [tuple(grid[3 * k:3 * k + 3]) for k in range(len(ids))]
    rays = [sub(p, pts[0]) for p in pts[1:]]
    count = len(rays)
    cones = [(rays[k], rays[(k + 1) % count], cross(rays[k], rays[(k + 1) % count]))
             for k in range(count)]
    if any(n == (0, 0, 0) for *_, n in cones):
        raise ValueError(f"vertex {vertex}: a corner of its star is degenerate")
    for i in range(count):
        for j in range(i + 1, count):
            (p0, p1, na), (q0, q1, nb) = cones[i], cones[j]
            w = cross(na, nb)
            if j == i + 1 or (i, j) == (0, count - 1):
                # adjacent: r is the shared ray, b and c the other two
                r, b, c = (p1, p0, q1) if j == i + 1 else (p0, p1, q0)
                if w == (0, 0, 0) and dot(cross(r, b), cross(r, c)) > 0:
                    return True
            elif w == (0, 0, 0):
                if (any(_in_sector(x, p0, p1, na) for x in (q0, q1))
                        or any(_in_sector(x, q0, q1, nb) for x in (p0, p1))):
                    return True
            elif any(_in_sector(x, p0, p1, na) and _in_sector(x, q0, q1, nb)
                     for x in (w, (-w[0], -w[1], -w[2]))):
                return True
    return False


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
    corners = soup.corners.tolist()
    tris = [intersect._triangle(grid[a], grid[b], grid[c]) for a, b, c in corners]
    pairs, overlaps = [], []
    n = len(soup)
    rows = np.column_stack(np.triu_indices(n, 1))
    for (i, j), run in zip(rows.tolist(), intersect._cell_runs(soup, rows)[0]):
        found = intersect._contact(tris[i], tris[j])
        if found is None:
            continue
        cells = intersect._shared_cells(soup, grid, corners[i], corners[j], run)
        if cells is None:
            pairs.append((i, j, intersect._KIND_INDEX[found[0]]))
        elif intersect._beyond_allowed(*found, *cells):
            overlaps.append((i, j, intersect._KIND_INDEX[found[0]]))
    return IntersectionReport(ContactRows(pairs), ContactRows(overlaps), n * (n - 1) // 2)


def referee_cells(refinement):
    """The soup's cells by a loop over the source faces: per face, the
    frozenset of its vertices and edge midpoints, and that of its derived
    boundary edges (u, v), u < v.  A source edge with a midpoint m is the
    derived polyline u - m - v.  A refinement with new vertices is a
    barycentric subdivision, whose derived vertex nv + e is the midpoint
    of edge_table(source).ends[e]."""
    source = refinement.source
    midpoint = {}
    if refinement.derived.n_vertices > source.n_vertices:
        midpoint = {(u, v): source.n_vertices + e
                    for e, (u, v) in enumerate(edge_table(source).ends.tolist())}
    face_vertices, face_edges = [], []
    for face in source.faces:
        verts, edges = set(), set()
        for u, v in zip(face, face[1:] + face[:1]):
            mid = midpoint.get((min(u, v), max(u, v)))
            ends = (u, v) if mid is None else (u, mid, v)
            verts.update(ends)
            edges.update((min(p, q), max(p, q)) for p, q in zip(ends, ends[1:]))
        face_vertices.append(frozenset(verts))
        face_edges.append(frozenset(edges))
    return face_vertices, face_edges


def referee_shared_cells(face_vertices, face_edges, grid, ci, cj, fi, fj):
    """intersect._shared_cells over referee_cells' frozensets."""
    if fi == fj:
        shared = sorted(set(ci) & set(cj))
        pts = [grid[c] for c in shared]
        segs = [(pts[s], pts[t]) for s in range(len(pts)) for t in range(s + 1, len(pts))]
        return pts, segs
    common = face_vertices[fi] & face_vertices[fj]
    if not common:
        return None
    pts = [grid[v] for v in sorted(common)]
    segs = [(grid[u], grid[v]) for u, v in sorted(face_edges[fi] & face_edges[fj])]
    return pts, segs


def canonical_face(face: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a face under rotation and reversal.

    Rotate so the smallest vertex comes first, then pick the
    lexicographically smaller of the two traversal directions.  Used for
    duplicate detection; vertices within a face are distinct, so the
    smallest vertex is unique.
    """
    f = tuple(int(i) for i in face)
    k = f.index(min(f))
    fwd = f[k:] + f[:k]
    rev = tuple(reversed(f))
    k = rev.index(min(rev))
    bwd = rev[k:] + rev[:k]
    return min(fwd, bwd)


def referee_repeats(triangles, sources):
    """Referee of refine's duplicate check, mesh's face validation run on
    the triangles: one canonical_face key and dict lookup per triangle,
    in order; raises the
    TriangulationError triangulate_faces must raise for the first
    repeated triangle."""
    seen = {}
    for tri, fi in zip(triangles, sources):
        key = canonical_face(tri)
        if key in seen:
            raise TriangulationError(
                f"faces {seen[key]} and {fi} both yield triangle {tri} "
                "(identical up to rotation/reversal)"
            )
        seen[key] = fi


def referee_barycentric(complex: CellComplex) -> Refinement:
    """barycentric_subdivision one vertex, edge and face at a time: the
    midpoints of the sorted edges, then the centroids, then six triangles
    per face."""
    for fi, face in enumerate(complex.faces):
        if len(face) != 3:
            raise TriangulationError(
                f"barycentric subdivision needs a triangulated complex; face {fi} has degree {len(face)}"
            )
    pts = complex.vertices
    coords = [pts[i] for i in range(complex.n_vertices)]
    edge_mid = {}
    edges = sorted({
        tuple(sorted((f[i], f[(i + 1) % 3]))) for f in complex.faces for i in range(3)
    })
    for (u, v) in edges:
        edge_mid[(u, v)] = len(coords)
        coords.append(0.5 * (pts[u] + pts[v]))
    centroid_of = []
    for fi, face in enumerate(complex.faces):
        centroid_of.append(len(coords))
        coords.append(pts[list(face)].mean(axis=0))
    triangles, sources = [], []
    for fi, (a, b, c) in enumerate(complex.faces):
        g = centroid_of[fi]
        mab = edge_mid[(a, b) if a < b else (b, a)]
        mbc = edge_mid[(b, c) if b < c else (c, b)]
        mca = edge_mid[(c, a) if c < a else (a, c)]
        for tri in ((a, mab, g), (mab, b, g), (b, mbc, g), (mbc, c, g), (c, mca, g), (mca, a, g)):
            triangles.append(tri)
            sources.append(fi)
    return Refinement(source=complex, derived=build_complex(np.vstack(coords), triangles),
                      triangle_sources=np.array(sources, dtype=np.int64))


# ---------------------------------------------------------------------------
# Dense Smith normal form, the referee of homology's dual-labelling form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithNormalForm:
    """Invariant factors d1 | d2 | ... | dr and the rank r."""

    invariant_factors: tuple[int, ...]
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors larger than one, i.e. the torsion coefficients."""
        return tuple(d for d in self.invariant_factors if d > 1)


def _find_pivot(rows: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    """Nonzero entry of minimum absolute value in the trailing submatrix.

    Scanning favors +-1 pivots, which keep intermediate entries small;
    the fallback to exact big integers makes overflow impossible either way.
    """
    best = None
    best_abs = 0
    for i in range(t, m):
        row = rows[i]
        for j in range(t, n):
            a = row[j]
            if a:
                a = -a if a < 0 else a
                if a == 1:
                    return (i, j)
                if best is None or a < best_abs:
                    best, best_abs = (i, j), a
    return best


def smith_normal_form(matrix) -> SmithNormalForm:
    """Exact Smith normal form of an integer matrix.

    Works over Python integers (arbitrary precision), so large intermediate
    values cannot overflow.  Row and column operations are the standard
    Euclidean reduction with min-|entry| pivoting; the diagonal is then
    normalized into a divisibility chain with pairwise gcd/lcm exchanges,
    which elementary operations realize on 2x2 blocks.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    m, n = a.shape
    rows: list[list[int]] = [[int(v) for v in a[i]] for i in range(m)]

    diag: list[int] = []
    t = 0
    while t < min(m, n):
        piv = _find_pivot(rows, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            rows[pi], rows[t] = rows[t], rows[pi]
        if pj != t:
            for r in rows:
                r[pj], r[t] = r[t], r[pj]
        while True:
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
            p = rows[t][t]
            restart = False
            for i in range(t + 1, m):
                x = rows[i][t]
                if x:
                    q = x // p
                    if q:
                        rt = rows[t]
                        rows[i] = [xi - q * yi for xi, yi in zip(rows[i], rt)]
                    if rows[i][t]:
                        # Remainder is strictly smaller than the pivot: promote it.
                        rows[i], rows[t] = rows[t], rows[i]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                x = rows[t][j]
                if x:
                    q = x // p
                    if q:
                        for r in rows:
                            r[j] -= q * r[t]
                    if rows[t][j]:
                        for r in rows:
                            r[j], r[t] = r[t], r[j]
                        restart = True
                        break
            if not restart:
                break
        diag.append(rows[t][t])
        t += 1

    # Normalize into the divisibility chain d1 | d2 | ... | dr.
    factors = [abs(d) for d in diag]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a_, b_ = factors[i], factors[i + 1]
            if b_ % a_:
                g = gcd(a_, b_)
                factors[i], factors[i + 1] = g, a_ * b_ // g
                changed = True
    return SmithNormalForm(invariant_factors=tuple(factors), rank=len(factors))


# ---------------------------------------------------------------------------
# Face-by-face referees of the array-backed combinatorial core
# ---------------------------------------------------------------------------

def referee_build(raw_vertices, raw_faces, index_base=0):
    """(vertices, 0-based faces) as build_complex must return them, checked
    face by face; raises the InvalidComplexError it must raise."""
    if index_base not in (0, 1):
        raise InvalidComplexError(f"index_base must be 0 or 1, got {index_base}")
    verts = np.asarray(list(raw_vertices), dtype=np.float64)
    if verts.size == 0:
        verts = verts.reshape(0, 3)
    if verts.ndim == 2:
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if bad.size:
            v = int(bad[0])
            raise InvalidComplexError(
                f"vertex {v + index_base} has a non-finite coordinate: {verts[v].tolist()}"
            )
    n = verts.shape[0]
    faces = []
    seen = {}
    for pos, raw in enumerate(raw_faces):
        face = tuple(int(i) - index_base for i in raw)
        if len(face) < 3:
            raise InvalidComplexError(f"face {pos} has {len(face)} vertices; need at least 3")
        for i in face:
            if not (0 <= i < n):
                raise InvalidComplexError(
                    f"face {pos} references vertex {i + index_base}, valid range is "
                    f"{index_base}..{n - 1 + index_base}"
                )
        if len(set(face)) != len(face):
            raise InvalidComplexError(
                f"face {pos} repeats a vertex: {tuple(i + index_base for i in face)}")
        key = canonical_face(face)
        if key in seen:
            raise InvalidComplexError(
                f"face {pos} duplicates face {seen[key]} (identical up to rotation/reversal)"
            )
        seen[key] = pos
        faces.append(face)
    if not faces:
        raise InvalidComplexError("complex has no faces")
    return verts, tuple(faces)


def referee_manifold(complex: CellComplex) -> dict:
    """The closed-manifold check side by side and corner by corner.

    Returns {"defects": [...]} with every ManifoldDefect in the order
    check_closed_manifold must raise them, which is empty for a closed
    manifold; then also the half-edge mesh's fields as tuples ("origin",
    "face_of", "twin", "edge_ends", "star_corners", "star_entries",
    "star_offsets"), edge_ends as sorted pairs.
    """
    origin, destination, face_of, pos_in_face = [], [], [], []
    for fi, face in enumerate(complex.faces):
        k = len(face)
        for i in range(k):
            origin.append(face[i])
            destination.append(face[(i + 1) % k])
            face_of.append(fi)
            pos_in_face.append(i)
    nh = len(origin)

    sides = {}
    for h in range(nh):
        u, v = origin[h], destination[h]
        sides.setdefault((u, v) if u < v else (v, u), []).append(h)

    defects = []
    for edge in sorted(sides):
        c = len(sides[edge])
        if c == 1:
            defects.append(ManifoldDefect("boundary-edge", edge, "used by only one face"))
        elif c > 2:
            defects.append(ManifoldDefect("nonmanifold-edge", edge, f"used by {c} face sides"))
    referenced = set(origin)
    for v in range(complex.n_vertices):
        if v not in referenced:
            defects.append(ManifoldDefect("isolated-vertex", (v,), "no incident face"))
    if defects:
        return {"defects": defects}

    twin = [-1] * nh
    for a, b in sides.values():
        twin[a], twin[b] = b, a

    # hop corner -> corner across twinned sides, tracking which side of
    # the corner the walk entered over
    corners_at = [[] for _ in range(complex.n_vertices)]
    for h in range(nh):
        corners_at[origin[h]].append((face_of[h], pos_in_face[h]))
    first = [h for h in range(nh) if pos_in_face[h] == 0]
    star_corners, star_entries, star_offsets = [], [], [0]
    for v in range(complex.n_vertices):
        corners = sorted(corners_at[v])
        remaining = set(corners)
        start = corners[0]
        cycle, entries = [], []
        corner = start
        fi, i = start
        entry_neighbor = complex.faces[fi][(i - 1) % len(complex.faces[fi])]
        entered_via_incoming = True
        while True:
            cycle.append(corner)
            remaining.discard(corner)
            entries.append(entry_neighbor)
            fi, i = corner
            k = len(complex.faces[fi])
            exit_he = first[fi] + i if entered_via_incoming else first[fi] + (i - 1) % k
            entry_neighbor = destination[exit_he] if origin[exit_he] == v else origin[exit_he]
            t = twin[exit_he]
            tf, ti = face_of[t], pos_in_face[t]
            if origin[t] == v:
                corner = (tf, ti)
                entered_via_incoming = False
            else:
                corner = (tf, (ti + 1) % len(complex.faces[tf]))
                entered_via_incoming = True
            if corner == start or corner not in remaining:
                break
        if remaining:
            defects.append(ManifoldDefect(
                "pinched-vertex", (v,),
                f"{len(corners)} corners form more than one cycle "
                f"({len(cycle)} reached from the first)",
            ))
        star_corners.extend(first[fi] + i for fi, i in cycle)
        star_entries.extend(entries)
        star_offsets.append(len(star_corners))
    if defects:
        return {"defects": defects}
    return {"defects": [], "origin": tuple(origin), "face_of": tuple(face_of),
            "twin": tuple(twin), "edge_ends": tuple(sorted(sides)),
            "star_corners": tuple(star_corners), "star_entries": tuple(star_entries),
            "star_offsets": tuple(star_offsets)}


def referee_orientability(found: dict, n_faces: int) -> tuple[bool, ...]:
    """Orientability per component, in order of lowest face, by a
    breadth-first sweep of face flip flags over referee_manifold's fields."""
    origin, face_of, twin = found["origin"], found["face_of"], found["twin"]
    flip = [-1] * n_faces
    verdict = []
    he_of_face = [[] for _ in range(n_faces)]
    for h, f in enumerate(face_of):
        he_of_face[f].append(h)
    for seed in range(n_faces):
        if flip[seed] != -1:
            continue
        verdict.append(True)
        flip[seed] = 0
        queue = deque([seed])
        while queue:
            f = queue.popleft()
            for h in he_of_face[f]:
                t = twin[h]
                g = face_of[t]
                # opposite traversal -> same flag; same traversal -> opposite flag
                expected = flip[f] if origin[h] != origin[t] else 1 - flip[f]
                if flip[g] == -1:
                    flip[g] = expected
                    queue.append(g)
                elif flip[g] != expected:
                    verdict[-1] = False
    return tuple(verdict)


# ---------------------------------------------------------------------------
# Line-by-line referees of the bulk-parsing readers
# ---------------------------------------------------------------------------

def _referee_fail(path, lineno, message):
    raise FormatError(f"{path}:{lineno}: {message}")


def _referee_lines(path):
    """(lineno, stripped content) of every line that is not blank or a
    comment, and (path, sha256); lines end at \n, \r\n or \r, and a
    leading byte-order mark is dropped."""
    data = Path(path).read_bytes()
    text = data.decode("utf-8").removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines, (str(path), hashlib.sha256(data).hexdigest())


def _referee_coordinates(path, lines):
    rows = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            _referee_fail(path, lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            _referee_fail(path, lineno, f"bad coordinate in {line!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), 3)


def _referee_build(vertices, indices, degrees, index_base, path, vertex_lines, face_lines,
                   vertices_path=None):
    try:
        return complex_from_flat(vertices, indices, degrees, index_base=index_base)
    except InvalidComplexError as exc:
        where = ""
        if exc.face is not None:
            where = f" (line {face_lines[exc.face]})"
        elif exc.vertex is not None:
            lineno = vertex_lines[exc.vertex]
            where = f" ({vertices_path} line {lineno})" if vertices_path else f" (line {lineno})"
        raise FormatError(f"{path}: {exc}{where}") from exc


def referee_read_off(path):
    """read_off one Python step per line and per token."""
    lines, source = _referee_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file")
    lineno, header = lines[0]
    rest = lines[1:]
    first, *tail = header.split()
    if first != "OFF":
        _referee_fail(path, lineno, f"expected OFF header, got {first!r}")
    if tail:
        counts_line = (lineno, tail)
    else:
        if not rest:
            _referee_fail(path, lineno, "missing counts after OFF header")
        counts_lineno, counts = rest[0]
        counts_line = (counts_lineno, counts.split())
        rest = rest[1:]
    lineno, tokens = counts_line
    if len(tokens) != 3:
        _referee_fail(path, lineno, f"expected 'V F E' counts, got {len(tokens)} token(s)")
    try:
        nv, nf, _ne = (int(t) for t in tokens)
    except ValueError:
        _referee_fail(path, lineno, f"non-integer counts {tokens!r}")
    if nv < 0 or nf < 0:
        _referee_fail(path, lineno, "negative counts")
    if len(rest) != nv + nf:
        _referee_fail(path, lineno, f"header promises {nv} vertices + {nf} faces, "
                                    f"file has {len(rest)} data line(s)")
    vertices = _referee_coordinates(path, rest[:nv])
    indices, degrees = [], []
    for flineno, line in rest[nv:]:
        try:
            tokens = [int(p) for p in line.split()]
        except ValueError:
            _referee_fail(path, flineno, f"bad face index in {line!r}")
        if tokens[0] != len(tokens) - 1:
            _referee_fail(path, flineno, f"face line must read 'k i0 .. i(k-1)', got {line!r}")
        indices += tokens[1:]
        degrees.append(tokens[0])
    complex = _referee_build(vertices, indices, degrees, 0, path,
                             [n for n, _ in rest[:nv]], [n for n, _ in rest[nv:]])
    return LoadedMesh(complex=complex, sources=(source,))


def referee_read_obj(path):
    """read_obj one Python step per line and per token."""
    vertices, indices, degrees, vertex_lines, face_lines = [], [], [], [], []
    lines, source = _referee_lines(path)
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "v":
            if len(parts) not in (4, 5):
                _referee_fail(path, lineno, f"expected 'v x y z', got {line!r}")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError:
                _referee_fail(path, lineno, f"bad coordinate in {line!r}")
            vertex_lines.append(lineno)
        elif parts[0] == "f":
            if len(parts) < 4:
                _referee_fail(path, lineno, "face needs at least 3 vertices")
            for ref in parts[1:]:
                head = ref.split("/", 1)[0]
                try:
                    idx = int(head)
                except ValueError:
                    _referee_fail(path, lineno, f"bad face reference {ref!r}")
                if idx < 0:
                    idx = len(vertices) + 1 + idx
                if not (1 <= idx <= len(vertices)):
                    _referee_fail(path, lineno, f"face reference {ref!r} out of range")
                indices.append(idx)
            degrees.append(len(parts) - 1)
            face_lines.append(lineno)
    arr = np.array(vertices, dtype=np.float64).reshape(len(vertices), 3)
    complex = _referee_build(arr, indices, degrees, 1, path, vertex_lines, face_lines)
    return LoadedMesh(complex=complex, sources=(source,))


def referee_read_pair(faces_path, vertices_path, index_base=1):
    """read_pair one Python step per line and per token."""
    vertex_lines, vertex_source = _referee_lines(vertices_path)
    vertices = _referee_coordinates(vertices_path, vertex_lines)
    face_lines, face_source = _referee_lines(faces_path)
    indices, degrees = [], []
    for lineno, line in face_lines:
        parts = line.split()
        if len(parts) < 3:
            _referee_fail(faces_path, lineno, f"face needs at least 3 vertices, got {len(parts)}")
        try:
            indices += [int(p) for p in parts]
        except ValueError:
            _referee_fail(faces_path, lineno, f"bad face index in {line!r}")
        degrees.append(len(parts))
    complex = _referee_build(vertices, indices, degrees, index_base, faces_path,
                             [n for n, _ in vertex_lines], [n for n, _ in face_lines],
                             vertices_path=vertices_path)
    return LoadedMesh(complex=complex, sources=(face_source, vertex_source))


# ---------------------------------------------------------------------------
# The float-comparison coplanar kernel, the referee of predicates.coplanar_kinds
# ---------------------------------------------------------------------------

def _referee_turns(lines: np.ndarray, q: np.ndarray) -> np.ndarray:
    """e_k x q_l - c_k at [k, l]: lines is a triangle's edge_lines columns
    (15, m), q a projected triangle (3 corners, 2 coordinates, m)."""
    e, c = lines[6:12].reshape(3, 2, -1), lines[12:]
    return e[:, None, 0] * q[None, :, 1] - e[:, None, 1] * q[None, :, 0] - c[:, None]


def referee_coplanar_kinds(lines_a: np.ndarray, lines_b: np.ndarray) -> np.ndarray:
    """(m,) contact kind of triangles a and b with one plane label, from
    their edge_lines columns (15, m) each: the float turns compared with 0
    one test at a time (see predicates.coplanar_kinds for the lemma)."""
    on_a = _referee_turns(lines_a, lines_b[:6].reshape(3, 2, -1))   # [edge of a, corner of b]
    on_b = _referee_turns(lines_b, lines_a[:6].reshape(3, 2, -1))
    apart = (on_a <= 0).all(axis=1).any(axis=0) | (on_b <= 0).all(axis=1).any(axis=0)
    a_in = (on_b >= 0).all(axis=0)          # a's corners in b, (3, m)
    n_a, n_b = a_in.sum(axis=0), (on_a >= 0).all(axis=0).sum(axis=0)
    at_corner = (a_in & ((on_b == 0).sum(axis=0) == 2)).any(axis=0)
    one = (n_a + n_b == 1) | ((n_a == 1) & (n_b == 1) & at_corner)
    kind = np.where(n_a + n_b > 0, np.where(one, TOUCH_POINT, TOUCH_SEGMENT), NO_CONTACT)
    return np.where(apart, kind, OVERLAP).astype(np.int8)


# ---------------------------------------------------------------------------
# The recursive string-returning serializer, the referee of
# certificate.canonical_json's one-list writer
# ---------------------------------------------------------------------------

def referee_canonical_json(value, indent: int = 0) -> str:
    """Serialize to JSON with insertion-order keys and '.17g' reals.

    A named tuple is written exactly as the dict of its _fields would be.
    A ContactRows is written from its integer rows, through one row
    template per contact kind, which holds the kind already encoded; the
    bytes are those of the same list of PairContact dicts.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in certificate: {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if _is_named_tuple(type(value)):
        return referee_canonical_json(value._asdict(), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{encode_basestring_ascii(str(k))}: {referee_canonical_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, ContactRows)):
        if not value:
            return "[]"
        if isinstance(value, ContactRows):
            parts = _referee_contact_lines(value, indent + 1)
        else:
            parts = [f"{inner}{referee_canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__} in certificate")


def _is_named_tuple(t: type) -> bool:
    return issubclass(t, tuple) and bool(getattr(t, "_fields", ()))


def _referee_contact_lines(contacts: ContactRows, indent: int):
    """The lines of contacts' rows, each written as the dict of a
    PairContact's fields at the given indent."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    i, j, kind = (f"{inner}{encode_basestring_ascii(f)}: " for f in PairContact._fields)
    # kind names hold no %, so each template's only %d are its own
    templates = [f"{pad}{{\n{i}%d,\n{j}%d,\n{kind}{referee_canonical_json(name)}\n{pad}}}"
                 for name in ContactRows.kinds]
    return [templates[k] % (a, b) for a, b, k in zip(*contacts.rows.T.tolist())]


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
