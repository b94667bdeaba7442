"""Intrinsic flatness and local embedding checks.

Three layers of geometry sit on top of the combinatorial mesh: per-face
planarity (best-fit plane deviation), per-vertex angle defects (2*pi minus
the sum of interior corner angles), and per-vertex links (the loop of unit
edge directions joined by great-circle arcs, one arc per corner).  A mesh
is certified as a locally isometrically embedded flat surface when every
face is planar, every defect vanishes, and every link is a simple closed
spherical polygon.

Face geometry is computed once per check, as one table (face_geometries)
that flatness_report and refine.triangulate_faces share.  Faces of one
degree are fitted as one NumPy stack, whose floats equal the one-face
computation's bit for bit.  Links are built and tested on plain float
3-tuples, with no NumPy call per vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .mesh import CellComplex, HalfEdgeMesh, MeshError, euler_characteristic
from .predicates import orient2d

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Relative width below which a polygon is treated as having no usable plane.
_DEGENERATE_WIDTH = 1e-12
# Sine threshold under which two directions are treated as (anti)parallel
# when orienting link arcs; an angular guard, not a quality tolerance.
_PARALLEL_GUARD = 1e-12


class DegenerateFaceError(MeshError):
    """Face has no usable supporting plane (coincident or collinear points)
    or a corner with a zero-length incident edge."""


@dataclass(frozen=True)
class ToleranceProfile:
    """Certification tolerances; defaults match the reference pipeline.

    planarity_tol bounds the best-fit plane deviation relative to the face
    diameter; defect_tol bounds |angle defect| in radians; link_tol is the
    angular resolution below which link features are considered coincident.
    """

    planarity_tol: float = 1e-8
    defect_tol: float = 1e-8
    link_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("planarity_tol", "defect_tol", "link_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class PlaneFit:
    """Least-squares plane through a face: {x : normal . x = offset}."""

    normal: np.ndarray
    offset: float
    max_deviation: float      # largest |normal . (p - centroid)|
    rel_deviation: float      # max_deviation / diameter
    diameter: float           # largest pairwise point distance


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., 3) stacks.

    The stacked matmul rounds every row exactly as the 1-d `a @ b` and
    np.linalg.norm do, so the batched fit reproduces the one-face floats;
    np.einsum and a hand-written sum of products do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(a, a))


def _plane_fits(
    pts: np.ndarray,
) -> tuple[list[PlaneFit | DegenerateFaceError], np.ndarray, np.ndarray]:
    """Plane fits of an (F, k, 3) stack of polygons, one per row.

    Returns the fits, each a PlaneFit or the DegenerateFaceError of its
    row, with the centered points and the unit normals of every row.
    """
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    diameters = np.sqrt((diffs ** 2).sum(axis=3)).max(axis=(1, 2)).tolist()
    centroids = pts.mean(axis=1)
    centered = pts - centroids[:, None, :]
    eigvals, eigvecs = np.linalg.eigh(centered.transpose(0, 2, 1) @ centered)  # ascending
    normals = eigvecs[:, :, 0]
    # Fix the sign deterministically: first nonzero component positive.
    rows = np.arange(len(normals))
    flip = normals[rows, np.argmax(normals != 0.0, axis=1)] < 0.0
    normals = np.where(flip[:, None], -normals, normals)
    # Width of each point set along its middle principal direction; if that
    # also vanishes the points are collinear and every plane through the
    # line fits equally badly.
    widths = np.sqrt(np.maximum(eigvals[:, 1], 0.0)).tolist()
    max_devs = np.abs((centered @ normals[:, :, None])[..., 0]).max(axis=1).tolist()
    offsets = _dots(normals, centroids).tolist()
    fits: list[PlaneFit | DegenerateFaceError] = []
    for row, diameter in enumerate(diameters):
        if diameter == 0.0:
            fits.append(DegenerateFaceError("all points coincide"))
        elif widths[row] <= _DEGENERATE_WIDTH * diameter:
            fits.append(DegenerateFaceError("points are collinear within working precision"))
        else:
            fits.append(PlaneFit(
                normal=normals[row],
                offset=offsets[row],
                max_deviation=max_devs[row],
                rel_deviation=max_devs[row] / diameter,
                diameter=diameter,
            ))
    return fits, centered, normals


def face_plane_fit(points: np.ndarray) -> PlaneFit:
    """Fit the orthogonal-least-squares plane to a polygon's vertices.

    The plane normal is the smallest principal direction of the centered
    covariance, which minimizes the sum of squared orthogonal deviations.
    Raises DegenerateFaceError when the points are (nearly) collinear or
    coincident, since no fit direction is then meaningful.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise DegenerateFaceError(f"need at least 3 points in R^3, got shape {pts.shape}")
    fits, _, _ = _plane_fits(pts[None])
    return _checked(fits)[0]


def _corner_angles(u: np.ndarray, v: np.ndarray) -> tuple[list[float], list[bool]]:
    """Unsigned angles between the rows of two (n, 3) stacks, in [0, pi],
    and whether each row has a zero-length side.

    atan2 of the cross and dot products, numerically stable near 0 and pi.
    """
    zero = ((_norms(u) == 0.0) | (_norms(v) == 0.0)).tolist()
    angles = list(map(math.atan2, _norms(np.cross(u, v)).tolist(), _dots(u, v).tolist()))
    return angles, zero


def corner_angle(p_prev: np.ndarray, p_vertex: np.ndarray, p_next: np.ndarray) -> float:
    """Unsigned angle at p_vertex between the rays to p_prev and p_next.

    The result lies in [0, pi].  Raises DegenerateFaceError on a
    zero-length incident edge.
    """
    vertex = np.asarray(p_vertex, dtype=np.float64)
    u = np.asarray(p_prev, dtype=np.float64) - vertex
    v = np.asarray(p_next, dtype=np.float64) - vertex
    (angle,), (zero,) = _corner_angles(u[None], v[None])
    if zero:
        raise DegenerateFaceError("corner has a zero-length incident edge")
    return angle


def _any_perpendicular(d: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each unit row of an (n, 3) stack."""
    seeds = np.where(np.abs(d[:, :1]) <= 0.9, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    p = np.cross(d, seeds)
    return p / _norms(p)[:, None]


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face geometric summary used by defects and links.

    angles holds one interior angle per corner.  For a face that is simple
    in its fitted plane these are true interior angles (reflex corners of
    nonconvex faces exceed pi); for a non-simple face no interior is
    defined and the raw unsigned corner angles are used instead, with
    simple=False flagging the substitution.
    """

    face: int
    fit: PlaneFit
    angles: tuple[float, ...]
    simple: bool
    reflex_corners: tuple[int, ...]
    basis: np.ndarray          # (2, 3): in-plane coordinate frame
    orientation: float         # +1 / -1: sign of the projected signed area
    points2d: np.ndarray       # (k, 2) projected vertices


def _segments_properly_disjoint(a0, a1, b0, b1) -> bool:
    """True if 2-d segments a and b share no point at all.

    Uses exact orientation signs; any contact (proper crossing, endpoint
    touching an interior, collinear overlap) counts as not disjoint.
    Intended for non-adjacent polygon edges, where a simple polygon
    demands full disjointness.
    """
    d1 = orient2d(b0, b1, a0)
    d2 = orient2d(b0, b1, a1)
    d3 = orient2d(a0, a1, b0)
    d4 = orient2d(a0, a1, b1)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return False
    def on_segment(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))
    if d1 == 0 and on_segment(b0, b1, a0):
        return False
    if d2 == 0 and on_segment(b0, b1, a1):
        return False
    if d3 == 0 and on_segment(a0, a1, b0):
        return False
    if d4 == 0 and on_segment(a0, a1, b1):
        return False
    return True


def _is_simple(p2: list) -> bool:
    """No two non-adjacent edges of the closed 2-d polygon p2 meet."""
    k = len(p2)
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue   # adjacent edges share a corner by construction
            if not _segments_properly_disjoint(p2[i], p2[(i + 1) % k], p2[j], p2[(j + 1) % k]):
                return False
    return True


def _degree_group(faces: list[int],
                  pts: np.ndarray) -> list[FaceGeometry | DegenerateFaceError]:
    """face_geometries for faces of one degree k, whose corners are the
    (F, k, 3) stack pts."""
    k = pts.shape[1]
    fits, centered, normals = _plane_fits(pts)
    # In-plane frame: two unit vectors orthogonal to the fitted normal.
    u = _any_perpendicular(normals)
    basis = np.stack((u, np.cross(normals, u)), axis=1)
    points2d = centered @ basis.transpose(0, 2, 1)
    angles, zero = _corner_angles((np.roll(pts, 1, axis=1) - pts).reshape(-1, 3),
                                  (np.roll(pts, -1, axis=1) - pts).reshape(-1, 3))
    out: list[FaceGeometry | DegenerateFaceError] = []
    for row, (face, fit, p2) in enumerate(zip(faces, fits, points2d.tolist())):
        corners = range(row * k, (row + 1) * k)
        if isinstance(fit, DegenerateFaceError):
            out.append(fit)
            continue
        if any(zero[c] for c in corners):
            out.append(DegenerateFaceError("corner has a zero-length incident edge"))
            continue
        area2 = 0.0
        for i in range(k):
            x0, y0 = p2[i]
            x1, y1 = p2[(i + 1) % k]
            area2 += x0 * y1 - x1 * y0
        orientation = 1.0 if area2 >= 0.0 else -1.0
        simple = _is_simple(p2)
        interior: list[float] = []
        reflex: list[int] = []
        for i, c in enumerate(corners):
            raw = angles[c]
            if simple and orient2d(p2[i - 1], p2[i], p2[(i + 1) % k]) * orientation < 0.0:
                interior.append(TWO_PI - raw)
                reflex.append(i)
            else:
                interior.append(raw)
        out.append(FaceGeometry(
            face=face,
            fit=fit,
            angles=tuple(interior),
            simple=simple,
            reflex_corners=tuple(reflex),
            basis=basis[row],
            orientation=orientation,
            points2d=points2d[row],
        ))
    return out


def face_geometries(complex: CellComplex,
                    faces: Iterable[int] | None = None) -> list[FaceGeometry | DegenerateFaceError]:
    """Fit, project and measure the given faces (all by default), in order.

    Each entry is the face's FaceGeometry or, for a face with no usable
    plane or a zero-length edge, the DegenerateFaceError that face_geometry
    raises for it: coincident points, then collinear points, then a
    zero-length edge.  Faces of one degree are fitted as one stack, and
    every float equals the one-face computation's.
    """
    faces = list(range(complex.n_faces) if faces is None else faces)
    groups: dict[int, list[int]] = {}
    for pos, fi in enumerate(faces):
        groups.setdefault(len(complex.faces[fi]), []).append(pos)
    table: list[FaceGeometry | DegenerateFaceError | None] = [None] * len(faces)
    for positions in groups.values():
        ids = [faces[pos] for pos in positions]
        pts = complex.vertices[np.array([complex.faces[fi] for fi in ids], dtype=np.intp)]
        for pos, geo in zip(positions, _degree_group(ids, pts)):
            table[pos] = geo
    return table


def _checked(geos: list) -> list[FaceGeometry]:
    """geos, unless one is a DegenerateFaceError: then the first one is raised."""
    for geo in geos:
        if isinstance(geo, DegenerateFaceError):
            raise geo
    return geos


def face_geometry(complex: CellComplex, face_index: int) -> FaceGeometry:
    """Fit, project and measure one face; see FaceGeometry for semantics."""
    return _checked(face_geometries(complex, [face_index]))[0]


def _star_geometry(mesh: HalfEdgeMesh, vertex: int) -> dict[int, FaceGeometry]:
    """FaceGeometry of every face around the vertex, keyed by face."""
    faces = [f for f, _ in mesh.vertex_stars[vertex]]
    return dict(zip(faces, _checked(face_geometries(mesh.complex, faces))))


def _defect(mesh: HalfEdgeMesh, vertex: int, geos) -> float:
    """angle_defect over geos, which maps each face of the star to its geometry."""
    total = 0.0
    for f, i in mesh.vertex_stars[vertex]:
        total += geos[f].angles[i]
    return TWO_PI - total


def angle_defect(mesh: HalfEdgeMesh, vertex: int) -> float:
    """2*pi minus the sum of interior corner angles around the vertex.

    Interior angles are reflex-aware for faces that are simple in their
    fitted plane, so nonconvex faces contribute their true wedge angles.
    """
    return _defect(mesh, vertex, _star_geometry(mesh, vertex))


def _gauss_bonnet(mesh: HalfEdgeMesh, defects) -> tuple[float, float, float]:
    total = math.fsum(defects)
    reference = TWO_PI * euler_characteristic(mesh)
    return total, reference, total - reference


def gauss_bonnet_check(mesh: HalfEdgeMesh) -> tuple[float, float, float]:
    """(sum of defects, 2*pi*chi, residual).

    For planar-faced complexes the total defect equals 2*pi*chi exactly;
    the residual measures only floating-point accumulation and broken
    corner bookkeeping.
    """
    geos = _checked(face_geometries(mesh.complex))
    return _gauss_bonnet(mesh, (_defect(mesh, v, geos) for v in range(mesh.n_vertices)))


# ---------------------------------------------------------------------------
# Vertex links as spherical polygons, on float 3-tuples
# ---------------------------------------------------------------------------

Vec3 = tuple[float, float, float]


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _divided(a: Vec3, s: float) -> Vec3:
    return (a[0] / s, a[1] / s, a[2] / s)


def _angular_distance(a: Vec3, b: Vec3) -> float:
    return math.atan2(_norm(_cross(a, b)), _dot(a, b))


def _rotate(p: Vec3, axis: Vec3, angle: float) -> Vec3:
    """Rodrigues rotation of p around the unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    k = _cross(axis, p)
    t = _dot(axis, p) * (1.0 - c)
    return (p[0] * c + k[0] * s + axis[0] * t,
            p[1] * c + k[1] * s + axis[1] * t,
            p[2] * c + k[2] * s + axis[2] * t)


@dataclass(frozen=True)
class LinkArc:
    """Great-circle arc of a vertex link: one face corner seen on the sphere.

    The arc starts at `start`, sweeps `length` radians counterclockwise
    around `axis`, and ends at `end`; length equals the corner's interior
    angle.  Arcs of length >= pi arise at reflex corners and are oriented
    by the face's fitted plane.
    """

    start: Vec3
    end: Vec3
    axis: Vec3
    length: float
    face: int


@dataclass(frozen=True)
class SphericalLink:
    """The link of a vertex: unit edge directions joined by corner arcs."""

    vertex: int
    directions: tuple[Vec3, ...]
    arcs: tuple[LinkArc, ...]


def vertex_link(mesh: HalfEdgeMesh, vertex: int) -> SphericalLink:
    """Build the link of a vertex as a closed spherical polygon.

    Link vertices are the unit directions of the incident edges in star
    order; each face corner contributes the great-circle arc between its
    two edge directions, of length equal to its interior angle.  Straight
    corners (angle pi) are oriented using the face's in-plane frame, since
    the two directions alone leave the great semicircle ambiguous.
    """
    return _link(mesh, vertex, _star_geometry(mesh, vertex))


def _link(mesh: HalfEdgeMesh, vertex: int, geos) -> SphericalLink:
    """vertex_link over geos, which maps each face of the star to its geometry."""
    star = mesh.vertex_stars[vertex]
    neighbors = mesh.star_entry_neighbors[vertex]
    count = len(star)
    pos_v, *ends = mesh.complex.vertices[[vertex, *neighbors]].tolist()

    directions: list[Vec3] = []
    for u, end in zip(neighbors, ends):
        d = _sub(end, pos_v)
        norm = _norm(d)
        if norm == 0.0:
            raise DegenerateFaceError(
                f"edge ({vertex}, {u}) has zero length; link is undefined"
            )
        directions.append(_divided(d, norm))

    arcs: list[LinkArc] = []
    for k in range(count):
        f, i = star[k]
        geo = geos[f]
        theta = geo.angles[i]
        d_start = directions[k]
        d_end = directions[(k + 1) % count]
        if theta >= math.pi - _PARALLEL_GUARD and theta <= math.pi + _PARALLEL_GUARD:
            # Straight corner: orient the semicircle through the face's
            # interior.  The interior side of the (projected) straight edge
            # is the left side for positive orientation.
            (x0, y0), (x1, y1) = geo.points2d[[i, (i + 1) % len(geo.points2d)]].tolist()
            ex, ey = x1 - x0, y1 - y0
            nrm = math.hypot(ex, ey)
            if nrm == 0.0:
                raise DegenerateFaceError("straight corner with zero-length projected edge")
            wx, wy = geo.orientation * -(ey / nrm), geo.orientation * (ex / nrm)
            # The interior normal must point away from the direction we
            # start at; which of +-exit matches d_start is irrelevant for
            # the midpoint construction below.
            b0, b1 = geo.basis.tolist()
            w3 = (wx * b0[0] + wy * b1[0], wx * b0[1] + wy * b1[1], wx * b0[2] + wy * b1[2])
            along = _dot(w3, d_start)
            w3 = _sub(w3, (d_start[0] * along, d_start[1] * along, d_start[2] * along))
            nw = _norm(w3)
            if nw <= _PARALLEL_GUARD:
                raise DegenerateFaceError(
                    f"face {f}: cannot orient straight corner {i} from its plane"
                )
            axis = _cross(d_start, _divided(w3, nw))
            axis = _divided(axis, _norm(axis))
        else:
            cross = _cross(d_start, d_end)
            nc = _norm(cross)
            if nc <= _PARALLEL_GUARD:
                # Directions (anti)parallel away from a straight corner:
                # a zero-angle spike; callers flag it via the embedding test.
                axis = tuple(_any_perpendicular(np.array([d_start]))[0].tolist())
            else:
                axis = _divided(cross, nc)
            if theta > math.pi:
                axis = (-axis[0], -axis[1], -axis[2])
        arcs.append(LinkArc(start=d_start, end=d_end, axis=axis, length=theta, face=f))

    return SphericalLink(
        vertex=vertex,
        directions=tuple(directions),
        arcs=tuple(arcs),
    )


@dataclass(frozen=True)
class LinkVerdict:
    """Embedding verdict for one vertex link, with a witness on failure."""

    vertex: int
    embedded: bool
    witness: str | None = None


class _SubArc(NamedTuple):
    start: Vec3
    end: Vec3
    axis: Vec3
    frame: Vec3       # axis x start: angle pi/2 along the sub-arc's circle
    length: float
    parent: int


def _split_arcs(arcs: list[tuple[Vec3, Vec3, Vec3, float]]) -> list[_SubArc]:
    """Cut every (start, end, axis, length) arc into pieces of length < pi/2.

    Short pieces make the containment predicates unambiguous (a sub-arc
    never wraps past the antipode of its start), without changing the
    traced point set.
    """
    subs: list[_SubArc] = []
    for idx, (start, end, axis, length) in enumerate(arcs):
        pieces = max(1, math.ceil(length / HALF_PI - 1e-12))
        step = length / pieces
        p = start
        for j in range(pieces):
            q = end if j == pieces - 1 else _rotate(start, axis, step * (j + 1))
            subs.append(_SubArc(p, q, axis, _cross(axis, p), step, idx))
            p = q
    return subs


def _arc_frame_angle(p: Vec3, sub: _SubArc) -> float:
    """Angle of p around sub's axis, measured from sub.start, in [0, 2*pi)."""
    ang = math.atan2(_dot(p, sub.frame), _dot(p, sub.start))
    return ang + TWO_PI if ang < 0.0 else ang


def _subarc_contact(a: _SubArc, b: _SubArc, guard: float):
    """Contact between two sub-arcs: None, ("point", p) or ("overlap", length).

    Sign tests on triple products decide containment; guard only absorbs
    rounding at configuration boundaries (shared circles, shared endpoints).
    """
    axis_cross = _cross(a.axis, b.axis)
    nc = _norm(axis_cross)
    if nc <= guard:
        # Same great circle (axes parallel or antiparallel): compare the
        # two angular intervals in a's frame.  b covers lo..lo+length going
        # counterclockwise around a's axis, starting from whichever of its
        # endpoints is the counterclockwise start.
        same_way = _dot(b.axis, a.axis) > 0.0
        lo = _arc_frame_angle(b.start if same_way else b.end, a)
        pieces = [(lo, lo + b.length)]
        if lo + b.length > TWO_PI:
            pieces = [(lo, TWO_PI), (0.0, lo + b.length - TWO_PI)]
        best = None
        for plo, phi in pieces:
            ilo, ihi = max(plo, 0.0), min(phi, a.length)
            if ihi > ilo + guard:
                return ("overlap", ihi - ilo)
            if ihi >= ilo - guard:
                ang = max(0.0, min(0.5 * (ilo + ihi), a.length))
                best = ("point", _rotate(a.start, a.axis, ang))
        return best
    axis = _divided(axis_cross, nc)
    for cand in (axis, (-axis[0], -axis[1], -axis[2])):
        if _contains(a, cand, guard) and _contains(b, cand, guard):
            return ("point", cand)
    return None


def _contains(sub: _SubArc, p: Vec3, guard: float) -> bool:
    """Is p on the sub-arc (inclusive of endpoints, up to guard)?"""
    if abs(_dot(p, sub.axis)) > guard:
        return False
    ang = _arc_frame_angle(p, sub)
    if ang > math.pi:
        ang -= TWO_PI   # treat near-start wraparound as small negative
    return -guard <= ang <= sub.length + guard


def _vec(v) -> Vec3:
    return tuple(map(float, v))


def link_is_embedded(link: SphericalLink, tol: float = 1e-9) -> LinkVerdict:
    """Decide whether the link is a simple closed spherical polygon.

    Checks, in order: all link vertices pairwise distinct (beyond tol),
    no degenerate arcs, non-adjacent arcs fully disjoint, and adjacent
    arcs meeting only at their shared endpoint(s).  The witness names the
    first offending feature.
    """
    directions = [_vec(d) for d in link.directions]
    arcs = [(_vec(a.start), _vec(a.end), _vec(a.axis), float(a.length)) for a in link.arcs]
    n = len(directions)
    if n < 2:
        return LinkVerdict(link.vertex, False, "fewer than two link vertices")
    for i in range(n):
        for j in range(i + 1, n):
            if _angular_distance(directions[i], directions[j]) <= tol:
                return LinkVerdict(
                    link.vertex, False,
                    f"link vertices {i} and {j} coincide (incident edges point the same way)",
                )
    for idx, (_, _, _, length) in enumerate(arcs):
        if length <= tol:
            return LinkVerdict(link.vertex, False, f"arc {idx} has length {length:.3e}")

    guard = max(tol, 1e-13)
    subs = _split_arcs(arcs)
    n_arcs = len(arcs)
    for i, a in enumerate(subs):
        for b in subs[i + 1:]:
            if a.parent == b.parent:
                continue   # one great-circle arc shorter than 2*pi cannot self-cross
            contact = _subarc_contact(a, b, guard)
            if contact is None:
                continue
            kind, payload = contact
            pa, pb = a.parent, b.parent
            adjacent = (pb - pa) % n_arcs == 1 or (pa - pb) % n_arcs == 1
            if not adjacent:
                return LinkVerdict(
                    link.vertex, False,
                    f"arcs {pa} and {pb} are not adjacent but intersect ({kind})",
                )
            if kind == "overlap":
                return LinkVerdict(
                    link.vertex, False,
                    f"adjacent arcs {pa} and {pb} overlap along {payload:.3e} rad",
                )
            # Point contact between adjacent arcs: only their shared link
            # vertices are allowed.  Consecutive arcs share one endpoint by
            # construction; a two-arc link shares both.
            allowed = []
            if (pb - pa) % n_arcs == 1:
                allowed.append(arcs[pa][1])
            if (pa - pb) % n_arcs == 1:
                allowed.append(arcs[pb][1])
            if not any(_angular_distance(payload, q) <= max(tol, 1e-9) for q in allowed):
                return LinkVerdict(
                    link.vertex, False,
                    f"adjacent arcs {pa} and {pb} touch away from their shared endpoint",
                )
    return LinkVerdict(link.vertex, True)


# ---------------------------------------------------------------------------
# Whole-mesh report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceFlatnessRecord:
    face: int
    rel_deviation: float
    max_deviation: float
    planar: bool
    simple_in_plane: bool


@dataclass(frozen=True)
class VertexFlatnessRecord:
    vertex: int
    defect: float
    flat: bool


@dataclass(frozen=True)
class FlatnessReport:
    """Planarity, defects, links and the Gauss-Bonnet balance for a mesh."""

    faces: tuple[FaceFlatnessRecord, ...]
    vertices: tuple[VertexFlatnessRecord, ...]
    links: tuple[LinkVerdict, ...]
    defect_total: float
    gauss_bonnet_reference: float
    gauss_bonnet_residual: float
    tolerances: ToleranceProfile

    @property
    def all_faces_planar(self) -> bool:
        return all(f.planar for f in self.faces)

    @property
    def all_faces_simple(self) -> bool:
        return all(f.simple_in_plane for f in self.faces)

    @property
    def all_defects_zero(self) -> bool:
        return all(v.flat for v in self.vertices)

    @property
    def all_links_embedded(self) -> bool:
        return all(l.embedded for l in self.links)

    @property
    def flat(self) -> bool:
        return self.all_faces_planar and self.all_defects_zero

    @property
    def locally_embedded_flat(self) -> bool:
        return self.flat and self.all_links_embedded

    @property
    def max_rel_deviation(self) -> float:
        return max((f.rel_deviation for f in self.faces), default=0.0)

    @property
    def max_abs_defect(self) -> float:
        return max((abs(v.defect) for v in self.vertices), default=0.0)


def flatness_report(mesh: HalfEdgeMesh, tol: ToleranceProfile | None = None,
                    geos: list[FaceGeometry | DegenerateFaceError] | None = None) -> FlatnessReport:
    """Run every geometric check once and collect the results.

    geos is face_geometries(mesh.complex), built here when not given.
    """
    tol = tol or ToleranceProfile()
    if geos is None:
        geos = face_geometries(mesh.complex)

    face_records = []
    for fi, geo in enumerate(geos):
        if isinstance(geo, DegenerateFaceError):
            raise DegenerateFaceError(f"face {fi}: {geo}") from geo
        face_records.append(
            FaceFlatnessRecord(
                face=fi,
                rel_deviation=geo.fit.rel_deviation,
                max_deviation=geo.fit.max_deviation,
                planar=geo.fit.rel_deviation <= tol.planarity_tol,
                simple_in_plane=geo.simple,
            )
        )

    vertex_records = []
    for v in range(mesh.n_vertices):
        d = _defect(mesh, v, geos)
        vertex_records.append(VertexFlatnessRecord(vertex=v, defect=d, flat=abs(d) <= tol.defect_tol))

    links = []
    for v in range(mesh.n_vertices):
        try:
            link = _link(mesh, v, geos)
        except MeshError as exc:
            links.append(LinkVerdict(vertex=v, embedded=False, witness=str(exc)))
            continue
        links.append(link_is_embedded(link, tol.link_tol))

    total, reference, residual = _gauss_bonnet(mesh, [r.defect for r in vertex_records])
    return FlatnessReport(
        faces=tuple(face_records),
        vertices=tuple(vertex_records),
        links=tuple(links),
        defect_total=total,
        gauss_bonnet_reference=reference,
        gauss_bonnet_residual=residual,
        tolerances=tol,
    )
