"""Intrinsic flatness and local embedding checks.

Three layers of geometry sit on top of the combinatorial mesh: per-face
planarity (best-fit plane deviation), per-vertex angle defects (2*pi minus
the sum of interior corner angles), and per-vertex links (the loop of unit
edge directions joined by great-circle arcs, one arc per corner).  A mesh
is certified as a locally isometrically embedded flat surface when every
face is planar, every defect vanishes, and every link is a simple closed
spherical polygon.  flatness_report is the one producer of all three
facts.

Face geometry is computed once per check, as one table of columns
(face_geometries, a FaceTable) that flatness_report and
refine.triangulate_faces share: per face the plane fit's relative
deviation, simplicity, orientation and in-plane frame, per corner the
interior angle, the signed turn and the projected point.  Faces of one
degree are fitted as one NumPy stack, whose floats equal those of a
one-face table bit for bit, and their turns are one batched orient2d.

Each vertex star is gathered once, in one NumPy pass per valence on the
vertices at unit scale (_vertex_stars), which reads the per-corner angle
column as it is.  It sums the defects, certifies every link that an
azimuth lemma proves embedded by a margin, and builds each other link
from the same direction and normal arrays as plain float 3-tuples, which
link_is_embedded tests with no NumPy call per vector.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .mesh import CellComplex, HalfEdgeMesh, MeshError, euler_characteristic
from .predicates import cross, dot, orient2d, orient2d_rows, unit_exponent

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
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{f.name} must be positive and finite, got {v}")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., 3) stacks.

    The stacked matmul rounds every row exactly as the 1-d `a @ b` and
    np.linalg.norm do, so the batched fit reproduces the one-face floats;
    np.einsum and a hand-written sum of products do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _crosses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (..., 3) stacks, each component
    a1*b2 - a2*b1 rounded as np.cross and predicates.cross round it,
    without np.cross's per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(a, a))


def _plane_fits(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Plane fits of an (F, k, 3) stack of polygons, one per row: the
    diameters, the widths along the middle principal direction, the
    centered points, the unit normals and the largest deviations."""
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    diameters = np.sqrt((diffs ** 2).sum(axis=3)).max(axis=(1, 2))
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
    widths = np.sqrt(np.maximum(eigvals[:, 1], 0.0))
    max_devs = np.abs((centered @ normals[:, :, None])[..., 0]).max(axis=1)
    return diameters, widths, centered, normals, max_devs


def _corner_angles(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned angles between the rows of two (n, 3) stacks, in [0, pi],
    and whether each row has a zero-length side.

    atan2 of the cross and dot products, numerically stable near 0 and pi;
    math.atan2, since np.arctan2 need not round as libm does.
    """
    zero = (_norms(u) == 0.0) | (_norms(v) == 0.0)
    angles = np.fromiter(map(math.atan2, _norms(_crosses(u, v)).tolist(), _dots(u, v).tolist()),
                         np.float64, len(u))
    return angles, zero


def _any_perpendicular(d: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each unit row of an (n, 3) stack."""
    seeds = np.where(np.abs(d[:, :1]) <= 0.9, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    p = _crosses(d, seeds)
    return p / _norms(p)[:, None]


@dataclass(frozen=True, eq=False)
class FaceTable:
    """Plane fit, in-plane frame and corner angles of every face, as columns.

    Per face: the largest deviation |normal . (p - centroid)| of the face's
    points from their least-squares plane, over the diameter (the largest
    pairwise point distance); whether the face is simple in its plane; the
    sign of its projected signed area (orientation); and its in-plane
    frame, two unit vectors orthogonal to the plane's normal.  Per corner,
    in complex.corners order: the interior angle, the signed turn (orient2d
    of the corner between its two neighbours in the plane, times the
    orientation: +1 convex, -1 reflex, 0 straight) and the projected point,
    at the unit scale face_geometries fits at.
    For a simple face the interior angles are true interior angles (a
    reflex corner's exceeds pi); a non-simple face has no interior, and its
    raw unsigned corner angles stand in, with simple False flagging the
    substitution.

    degenerate lists (face, message), in face order, for every face with
    a non-finite coordinate, no usable plane or a zero-length edge; the
    message names the first check the face fails: a non-finite
    coordinate, coincident points, collinear points, then a zero-length
    edge.  The columns of those faces mean nothing.
    """

    rel_deviation: np.ndarray   # (F,) largest deviation / diameter
    simple: np.ndarray          # (F,) bool
    orientation: np.ndarray     # (F,) +1.0 / -1.0
    basis: np.ndarray           # (F, 2, 3) in-plane coordinate frame
    angles: np.ndarray          # (C,) interior angle of each corner
    turns: np.ndarray           # (C,) int8 signed turn of each corner
    points2d: np.ndarray        # (C, 2) each corner in the in-plane frame, unit scale
    degenerate: tuple[tuple[int, str], ...]


_DEGENERATE = (None, "a corner has a non-finite coordinate", "all points coincide",
               "points are collinear within working precision",
               "corner has a zero-length incident edge")


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


def face_geometries(complex: CellComplex) -> FaceTable:
    """Fit, project and measure every face of the complex.

    Faces of one degree k are one (F_k, k, 3) stack, so every float equals
    that of the face's own one-face table.  The stacks are taken from the
    vertices scaled by 2^-unit_exponent(vertices), so no square overflows
    or underflows, and the projected points stay at that unit scale, where
    only their turns and ratios are read.  Every sign and ratio is
    scale-free, so a complex scaled by a power of two has the same table.
    Python runs per corner only for the turns the float guard leaves to the
    exact test, and per face only for the simplicity test of a face that is
    neither a triangle nor a quad with four positive turns.
    """
    # a non-finite coordinate is zeroed, so no fit sees it, and its faces
    # are listed as degenerate
    finite = np.isfinite(complex.vertices)
    vertices = np.ldexp(np.where(finite, complex.vertices, 0.0), -unit_exponent(complex.vertices))
    unusable = ~finite.all(axis=1)
    n_faces, n_corners = complex.n_faces, len(complex.corners)
    basis = np.empty((n_faces, 2, 3))
    rel_deviation, orientation = np.empty((2, n_faces))
    simple, failed = np.empty(n_faces, dtype=bool), np.empty(n_faces, dtype=np.int8)
    angles, turns = np.empty(n_corners), np.empty(n_corners, dtype=np.int8)
    points2d = np.empty((n_corners, 2))
    degree = np.diff(complex.offsets)
    for k in np.flatnonzero(np.bincount(degree)).tolist():
        faces = np.flatnonzero(degree == k)
        at = complex.offsets[faces, None] + np.arange(k)        # (F_k, k) corner ids
        pts = vertices[complex.corners[at]]
        diam, width, centered, normals, devs = _plane_fits(pts)
        # In-plane frame: two unit vectors orthogonal to the fitted normal.
        u = _any_perpendicular(normals)
        frame = np.stack((u, _crosses(normals, u)), axis=1)
        p2 = centered @ frame.transpose(0, 2, 1)
        before, after = np.roll(p2, 1, axis=1), np.roll(p2, -1, axis=1)
        raw, zero = _corner_angles((np.roll(pts, 1, axis=1) - pts).reshape(-1, 3),
                                   (np.roll(pts, -1, axis=1) - pts).reshape(-1, 3))
        # twice the signed area, one column at a time from 0.0: the IEEE
        # additions of a left-to-right loop over the edges
        area2 = np.zeros(len(faces))
        for column in (p2[..., 0] * after[..., 1] - after[..., 0] * p2[..., 1]).T:
            area2 += column
        sign = np.where(area2 >= 0.0, 1, -1).astype(np.int8)
        turn = orient2d_rows(before.reshape(-1, 2), p2.reshape(-1, 2),
                             after.reshape(-1, 2)).reshape(-1, k) * sign[:, None]
        code = np.select([unusable[complex.corners[at]].any(axis=1), diam == 0.0,
                          width <= _DEGENERATE_WIDTH * diam, zero.reshape(-1, k).any(axis=1)],
                         [1, 2, 3, 4], 0)
        # a triangle is simple, and so is a quad that turns one way at
        # every corner; any other face takes the segment test
        ok = np.full(len(faces), k == 3) | ((turn > 0).all(axis=1) & (k == 4))
        for row in np.flatnonzero(~ok & (code == 0)).tolist():
            ok[row] = _is_simple(p2[row].tolist())
        raw = raw.reshape(-1, k)
        basis[faces], failed[faces], orientation[faces], simple[faces] = frame, code, sign, ok
        rel_deviation[faces] = devs / np.where(diam > 0.0, diam, 1.0)
        angles[at] = np.where(ok[:, None] & (turn < 0), TWO_PI - raw, raw)
        turns[at], points2d[at] = turn, p2
    bad = np.flatnonzero(failed)
    return FaceTable(rel_deviation, simple, orientation, basis, angles, turns, points2d,
                     tuple(zip(bad.tolist(), map(_DEGENERATE.__getitem__, failed[bad].tolist()))))


# ---------------------------------------------------------------------------
# Vertex links as spherical polygons, on float 3-tuples
# ---------------------------------------------------------------------------

Vec3 = tuple[float, float, float]


def _norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _divided(a: Vec3, s: float) -> Vec3:
    return (a[0] / s, a[1] / s, a[2] / s)


def _angular_distance(a: Vec3, b: Vec3) -> float:
    return math.atan2(_norm(cross(a, b)), dot(a, b))


def _rotate(p: Vec3, axis: Vec3, angle: float) -> Vec3:
    """Rodrigues rotation of p around the unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    k = cross(axis, p)
    t = dot(axis, p) * (1.0 - c)
    return (p[0] * c + k[0] * s + axis[0] * t,
            p[1] * c + k[1] * s + axis[1] * t,
            p[2] * c + k[2] * s + axis[2] * t)


class LinkArc(NamedTuple):
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


@dataclass(frozen=True)
class SphericalLink:
    """The link of a vertex: unit edge directions joined by corner arcs."""

    vertex: int
    directions: tuple[Vec3, ...]
    arcs: tuple[LinkArc, ...]


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


def _split_arcs(arcs: tuple[LinkArc, ...]) -> list[_SubArc]:
    """Cut every arc into pieces of length < pi/2.

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
            subs.append(_SubArc(p, q, axis, cross(axis, p), step, idx))
            p = q
    return subs


def _arc_frame_angle(p: Vec3, arc: _SubArc) -> float:
    """Angle of p around arc's axis, measured from arc.start, in [0, 2*pi)."""
    ang = math.atan2(dot(p, arc.frame), dot(p, arc.start))
    return ang + TWO_PI if ang < 0.0 else ang


def _subarc_contact(a: _SubArc, b: _SubArc, guard: float):
    """Contact between two sub-arcs: None, ("point", p) or ("overlap", length).

    Sign tests on triple products decide containment; guard only absorbs
    rounding at configuration boundaries (shared circles, shared endpoints).
    """
    axis_cross = cross(a.axis, b.axis)
    nc = _norm(axis_cross)
    if nc <= guard:
        # Same great circle (axes parallel or antiparallel): compare the
        # two angular intervals in a's frame.  b covers lo..lo+length going
        # counterclockwise around a's axis, starting from whichever of its
        # endpoints is the counterclockwise start.
        same_way = dot(b.axis, a.axis) > 0.0
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


def _contains(arc: _SubArc, p: Vec3, guard: float) -> bool:
    """Is p on the sub-arc (inclusive of endpoints, up to guard)?"""
    if abs(dot(p, arc.axis)) > guard:
        return False
    ang = _arc_frame_angle(p, arc)
    if ang > math.pi:
        ang -= TWO_PI   # treat near-start wraparound as small negative
    return -guard <= ang <= arc.length + guard


def link_is_embedded(link: SphericalLink, tol: float = 1e-9) -> LinkVerdict:
    """Decide whether the link is a simple closed spherical polygon.

    Checks, in order: all link vertices pairwise distinct (beyond tol),
    no degenerate arcs, non-adjacent arcs fully disjoint, and adjacent
    arcs meeting only at their shared endpoint(s).  The witness names the
    first offending feature.
    """
    directions, arcs = link.directions, link.arcs
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
            # construction; a two-arc link shares both.  On two distinct
            # circles the contact is their computed crossing, whose
            # direction is off by about eps / sin(crossing angle), so the
            # allowance grows by that rounding.
            allowed = []
            if (pb - pa) % n_arcs == 1:
                allowed.append(arcs[pa].end)
            if (pa - pb) % n_arcs == 1:
                allowed.append(arcs[pb].end)
            slack = max(tol, 1e-9)
            crossing = _norm(cross(a.axis, b.axis))
            if crossing > guard:
                slack += 16.0 * sys.float_info.epsilon / crossing
            if not any(_angular_distance(payload, q) <= slack for q in allowed):
                return LinkVerdict(
                    link.vertex, False,
                    f"adjacent arcs {pa} and {pb} touch away from their shared endpoint",
                )
    return LinkVerdict(link.vertex, True)


# Margin of the azimuth certificate: a link it certifies has corners with
# sine >= _LINK_MARGIN, and features _LINK_MARGIN^2 or more apart.
_LINK_MARGIN = 1e-3
# Edges shorter than this, at unit scale, leave a vertex to the sub-arc
# test, so no square underflows.
_SHORT_EDGE = 2.0 ** -500


def _lengths(a: np.ndarray) -> np.ndarray:
    """Lengths of the rows of a (..., 3) stack, summed left to right as
    _norm sums a float 3-tuple, so each rounds as its tuple's does."""
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _vertex_stars(mesh: HalfEdgeMesh, table: FaceTable, link_tol: float
                  ) -> tuple[np.ndarray, dict[int, SphericalLink | str]]:
    """Gather every vertex star once, in one NumPy pass per valence on the
    vertices times 2^-unit_exponent(vertices), and read three facts off it.

    Defects: 2*pi minus the star's interior angles, added one column at a
    time from 0.0, in star order: the IEEE additions of a left-to-right
    loop, which Python's sum() (compensated from 3.12) and np.sum
    (pairwise) are not.

    Links: returned, by vertex, for every vertex the azimuth lemma below
    does not certify.  Link vertices are the unit directions d_k of the
    incident edges in star order; corner k is the great-circle arc from
    d_k to d_k+1 of the face table's interior angle, around the unit
    normal of d_k x d_k+1, reversed at a reflex corner.  A straight corner
    (angle pi) is turned through the face's interior by its in-plane
    frame, since the two directions alone leave the semicircle ambiguous;
    a zero-angle spike elsewhere gets any perpendicular axis, for
    link_is_embedded to reject.  In place of an undefined link stands its
    witness: the first zero-length edge, else the first corner in star
    order that cannot be oriented.  Lengths, crosses and dots are taken
    elementwise in the order predicates.cross, dot and _norm take them,
    so every link equals one built from float 3-tuples bit for bit.
    Coordinates that are not finite are read as 0; flatness_report passes
    none.

    Azimuth lemma: let n be a unit vector, every corner at v shorter than
    pi, every corner normal d_k x d_k+1 have a positive component along n,
    and no d_k be parallel to n.  A great-circle arc shorter than pi whose
    circle misses +-n sweeps its azimuth interval around n monotonically,
    so if the azimuth steps sum to 2*pi the link is a graph over the
    azimuth circle, hence embedded.  n is the normalised sum of the unit
    corner normals.  Every bound holds by the margin m, so the features
    link_is_embedded compares are at least m^2 apart, and its guard
    (link_tol, at most m^2 / 100 here) cannot join them.  Each face-table
    angle must equal the angle between its two directions to within
    guard / 8, so no reflex or straight corner is certified and adjacent
    arcs on one great circle do not overlap by a guard.  The sub-arc
    test's one rounding-sensitive case is left to it: adjacent arcs whose
    circles cross at an angle between about the guard and 1e-4, where the
    crossing point it computes strays from the shared endpoint by about
    eps / (crossing angle).
    """
    m, guard = _LINK_MARGIN, max(link_tol, 1e-13)
    pts = mesh.complex.vertices
    usable = np.isfinite(pts).all(axis=1)
    pts = np.ldexp(np.where(usable[:, None], pts, 0.0), -unit_exponent(pts))
    defects, links = np.empty(mesh.n_vertices), {}
    valences = np.diff(mesh.star_offsets)
    for valence in np.flatnonzero(np.bincount(valences)).tolist():
        centers = np.flatnonzero(valences == valence)
        star = mesh.star_offsets[centers, None] + np.arange(valence)
        ends, corners = mesh.star_entries[star], mesh.star_corners[star]
        theta = table.angles[corners]
        total = np.zeros(centers.size)
        for column in theta.T:
            total += column
        defects[centers] = TWO_PI - total
        edges = pts[ends] - pts[centers][:, None, :]
        lengths = _lengths(edges)
        d = edges / np.where(lengths > 0.0, lengths, 1.0)[..., None]
        d_next = np.roll(d, -1, axis=1)
        normals = _crosses(d, d_next)
        sines = _lengths(normals)
        normals /= np.where(sines > _PARALLEL_GUARD, sines, 1.0)[..., None]
        certified = np.zeros(centers.size, dtype=bool)
        if valence >= 3 and link_tol < 1e-2 * m * m:   # a coarser one is the sub-arc test's
            wide = sines >= m
            drift = np.abs(theta - np.arctan2(sines, _dots(d, d_next)))
            ok = (usable[centers] & usable[ends].all(axis=1)
                  & (lengths >= _SHORT_EDGE).all(axis=1)
                  & (wide & (theta < math.pi - m) & (drift <= guard / 8)).all(axis=1))
            summed = normals.sum(axis=1)
            size = _norms(summed)
            ok &= size >= m
            n = (summed / np.where(size >= m, size, 1.0)[:, None])[:, None, :]
            tilts = _dots(normals, n)
            flat = d - _dots(d, n)[..., None] * n
            flat_next = np.roll(flat, -1, axis=1)
            steps = np.arctan2(_dots(_crosses(flat, flat_next), n), _dots(flat, flat_next))
            ok &= ((tilts >= m) & (_norms(flat) >= m) & (steps > 0.0)).all(axis=1)
            ok &= np.abs(steps.sum(axis=1) - TWO_PI) < math.pi
            # Non-adjacent arcs lie in azimuth sectors a whole step apart, at
            # distance >= min tilt from +-n.
            ok &= tilts.min(axis=1) * np.sin(np.minimum(steps.min(axis=1), HALF_PI)) >= m * m
            # Adjacent arcs: one great circle up to the guard, or clearly two
            bends = _norms(_crosses(normals, np.roll(normals, -1, axis=1)))
            certified = ok & ((bends <= guard / 4) | (bends >= 1e-4)).all(axis=1)

        rows = np.flatnonzero(~certified)
        if not rows.size:
            continue
        centers, ends, corners = centers[rows].tolist(), ends[rows], corners[rows]
        d, theta, axes, short = d[rows], theta[rows], normals[rows], lengths[rows] == 0.0
        spike = (sines[rows] <= _PARALLEL_GUARD) & ~short
        axes[spike] = _any_perpendicular(d[spike])
        axes = np.where((theta > math.pi)[..., None], -axes, axes)
        straight = (theta >= math.pi - _PARALLEL_GUARD) & (theta <= math.pi + _PARALLEL_GUARD)
        fault = np.zeros(theta.shape, dtype=np.int8)
        if straight.any():
            c = corners[straight]
            f = mesh.face_of[c]
            first, stop = mesh.complex.offsets[f], mesh.complex.offsets[f + 1]
            x0, y0 = table.points2d[c].T
            x1, y1 = table.points2d[np.where(c + 1 < stop, c + 1, first)].T
            ex, ey = x1 - x0, y1 - y0
            nrm = np.fromiter(map(math.hypot, ex.tolist(), ey.tolist()), np.float64, c.size)
            o, safe = table.orientation[f], np.where(nrm > 0.0, nrm, 1.0)
            wx, wy = o * -(ey / safe), o * (ex / safe)
            w3 = wx[:, None] * table.basis[f, 0] + wy[:, None] * table.basis[f, 1]
            ds = d[straight]
            w3 -= ds * (w3[:, 0] * ds[:, 0] + w3[:, 1] * ds[:, 1] + w3[:, 2] * ds[:, 2])[:, None]
            nw = _lengths(w3)
            fault[straight] = np.select([nrm == 0.0, nw <= _PARALLEL_GUARD], [1, 2], 0)
            axis = _crosses(ds, w3 / np.where(nw > _PARALLEL_GUARD, nw, 1.0)[:, None])
            size = _lengths(axis)
            axes[straight] = axis / np.where(size > 0.0, size, 1.0)[:, None]
        broken = short.any(axis=1) | fault.any(axis=1)
        for r in np.flatnonzero(broken).tolist():
            v = centers[r]
            if short[r].any():
                u = int(ends[r, short[r].argmax()])
                links[v] = f"edge ({v}, {u}) has zero length; link is undefined"
                continue
            k = int((fault[r] > 0).argmax())
            c = int(corners[r, k])
            f = int(mesh.face_of[c])
            links[v] = ("straight corner with zero-length projected edge" if fault[r, k] == 1
                        else f"face {f}: cannot orient straight corner "
                             f"{c - int(mesh.complex.offsets[f])} from its plane")
        keep = np.flatnonzero(~broken)
        for r, dirs, poles, angles in zip(keep.tolist(), d[keep].tolist(), axes[keep].tolist(),
                                          theta[keep].tolist()):
            dirs = tuple(map(tuple, dirs))
            arcs = map(LinkArc, dirs, dirs[1:] + dirs[:1], map(tuple, poles), angles)
            links[centers[r]] = SphericalLink(centers[r], dirs, tuple(arcs))
    return defects, links


# ---------------------------------------------------------------------------
# Whole-mesh report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlatnessReport:
    """Planarity, defects, links and the Gauss-Bonnet balance for a mesh.

    rel_deviation and simple are the face table's columns, one entry per
    face; defects holds 2*pi minus the corner angles around each vertex.
    links holds the LinkVerdict of every vertex whose link is not
    embedded, in vertex order.
    """

    rel_deviation: np.ndarray
    simple: np.ndarray
    defects: np.ndarray
    links: tuple[LinkVerdict, ...]
    defect_total: float
    gauss_bonnet_reference: float
    gauss_bonnet_residual: float
    tolerances: ToleranceProfile

    @property
    def planar(self) -> np.ndarray:
        return self.rel_deviation <= self.tolerances.planarity_tol

    @property
    def flat_vertices(self) -> np.ndarray:
        return np.abs(self.defects) <= self.tolerances.defect_tol

    @property
    def all_faces_planar(self) -> bool:
        return bool(self.planar.all())

    @property
    def all_defects_zero(self) -> bool:
        return bool(self.flat_vertices.all())

    @property
    def all_links_embedded(self) -> bool:
        return not self.links

    @property
    def flat(self) -> bool:
        return self.all_faces_planar and self.all_defects_zero

    @property
    def max_rel_deviation(self) -> float:
        return float(self.rel_deviation.max(initial=0.0))

    @property
    def max_abs_defect(self) -> float:
        return float(np.abs(self.defects).max(initial=0.0))


def flatness_report(mesh: HalfEdgeMesh, tol: ToleranceProfile | None = None,
                    geos: FaceTable | None = None) -> FlatnessReport:
    """Run every geometric check once and collect the results.

    geos is face_geometries(mesh.complex), built here when not given.
    """
    tol = tol or ToleranceProfile()
    table = face_geometries(mesh.complex) if geos is None else geos
    if table.degenerate:
        face, message = table.degenerate[0]
        raise DegenerateFaceError(f"face {face}: {message}")
    defects, found = _vertex_stars(mesh, table, tol.link_tol)
    links = []
    for v in sorted(found):
        link = found[v]
        verdict = (LinkVerdict(v, False, link) if isinstance(link, str)
                   else link_is_embedded(link, tol.link_tol))
        if not verdict.embedded:
            links.append(verdict)

    # With planar faces the defects sum to 2*pi*chi exactly, so the residual
    # measures only rounding and broken corner bookkeeping.
    total = math.fsum(defects.tolist())
    reference = TWO_PI * euler_characteristic(mesh)
    return FlatnessReport(
        rel_deviation=table.rel_deviation,
        simple=table.simple,
        defects=defects,
        links=tuple(links),
        defect_total=total,
        gauss_bonnet_reference=reference,
        gauss_bonnet_residual=total - reference,
        tolerances=tol,
    )
