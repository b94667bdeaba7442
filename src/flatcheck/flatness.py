"""Intrinsic flatness and local embedding checks.

Three layers of geometry sit on top of the combinatorial mesh: per-face
planarity (best-fit plane deviation), per-vertex angle defects (2*pi minus
the sum of interior corner angles), and per-vertex links (the loop of unit
edge directions joined by great-circle arcs, one arc per corner).  A mesh
is certified as a locally isometrically embedded flat surface when every
face is planar, every defect vanishes, and every link is a simple closed
spherical polygon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    diffs = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    if diameter == 0.0:
        raise DegenerateFaceError("all points coincide")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)     # ascending eigenvalues
    # Width of the point set along the middle principal direction; if that
    # also vanishes the points are collinear and every plane through the
    # line fits equally badly.
    if math.sqrt(max(eigvals[1], 0.0)) <= _DEGENERATE_WIDTH * diameter:
        raise DegenerateFaceError("points are collinear within working precision")
    normal = eigvecs[:, 0]
    # Fix the sign deterministically: first nonzero component positive.
    for c in normal:
        if c != 0.0:
            if c < 0.0:
                normal = -normal
            break
    deviations = centered @ normal
    max_dev = float(np.abs(deviations).max())
    return PlaneFit(
        normal=normal,
        offset=float(normal @ centroid),
        max_deviation=max_dev,
        rel_deviation=max_dev / diameter,
        diameter=diameter,
    )


def corner_angle(p_prev: np.ndarray, p_vertex: np.ndarray, p_next: np.ndarray) -> float:
    """Unsigned angle at p_vertex between the rays to p_prev and p_next.

    atan2 of the cross and dot products, numerically stable near 0 and pi;
    the result lies in [0, pi].  Raises DegenerateFaceError on a
    zero-length incident edge.
    """
    u = np.asarray(p_prev, dtype=np.float64) - np.asarray(p_vertex, dtype=np.float64)
    v = np.asarray(p_next, dtype=np.float64) - np.asarray(p_vertex, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateFaceError("corner has a zero-length incident edge")
    return _angular_distance(u, v)


def _angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))


def _any_perpendicular(d: np.ndarray) -> np.ndarray:
    seed = np.array([1.0, 0.0, 0.0]) if abs(d[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    p = np.cross(d, seed)
    return p / np.linalg.norm(p)


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


def face_geometry(complex: CellComplex, face_index: int) -> FaceGeometry:
    """Fit, project and measure one face; see FaceGeometry for semantics."""
    face = complex.faces[face_index]
    pts = complex.vertices[list(face)]
    fit = face_plane_fit(pts)
    # In-plane frame: two unit vectors orthogonal to the fitted normal.
    n = fit.normal
    u = _any_perpendicular(n)
    w = np.cross(n, u)
    basis = np.vstack([u, w])
    centered = pts - pts.mean(axis=0)
    p2 = centered @ basis.T

    k = len(face)
    area2 = 0.0
    for i in range(k):
        x0, y0 = p2[i]
        x1, y1 = p2[(i + 1) % k]
        area2 += x0 * y1 - x1 * y0
    orientation = 1.0 if area2 >= 0.0 else -1.0

    simple = True
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue   # adjacent edges share a corner by construction
            if not _segments_properly_disjoint(p2[i], p2[(i + 1) % k], p2[j], p2[(j + 1) % k]):
                simple = False
                break
        if not simple:
            break

    angles: list[float] = []
    reflex: list[int] = []
    for i in range(k):
        raw = corner_angle(pts[(i - 1) % k], pts[i], pts[(i + 1) % k])
        if simple:
            if orient2d(p2[(i - 1) % k], p2[i], p2[(i + 1) % k]) * orientation < 0.0:
                angles.append(TWO_PI - raw)
                reflex.append(i)
            else:
                angles.append(raw)
        else:
            angles.append(raw)
    return FaceGeometry(
        face=face_index,
        fit=fit,
        angles=tuple(angles),
        simple=simple,
        reflex_corners=tuple(reflex),
        basis=basis,
        orientation=orientation,
        points2d=p2,
    )


def _star_geometry(mesh: HalfEdgeMesh, vertex: int) -> dict[int, FaceGeometry]:
    """FaceGeometry of every face around the vertex, keyed by face."""
    return {f: face_geometry(mesh.complex, f) for f, _ in mesh.vertex_stars[vertex]}


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
    geos = [face_geometry(mesh.complex, f) for f in range(mesh.n_faces)]
    return _gauss_bonnet(mesh, (_defect(mesh, v, geos) for v in range(mesh.n_vertices)))


# ---------------------------------------------------------------------------
# Vertex links as spherical polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkArc:
    """Great-circle arc of a vertex link: one face corner seen on the sphere.

    The arc starts at `start`, sweeps `length` radians counterclockwise
    around `axis`, and ends at `end`; length equals the corner's interior
    angle.  Arcs of length >= pi arise at reflex corners and are oriented
    by the face's fitted plane.
    """

    start: np.ndarray
    end: np.ndarray
    axis: np.ndarray
    length: float
    face: int


@dataclass(frozen=True)
class SphericalLink:
    """The link of a vertex: unit edge directions joined by corner arcs."""

    vertex: int
    directions: tuple[np.ndarray, ...]
    arcs: tuple[LinkArc, ...]


def _rotate(p: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of p around the unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return p * c + np.cross(axis, p) * s + axis * float(axis @ p) * (1.0 - c)


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
    complex = mesh.complex
    pos_v = complex.vertices[vertex]
    star = mesh.vertex_stars[vertex]
    neighbors = mesh.star_entry_neighbors[vertex]
    count = len(star)

    directions: list[np.ndarray] = []
    for u in neighbors:
        d = complex.vertices[u] - pos_v
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise DegenerateFaceError(
                f"edge ({vertex}, {u}) has zero length; link is undefined"
            )
        directions.append(d / norm)

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
            face_tuple = complex.faces[f]
            kk = len(face_tuple)
            e_out2 = geo.points2d[(i + 1) % kk] - geo.points2d[i]
            nrm = math.hypot(e_out2[0], e_out2[1])
            if nrm == 0.0:
                raise DegenerateFaceError("straight corner with zero-length projected edge")
            e_out2 = e_out2 / nrm
            w2 = geo.orientation * np.array([-e_out2[1], e_out2[0]])
            # The interior normal must point away from the direction we
            # start at; which of +-exit matches d_start is irrelevant for
            # the midpoint construction below.
            w3 = w2[0] * geo.basis[0] + w2[1] * geo.basis[1]
            w3 = w3 - d_start * float(w3 @ d_start)
            nw = float(np.linalg.norm(w3))
            if nw <= _PARALLEL_GUARD:
                raise DegenerateFaceError(
                    f"face {f}: cannot orient straight corner {i} from its plane"
                )
            w3 /= nw
            axis = np.cross(d_start, w3)
            axis /= np.linalg.norm(axis)
        else:
            cross = np.cross(d_start, d_end)
            nc = float(np.linalg.norm(cross))
            if nc <= _PARALLEL_GUARD:
                # Directions (anti)parallel away from a straight corner:
                # a zero-angle spike; callers flag it via the embedding test.
                axis = _any_perpendicular(d_start)
            else:
                axis = cross / nc
            if theta > math.pi:
                axis = -axis
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


@dataclass(frozen=True)
class _SubArc:
    start: np.ndarray
    end: np.ndarray
    axis: np.ndarray
    length: float
    parent: int


def _split_arcs(link: SphericalLink) -> list[_SubArc]:
    """Cut every arc into pieces of length < pi/2.

    Short pieces make the containment predicates unambiguous (a sub-arc
    never wraps past the antipode of its start), without changing the
    traced point set.
    """
    subs: list[_SubArc] = []
    for idx, arc in enumerate(link.arcs):
        pieces = max(1, math.ceil(arc.length / HALF_PI - 1e-12))
        step = arc.length / pieces
        p = arc.start
        for j in range(pieces):
            q = arc.end if j == pieces - 1 else _rotate(arc.start, arc.axis, step * (j + 1))
            subs.append(_SubArc(start=p, end=q, axis=arc.axis, length=step, parent=idx))
            p = q
    return subs


def _arc_frame_angle(p: np.ndarray, sub: _SubArc) -> float:
    """Angle of p around sub's axis, measured from sub.start, in [0, 2*pi)."""
    e1 = sub.start
    e2 = np.cross(sub.axis, sub.start)
    ang = math.atan2(float(p @ e2), float(p @ e1))
    return ang + TWO_PI if ang < 0.0 else ang


def _subarc_contact(a: _SubArc, b: _SubArc, guard: float):
    """Contact between two sub-arcs: None, ("point", p) or ("overlap", length).

    Sign tests on triple products decide containment; guard only absorbs
    rounding at configuration boundaries (shared circles, shared endpoints).
    """
    axis_cross = np.cross(a.axis, b.axis)
    if float(np.linalg.norm(axis_cross)) <= guard:
        # Same great circle (axes parallel or antiparallel): compare the
        # two angular intervals in a's frame.  b covers lo..lo+length going
        # counterclockwise around a's axis, starting from whichever of its
        # endpoints is the counterclockwise start.
        same_way = float(b.axis @ a.axis) > 0.0
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
    axis = axis_cross / float(np.linalg.norm(axis_cross))
    for cand in (axis, -axis):
        if _contains(a, cand, guard) and _contains(b, cand, guard):
            return ("point", cand)
    return None


def _contains(sub: _SubArc, p: np.ndarray, guard: float) -> bool:
    """Is p on the sub-arc (inclusive of endpoints, up to guard)?"""
    if abs(float(p @ sub.axis)) > guard:
        return False
    ang = _arc_frame_angle(p, sub)
    if ang > math.pi:
        ang -= TWO_PI   # treat near-start wraparound as small negative
    return -guard <= ang <= sub.length + guard


def link_is_embedded(link: SphericalLink, tol: float = 1e-9) -> LinkVerdict:
    """Decide whether the link is a simple closed spherical polygon.

    Checks, in order: all link vertices pairwise distinct (beyond tol),
    no degenerate arcs, non-adjacent arcs fully disjoint, and adjacent
    arcs meeting only at their shared endpoint(s).  The witness names the
    first offending feature.
    """
    n = len(link.directions)
    if n < 2:
        return LinkVerdict(link.vertex, False, "fewer than two link vertices")
    for i in range(n):
        for j in range(i + 1, n):
            if _angular_distance(link.directions[i], link.directions[j]) <= tol:
                return LinkVerdict(
                    link.vertex, False,
                    f"link vertices {i} and {j} coincide (incident edges point the same way)",
                )
    for idx, arc in enumerate(link.arcs):
        if arc.length <= tol:
            return LinkVerdict(link.vertex, False, f"arc {idx} has length {arc.length:.3e}")

    guard = max(tol, 1e-13)
    subs = _split_arcs(link)
    n_arcs = len(link.arcs)
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            a, b = subs[i], subs[j]
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
                allowed.append(link.arcs[pa].end)
            if (pa - pb) % n_arcs == 1:
                allowed.append(link.arcs[pb].end)
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


def flatness_report(mesh: HalfEdgeMesh, tol: ToleranceProfile | None = None) -> FlatnessReport:
    """Run every geometric check once and collect the results."""
    tol = tol or ToleranceProfile()

    geos = []
    face_records = []
    for fi in range(mesh.n_faces):
        try:
            geo = face_geometry(mesh.complex, fi)
        except DegenerateFaceError as exc:
            raise DegenerateFaceError(f"face {fi}: {exc}") from exc
        geos.append(geo)
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
