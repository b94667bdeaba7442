"""Global self-intersection detection for triangulated surfaces.

The triangle soup is three arrays built once from a refinement: corner
coordinates (n, 3, 3), derived corner ids and source faces, plus the
vertex and edge sets of every source face.  Broad phase: one sort-and-sweep
over the triangles' axis-aligned boxes, which yields exactly the pairs
whose boxes meet.  Narrow phase: the soup's points are put once on one
power-of-two grid, so every corner is an integer triple; each triangle's
corners are evaluated once, exactly in Python integers, against the other
triangle's plane; those two sign vectors reject separated pairs and decide
transversality, and the same values build the contact as homogeneous
integer points, so every reported contact is the true intersection of the
given float coordinates; only triangle_contact turns them into Fractions,
for its caller.  Contacts between triangles from the same or
vertex-adjacent source faces are excluded from the self-intersection list,
but flagged separately when they extend beyond the cells the faces
legitimately share (a local embedding failure).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .mesh import MeshError
from .predicates import orient2d
from .refine import Refinement


class DegenerateTriangleError(MeshError):
    """The soup would contain a zero-area triangle."""



@dataclass(frozen=True, eq=False)
class TriangleSoup:
    """Triangles of a refinement, one row per triangle, with source-face
    adjacency data."""

    coords: np.ndarray                          # (n, 3, 3) float64 corner rows
    corners: np.ndarray                         # (n, 3) derived vertex ids
    source_face: np.ndarray                     # (n,) source face of each triangle
    points: np.ndarray                          # derived vertex coordinates
    face_vertices: tuple[frozenset[int], ...]   # source face -> source vertex ids
    face_edges: tuple[frozenset[tuple[int, int]], ...]

    def __len__(self) -> int:
        return len(self.coords)


def _is_degenerate(p0, p1, p2) -> bool:
    """Exact zero-area test: the cross product (p1 - p0) x (p2 - p0)
    vanishes iff its xy, yz and zx components, the orientations of the
    three coordinate-plane projections, are all zero."""
    return all(
        orient2d((p0[a], p0[b]), (p1[a], p1[b]), (p2[a], p2[b])) == 0
        for a, b in ((0, 1), (1, 2), (2, 0))
    )


def triangle_soup(refinement: Refinement) -> TriangleSoup:
    """Triangle soup of a refinement, with source-face adjacency data.

    Raises DegenerateTriangleError if any derived triangle has zero area
    (exact test), since the narrow phase assumes proper triangles.
    """
    derived = refinement.derived
    pts = derived.vertices
    corners = np.array(derived.faces, dtype=np.intp).reshape(-1, 3)
    coords = pts[corners]
    bad = [ti for ti, (p0, p1, p2) in enumerate(coords.tolist()) if _is_degenerate(p0, p1, p2)]
    if bad:
        raise DegenerateTriangleError(
            f"{len(bad)} zero-area derived triangle(s), first at index {bad[0]}"
            f" (source face {refinement.triangle_sources[bad[0]]})"
        )
    faces = refinement.source.faces
    return TriangleSoup(
        coords=coords,
        corners=corners,
        source_face=np.array(refinement.triangle_sources, dtype=np.intp),
        points=pts,
        face_vertices=tuple(frozenset(face) for face in faces),
        face_edges=tuple(
            frozenset(tuple(sorted((face[i], face[i - 1]))) for i in range(len(face)))
            for face in faces
        ),
    )


# ---------------------------------------------------------------------------
# broad phase

@dataclass(frozen=True, eq=False)
class TriangleBoxes:
    """Axis-aligned bounding box of every soup triangle."""

    lo: np.ndarray      # (n, 3) low corners
    hi: np.ndarray      # (n, 3) high corners


def build_hierarchy(soup: TriangleSoup) -> TriangleBoxes:
    """Bounding boxes of the soup's triangles, the broad phase's input."""
    return TriangleBoxes(lo=soup.coords.min(axis=1), hi=soup.coords.max(axis=1))


# Pairs expanded per block of the sweep.  The runs on the sweep axis hold
# many times the pairs whose boxes meet on all three axes: 1.87 million
# against 53,029 on grid_torus 64^2, and 14.9 million at 128^2.  Expanding
# them all at once peaked at 81 MB at 64^2 against 4.3 MB in blocks, so
# fixed blocks bound the scratch memory and the kept pairs dominate the peak.
_PAIR_BLOCK = 1 << 16


def candidate_pairs(boxes: TriangleBoxes) -> np.ndarray:
    """All triangle index pairs (i < j) whose boxes meet (inclusive), as an
    (m, 2) array sorted lexicographically.

    Sort and sweep: in the order of low ends on one axis, the boxes that
    meet box s on that axis and come after it are the contiguous run whose
    low ends are at most s's high end, found by one searchsorted.  The axis
    whose runs hold the fewest pairs is swept; its runs are expanded in
    fixed blocks and masked on all three axes.
    """
    n = len(boxes.lo)
    best = None
    for axis in range(3):
        order = np.argsort(boxes.lo[:, axis])
        end = np.searchsorted(boxes.lo[order, axis], boxes.hi[order, axis], side="right")
        counts = end - np.arange(1, n + 1)
        total = int(counts.sum())
        if best is None or total < best[0]:
            best = (total, order, counts)
    total, order, counts = best
    lo, hi = boxes.lo[order].T.copy(), boxes.hi[order].T.copy()
    starts = np.concatenate(([0], np.cumsum(counts)))
    keys = [np.empty(0, dtype=np.intp)]
    for first in range(0, total, _PAIR_BLOCK):
        k = np.arange(first, min(first + _PAIR_BLOCK, total))
        s = np.searchsorted(starts, k, side="right") - 1
        t = s + 1 + k - starts[s]
        meet = np.ones(len(k), dtype=bool)
        for axis in range(3):
            meet &= (lo[axis, s] <= hi[axis, t]) & (lo[axis, t] <= hi[axis, s])
        a, b = order[s[meet]], order[t[meet]]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    i, j = np.divmod(np.sort(np.concatenate(keys)), n)
    return np.column_stack((i, j))


# ---------------------------------------------------------------------------
# narrow phase, exact in integers on one power-of-two grid
#
# Every finite double is n / 2^k, so the points of one call share the grid
# 2^-s, s the largest k, and every corner becomes an integer triple.  Every
# predicate sign is scale-free, so plane values, normals and clip sides are
# plain int arithmetic.  A constructed point is homogeneous, (X, Y, Z, W)
# with W > 0 and gcd 1, so equal points are equal tuples.

IVec3 = tuple[int, int, int]
Hom = tuple[int, int, int, int]
# three grid corners, then the plane's normal n and offset n . corner 0
Tri = tuple[Hom, Hom, Hom, IVec3, int]


def _grid(values: np.ndarray) -> tuple[list[Hom], int]:
    """Rows of an (m, 3) float array as grid points (X, Y, Z, 1): the row is
    (X, Y, Z) / 2^s, exactly, with s the largest binary exponent that any
    coordinate's n / 2^k needs."""
    ratios = [x.as_integer_ratio() for x in values.ravel().tolist()]
    s = max((d.bit_length() - 1 for _, d in ratios), default=0)
    ints = [n << (s - d.bit_length() + 1) for n, d in ratios]
    return [(*ints[k:k + 3], 1) for k in range(0, len(ints), 3)], s


def _sub(a, b) -> IVec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b) -> IVec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _triangle(c0: Hom, c1: Hom, c2: Hom) -> Tri:
    n = _cross(_sub(c1, c0), _sub(c2, c0))
    return c0, c1, c2, n, _dot(n, c0)


def _hom(x: int, y: int, z: int, w: int) -> Hom:
    """Canonical homogeneous point: W > 0 and gcd(X, Y, Z, W) = 1."""
    if w < 0:
        x, y, z, w = -x, -y, -z, -w
    g = gcd(x, y, z, w)
    return (x // g, y // g, z // g, w // g)


def _mix(sa: int, a: Hom, sb: int, b: Hom) -> Hom:
    """The point sa*b - sb*a: where a linear form with values sa at a and sb
    at b (opposite strict signs) vanishes on the segment [a, b]."""
    return _hom(sa * b[0] - sb * a[0], sa * b[1] - sb * a[1],
                sa * b[2] - sb * a[2], sa * b[3] - sb * a[3])


@dataclass(frozen=True)
class Contact:
    """Exact intersection of two triangles.

    kind is one of "touch-point", "touch-segment", "transversal",
    "coplanar-overlap"; points holds the witness geometry in exact
    rationals (one point, two segment endpoints, or a polygon ring).
    """

    kind: str
    points: tuple[tuple[Fraction, Fraction, Fraction], ...]


def _dedupe(pts: list[Hom]) -> list[Hom]:
    """The distinct points of pts, in order of first appearance."""
    uniq: list[Hom] = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    return uniq


def _plane_section(tri: Tri, d: tuple[int, int, int]) -> list[Hom]:
    """Points of a triangle's intersection with a plane, given the three
    signed plane values of its corners (not all one strict sign)."""
    pts = [tri[k] for k in range(3) if d[k] == 0]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        if d[a] * d[b] < 0:
            pts.append(_mix(d[a], tri[a], d[b], tri[b]))
    return _dedupe(pts)


def _dominant_axis(n: IVec3) -> int:
    mags = (abs(n[0]), abs(n[1]), abs(n[2]))
    return max(range(3), key=lambda k: mags[k])


# coordinates (first, second) of the projection along each axis
_PLANE = ((1, 2), (2, 0), (0, 1))


def _clip_coplanar(subject: tuple[Hom, ...], clip: tuple[Hom, ...], axis: int) -> list[Hom]:
    """Sutherland-Hodgman clip of subject by a convex clip triangle, both in
    one plane; sidedness is computed on the 2-d projection along axis while
    crossing points are mixed from the 3-d homogeneous points."""
    i, j = _PLANE[axis]
    clip2 = [(p[i], p[j]) for p in clip]
    (x0, y0), (x1, y1), (x2, y2) = clip2
    if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < 0:
        clip2.reverse()
    out = list(subject)
    for e in range(3):
        if not out:
            break
        (ex0, ey0), (ex1, ey1) = clip2[e], clip2[(e + 1) % 3]
        ex, ey = ex1 - ex0, ey1 - ey0
        inp = out
        out = []
        # e x (q - e0), times q's W > 0: the side of q, on the grid
        sides = [ex * (q[j] - q[3] * ey0) - ey * (q[i] - q[3] * ex0) for q in inp]
        for k in range(len(inp)):
            scur, snxt = sides[k], sides[(k + 1) % len(inp)]
            if scur >= 0:
                out.append(inp[k])
            if (scur > 0 and snxt < 0) or (scur < 0 and snxt > 0):
                out.append(_mix(scur, inp[k], snxt, inp[(k + 1) % len(inp)]))
    return _dedupe(out)


def _has_area(ring: list[Hom], axis: int) -> bool:
    """A convex ring of distinct coplanar points has positive area iff some
    (p0, p1, pk) has a non-zero homogeneous determinant in the projection."""
    i, j = _PLANE[axis]
    p0, p1 = ring[0], ring[1]
    # the projected line through p0 and p1, as (x, y, W) . m = 0
    m = (p0[j] * p1[3] - p0[3] * p1[j], p0[3] * p1[i] - p0[i] * p1[3],
         p0[i] * p1[j] - p0[j] * p1[i])
    return any(m[0] * p[i] + m[1] * p[j] + m[2] * p[3] for p in ring[2:])


def _below(x, y) -> bool:
    """Whether x's value X / W is below y's, for keys (X, W, ...), W > 0."""
    return x[0] * y[1] < y[0] * x[1]


def _collinear_extremes(pts: list[Hom]) -> tuple[Hom, Hom]:
    """The two extreme points of distinct collinear points."""
    base, ref = pts[0], pts[1]
    d = tuple(ref[k] * base[3] - base[k] * ref[3] for k in range(3))
    lo = hi = (_dot(d, base), base[3], base)
    for p in pts[1:]:
        key = (_dot(d, p), p[3], p)
        if _below(key, lo):
            lo = key
        if _below(hi, key):
            hi = key
    return lo[2], hi[2]


def _one_sign(d: tuple[int, int, int]) -> bool:
    """True when every plane value is strictly positive, or every one is
    strictly negative: the triangle lies off the plane, on one side."""
    return (d[0] > 0 and d[1] > 0 and d[2] > 0) or (d[0] < 0 and d[1] < 0 and d[2] < 0)


def _span(section: list[Hom], u: IVec3):
    """The ends of a section (one or two points) along u, low end first,
    each as (u . P, W, point): its value along u is the fraction u . P / W."""
    p, q = section[0], section[-1]
    lo, hi = (_dot(u, p), p[3], p), (_dot(u, q), q[3], q)
    return (hi, lo) if _below(hi, lo) else (lo, hi)


def _contact(a: Tri, b: Tri) -> tuple[str, tuple[Hom, ...]] | None:
    """Exact contact of two positive-area triangles whose corners are grid
    points with W = 1, as (kind, homogeneous points), or None if disjoint.

    dq holds b's corners against a's plane and dp a's corners against b's
    plane, n . corner - n . corner 0; they are the only 3-d signs evaluated.
    """
    n1, o1 = a[3], a[4]
    dq = (_dot(n1, b[0]) - o1, _dot(n1, b[1]) - o1, _dot(n1, b[2]) - o1)

    if dq == (0, 0, 0):
        axis = _dominant_axis(n1)
        poly = _clip_coplanar(b[:3], a[:3], axis)
        if not poly:
            return None
        if len(poly) >= 3 and _has_area(poly, axis):
            return "coplanar-overlap", tuple(poly)
        if len(poly) == 1:
            return "touch-point", (poly[0],)
        lo, hi = _collinear_extremes(poly)
        if lo == hi:
            return "touch-point", (lo,)
        return "touch-segment", (lo, hi)
    if _one_sign(dq):
        return None

    n2, o2 = b[3], b[4]
    dp = (_dot(n2, a[0]) - o2, _dot(n2, a[1]) - o2, _dot(n2, a[2]) - o2)
    if _one_sign(dp):
        return None
    # neither vector is one-signed or all zero, so both sections are
    # non-empty: a point or a segment on the line the two planes share
    u = _cross(n1, n2)
    lo1, hi1 = _span(_plane_section(a, dp), u)
    lo2, hi2 = _span(_plane_section(b, dq), u)
    lo = lo2 if _below(lo1, lo2) else lo1
    hi = hi2 if _below(hi2, hi1) else hi1
    if _below(hi, lo):
        return None
    if not _below(lo, hi):
        return "touch-point", (lo[2],)
    # A section lies in its triangle's boundary iff two corners are on the
    # other plane (it is then that edge); otherwise its relative interior
    # is interior to the triangle, and so is the overlap's, which has
    # positive length here.
    kind = "transversal" if dp.count(0) < 2 and dq.count(0) < 2 else "touch-segment"
    return kind, (lo[2], hi[2])


def triangle_contact(p: np.ndarray, q: np.ndarray) -> Contact | None:
    """Exact contact of two positive-area triangles, or None if disjoint.

    The 18 coordinates are put on their own grid 2^-s; the contact's
    points are returned as rationals X / (W 2^s).  Raises
    DegenerateTriangleError if either triangle has zero area.
    """
    corners, s = _grid(np.array((p, q), dtype=np.float64).reshape(6, 3))
    a, b = _triangle(*corners[:3]), _triangle(*corners[3:])
    for name, tri in (("p", a), ("q", b)):
        if tri[3] == (0, 0, 0):
            raise DegenerateTriangleError(f"triangle {name} has zero area")
    found = _contact(a, b)
    if found is None:
        return None
    kind, points = found
    return Contact(kind, tuple(
        (Fraction(x, w << s), Fraction(y, w << s), Fraction(z, w << s))
        for x, y, z, w in points
    ))


# ---------------------------------------------------------------------------
# shared-cell exclusion, on integer points of one common grid

def _point_on_segment(p: IVec3, s0: IVec3, s1: IVec3) -> bool:
    d = _sub(s1, s0)
    w = _sub(p, s0)
    if _cross(w, d) != (0, 0, 0):
        return False
    t = _dot(w, d)
    return 0 <= t <= _dot(d, d)


def _point_allowed(p: IVec3, pts: list[IVec3], segs: list[tuple[IVec3, IVec3]]) -> bool:
    if any(p == q for q in pts):
        return True
    return any(_point_on_segment(p, s0, s1) for s0, s1 in segs)


def _segment_allowed(p: IVec3, q: IVec3, segs: list[tuple[IVec3, IVec3]]) -> bool:
    """True when the whole segment [p, q] lies inside the union of segs."""
    d = _sub(q, p)
    intervals = []
    for s0, s1 in segs:
        if _cross(_sub(s0, p), d) != (0, 0, 0) or _cross(_sub(s1, p), d) != (0, 0, 0):
            continue
        t0, t1 = _dot(_sub(s0, p), d), _dot(_sub(s1, p), d)
        intervals.append((min(t0, t1), max(t0, t1)))
    if not intervals:
        return False
    intervals.sort()
    need_lo, need_hi = 0, _dot(d, d)
    covered = need_lo
    for lo, hi in intervals:
        if lo > covered:
            return False
        covered = max(covered, hi)
        if covered >= need_hi:
            return True
    return covered >= need_hi


def _shared_cells(soup: TriangleSoup, grid: list[Hom], ci, cj, fi: int, fj: int):
    """Grid points and segments that two triangles, with corner ids ci and
    cj and source faces fi and fj, may legitimately have in common, or None
    when their source faces differ and share no vertex."""
    if fi == fj:
        shared = sorted(set(ci) & set(cj))
        pts = [grid[c] for c in shared]
        segs = [(pts[s], pts[t]) for s in range(len(pts)) for t in range(s + 1, len(pts))]
        return pts, segs
    common = soup.face_vertices[fi] & soup.face_vertices[fj]
    if not common:
        return None
    pts = [grid[v] for v in sorted(common)]
    segs = [(grid[u], grid[v]) for u, v in sorted(soup.face_edges[fi] & soup.face_edges[fj])]
    return pts, segs


def _beyond_allowed(kind: str, points: tuple[Hom, ...], pts, segs) -> bool:
    if kind == "coplanar-overlap":
        return True     # positive area never fits in shared vertices/edges
    # the contact points and the cells, brought to one common denominator w
    w = lcm(*(p[3] for p in points))
    points = [(x * (w // h), y * (w // h), z * (w // h)) for x, y, z, h in points]
    pts = [(x * w, y * w, z * w) for x, y, z, _ in pts]
    segs = [((s[0] * w, s[1] * w, s[2] * w), (t[0] * w, t[1] * w, t[2] * w)) for s, t in segs]
    if len(points) == 1:
        return not _point_allowed(points[0], pts, segs)
    p, q = points
    return not _segment_allowed(p, q, segs)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class PairContact:
    """A contact between triangles i < j: a self-intersection of
    non-adjacent source faces, or a local overlap of adjacent ones."""

    i: int
    j: int
    kind: str


@dataclass(frozen=True)
class IntersectionReport:
    pairs: tuple[PairContact, ...]
    local_overlaps: tuple[PairContact, ...]
    n_candidates: int

    @property
    def intersecting(self) -> bool:
        return bool(self.pairs)

    @property
    def kind_census(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for pc in self.pairs:
            census[pc.kind] = census.get(pc.kind, 0) + 1
        return census


def self_intersections(
    soup: TriangleSoup, boxes: TriangleBoxes | None = None
) -> IntersectionReport:
    """All contacts between triangles of non-adjacent source faces, plus
    local overlaps of adjacent ones beyond their shared cells.

    The result is a pure set function of the coordinates: pair lists are
    sorted by index, because candidate_pairs returns exactly the
    box-meeting pairs, sorted.
    """
    if boxes is None:
        boxes = build_hierarchy(soup)
    pairs: list[PairContact] = []
    overlaps: list[PairContact] = []
    cands = candidate_pairs(boxes)
    grid, _ = _grid(soup.points)
    corners, faces = soup.corners.tolist(), soup.source_face.tolist()
    tris = [_triangle(grid[a], grid[b], grid[c]) for a, b, c in corners]
    for i, j in cands.tolist():
        found = _contact(tris[i], tris[j])
        if found is None:
            continue
        cells = _shared_cells(soup, grid, corners[i], corners[j], faces[i], faces[j])
        if cells is None:
            pairs.append(PairContact(i, j, found[0]))
        elif _beyond_allowed(*found, *cells):
            overlaps.append(PairContact(i, j, found[0]))
    return IntersectionReport(
        pairs=tuple(pairs), local_overlaps=tuple(overlaps), n_candidates=len(cands)
    )


def classify_immersion(locally_embedded: bool, pairs) -> str:
    """Final verdict: embedded, immersed, or not-an-immersion.

    locally_embedded is the flatness module's vertex-link pass; pairs is
    the self-intersection list between non-adjacent faces.
    """
    if not locally_embedded:
        return "not-an-immersion"
    return "embedded" if len(pairs) == 0 else "immersed"
