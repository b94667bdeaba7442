"""Global self-intersection detection for triangulated surfaces.

The triangle soup is three arrays built once from a refinement: corner
coordinates (n, 3, 3), derived corner ids and source faces, plus the
vertex and edge sets of every source face.  Broad phase: one sort-and-sweep
over the triangles' axis-aligned boxes, which yields exactly the pairs
whose boxes meet.  Narrow phase: each triangle's corners are evaluated
once, exactly in rationals, against the other triangle's plane; those two
sign vectors reject separated pairs and decide transversality, and the
same values build the contact, so every reported contact is the true
intersection of the given float coordinates.  Contacts between triangles
from the same or vertex-adjacent source faces are excluded from the
self-intersection list, but flagged separately when they extend beyond the
cells the faces legitimately share (a local embedding failure).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mesh import MeshError
from .predicates import orient2d
from .refine import Refinement


class DegenerateTriangleError(MeshError):
    """The soup would contain a zero-area triangle."""


Vec3 = tuple[Fraction, Fraction, Fraction]


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
# narrow phase, exact over the rational values of the float coordinates

def _rat(p) -> Vec3:
    return (Fraction(float(p[0])), Fraction(float(p[1])), Fraction(float(p[2])))


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _lerp(a: Vec3, b: Vec3, t: Fraction) -> Vec3:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]), a[2] + t * (b[2] - a[2]))


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass(frozen=True)
class Contact:
    """Exact intersection of two triangles.

    kind is one of "touch-point", "touch-segment", "transversal",
    "coplanar-overlap"; points holds the witness geometry in exact
    rationals (one point, two segment endpoints, or a polygon ring).
    """

    kind: str
    points: tuple[Vec3, ...]


def _dedupe(pts: list[Vec3]) -> list[Vec3]:
    """The distinct points of pts, in order of first appearance."""
    uniq: list[Vec3] = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    return uniq


def _plane_section(tri: tuple[Vec3, Vec3, Vec3], d: tuple[Fraction, ...]) -> list[Vec3]:
    """Points of a triangle's intersection with a plane, given the three
    signed plane values of its corners (not all one strict sign)."""
    pts: list[Vec3] = []
    for k in range(3):
        if d[k] == 0:
            pts.append(tri[k])
    for a, b in ((0, 1), (1, 2), (2, 0)):
        if d[a] * d[b] < 0:
            t = d[a] / (d[a] - d[b])
            pts.append(_lerp(tri[a], tri[b], t))
    return _dedupe(pts)


def _dominant_axis(n: Vec3) -> int:
    mags = (abs(n[0]), abs(n[1]), abs(n[2]))
    return max(range(3), key=lambda k: mags[k])


def _proj(p: Vec3, axis: int) -> tuple[Fraction, Fraction]:
    if axis == 0:
        return (p[1], p[2])
    if axis == 1:
        return (p[2], p[0])
    return (p[0], p[1])


def _cross2(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _clip_coplanar(subject: tuple[Vec3, ...], clip: tuple[Vec3, ...], axis: int) -> list[Vec3]:
    """Sutherland-Hodgman clip of subject by a convex clip triangle, both in
    one plane; sidedness is computed on the 2-d projection along axis while
    crossing points are interpolated on the 3-d rationals."""
    clip2 = [_proj(p, axis) for p in clip]
    if _cross2(clip2[0], clip2[1], clip2[2]) < 0:
        clip2.reverse()
    out = list(subject)
    for e in range(3):
        e0, e1 = clip2[e], clip2[(e + 1) % 3]
        if not out:
            break
        inp = out
        out = []
        sides = [_cross2(e0, e1, _proj(q, axis)) for q in inp]
        for k in range(len(inp)):
            cur, nxt = inp[k], inp[(k + 1) % len(inp)]
            scur, snxt = sides[k], sides[(k + 1) % len(inp)]
            if scur >= 0:
                out.append(cur)
            if (scur > 0 and snxt < 0) or (scur < 0 and snxt > 0):
                t = scur / (scur - snxt)
                out.append(_lerp(cur, nxt, t))
    return _dedupe(out)


def _collinear_extremes(pts: list[Vec3]) -> tuple[Vec3, Vec3]:
    base = pts[0]
    ref = next(p for p in pts if p != base)
    d = _sub(ref, base)
    keyed = sorted((_dot(_sub(p, base), d), p) for p in pts)
    return keyed[0][1], keyed[-1][1]


def _one_sign(d: tuple[Fraction, ...]) -> bool:
    """True when every plane value is strictly positive, or every one is
    strictly negative: the triangle lies off the plane, on one side."""
    return all(v > 0 for v in d) or all(v < 0 for v in d)


def triangle_contact(p: np.ndarray, q: np.ndarray) -> Contact | None:
    """Exact contact of two positive-area triangles, or None if disjoint.

    dq holds q's corners against p's plane and dp p's corners against q's
    plane, n . (corner - origin) in rationals; they are the only 3-d signs
    the narrow phase evaluates.
    """
    a = (_rat(p[0]), _rat(p[1]), _rat(p[2]))
    b = (_rat(q[0]), _rat(q[1]), _rat(q[2]))
    n1 = _cross(_sub(a[1], a[0]), _sub(a[2], a[0]))
    dq = tuple(_dot(n1, _sub(b[k], a[0])) for k in range(3))

    if dq == (0, 0, 0):
        axis = _dominant_axis(n1)
        poly = _clip_coplanar(b, a, axis)
        if not poly:
            return None
        if len(poly) >= 3:
            p2 = [_proj(v, axis) for v in poly]
            area2 = sum(
                p2[k][0] * p2[(k + 1) % len(p2)][1] - p2[(k + 1) % len(p2)][0] * p2[k][1]
                for k in range(len(p2))
            )
            if area2 != 0:
                return Contact("coplanar-overlap", tuple(poly))
        if len(poly) == 1:
            return Contact("touch-point", (poly[0],))
        lo, hi = _collinear_extremes(poly)
        if lo == hi:
            return Contact("touch-point", (lo,))
        return Contact("touch-segment", (lo, hi))
    if _one_sign(dq):
        return None

    n2 = _cross(_sub(b[1], b[0]), _sub(b[2], b[0]))
    dp = tuple(_dot(n2, _sub(a[k], b[0])) for k in range(3))
    if _one_sign(dp):
        return None
    # neither vector is one-signed or all zero, so both sections are
    # non-empty: a point or a segment on the line the two planes share
    s1 = _plane_section(a, dp)
    s2 = _plane_section(b, dq)

    u = _cross(n1, n2)
    t1 = [(_dot(u, pt), pt) for pt in s1]
    t2 = [(_dot(u, pt), pt) for pt in s2]
    lo = max(min(v for v, _ in t1), min(v for v, _ in t2))
    hi = min(max(v for v, _ in t1), max(v for v, _ in t2))
    if lo > hi:
        return None

    def at(value):
        for v, pt in t1 + t2:
            if v == value:
                return pt
        raise AssertionError("interval endpoint lost")

    if lo == hi:
        return Contact("touch-point", (at(lo),))
    # A section lies in its triangle's boundary iff two corners are on the
    # other plane (it is then that edge); otherwise its relative interior
    # is interior to the triangle, and so is the overlap's, which has
    # positive length here.
    kind = "transversal" if dp.count(0) < 2 and dq.count(0) < 2 else "touch-segment"
    return Contact(kind, (at(lo), at(hi)))


# ---------------------------------------------------------------------------
# shared-cell exclusion

def _point_on_segment(p: Vec3, s0: Vec3, s1: Vec3) -> bool:
    d = _sub(s1, s0)
    w = _sub(p, s0)
    if _cross(w, d) != (0, 0, 0):
        return False
    t = _dot(w, d)
    return 0 <= t <= _dot(d, d)


def _point_allowed(p: Vec3, pts: list[Vec3], segs: list[tuple[Vec3, Vec3]]) -> bool:
    if any(p == q for q in pts):
        return True
    return any(_point_on_segment(p, s0, s1) for s0, s1 in segs)


def _segment_allowed(p: Vec3, q: Vec3, segs: list[tuple[Vec3, Vec3]]) -> bool:
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
    need_lo, need_hi = Fraction(0), _dot(d, d)
    covered = need_lo
    for lo, hi in intervals:
        if lo > covered:
            return False
        covered = max(covered, hi)
        if covered >= need_hi:
            return True
    return covered >= need_hi


def _shared_cells(soup: TriangleSoup, i: int, j: int):
    """Points and segments that triangles i and j may legitimately have in
    common, or None when their source faces differ and share no vertex."""
    fi, fj = soup.source_face[i], soup.source_face[j]
    if fi == fj:
        shared = sorted(set(soup.corners[i].tolist()) & set(soup.corners[j].tolist()))
        pts = [_rat(soup.points[c]) for c in shared]
        segs = [(pts[s], pts[t]) for s in range(len(pts)) for t in range(s + 1, len(pts))]
        return pts, segs
    common = soup.face_vertices[fi] & soup.face_vertices[fj]
    if not common:
        return None
    pts = [_rat(soup.points[v]) for v in sorted(common)]
    segs = [
        (_rat(soup.points[u]), _rat(soup.points[v]))
        for u, v in sorted(soup.face_edges[fi] & soup.face_edges[fj])
    ]
    return pts, segs


def _beyond_allowed(contact: Contact, pts, segs) -> bool:
    if contact.kind == "coplanar-overlap":
        return True     # positive area never fits in shared vertices/edges
    if len(contact.points) == 1:
        return not _point_allowed(contact.points[0], pts, segs)
    p, q = contact.points
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
    for i, j in cands.tolist():
        contact = triangle_contact(soup.coords[i], soup.coords[j])
        if contact is None:
            continue
        cells = _shared_cells(soup, i, j)
        if cells is None:
            pairs.append(PairContact(i, j, contact.kind))
        elif _beyond_allowed(contact, *cells):
            overlaps.append(PairContact(i, j, contact.kind))
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
