"""The 2-d orientation predicate, with exact integer fallback, and the
batched float filters and coplanar contact kinds of the narrow phase.

orient2d evaluates the sign of a 3-point determinant with a conservative
forward-error bound; when the magnitude falls below the bound it is
re-evaluated in Python integers: every double is n / 2^e, so the six
coordinates put on one grid 2^-s are integers, and the returned sign is
always the true sign of the determinant of the given coordinates.
orient2d_rows gives the same sign for every row of three point arrays,
with the exact test only for the rows the float guard leaves undecided.
Refinement and flatness take their 2-d turns from them.  to_grid is the
one conversion of doubles to integers on a common grid; orient2d_exact
and intersect's exact stages use it (the narrow phase, and the soup's
zero-area test for the triangles the batched filter below leaves
uncertain).  sub, cross and dot are the tuple 3-vector operations of
those integer stages and of flatness's float link tests.

The batched filters compute plane and edge-line signs over whole arrays of
triangles in float64 with Shewchuk's static bounds ("Adaptive Precision
Floating-Point Arithmetic and Fast Robust Geometric Predicates", DCG
1997): a value whose magnitude exceeds the bound times its permanent has
the sign of the exact value of the given coordinates, and a sign that no
bound settles is left uncertain, for an exact test.  The plane value of a
point d against triangle c0 c1 c2 is n . (d - c0) with n = (c1 - c0) x
(c2 - c0): rounded differences, 2x2 minors of them, each times a rounded
difference, three terms summed; that is the expression tree of his
orient3d, so its bound applies, and each minor is his orient2d.  The
bounds assume no overflow and no subnormal result, so filter_scaled first
scales the raw coordinates by unit_exponent's power of two, which keeps
every value below 2^6, and a triangle with a nonzero coordinate
below 2^-200 after scaling is marked unusable: a nonzero difference of
usable coordinates is at least 2^-252, and every nonzero product formed
from them stays far from the subnormal range.

Where a triangle's scaled corners are all multiples of 2^-15, the
filter's values are exact, not merely bounded: in units of 2^-15 every
coordinate is an integer X with |X| < 2^15, a difference is below 2^16, a
normal component or projected orient2d (two products of differences)
below 2^33, and a plane value (three normal components times
differences) below 2^51, all within float64's 53 bits, zeros included.
Such triangles get exact plane labels, once per call: the normal and
the offset n . c0 are integers (below 2^33 and 2^50), and divided by
their gcd and signed they are one key per plane, so two triangles with
one label are exactly coplanar.  Each triangle's edge lines, also once
per call and with the triangle axis last, are its corners projected
along its dominant normal axis, its edges turned counter-clockwise, and
their line constants; a corner's turn against an edge line is then below
2^33 and exact.  coplanar_kinds signs a coplanar pair's 18 turns once,
into int8, and reads its kind off max, min and sum reductions of those
signs, as in Guigue and Devillers' orientation-predicate triangle test
("Fast and robust triangle-triangle overlap test using orientation
predicates", JGT 2003), with no per-pair projection.
"""
from __future__ import annotations

import numpy as np

# Forward error of the 2x2 expansion below is < 4 eps * permanent once the
# rounding of the coordinate differences is included; 1e-14 leaves an order
# of magnitude of margin over that while still filtering almost everything.
_O2D_GUARD = 1e-14


def orient2d(a, b, c) -> int:
    """Sign of the 2-d cross product (b-a) x (c-a): +1 for a left turn."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    permanent = abs((b[0] - a[0]) * (c[1] - a[1])) + abs((b[1] - a[1]) * (c[0] - a[0]))
    if det > _O2D_GUARD * permanent:
        return 1
    if det < -_O2D_GUARD * permanent:
        return -1
    return orient2d_exact(a, b, c)


def orient2d_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """orient2d of every row of three (m, 2) arrays, as int8.

    The float det and permanent are orient2d's expressions and the guard
    its test, so each row gets orient2d's float answer; the rows the guard
    leaves undecided (a product that overflows among them) take
    orient2d_exact, so every row equals orient2d of its three points.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        det = left - right
        bound = _O2D_GUARD * (np.abs(left) + np.abs(right))
        sign = (det > bound).view(np.int8) - (det < -bound).view(np.int8)
    for r in np.flatnonzero(sign == 0).tolist():
        sign[r] = orient2d_exact(a[r].tolist(), b[r].tolist(), c[r].tolist())
    return sign


def orient2d_exact(a, b, c) -> int:
    (ax, ay, bx, by, cx, cy), _ = to_grid((a[0], a[1], b[0], b[1], c[0], c[1]))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def to_grid(values) -> tuple[list[int], int]:
    """Finite doubles as integers on one grid: value k is ints[k] / 2^s,
    exactly, with s the largest binary exponent that any value's n / 2^k
    needs."""
    ratios = [float(x).as_integer_ratio() for x in values]
    s = max((d.bit_length() - 1 for _, d in ratios), default=0)    # d is a power of two
    return [n << (s - d.bit_length() + 1) for n, d in ratios], s


def unit_exponent(points) -> int:
    """e such that 2^-e brings the largest finite |coordinate| of points
    into [0.5, 1), or 0 if none is finite and nonzero: the one unit scale
    of every stage that computes with coordinates in floats."""
    return int(np.frexp(np.abs(points).max(initial=0.0, where=np.isfinite(points)))[1])


def sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def cross(a, b) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


_EPS = 2.0 ** -53
_O2D_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_TINY = 2.0 ** -200
_GRID = 2.0 ** 15

# the contact kinds coplanar_kinds returns, by index
KINDS = (None, "touch-point", "touch-segment", "coplanar-overlap")
NO_CONTACT, TOUCH_POINT, TOUCH_SEGMENT, OVERLAP = range(4)

# coordinates (first, second) of the projection along each axis
PLANE = ((1, 2), (2, 0), (0, 1))
# per axis, where a triangle's (3, 3) corners hold its projected corners
# p0, p1, p2, each as (first, second), flattened
_PROJECTED = np.array([[3 * k + c for k in range(3) for c in pair] for pair in PLANE])


def filter_scaled(coords: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles coords (n, 3, 3) scaled by 2^-unit_exponent(points), and
    the (n,) mask of the triangles the bounds cannot serve: a coordinate
    that is not finite, or nonzero and below 2^-200 after scaling.  Those
    are zeroed."""
    scaled = np.ldexp(coords, -unit_exponent(points))
    usable = np.isfinite(scaled) & ((coords == 0) | (np.abs(scaled) >= _TINY))
    unusable = ~usable.all(axis=(1, 2))
    scaled[unusable] = 0.0
    return scaled, unusable


def normals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per triangle of x (n, 3, 3): the normal (c1 - c0) x (c2 - c0) and
    each normal component's permanent, the sum of its two |products|.
    Component k is orient2d of the projection along axis k."""
    u, v = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    normal, permanent = np.empty_like(u), np.empty_like(u)
    for k, (i, j) in enumerate(PLANE):
        left, right = u[:, i] * v[:, j], u[:, j] * v[:, i]
        normal[:, k] = left - right
        permanent[:, k] = np.abs(left) + np.abs(right)
    return normal, permanent


def area_signs(normal: np.ndarray, permanent: np.ndarray) -> np.ndarray:
    """The filtered sign of each projected area, int8: +1 or -1 where the
    normal component is certified, else 0."""
    bound = _O2D_BOUND * permanent
    return (normal > bound).view(np.int8) - (normal < -bound).view(np.int8)


def plane_values(x, normal, permanent, pts) -> tuple[np.ndarray, np.ndarray]:
    """(3, m) values n . (q - c0) of the corners q of pts against the plane
    of triangle x, and their error bounds.  x and pts are (3 corners,
    3 coordinates, m), normal and permanent (3, m)."""
    w = pts - x[0]
    return (normal * w).sum(axis=1), _O3D_BOUND * (permanent * np.abs(w)).sum(axis=1)


def off_plane(value, tol, skip) -> np.ndarray:
    """(m,) whether every corner not flagged in skip (3, m) lies certainly
    strictly on one side of the plane, given its plane_values."""
    return ((value > tol) | skip).all(axis=0) | ((value < -tol) | skip).all(axis=0)


def edge_separated(x, area, usable, pts, skip) -> np.ndarray:
    """(m,) whether, in some coordinate projection, a usable edge line of
    triangle x certainly has x's third corner strictly on one side and
    every corner of pts not flagged in skip (3, m) strictly on the other.
    area (3 axes, m) is area_signs of x's normal: the edges c(k+1) - c(k)
    times it have every third corner on their left.  usable is (3 edges, m)."""
    w = pts[None] - x[:, None]                      # q - c(k) at [k, q]
    edges = np.roll(x, -1, axis=0) - x              # c(k+1) - c(k) at [k]
    out = np.zeros(x.shape[-1], dtype=bool)
    for axis, (i, j) in enumerate(PLANE):
        if not area[axis].any():
            continue        # no triangle of the block has area along this axis
        e = (area[axis] * edges)[:, None]
        # orient2d(c(k), c(k+1), q) times the turn, certified negative
        left, right = e[:, :, i] * w[:, :, j], e[:, :, j] * w[:, :, i]
        beyond = left - right < -_O2D_BOUND * (np.abs(left) + np.abs(right))
        out |= ((beyond | skip).all(axis=1) & usable).any(axis=0)
    return out


def plane_labels(scaled: np.ndarray, normal: np.ndarray, unusable: np.ndarray) -> np.ndarray:
    """(n,) int64 label of each usable scaled triangle whose coordinates are
    all integer multiples of 2^-15: two such triangles get one label iff
    they lie in one plane.  Every other triangle gets -1.

    On the grid, normal (see normals) has integer components below 2^33
    in units of 2^-30, and the offset n . c0 is an integer below 2^50 in
    units of 2^-45, both exact in float64 and in int64.  Divided by their
    gcd and signed so that the first nonzero normal component is
    positive, the four integers are one key per plane; one lexsort
    numbers the distinct keys."""
    units = scaled * _GRID
    on = np.flatnonzero((units == np.rint(units)).reshape(-1, 9).all(axis=1) & ~unusable)
    labels = np.full(len(scaled), -1, dtype=np.int64)
    if not on.size:
        return labels
    n = normal[on]
    key = np.empty((len(on), 4), dtype=np.int64)
    key[:, :3] = np.ldexp(n, 30)
    key[:, 3] = np.ldexp((n * scaled[on, 0]).sum(axis=1), 45)
    key //= np.maximum(np.gcd.reduce(key, axis=1), 1)[:, None]
    first = key[np.arange(len(on)), (key[:, :3] != 0).argmax(axis=1)]
    key *= np.where(first < 0, -1, 1)[:, None]
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new = np.ones(len(on), dtype=np.int64)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    labels[on[order]] = np.cumsum(new) - 1
    return labels


def edge_lines(scaled: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """(15, n), the triangle axis last: per triangle, its corners p_k
    projected along its normal's dominant axis (3 x 2), its edges
    e_k = p(k+1) - p(k) times the sign of its projected area (3 x 2), so
    that they run counter-clockwise, and the line constants c_k = e_k x p_k
    (3).  A point q is on the inner side of edge k iff e_k x q - c_k >= 0.

    On the grid (see plane_labels) each value is exact: a projected
    coordinate is below 2^15 in units of 2^-15, an edge component below
    2^16, and c_k, like e_k x q, below 2^32 in units of 2^-30, so the
    turn e_k x q - c_k is below 2^33.  Exactly coplanar triangles have
    parallel exact normals, so both pick the same axis, ties included."""
    rows = np.arange(len(scaled))
    axis = np.abs(normal).argmax(axis=1)
    p = scaled.reshape(-1, 9)[rows, _PROJECTED[axis].T]
    e = (p[[2, 3, 4, 5, 0, 1]] - p) * np.sign(normal[rows, axis])
    c = e[0::2] * p[1::2] - e[1::2] * p[0::2]
    return np.concatenate((p, e, c))


def _turn_signs(lines: np.ndarray) -> np.ndarray:
    """int8 sign of e_k x q_l - c_k at [k, l, t, row]: the turn of corner
    l of the other triangle against edge line k of triangle t.  lines
    (15, 2, m) holds the edge_lines of the two triangles of each row.  On
    the grid e_k x q_l and c_k are exact, so the two comparisons give the
    exact sign of the turn.  One corner at a time keeps each float
    temporary at a third of the block's turns."""
    e, c = lines[6:12].reshape(3, 2, 2, -1), lines[12:]
    q = lines[:6].reshape(3, 2, 2, -1)[:, :, ::-1]      # the other triangle's corners
    sign = np.empty((3, 3) + lines.shape[1:], dtype=np.int8)
    for corner in range(3):
        d = e[:, 0] * q[corner, 1]
        d -= e[:, 1] * q[corner, 0]
        np.subtract((d > c).view(np.int8), (d < c).view(np.int8), out=sign[:, corner])
    return sign


def coplanar_kinds(lines: np.ndarray) -> np.ndarray:
    """(m,) contact kind of triangles a and b with one plane label, as an
    index into KINDS.  lines is (15, 2, m): lines[:, 0] and lines[:, 1] are
    a's and b's edge_lines columns.

    Both are projected along their common dominant normal axis and turned
    counter-clockwise, so a corner is in the other closed triangle iff its
    three turns against the other's edge lines are >= 0.  The interiors
    meet iff no edge line of either has the other's corners all on or
    beyond it.  Otherwise two edges can meet only in a corner of one or
    along a common line, so the contact is the hull of the corners of each
    that are in the other: no point, one, or a segment.  A triangle's
    corners are distinct, so it is one point iff one corner is in the
    other triangle, or one of each is and a's is b's, that is, has two
    zero turns against b's edge lines (they meet only in b's corners, and
    a corner of b that is a's is in a); on the grid the turns are exact.
    The 18 turns of a row are signed once, into int8, and every test is a
    max, min or sum of those signs: a corner in the other triangle has
    turn signs 0 or 1, so two zero turns are a sum of 1."""
    sign = _turn_signs(lines)
    apart = (sign.max(axis=1).min(axis=0) <= 0).any(axis=0)
    inside = sign.min(axis=0) >= 0          # [corner, t, row]: in triangle t
    n_b, n_a = inside.sum(axis=0, dtype=np.int8)
    at_corner = (inside[:, 1] & (sign[:, :, 1].sum(axis=0, dtype=np.int8) == 1)).any(axis=0)
    # KINDS runs no contact, touch-point, touch-segment: the kind is the
    # number of inside corners, at most 2, but for one of each that coincide
    kind = np.minimum(n_a + n_b, TOUCH_SEGMENT)
    kind -= (n_a == 1) & (n_b == 1) & at_corner
    return np.where(apart, kind, np.int8(OVERLAP))
