"""Exact-sign referee for the 2-d sign decisions in triangulation and flatness.

The grid points (0.5 + i*2**-53, 0.5 + j*2**-53) are exactly representable
and straddle the line y = x, so a float cross product taken relative to a
far-away corner rounds some of them to the wrong side.  Every decision must
match a Fraction evaluation of the same geometry, also after the grid is
scaled by a power of two far into the overflow and subnormal ranges.
The batched orient2d_rows is refereed by orient2d, row by row, the
float pass's plane labels by coplanarity of the triangles' integer
corners, and its int8 coplanar kernel by the float-comparison one it
replaced (conftest.referee_coplanar_kinds).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcheck import (GeneratorSpec, build_hierarchy, candidate_pairs, generate, predicates,
                       standard_corpus, triangle_soup, triangulate_faces)
from flatcheck.flatness import _segments_properly_disjoint
from flatcheck.predicates import (coplanar_kinds, cross, dot, edge_lines, filter_scaled, normals,
                                  orient2d, orient2d_rows, plane_labels, sub, to_grid)
from flatcheck.refine import _point_in_triangle

from conftest import _referee_turns, referee_coplanar_kinds

STEP = 2.0 ** -53
GRID = [(0.5 + i * STEP, 0.5 + j * STEP) for i in range(64) for j in range(64)]
A, B, C = (-1.0, -1.0), (24.0, 24.0), (24.0, -1.0)


def _sign(a, b, c) -> int:
    """Sign of (b - a) x (c - a), evaluated in rationals."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _exact_in_triangle(p, a, b, c) -> bool:
    signs = {_sign(a, b, p), _sign(b, c, p), _sign(c, a, p)}
    return not (1 in signs and -1 in signs)


def _exact_disjoint(a0, a1, b0, b1) -> bool:
    def on_segment(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    d1, d2 = _sign(b0, b1, a0), _sign(b0, b1, a1)
    d3, d4 = _sign(a0, a1, b0), _sign(a0, a1, b1)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return False
    touches = ((d1 == 0 and on_segment(b0, b1, a0)) or (d2 == 0 and on_segment(b0, b1, a1))
               or (d3 == 0 and on_segment(a0, a1, b0)) or (d4 == 0 and on_segment(a0, a1, b1)))
    return not touches


def test_point_in_triangle_matches_exact_on_near_diagonal_grid():
    wrong = [p for p in GRID if _point_in_triangle(p, A, B, C) != _exact_in_triangle(p, A, B, C)]
    assert wrong == []
    # the grid really straddles the diagonal edge
    assert {_exact_in_triangle(p, A, B, C) for p in GRID} == {True, False}


def test_segments_disjoint_matches_exact_on_near_diagonal_grid():
    # segment from p to the corner below the diagonal, against the diagonal y = x
    wrong = [p for p in GRID
             if _segments_properly_disjoint(p, C, A, B) != _exact_disjoint(p, C, A, B)]
    assert wrong == []
    # short segment parallel to the diagonal: it touches only when p lies on it
    wrong = [p for p in GRID
             if _segments_properly_disjoint(p, (p[0] + 1.0, p[1] + 1.0), A, B)
             != _exact_disjoint(p, (p[0] + 1.0, p[1] + 1.0), A, B)]
    assert wrong == []


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-1060, 1000), row=st.integers(0, 63), tiny=st.integers(-3, 3))
def test_orient2d_exact_over_double_range(k, row, tiny):
    """orient2d equals the Fraction sign on one row of the grid scaled by
    2^k, each grid point's y moved by `tiny` subnormal steps.  Near
    k = -1060 the coordinates are subnormal, the grid's own steps round
    away and the subnormal step alone decides the side of y = x; near
    k = 1000 the float products overflow.  Either way the filter must hand
    the call to the exact fallback."""
    a = (math.ldexp(A[0], k), math.ldexp(A[1], k))
    b = (math.ldexp(B[0], k), math.ldexp(B[1], k))
    for x, y in GRID[64 * row:64 * (row + 1)]:
        c = (math.ldexp(x, k), math.ldexp(y, k) + tiny * 2.0**-1074)
        assert orient2d(a, b, c) == _sign(a, b, c)
        assert orient2d(c, a, b) == _sign(c, a, b)


_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
_POINT = st.tuples(_UNIT, _UNIT)


@st.composite
def _triple(draw):
    """(a, b, c, repeated): a random triple, a collinear one with one
    coordinate then moved by a few ulps, or one with a repeated point;
    scaled by 2^k with k = 0 or near +-1000, where products overflow or
    underflow."""
    a, b = draw(_POINT), draw(_POINT)
    kind = draw(st.sampled_from(("random", "collinear", "repeated")))
    if kind == "random":
        c = draw(_POINT)
    elif kind == "collinear":
        t = draw(st.floats(-2.0, 2.0))
        c = [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
        axis, steps = draw(st.integers(0, 1)), draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            c[axis] = math.nextafter(c[axis], math.copysign(math.inf, steps))
    else:
        c = draw(st.sampled_from((a, b)))
    k = draw(st.just(0) | st.integers(990, 1010) | st.integers(-1010, -990))
    rows = [tuple(math.ldexp(x, k) for x in p) for p in draw(st.permutations((a, b, c)))]
    return (*rows, kind == "repeated")


def _counted_rows(triples):
    """orient2d_rows of the triples and how many rows it sent to
    orient2d_exact."""
    a, b, c = (np.array([t[i] for t in triples], dtype=np.float64).reshape(-1, 2)
               for i in range(3))
    with mock.patch.object(predicates, "orient2d_exact",
                           wraps=predicates.orient2d_exact) as exact:
        signs = orient2d_rows(a, b, c)
    return signs, exact.call_count


@settings(max_examples=300, deadline=None)
@given(triples=st.lists(_triple(), min_size=1, max_size=24))
def test_orient2d_rows_equals_orient2d(triples):
    """Every row gets orient2d's sign, with no RuntimeWarning from an
    overflowing product (the test configuration makes one an error); a
    row with a repeated point has det = permanent = 0, so it reaches the
    exact fallback."""
    signs, exact = _counted_rows(triples)
    assert signs.dtype == np.int8
    assert signs.tolist() == [orient2d(a, b, c) for a, b, c, _ in triples]
    assert exact >= sum(repeated for *_, repeated in triples)


def test_orient2d_rows_exact_fallback_on_near_collinear_rows():
    """Points a few ulps off the line through two others: the guard leaves
    them to the exact fallback, which must give the Fraction sign."""
    a, b = (0.1, 0.3), (0.7, 2.1)
    triples = []
    for t in (0.25, 0.5, 3.0):
        x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        for steps in range(-2, 3):
            y_moved = y
            for _ in range(abs(steps)):
                y_moved = math.nextafter(y_moved, math.copysign(math.inf, steps))
            triples.append((a, b, (x, y_moved)))
    signs, exact = _counted_rows(triples)
    assert signs.tolist() == [_sign(*t) for t in triples]
    assert exact > 0
    assert {-1, 1} <= set(signs.tolist())


# the largest grid coordinate in units of 2^-15
M = 2**15 - 1
# a triangle at the extremes of the grid, so that every scene is scaled by
# the same power of two and a half unit is off the grid; its normal
# components are 4 M^2 (nearly 2^32) and its offset 12 M^3 (above 2^48)
ANCHOR = ((-M, -M, -M), (M, -M, M), (-M, M, M))
EXTREMES = [
    ((-M, 0, 0), (0, -M, 0), (-M, M, M)),      # the anchor's plane, other corners
    ((-M, M, M), (M, -M, M), (-M, -M, -M)),    # the anchor reversed: normal times -1
    ((-M, -M, 1 - M), (M, -M, M), (-M, M, M)),  # one unit off the anchor's plane
    ((-M, -M, -M - 0.5), (M, -M, M - 0.5), (-M, M, M - 0.5)),   # off the grid
]


def _in_range(p) -> bool:
    return all(abs(c) <= M for c in p)


@st.composite
def _plane_scene(draw):
    """Triangles with integer coordinates of magnitude at most 2^15 - 1,
    none of zero area: ANCHOR and some of EXTREMES, then a few planes,
    axis planes and tilted ones, each holding triangles spanned from a
    point p0 by integer steps along two directions (so that their normals
    differ by integer factors and by sign), some moved one unit off the
    plane and some by half a unit, off the grid."""
    tris = [ANCHOR] + draw(st.lists(st.sampled_from(EXTREMES), max_size=4))
    unit = st.integers(-M, M)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            axis, level = draw(st.integers(0, 2)), draw(unit)

            def point(axis=axis, level=level):
                p = [draw(unit), draw(unit)]
                p.insert(axis, level)
                return tuple(p)
        else:
            p0 = draw(st.tuples(unit, unit, unit))
            u, v = (draw(st.tuples(*[st.integers(-300, 300)] * 3)) for _ in range(2))
            step = st.integers(-100, 100)

            def point(p0=p0, u=u, v=v, step=step):
                a, b = draw(step), draw(step)
                return tuple(p0[k] + a * u[k] + b * v[k] for k in range(3))
        for _ in range(draw(st.integers(1, 5))):
            tri = [point(), point(), point()]
            moved = draw(st.sampled_from((None, None, None, 1, 0.5)))
            if moved is not None:
                corner, axis = draw(st.integers(0, 2)), draw(st.integers(0, 2))
                tri[corner] = tuple(c + moved * (k == axis) for k, c in enumerate(tri[corner]))
            # exact in floats: the products are below 2^35
            if all(map(_in_range, tri)) and cross(sub(tri[1], tri[0]),
                                                 sub(tri[2], tri[0])) != (0, 0, 0):
                tris.append(tuple(tri))
    return draw(st.permutations(tris))


@settings(max_examples=300, deadline=None)
@given(tris=_plane_scene(), k=st.just(0) | st.integers(-1060, 1000))
def test_plane_labels_equal_iff_coplanar(tris, k):
    """At every binary scale 2^k, a triangle gets a label iff its scaled
    coordinates are on the 2^-15 grid, and two labelled triangles get one
    label iff their to_grid integer corners are coplanar."""
    coords = np.ldexp(np.array(tris, dtype=np.float64), k)
    x, unusable = filter_scaled(coords, coords.reshape(-1, 3))
    labels = plane_labels(x, normals(x)[0], unusable).tolist()
    unit = Fraction(2) ** (15 - math.frexp(np.abs(coords).max())[1])
    on = [all((Fraction(c) * unit).denominator == 1 for c in tri.ravel().tolist())
          for tri in coords]
    assert [label >= 0 for label in labels] == on
    assert True in on and (False in on) == any(c % 1 for c in np.ravel(tris))
    ints, _ = to_grid(coords.ravel().tolist())
    corners = [[tuple(ints[9 * t + 3 * c:9 * t + 3 * c + 3]) for c in range(3)]
               for t in range(len(tris))]
    for t, u in combinations(range(len(tris)), 2):
        if on[t] and on[u]:
            c0, c1, c2 = corners[t]
            n = cross(sub(c1, c0), sub(c2, c0))
            coplanar = all(dot(n, sub(q, c0)) == 0 for q in corners[u])
            assert (labels[t] == labels[u]) == coplanar, (t, u)


def _assert_kinds_refereed(lines, i, j):
    """coplanar_kinds of the rows (i, j), and of (j, i), is the referee's."""
    for a, b in ((i, j), (j, i)):
        got = coplanar_kinds(lines.take(np.stack((a, b)), axis=1))
        assert np.array_equal(got, referee_coplanar_kinds(lines[:, a], lines[:, b]))


@pytest.mark.parametrize("spec", [*standard_corpus(),
                                  GeneratorSpec("folded_flat_torus", m=12, n=12, folds=2),
                                  GeneratorSpec("grid_klein", m=8, n=8)],
                         ids=lambda spec: spec.label)
def test_coplanar_kinds_match_referee_on_meshes(spec):
    """On every flat row (one plane label) among the box-meeting pairs of
    the corpus meshes and of the two contact-rich check meshes, where all
    8,048 and 2,868 rows are flat."""
    soup = triangle_soup(triangulate_faces(generate(spec)))
    i, j = candidate_pairs(build_hierarchy(soup)).T
    table, unusable = soup.filter_table
    x, normal = table[:, :9].reshape(-1, 3, 3), table[:, 9:12]
    lines, labels = edge_lines(x, normal), plane_labels(x, normal, unusable)
    flat = (labels[i] >= 0) & (labels[i] == labels[j])
    _assert_kinds_refereed(lines, i[flat], j[flat])
    if spec.label in ("folded_flat_torus_12x12_folds2", "grid_klein_8x8"):
        assert flat.all() and len(i) in (8048, 2868)


_UV = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@st.composite
def _touching_coplanar_pair(draw):
    """Triangles a and b with integer coordinates (u, v) on a plane through
    the origin spanned by integer vectors s and t: b shares a corner of a,
    has two corners on the line of an edge of a, is a with its corners in
    any order, or rests a corner on the midpoint of an edge of a.  Each
    gives exact zero turns."""
    s, t = (draw(st.tuples(*[st.integers(-3, 3)] * 3)) for _ in range(2))
    assume(cross(s, t) != (0, 0, 0))
    a = [draw(_UV) for _ in range(3)]
    k = draw(st.integers(0, 2))
    p, q = a[k], a[(k + 1) % 3]
    how = draw(st.sampled_from(("corner", "collinear", "identical", "on edge")))
    if how == "corner":
        b = [p, draw(_UV), draw(_UV)]
    elif how == "collinear":
        steps = draw(st.lists(st.integers(-2, 3), min_size=2, max_size=2, unique=True))
        b = [(p[0] + n * (q[0] - p[0]), p[1] + n * (q[1] - p[1])) for n in steps] + [draw(_UV)]
    elif how == "identical":
        b = list(a)
    else:       # coordinates doubled, so that the midpoint p + q is a grid point
        a = [(2 * u, 2 * v) for u, v in a]
        b = [(p[0] + q[0], p[1] + q[1]), draw(_UV), draw(_UV)]
    b = draw(st.permutations(b))
    for (u0, v0), (u1, v1), (u2, v2) in (a, b):
        assume((u1 - u0) * (v2 - v0) != (v1 - v0) * (u2 - u0))
    return np.array([[[u * s[c] + v * t[c] for c in range(3)] for u, v in tri] for tri in (a, b)],
                    dtype=np.float64)


@settings(max_examples=500, deadline=None)
@given(pair=_touching_coplanar_pair(), k=st.integers(-40, 40))
def test_coplanar_kinds_match_referee_on_exact_zero_turns(pair, k):
    """Pairs whose turns are exact zeros (shared corners, collinear edges,
    identical triangles, a corner resting on an edge), at binary scales:
    the two get one plane label, some turn is 0, and the kernel is the
    referee's in both argument orders."""
    coords = np.ldexp(pair, k)
    x, unusable = filter_scaled(coords, coords.reshape(-1, 3))
    normal = normals(x)[0]
    lines, labels = edge_lines(x, normal), plane_labels(x, normal, unusable)
    assert labels[0] >= 0 and labels[0] == labels[1]
    a, b = lines[:, :1], lines[:, 1:]
    assert (_referee_turns(a, b[:6].reshape(3, 2, -1)) == 0).any()
    _assert_kinds_refereed(lines, np.array([0]), np.array([1]))
