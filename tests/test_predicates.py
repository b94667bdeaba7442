"""Exact-sign referee for the 2-d sign decisions in triangulation and flatness.

The grid points (0.5 + i*2**-53, 0.5 + j*2**-53) are exactly representable
and straddle the line y = x, so a float cross product taken relative to a
far-away corner rounds some of them to the wrong side.  Every decision must
match a Fraction evaluation of the same geometry.
"""

from __future__ import annotations

from fractions import Fraction

from flatcheck.flatness import _segments_properly_disjoint
from flatcheck.refine import _point_in_triangle

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
