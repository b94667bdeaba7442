"""The 2-d orientation predicate, with exact rational fallback.

orient2d evaluates the sign of a 3-point determinant with a conservative
forward-error bound; when the magnitude falls below the bound it is
re-evaluated with fractions.Fraction, which represents every double
exactly, so the returned sign is always the true sign of the determinant
of the given coordinates.  Refinement, flatness and the soup's zero-area
test take their 2-d turns from it; the narrow phase computes its own
signs exactly in integers, in intersect.
"""
from __future__ import annotations

from fractions import Fraction

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


def orient2d_exact(a, b, c) -> int:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    det = (Fraction(b[0]) - ax) * (Fraction(c[1]) - ay) \
        - (Fraction(b[1]) - ay) * (Fraction(c[0]) - ax)
    return (det > 0) - (det < 0)
