"""Triangle contact classification, box sweep, self-intersection scan.

The sweep's pairs are checked against an explicit all-pairs box test, the
scan against exhaustive pair enumeration (every triangle given the whole
soup's box makes the same scan consider every pair), contact verdicts
are cross-checked with a separating-axis tester on robust configurations,
and contact kinds with a clipping referee in Fraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcheck import (
    CellComplex,
    DegenerateTriangleError,
    GeneratorSpec,
    TriangleBoxes,
    build_complex,
    build_hierarchy,
    candidate_pairs,
    classify_immersion,
    generate,
    self_intersections,
    standard_corpus,
    triangle_contact,
    triangle_soup,
    triangulate_faces,
)
from flatcheck import intersect

from conftest import brute_report, grid_klein, grid_torus, independent_soup, random_rotation

T_BASE = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])


def _soup_for(label_spec):
    return triangle_soup(triangulate_faces(generate(label_spec)))


def test_disjoint_triangles():
    far = T_BASE + np.array([10.0, 10.0, 10.0])
    assert triangle_contact(T_BASE, far) is None
    above = T_BASE + np.array([0.0, 0.0, 1.0])
    assert triangle_contact(T_BASE, above) is None


def test_shared_vertex_touch_point():
    other = np.array([[0.0, 0.0, 0.0], [-3.0, 1.0, 1.0], [-3.0, -1.0, 1.0]])
    c = triangle_contact(T_BASE, other)
    assert c is not None and c.kind == "touch-point"
    assert c.points == ((Fraction(0), Fraction(0), Fraction(0)),)


def test_shared_edge_touch_segment():
    roof = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, -2.0, 2.0]])
    c = triangle_contact(T_BASE, roof)
    assert c is not None and c.kind == "touch-segment"
    pts = {tuple(map(float, p)) for p in c.points}
    assert pts == {(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)}


def test_transversal_crossing_witness():
    # vertical triangle stabbing the base through x in [1, 2] at y = 1
    stab = np.array([[1.0, 1.0, -1.0], [2.0, 1.0, -1.0], [1.5, 1.0, 1.0]])
    c = triangle_contact(T_BASE, stab)
    assert c is not None and c.kind == "transversal"
    pts = {tuple(map(float, p)) for p in c.points}
    assert pts == {(1.25, 1.0, 0.0), (1.75, 1.0, 0.0)}


def test_vertex_resting_on_interior():
    poke = np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 3.0], [1.0, 2.0, 3.0]])
    c = triangle_contact(T_BASE, poke)
    assert c is not None and c.kind == "touch-point"
    assert c.points == ((Fraction(1), Fraction(1), Fraction(0)),)


def test_edge_resting_in_plane():
    # one edge lies inside the base plane, the rest tilts away
    rest = np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 0.0], [1.5, 1.0, 2.0]])
    c = triangle_contact(T_BASE, rest)
    assert c is not None and c.kind == "touch-segment"
    pts = {tuple(map(float, p)) for p in c.points}
    assert pts == {(1.0, 1.0, 0.0), (2.0, 1.0, 0.0)}


def test_coplanar_overlap():
    shifted = T_BASE + np.array([1.0, 1.0, 0.0])
    c = triangle_contact(T_BASE, shifted)
    assert c is not None and c.kind == "coplanar-overlap"


def test_coplanar_exact_tangency():
    mirrored = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, -4.0, 0.0]])
    c = triangle_contact(T_BASE, mirrored)
    assert c is not None and c.kind == "touch-segment"
    corner = np.array([[4.0, 0.0, 0.0], [8.0, 0.0, 0.0], [4.0, -4.0, 0.0]])
    c2 = triangle_contact(T_BASE, corner)
    assert c2 is not None and c2.kind == "touch-point"
    assert c2.points == ((Fraction(4), Fraction(0), Fraction(0)),)


def test_identical_triangles_overlap():
    c = triangle_contact(T_BASE, T_BASE.copy())
    assert c is not None and c.kind == "coplanar-overlap"


def test_soup_rejects_degenerate():
    flat = np.array([[[0, 0, 0], [1, 1, 1], [2, 2, 2]]], dtype=float)
    with pytest.raises(DegenerateTriangleError):
        independent_soup(flat)
    # proper triangles: one ulp off the line, and one whose xy shadow is a
    # segment while its yz and zx shadows have area
    near = np.array([[[0, 0, 0], [1, 1, 1], [2, 2, 2 + 2.0**-51]]])
    upright = np.array([[[0, 0, 0], [1, 1, 0], [2, 2, 1]]], dtype=float)
    assert len(independent_soup(near)) == len(independent_soup(upright)) == 1


def test_contact_rejects_zero_area():
    """A collinear triangle has no plane, so no contact kind is defined;
    both argument orders raise instead of returning an arbitrary kind."""
    p = np.array([[-256.0, 512.0, 0.0], [-512.0, 512.0, 0.0], [1024.0, 512.0, 0.0]])
    q = np.array([[-768.0, -1024.0, 0.0], [-768.0, 768.0, 0.0], [768.0, 768.0, 0.0]])
    with pytest.raises(DegenerateTriangleError, match="triangle p has zero area"):
        triangle_contact(p, q)
    with pytest.raises(DegenerateTriangleError, match="triangle q has zero area"):
        triangle_contact(q, p)
    assert triangle_contact(q, q) is not None


def test_soup_from_arrays_metadata():
    coords = np.stack([T_BASE, T_BASE + 10.0])
    soup = independent_soup(coords)
    assert len(soup) == 2
    assert soup.corners[1].tolist() == [3, 4, 5]
    assert soup.face_vertices[0].isdisjoint(soup.face_vertices[1])


def _all_pairs_meeting(lo, hi):
    """Explicit O(n^2) inclusive box test: rows (i, j), i < j, sorted."""
    meet = np.all(lo[:, None, :] <= hi[None, :, :], axis=2)
    i, j = np.nonzero(np.triu(meet & meet.T, k=1))
    return np.column_stack((i, j))


def _assert_sweep_exact(lo, hi):
    got = candidate_pairs(TriangleBoxes(lo=lo, hi=hi))
    assert got.dtype == np.intp and got.shape == (len(got), 2)
    assert np.all(got[:, 0] < got[:, 1])
    keys = got[:, 0] * len(lo) + got[:, 1]
    assert np.all(np.diff(keys) > 0), "pairs not sorted or repeated"
    np.testing.assert_array_equal(got, _all_pairs_meeting(lo, hi))


# grid-snapped values make ties and touching boxes (lo_j == hi_i) common
_coord = st.one_of(st.integers(-4, 4).map(lambda v: v * 0.5), st.floats(-3.0, 3.0))
_extent = st.one_of(st.just(0.0), st.integers(0, 3).map(lambda v: v * 0.5), st.floats(0.0, 2.0))
_box = st.tuples(st.tuples(_coord, _coord, _coord), st.tuples(_extent, _extent, _extent))


@settings(max_examples=200, deadline=None)
@given(
    boxes=st.lists(_box, min_size=1, max_size=50),
    repeats=st.integers(0, 10),
    block=st.sampled_from([1, 5, 64, intersect._PAIR_BLOCK]),
)
def test_candidate_pairs_equal_all_pairs_box_test(boxes, repeats, block):
    boxes = boxes + boxes[:repeats]     # duplicate boxes
    lo = np.array([b[0] for b in boxes])
    hi = lo + np.array([b[1] for b in boxes])
    # small blocks split runs across block boundaries, as large meshes do
    with mock.patch.object(intersect, "_PAIR_BLOCK", block):
        _assert_sweep_exact(lo, hi)


def test_candidate_pairs_exact_on_corpus():
    for spec in standard_corpus():
        h = build_hierarchy(_soup_for(spec))
        _assert_sweep_exact(h.lo, h.hi)


def test_hierarchy_candidates_cover_contacts():
    soup = _soup_for(GeneratorSpec("grid_klein", m=3, n=3))
    cands = {(i, j) for i, j in candidate_pairs(build_hierarchy(soup)).tolist()}
    report = self_intersections(soup)
    for pair in report.pairs:
        assert (pair.i, pair.j) in cands
    for pair in report.local_overlaps:
        assert (pair.i, pair.j) in cands


def test_hierarchy_matches_brute_on_quotients():
    for spec in (
        GeneratorSpec("grid_klein", m=3, n=3),
        GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
        GeneratorSpec("doubled_cone", total_angle=4 * math.pi),
    ):
        soup = _soup_for(spec)
        fast = self_intersections(soup)
        brute = brute_report(soup)
        assert fast.pairs == brute.pairs, spec.label
        assert fast.local_overlaps == brute.local_overlaps, spec.label


def test_embedded_meshes_are_clean():
    for spec in (
        GeneratorSpec("tetrahedron"),
        GeneratorSpec("cube"),
        GeneratorSpec("icosahedron"),
        GeneratorSpec("grid_torus", m=4, n=5),
    ):
        report = self_intersections(_soup_for(spec))
        assert report.pairs == ()
        assert report.local_overlaps == ()
        assert not report.intersecting


def test_quotient_counts_pinned():
    # regression pins; the values are corroborated by the brute-force scan
    # above and by the embedded controls being clean
    expect = {
        "grid_klein_3x3": (31, 68),
        "grid_klein_5x4": (197, 102),
        "folded_flat_torus_4x4_folds2": (216, 84),
    }
    for spec in (
        GeneratorSpec("grid_klein", m=3, n=3),
        GeneratorSpec("grid_klein", m=5, n=4),
        GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
    ):
        report = self_intersections(_soup_for(spec))
        assert (len(report.pairs), len(report.local_overlaps)) == expect[spec.label]


def test_shared_edge_fold_is_local_overlap():
    # two faces share an edge; one folds back exactly onto the other
    verts = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 0.0), (1.0, 2.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2), (1, 0, 3)])
    report = self_intersections(triangle_soup(triangulate_faces(cx)))
    assert report.pairs == ()
    assert len(report.local_overlaps) == 1
    assert report.local_overlaps[0].kind == "coplanar-overlap"


def test_shared_edge_roof_is_clean():
    verts = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 0.0), (1.0, -2.0, 1.0)]
    cx = build_complex(verts, [(0, 1, 2), (1, 0, 3)])
    report = self_intersections(triangle_soup(triangulate_faces(cx)))
    assert report.pairs == ()
    assert report.local_overlaps == ()


def test_shared_vertex_pair_is_clean():
    verts = [
        (0.0, 0.0, 0.0),
        (2.0, 0.0, 0.0),
        (0.0, 2.0, 0.0),
        (-2.0, 0.0, 1.0),
        (0.0, -2.0, 1.0),
    ]
    cx = build_complex(verts, [(0, 1, 2), (0, 3, 4)])
    report = self_intersections(triangle_soup(triangulate_faces(cx)))
    assert report.pairs == ()
    assert report.local_overlaps == ()


def test_distinct_faces_crossing_counted():
    verts = [
        (0.0, 0.0, 0.0),
        (4.0, 0.0, 0.0),
        (0.0, 4.0, 0.0),
        (1.0, 1.0, -1.0),
        (2.0, 1.0, -1.0),
        (1.5, 1.0, 1.0),
    ]
    cx = build_complex(verts, [(0, 1, 2), (3, 4, 5)])
    report = self_intersections(triangle_soup(triangulate_faces(cx)))
    assert len(report.pairs) == 1
    assert report.pairs[0].kind == "transversal"
    assert report.intersecting
    assert report.local_overlaps == ()


def test_insertion_order_independence():
    soup = _soup_for(GeneratorSpec("grid_klein", m=3, n=3))
    coords = soup.coords
    base = self_intersections(independent_soup(coords))
    base_set = {(p.i, p.j, p.kind) for p in base.pairs}

    rng = np.random.default_rng(11)
    perm = rng.permutation(len(coords))
    permuted = self_intersections(independent_soup(coords[perm]))
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    mapped = set()
    for p in permuted.pairs:
        a, b = sorted((int(perm[p.i]), int(perm[p.j])))
        mapped.add((a, b, p.kind))
    assert mapped == base_set


def test_axis_permutation_and_scaling_exact():
    soup = _soup_for(GeneratorSpec("grid_klein", m=3, n=3))
    coords = soup.coords
    base = self_intersections(independent_soup(coords))
    base_set = {(p.i, p.j, p.kind) for p in base.pairs}
    # exact float transforms: axis swap, sign flip, power-of-two scale, shift
    moved = coords[:, :, [2, 0, 1]] * np.array([4.0, -0.5, 8.0]) + 3.0
    got = self_intersections(independent_soup(moved))
    assert {(p.i, p.j, p.kind) for p in got.pairs} == base_set


def test_rotation_preserves_contact_structure():
    """Rigid motion keeps the contact structure of robust configurations.

    Exact tangencies are excluded: rotating floats perturbs them by an ulp
    and the exact narrow phase truthfully reports the perturbed geometry.
    General-position crossings and separations survive any rigid motion.
    """
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1.0, 1.0, size=(40, 3, 3))
    base = self_intersections(independent_soup(coords))
    base_set = {(p.i, p.j, p.kind) for p in base.pairs}
    assert base_set, "expected some crossings in a dense random soup"
    assert {k for _, _, k in base_set} == {"transversal"}
    for _ in range(3):
        rot = random_rotation(rng)
        got = self_intersections(independent_soup(coords @ rot.T))
        assert {(p.i, p.j, p.kind) for p in got.pairs} == base_set


def _sat_disjoint_margin(p, q):
    """Separating-axis verdict: (separated, margin).

    margin > 0 with separated=True means a strict gap on some axis; with
    separated=False it is the smallest projection overlap across all axes.
    """
    ep = [p[1] - p[0], p[2] - p[1], p[0] - p[2]]
    eq = [q[1] - q[0], q[2] - q[1], q[0] - q[2]]
    axes = [np.cross(ep[0], ep[1]), np.cross(eq[0], eq[1])]
    axes += [np.cross(a, b) for a in ep for b in eq]
    best_gap = -math.inf
    min_overlap = math.inf
    for axis in axes:
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            continue
        axis = axis / norm
        lo_p, hi_p = np.min(p @ axis), np.max(p @ axis)
        lo_q, hi_q = np.min(q @ axis), np.max(q @ axis)
        gap = max(lo_q - hi_p, lo_p - hi_q)
        if gap > best_gap:
            best_gap = gap
        min_overlap = min(min_overlap, min(hi_p, hi_q) - max(lo_p, lo_q))
    if best_gap > 0:
        return True, best_gap
    return False, min_overlap


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contact_agrees_with_separating_axes(seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, size=(12, 3, 3))
    scale = float(np.max(np.abs(coords)))
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            separated, margin = _sat_disjoint_margin(coords[i], coords[j])
            if margin < 1e-9 * scale:
                continue  # too close to a touch for a float referee
            contact = triangle_contact(coords[i], coords[j])
            if separated:
                assert contact is None
            else:
                assert contact is not None


# ---------------------------------------------------------------------------
# referee for the narrow phase: the contact set is found by clipping in
# Fraction, with no plane-sign vector, and a contact segment is transversal
# iff its midpoint is strictly inside both triangles


def _r_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _r_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _r_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _r_lerp(a, b, t):
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def _rational(t):
    return [tuple(Fraction(float(c)) for c in v) for v in t]


def _r_edges(tri):
    """Inward edge half-planes (m, v) of a triangle, within its plane: a
    point x of the plane is in the triangle iff m . (x - v) >= 0 for all."""
    n = _r_cross(_r_sub(tri[1], tri[0]), _r_sub(tri[2], tri[0]))
    return [(_r_cross(n, _r_sub(tri[(k + 1) % 3], tri[k])), tri[k]) for k in range(3)]


def _r_interior(x, tri):
    return all(_r_dot(m, _r_sub(x, v)) > 0 for m, v in _r_edges(tri))


def _r_in_closed(x, tri):
    n = _r_cross(_r_sub(tri[1], tri[0]), _r_sub(tri[2], tri[0]))
    on_plane = _r_dot(n, _r_sub(x, tri[0])) == 0
    return on_plane and all(_r_dot(m, _r_sub(x, v)) >= 0 for m, v in _r_edges(tri))


def _referee_kind(p, q):
    """(kind, contact set) of two positive-area triangles, or None.  The
    set is one point, the two ends of a segment, or a coplanar overlap's
    clipped ring."""
    a, b = _rational(p), _rational(q)
    n = _r_cross(_r_sub(a[1], a[0]), _r_sub(a[2], a[0]))
    height = [_r_dot(n, _r_sub(v, a[0])) for v in b]
    if all(h == 0 for h in height):
        # clip q by p's three edge half-planes
        poly = list(b)
        for m, v in _r_edges(a):
            side = [_r_dot(m, _r_sub(x, v)) for x in poly]
            out = []
            for k in range(len(poly)):
                s0, s1 = side[k], side[(k + 1) % len(poly)]
                if s0 >= 0:
                    out.append(poly[k])
                if s0 * s1 < 0:
                    out.append(_r_lerp(poly[k], poly[(k + 1) % len(poly)], s0 / (s0 - s1)))
            poly = out
        pts = list(dict.fromkeys(poly))
        if not pts:
            return None
        if len(pts) == 1:
            return "touch-point", pts
        spread = [_r_cross(_r_sub(x, pts[0]), _r_sub(y, pts[0])) for x in pts for y in pts]
        if any(c != (0, 0, 0) for c in spread):
            return "coplanar-overlap", pts
        # collinear: the ends are the farthest pair
        ends = max(((x, y) for x in pts for y in pts),
                   key=lambda e: _r_dot(_r_sub(*e), _r_sub(*e)))
        return "touch-segment", list(ends)
    # q's section by p's plane: at most two distinct points
    section = [b[k] for k in range(3) if height[k] == 0]
    for k in range(3):
        h0, h1 = height[k], height[(k + 1) % 3]
        if h0 * h1 < 0:
            section.append(_r_lerp(b[k], b[(k + 1) % 3], h0 / (h0 - h1)))
    section = list(dict.fromkeys(section))
    if not section:
        return None
    s0, s1 = section[0], section[-1]
    # Liang-Barsky clip of the section by p's edge half-planes
    lo, hi = Fraction(0), Fraction(1)
    for m, v in _r_edges(a):
        base = _r_dot(m, _r_sub(s0, v))
        slope = _r_dot(m, _r_sub(s1, s0))
        if slope == 0:
            if base < 0:
                return None
        elif slope > 0:
            lo = max(lo, -base / slope)
        else:
            hi = min(hi, -base / slope)
    if lo > hi:
        return None
    x0, x1 = _r_lerp(s0, s1, lo), _r_lerp(s0, s1, hi)
    if x0 == x1:
        return "touch-point", [x0]
    mid = _r_lerp(x0, x1, Fraction(1, 2))
    if _r_interior(mid, a) and _r_interior(mid, b):
        return "transversal", [x0, x1]
    return "touch-segment", [x0, x1]


def _assert_matches_referee(p, q):
    """triangle_contact's kind is the referee's; its points are the
    referee's, or for an overlap lie in both closed triangles."""
    contact, expect = triangle_contact(p, q), _referee_kind(p, q)
    if expect is None:
        assert contact is None
        return
    kind, points = expect
    assert contact is not None and contact.kind == kind
    if kind == "coplanar-overlap":
        a, b = _rational(p), _rational(q)
        assert len(contact.points) >= 3
        assert all(_r_in_closed(x, a) and _r_in_closed(x, b) for x in contact.points)
    else:
        assert set(contact.points) == set(points)


_grid = st.integers(-2, 2).map(lambda v: v * 0.5)
_real = st.floats(-2.0, 2.0, allow_subnormal=False)
_corner = st.tuples(_grid, _grid, _grid) | st.tuples(_real, _real, _real)


@st.composite
def _triangle_pair(draw):
    """Two triangles, drawn from grid-snapped and float corners: unrelated,
    sharing a corner, sharing an edge, or in one plane."""
    family = draw(st.sampled_from(["free", "corner", "edge", "coplanar"]))
    corner = _corner if family != "coplanar" else st.tuples(_grid, _grid, _grid)
    p = draw(st.lists(corner, min_size=3, max_size=3))
    q = draw(st.lists(corner, min_size=3, max_size=3))
    if family == "corner":
        q[0] = p[draw(st.integers(0, 2))]
    elif family == "edge":
        k = draw(st.integers(0, 2))
        q[0], q[1] = p[k], p[(k + 1) % 3]
        if draw(st.booleans()):
            q[0], q[1] = q[1], q[0]
    elif family == "coplanar":
        # the plane z = x + y (or z = 0), exact on the half-integer grid
        tilt = draw(st.booleans())
        p = [(x, y, x + y if tilt else 0.0) for x, y, _ in p]
        q = [(x, y, x + y if tilt else 0.0) for x, y, _ in q]
    return np.array(p, dtype=float), np.array(q, dtype=float)


def _positive_area(t) -> bool:
    r = _rational(t)
    return _r_cross(_r_sub(r[1], r[0]), _r_sub(r[2], r[0])) != (0, 0, 0)


@settings(max_examples=600, deadline=None)
@given(pair=_triangle_pair(), swap=st.booleans())
def test_contact_kind_matches_clipping_referee(pair, swap):
    p, q = pair[::-1] if swap else pair
    assume(_positive_area(p) and _positive_area(q))
    _assert_matches_referee(p, q)


def _scaled(t, k):
    """t times 2^k, or None when np.ldexp rounds or overflows."""
    with np.errstate(over="ignore"):
        out = np.ldexp(t, k)
    return out if np.array_equal(np.ldexp(out, -k), t) else None


def _assert_canonical_points(p, q):
    """The kernel's points are canonical, (X, Y, Z, W) with W > 0 and gcd
    1, so that equal points are equal tuples."""
    corners, _ = intersect._grid(np.concatenate((p, q)))
    found = intersect._contact(intersect._triangle(*corners[:3]),
                               intersect._triangle(*corners[3:]))
    for x in found[1] if found else ():
        assert x[3] > 0 and math.gcd(*x) == 1, x


@settings(max_examples=400, deadline=None)
@given(
    pair=_triangle_pair(),
    swap=st.booleans(),
    k=st.integers(-1060, 1000),
    offset=st.none() | st.tuples(st.integers(0, 5), st.integers(1, 2**20)),
)
def test_contact_exact_over_double_range(pair, swap, k, offset):
    p, q = pair[::-1] if swap else pair
    assume(_positive_area(p) and _positive_area(q))
    sp, sq = _scaled(p, k), _scaled(q, k)
    assume(sp is not None and sq is not None)
    _assert_matches_referee(sp, sq)
    _assert_canonical_points(sp, sq)
    base, got = triangle_contact(p, q), triangle_contact(sp, sq)
    if base is None:
        assert got is None
    else:
        unit = Fraction(2) ** -k
        assert got.kind == base.kind
        assert tuple(tuple(c * unit for c in x) for x in got.points) == base.points
    if offset is not None:
        # a subnormal step on one coordinate, where it does not round away
        at, steps = offset
        sp = sp.copy()
        sp.flat[at] += steps * 2.0**-1074
        assume(_positive_area(sp))
        _assert_matches_referee(sp, sq)


@functools.cache
def _refinement(spec):
    return triangulate_faces(generate(spec))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-1060, 1000))
def test_self_intersections_exact_over_double_range(k):
    for spec in (
        GeneratorSpec("grid_klein", m=3, n=3),
        GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
        GeneratorSpec("doubled_cone", total_angle=4 * math.pi),
    ):
        refinement = _refinement(spec)
        derived = refinement.derived
        points = _scaled(derived.vertices, k)
        assume(points is not None)
        moved = replace(refinement, derived=CellComplex(points, derived.faces))
        assert self_intersections(triangle_soup(moved)) == self_intersections(
            triangle_soup(refinement)), spec.label


@pytest.mark.parametrize("spec", [
    GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
    GeneratorSpec("grid_klein", m=3, n=3),
    GeneratorSpec("doubled_cone", total_angle=4 * math.pi),
], ids=lambda spec: spec.label)
def test_verdict_path_builds_no_fraction(spec):
    soup = _soup_for(spec)
    with mock.patch.object(intersect, "Fraction", side_effect=AssertionError("Fraction built")):
        report = self_intersections(soup)
    assert report.pairs or report.local_overlaps


def test_classify_immersion_table():
    assert classify_immersion(False, ()) == "not-an-immersion"
    assert classify_immersion(False, ("x",)) == "not-an-immersion"
    assert classify_immersion(True, ()) == "embedded"
    assert classify_immersion(True, ("x",)) == "immersed"


def test_report_census():
    soup = _soup_for(GeneratorSpec("doubled_cone", total_angle=4 * math.pi))
    report = self_intersections(soup)
    census = report.kind_census
    assert sum(census.values()) == len(report.pairs)
    assert report.n_candidates >= len(report.pairs)
