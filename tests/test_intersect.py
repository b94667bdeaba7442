"""Triangle contact classification, box sweep, self-intersection scan.

The sweep's pairs are checked against an explicit all-pairs box test, the
scan against exhaustive pair enumeration (every triangle given the whole
soup's box makes the same scan consider every pair), every pair the float
pass drops or decides against the exact kernel and shared-cell test, contact
verdicts are cross-checked with a separating-axis tester on robust
configurations, and contact kinds with a clipping referee in Fraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import random
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from flatcheck import (
    ContactRows,
    DegenerateTriangleError,
    GeneratorSpec,
    MeshError,
    Refinement,
    barycentric_subdivision,
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
from flatcheck.corpus import _klein_class, doubled_cone
from flatcheck.predicates import cross, filter_scaled, normals, plane_labels

from conftest import (brute_report, grid_klein, grid_torus, independent_soup, random_rotation,
                      referee_cells, referee_shared_cells)

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


def test_soup_zero_area_test_is_exact_only_where_the_filter_is_unsure():
    """A certified nonzero normal component proves area, so a proper mesh
    takes no exact test; a degenerate row still gets the first index, and
    a row one ulp off a line goes to the exact test, alone, and passes.
    The exact test puts the unproved rows' corners on their own grid."""
    refinement = triangulate_faces(grid_torus(12, 12))
    with mock.patch.object(intersect, "_grid", wraps=intersect._grid) as exact:
        triangle_soup(refinement)
    assert exact.call_count == 0
    line = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    coords = np.array([T_BASE, line, T_BASE + 5.0, line, T_BASE - 5.0], dtype=float)
    with pytest.raises(DegenerateTriangleError,
                       match=r"^2 zero-area derived triangle\(s\), first at index 1 \(source face 1\)$"):
        independent_soup(coords)
    near = np.array([[[0, 0, 0], [1, 1, 1], [2, 2, 2 + 2.0**-51]], T_BASE])
    with mock.patch.object(intersect, "_grid", wraps=intersect._grid) as exact:
        assert len(independent_soup(near)) == 2
    assert exact.call_count == 1
    assert exact.call_args.args[0].tolist() == near[0].tolist()


def _with_derived_vertex(refinement, v, value):
    points = refinement.derived.vertices.copy()
    points[v, 1] = value
    return replace(refinement, derived=replace(refinement.derived, vertices=points))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_soup_names_first_nonfinite_vertex(bad):
    refinement = triangulate_faces(generate(GeneratorSpec("tetrahedron")))
    moved = _with_derived_vertex(_with_derived_vertex(refinement, 3, bad), 2, bad)
    with pytest.raises(MeshError, match=r"^derived vertex 2 has a non-finite coordinate"):
        self_intersections(triangle_soup(moved))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_contact_names_first_nonfinite_corner(bad):
    q = T_BASE.copy()
    q[1, 2] = bad
    with pytest.raises(MeshError, match=r"^triangle q corner 1 has a non-finite coordinate"):
        triangle_contact(T_BASE, q)
    with pytest.raises(MeshError, match=r"^triangle p corner 1 has a non-finite coordinate"):
        triangle_contact(q, T_BASE)


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


def _polygon_mesh():
    """An open mesh of three polygons around a reflex hexagon, which is
    ear-clipped: a bowtie quad on one of its sides, fanned as not simple,
    and a quad with one corner lifted off the plane on another, fanned
    for planarity."""
    vertices = [(0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 2, 0), (2, 4, 0), (0, 4, 0),
                (6, 0, 0), (6, 2, 0), (0, 6, 1), (2, 6, 0)]
    return build_complex(vertices, [(0, 1, 2, 3, 4, 5), (2, 1, 7, 6), (5, 4, 9, 8)])


def test_polygon_mesh_triangulation():
    ref = triangulate_faces(_polygon_mesh())
    assert [(r.face, r.reason) for r in ref.fallbacks] == [(1, "not-simple"), (2, "planarity")]
    assert ref.triangle_sources.tolist() == [0, 0, 0, 0, 1, 1, 2, 2]


def _refinements(corpus_meshes, levels):
    """Each corpus mesh and _polygon_mesh, unit scaled, triangulated and
    then subdivided `levels` times."""
    for cx in [cx for _, cx in corpus_meshes.values()] + [_polygon_mesh()]:
        ref = triangulate_faces(cx.unit_scaled()[0])
        for _ in range(levels):
            ref = barycentric_subdivision(ref.derived)
        yield ref


@pytest.mark.parametrize("levels", [0, 1, 2], ids=["triangulated", "barycentric", "barycentric2"])
def test_soup_cells_match_frozenset_loop(corpus_meshes, levels):
    """The soup's array-built cells against referee_cells' loop over the
    source faces: the edge cell flags, each face's vertex cells and edge
    cells as keys, the edges they index, and _shared_cells on every
    box-meeting pair, among them every row the float pass leaves to the
    exact loop, reading only the points that _cell_runs marks.  The
    barycentric refinements give every source edge a midpoint.  A derived
    vertex that triangles of two source faces use is a vertex cell of
    both, which the float pass takes for granted at a shared corner."""
    rows = 0
    for ref in _refinements(corpus_meshes, levels):
        soup = triangle_soup(ref)
        face_vertices, face_edges = referee_cells(ref)
        n = len(soup.points)
        corners, faces = soup.corners.tolist(), soup.source_face.tolist()
        users = {}
        for tri, f in zip(corners, faces):
            for c in tri:
                users.setdefault(c, set()).add(f)
        assert all(c in face_vertices[f] for c, fs in users.items() if len(fs) > 1 for f in fs)
        assert soup.edge_cells.tolist() == [
            [(min(tri[k - 2], tri[k - 1]), max(tri[k - 2], tri[k - 1])) in face_edges[f]
             for k in range(3)] for tri, f in zip(corners, faces)]
        edges = sorted({u * n + v for cells in face_edges for u, v in cells})
        at = {e: k for k, e in enumerate(edges)}
        assert soup.edges.tolist() == edges
        assert soup.face_vertices.tolist() == sorted(
            f * n + v for f, cells in enumerate(face_vertices) for v in cells)
        assert soup.face_edges.tolist() == sorted(
            f * len(edges) + at[u * n + v] for f, cells in enumerate(face_edges) for u, v in cells)
        keys = (soup.face_vertices, soup.edges, soup.face_edges)
        assert all(a.dtype == np.int64 for a in keys)
        cands = candidate_pairs(build_hierarchy(soup))
        left = {tuple(r) for r in intersect._undecided_rows(soup, cands)[0].tolist()}
        assert left <= {tuple(r) for r in cands.tolist()}
        rows += len(left)
        # the grid that maps each marked id, and only those, to itself
        runs, used = intersect._cell_runs(soup, cands)
        marked = {v: v for v in np.flatnonzero(used).tolist()}
        for (i, j), run in zip(cands.tolist(), runs):
            assert (intersect._shared_cells(soup, marked, corners[i], corners[j], run)
                    == referee_shared_cells(face_vertices, face_edges, range(n),
                                            corners[i], corners[j], faces[i], faces[j])), (i, j)
    assert rows > 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(0, 1))
def test_soup_cells_ignore_triangle_order(corpus_meshes, seed, levels):
    """Permuting the derived triangles together with their sources, and
    rotating each triangle's corners, leaves every face's cells as they
    are: they are read off the face's triangles in any order.  The edge
    cell flags move with their corners."""
    rng = np.random.default_rng(seed)
    for ref in _refinements(corpus_meshes, levels):
        tri = ref.derived.corners.reshape(-1, 3)
        perm = rng.permutation(len(tri))
        turn = (np.arange(3) + rng.integers(3, size=(len(tri), 1))) % 3
        moved = Refinement(ref.source,
                           replace(ref.derived, corners=np.take_along_axis(tri[perm], turn, axis=1)),
                           ref.triangle_sources[perm])
        got, want = triangle_soup(moved), triangle_soup(ref)
        for name in ("face_vertices", "edges", "face_edges"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.edge_cells.tolist()
                == np.take_along_axis(want.edge_cells[perm], turn, axis=1).tolist())


def test_soup_size_linear_at_high_valence(corpus_meshes):
    """Each source face keeps its own cells, so the soup grows with its
    triangles and not with the square of a vertex's valence: each apex of
    the doubled cone is a corner of 1,000 triangles, and a table of the
    face pairs that share a vertex would hold about 10^6 rows.  The two
    key arrays hold at most 6 entries per triangle: a triangulated k-gon
    has k - 2 triangles, k vertex cells and k edge cells, and a subdivided
    one 2k triangles and 2k of each."""
    ref = triangulate_faces(doubled_cone(2 * math.pi, 1000))
    tracemalloc.start()
    try:
        triangle_soup(ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    for levels in (0, 1):
        for ref in _refinements(corpus_meshes, levels):
            soup = triangle_soup(ref)
            assert len(soup.face_vertices) + len(soup.face_edges) <= 6 * len(soup)


def _quad_klein(m, n):
    """The m x n Klein grid of quads, on grid_klein's vertices (i, j, 0)."""
    faces = [tuple(_klein_class(m, n, i + di, j + dj)
                   for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)))
             for j in range(n) for i in range(m)]
    return build_complex(grid_klein(m, n).vertices, faces)


def test_flat_rows_of_two_quads_look_up_common_cells():
    """The quad Klein grid lies in one plane on integer coordinates, so
    every row is flat, and its rows between triangles of two quads make
    the float pass look up the cells the quads share; the report is the
    all-pairs referee's."""
    soup = triangle_soup(triangulate_faces(_quad_klein(5, 5)))
    cands = candidate_pairs(build_hierarchy(soup))
    with mock.patch.object(intersect, "_common_cells", wraps=intersect._common_cells) as spy:
        intersect._undecided_rows(soup, cands)
    assert any(len(call.args[2]) for call in spy.call_args_list)
    fast, brute = self_intersections(soup), brute_report(soup)
    assert (fast.pairs, fast.local_overlaps) == (brute.pairs, brute.local_overlaps)
    assert fast.pairs and fast.local_overlaps


def _all_pairs_meeting(lo, hi):
    """Explicit O(n^2) inclusive box test: rows (i, j), i < j, sorted."""
    meet = np.all(lo[:, None, :] <= hi[None, :, :], axis=2)
    i, j = np.nonzero(np.triu(meet & meet.T, k=1))
    return np.column_stack((i, j))


def _assert_sweep_exact(lo, hi):
    got = candidate_pairs((lo, hi))
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
    spanning=st.booleans(),
    point=st.tuples(_coord, _coord, _coord),
    points=st.integers(0, 4),
)
def test_candidate_pairs_equal_all_pairs_box_test(boxes, repeats, block, spanning, point,
                                                  points):
    boxes = boxes + boxes[:repeats]     # duplicate boxes
    # zero-extent boxes that share lo on every axis
    boxes = boxes + [(point, (0.0, 0.0, 0.0))] * points
    lo = np.array([b[0] for b in boxes])
    hi = lo + np.array([b[1] for b in boxes])
    if spanning:
        # one box that meets every other: its run is longer than the block
        lo = np.vstack([lo.min(axis=0) - 1.0, lo])
        hi = np.vstack([hi.max(axis=0) + 1.0, hi])
    # small blocks split runs across block boundaries, as large meshes do
    with mock.patch.object(intersect, "_PAIR_BLOCK", block):
        _assert_sweep_exact(lo, hi)


def test_candidate_pairs_exact_on_corpus():
    for spec in standard_corpus():
        _assert_sweep_exact(*build_hierarchy(_soup_for(spec)))


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
    with mock.patch.object(intersect, "_contact", side_effect=AssertionError("kernel called")):
        report = self_intersections(triangle_soup(triangulate_faces(cx)))
    assert report.pairs == ()
    assert len(report.local_overlaps) == 1
    assert report.local_overlaps[0].kind == "coplanar-overlap"


def test_shared_edge_roof_is_clean():
    verts = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 0.0), (1.0, -2.0, 1.0)]
    cx = build_complex(verts, [(0, 1, 2), (1, 0, 3)])
    with mock.patch.object(intersect, "_contact", side_effect=AssertionError("kernel called")):
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
    with mock.patch.object(intersect, "_contact", side_effect=AssertionError("kernel called")):
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
    sharing a corner or sharing an edge, and either free or in one plane."""
    family = draw(st.sampled_from(["free", "corner", "edge"]))
    coplanar = draw(st.booleans())
    corner = st.tuples(_grid, _grid, _grid) if coplanar else _corner
    p = draw(st.lists(corner, min_size=3, max_size=3))
    q = draw(st.lists(corner, min_size=3, max_size=3))
    if family == "corner":
        q[0] = p[draw(st.integers(0, 2))]
    elif family == "edge":
        k = draw(st.integers(0, 2))
        q[0], q[1] = p[k], p[(k + 1) % 3]
        if draw(st.booleans()):
            q[0], q[1] = q[1], q[0]
    if coplanar:
        # the plane z = x + y (or z = 0), exact on the half-integer grid
        tilt = draw(st.booleans())
        p = [(x, y, x + y if tilt else 0.0) for x, y, _ in p]
        q = [(x, y, x + y if tilt else 0.0) for x, y, _ in q]
    return np.array(p, dtype=float), np.array(q, dtype=float)


_lattice = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
_half = st.integers(-6, 6).map(lambda v: v * 0.5)


@st.composite
def _coplanar_pair(draw):
    """Two triangles in one plane: z = 0, or o + s u + t v for small
    integer vectors o, u, v and half-integer s, t, every point exact; free,
    sharing a corner or sharing an edge; then the axes permuted and their
    signs flipped."""
    family = draw(st.sampled_from(["free", "corner", "edge"]))
    if draw(st.booleans()):
        o, u, v = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    else:
        o, u, v = draw(_lattice), draw(_lattice), draw(_lattice)
    st_pairs = st.lists(st.tuples(_half, _half), min_size=3, max_size=3)
    p, q = draw(st_pairs), draw(st_pairs)
    if family == "corner":
        q[0] = p[draw(st.integers(0, 2))]
    elif family == "edge":
        k = draw(st.integers(0, 2))
        q[0], q[1] = p[k], p[(k + 1) % 3]
        if draw(st.booleans()):
            q[0], q[1] = q[1], q[0]
    axes = draw(st.permutations(range(3)))
    signs = np.array(draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3)))

    def embed(st_):
        pts = np.array(o) + np.array([s * np.array(u) + t * np.array(v) for s, t in st_])
        return pts[:, axes] * signs
    return embed(p), embed(q)


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
        moved = replace(refinement, derived=replace(derived, vertices=points))
        assert self_intersections(triangle_soup(moved)) == self_intersections(
            triangle_soup(refinement)), spec.label


# ---------------------------------------------------------------------------
# every report of self_intersections, from the float pass or the exact loop,
# is refereed by the contact kernel followed by the shared-cell test, which
# brute_report applies to every pair


def _spy(call, out):
    """call, appending each result to out."""
    def run(*args):
        out.append(call(*args))
        return out[-1]
    return run


def _merged(p, q):
    """Vertex rows of p's corners and q's, and q's corner ids: a corner of q
    equal to one of p's takes its id, so p is (0, 1, 2)."""
    rows = [tuple(c) for c in p]
    ids = []
    for c in map(tuple, q.tolist()):
        if c not in rows:
            rows.append(c)
        ids.append(rows.index(c))
    return rows, ids


@st.composite
def _small_complex(draw, pairs=_triangle_pair()):
    """Vertex rows, faces and a refinement from a pair p and q, by default
    _triangle_pair's:
    the two as two faces, triangulated as they are or barycentrically
    subdivided so that edge midpoints are shared; or, when they share an
    edge or a corner, the two as one polygon (a quad around the edge, a
    pentagon around the corner) whose triangles share cells within one
    face, alone or with a triangle on its diagonal from the first corner,
    so that a derived edge is shared that is no source edge."""
    p, q = draw(pairs)
    rows, qi = _merged(p, q)
    shared = [v for v in (0, 1, 2) if v in qi]
    layout = draw(st.sampled_from(["faces", "polygon", "polygon+triangle"]))
    if layout == "faces" or len(set(qi)) < 3 or len(shared) not in (1, 2):
        refine = draw(st.sampled_from([triangulate_faces, barycentric_subdivision]))
        return rows, [(0, 1, 2), tuple(qi)], refine
    if len(shared) == 2:
        (wa,) = set((0, 1, 2)) - set(shared)
        (wb,) = set(qi) - set(shared)
        u, v = (wa + 1) % 3, (wa + 2) % 3
        polygon = (u, wb, v, wa)
    else:
        (w,) = shared
        k = qi.index(w)
        polygon = (w, (w + 1) % 3, (w + 2) % 3, qi[(k + 1) % 3], qi[(k + 2) % 3])
    faces = [polygon]
    if layout == "polygon+triangle":
        rows.append(draw(_corner))
        faces.append((polygon[0], polygon[2], len(rows) - 1))
    return rows, faces, triangulate_faces


@settings(max_examples=500, deadline=None)
@given(cx=_small_complex(), k=st.just(0) | st.integers(-1060, 1000))
def test_adjacent_decisions_match_kernel(cx, k):
    """The report of every pair, or its absence, is the kernel's and the
    shared-cell test's, at every binary scale of the coordinates, also
    when the faces are subdivided and edge midpoints are shared."""
    rows, faces, refine = cx
    try:
        refinement = refine(build_complex(rows, faces))
        derived = refinement.derived
        points = _scaled(derived.vertices, k)
        assume(points is not None)
        soup = triangle_soup(replace(refinement, derived=replace(derived, vertices=points)))
    except MeshError:
        reject()
    fast, brute = self_intersections(soup), brute_report(soup)
    assert (fast.pairs, fast.local_overlaps) == (brute.pairs, brute.local_overlaps)


@settings(max_examples=600, deadline=None)
@given(
    cx=_small_complex(_coplanar_pair()),
    k=st.just(0) | st.integers(-1060, 1000),
    jitter=st.none() | st.integers(0, 2**10),
)
# edges along one line, overlapping in a segment whose ends are one
# corner of each: not a point
@example(cx=([(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 0), (3, 0, 0), (2, -1, 0)],
             [(0, 1, 2), (3, 4, 5)], triangulate_faces), k=0, jitter=None)
def test_coplanar_pass_matches_kernel(cx, k, jitter):
    """The float pass decides exactly coplanar pairs on the 2^-15 grid by
    their orient2d signs: free, shared-corner, shared-edge and same-face
    pairs on tilted and axis planes, at every binary scale, and with one
    coordinate moved by one ulp, off the grid.  The report is the
    referee's, in pairs, local overlaps, kinds and order."""
    rows, faces, refine = cx
    try:
        refinement = refine(build_complex(rows, faces))
        derived = refinement.derived
        points = derived.vertices if jitter is None else _jittered(derived.vertices, jitter, 1)
        points = _scaled(points, k)
        assume(points is not None)
        soup = triangle_soup(replace(refinement, derived=replace(derived, vertices=points)))
    except MeshError:
        reject()
    fast, brute = self_intersections(soup), brute_report(soup)
    assert (fast.pairs, fast.local_overlaps) == (brute.pairs, brute.local_overlaps)


def _face_pairs(soup, report):
    """The source-face pairs of a report's pairs and of its local overlaps."""
    faces = soup.source_face.tolist()
    return tuple({tuple(sorted((faces[pc.i], faces[pc.j]))) for pc in contacts}
                 for contacts in (report.pairs, report.local_overlaps))


@pytest.mark.parametrize("spec", standard_corpus(), ids=lambda spec: spec.label)
def test_subdivision_reports_the_same_face_pairs(spec):
    """A rounded edge midpoint need not lie on its source edge, but it is a
    corner both faces at that edge may share: barycentric subdivision
    leaves the report's source-face pairs as they are, so the embedded
    tori keep 0 local overlaps."""
    cx = triangulate_faces(generate(spec)).derived
    whole, split = triangle_soup(triangulate_faces(cx)), triangle_soup(barycentric_subdivision(cx))
    assert _face_pairs(split, self_intersections(split)) == _face_pairs(whole, self_intersections(whole))


@pytest.mark.parametrize("spec, rows", [
    (GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2), 312),
    (GeneratorSpec("grid_klein", m=3, n=3), 102),
], ids=["folded_flat_torus_4x4_folds2", "grid_klein_3x3"])
def test_off_grid_contacts_match_referee(spec, rows):
    """Scaled by 0.1, the contact meshes' coordinates leave the float
    pass's 2^-15 grid, so it reports no contact itself and leaves 312 and
    102 rows to the exact loop, among them coplanar neighbours that share
    an edge.  The loop runs the kernel once per row, and the report is
    the referee's, in pairs, local overlaps, kinds and order."""
    refinement = _refinement(spec)
    derived = refinement.derived
    soup = triangle_soup(replace(refinement, derived=replace(derived,
                                                             vertices=0.1 * derived.vertices)))
    left, found = [], []
    with mock.patch.object(intersect, "_undecided_rows", _spy(intersect._undecided_rows, left)), \
            mock.patch.object(intersect, "_contact", _spy(intersect._contact, found)):
        report = self_intersections(soup)
    brute = brute_report(soup)
    assert (report.pairs, report.local_overlaps) == (brute.pairs, brute.local_overlaps)
    assert len(left[0][0]) == len(found) == rows and len(left[0][1]) == 0


@pytest.mark.parametrize("cx, rows", [
    (grid_torus(12, 12), 1),
    (barycentric_subdivision(generate(GeneratorSpec("icosahedron"))).derived, 12),
], ids=["grid_torus_12x12", "icosahedron_bary1"])
def test_most_adjacent_pairs_skip_the_kernel(cx, rows):
    """On embedded meshes nearly every box-meeting pair is vertex-adjacent
    or disjoint, and the float pass decides it by its plane and edge-line
    tests: 1 of 1,983 and 12 of 900 pairs are left to the exact loop,
    which runs the contact kernel once on each."""
    soup = triangle_soup(triangulate_faces(cx))
    left = []
    with mock.patch.object(intersect, "_undecided_rows", _spy(intersect._undecided_rows, left)), \
            mock.patch.object(intersect, "_contact", wraps=intersect._contact) as kernel:
        report = self_intersections(soup)
    assert report.pairs == () and report.local_overlaps == ()
    assert kernel.call_count == len(left[0][0]) == rows
    assert kernel.call_count <= 0.02 * report.n_candidates


@pytest.mark.parametrize("spec", [
    GeneratorSpec("folded_flat_torus", m=12, n=12, folds=2),
    GeneratorSpec("grid_klein", m=8, n=8),
], ids=["folded_flat_torus_12x12_folds2", "grid_klein_8x8"])
def test_contact_kernel_sees_only_touching_pairs(spec):
    """On the contact-rich check meshes the float pass decides every one of
    the 8,048 and 2,868 box-meeting pairs: it drops every pair the kernel
    would find disjoint, and decides the coplanar ones itself, among them
    the touch-segments of neighbours that share one corner, which lie
    beyond the points their faces may share.  No row reaches the exact
    loop and the contact kernel is never called."""
    soup = _soup_for(spec)
    left, found = [], []
    with mock.patch.object(intersect, "_undecided_rows", _spy(intersect._undecided_rows, left)), \
            mock.patch.object(intersect, "_contact", _spy(intersect._contact, found)):
        report = self_intersections(soup)
    assert len(left[0][0]) == len(found) == 0
    assert len(report.pairs) + len(report.local_overlaps) == len(left[0][1]) > 1000


@pytest.mark.parametrize("name", ["folded_flat_torus_12x12_2", "grid_klein_8x8"])
def test_reports_sorted_by_pair(monkeypatch, name):
    """The float pass's contacts and the loop's are merged by row: both
    report lists are strictly sorted by (i, j) on the contact meshes and
    on the benchmark's seeded symmetries of them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    meshes = importlib.import_module("perfbench.meshes")
    base = dict(meshes.WORKLOADS["check_contacts"].meshes)[name]()
    for k in range(4):
        cx = meshes.transformed(base, random.Random(f"11:{name}:{k}")) if k else base
        report = self_intersections(triangle_soup(triangulate_faces(cx.unit_scaled()[0])))
        for contacts in (report.pairs, report.local_overlaps):
            keys = [(pc.i, pc.j) for pc in contacts]
            assert keys and keys == sorted(set(keys))


def _check_contacts_report(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    meshes = importlib.import_module("perfbench.meshes")
    cx = dict(meshes.WORKLOADS["check_contacts"].meshes)[name]()
    return self_intersections(triangle_soup(triangulate_faces(cx.unit_scaled()[0])))


@pytest.mark.parametrize("name", ["folded_flat_torus_12x12_2", "grid_klein_8x8", "empty"])
def test_contact_rows_read_as_tuple(monkeypatch, name):
    """A report's ContactRows reads as the tuple of PairContacts it
    replaces: length, truth, iteration, indexing from either end, slices,
    == and != both ways against that tuple (and a list), the hash, and
    the kind census of the pairs."""
    if name == "empty":
        report = self_intersections(_soup_for(GeneratorSpec("cube")))
    else:
        report = _check_contacts_report(monkeypatch, name)
    kinds = ContactRows.kinds
    for contacts in (report.pairs, report.local_overlaps):
        rows = contacts.rows.tolist()
        tup = tuple(intersect.PairContact(i, j, kinds[k]) for i, j, k in rows)
        assert isinstance(contacts, ContactRows) and not contacts.rows.flags.writeable
        assert len(contacts) == len(tup) and bool(contacts) == bool(tup)
        assert tuple(iter(contacts)) == tup
        assert all(type(pc) is intersect.PairContact for pc in contacts)
        if tup:
            assert contacts[0] == tup[0] and contacts[-1] == tup[-1]
            assert contacts[len(tup) // 2] == tup[len(tup) // 2]
            assert contacts[np.int64(1 % len(tup))] == tup[1 % len(tup)]
            with pytest.raises(IndexError):
                contacts[len(tup)]
        for cut in (slice(1, 5), slice(None, None, -2), slice(3, 3)):
            part = contacts[cut]
            assert isinstance(part, ContactRows)
            assert part == tup[cut] and tup[cut] == part and tuple(part) == tup[cut]
        assert contacts == tup and tup == contacts and contacts == list(tup)
        assert not (contacts != tup) and not (tup != contacts)
        assert contacts == ContactRows(rows) and hash(contacts) == hash(tup)
        other = tup[:-1] if tup else (intersect.PairContact(0, 1, "touch-point"),)
        assert contacts != other and other != contacts and not (contacts == other)
        assert contacts != "" and contacts != 0
    assert report.kind_census == dict(Counter(pc.kind for pc in report.pairs))
    assert all(report.kind_census.values())
    assert report == replace(report) and hash(report) == hash(replace(report))
    if name == "empty":
        assert report.pairs == () and report.local_overlaps == () and not report.intersecting


def _float_pass_soup(monkeypatch, name):
    """The soup of a benchmark check mesh, unit-scaled; grid_klein 4^2
    barycentrically subdivided; or grid_klein_8x8_part_off_grid, the Klein
    grid with every fifth vertex moved off the 2^-15 grid within its plane."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    meshes = importlib.import_module("perfbench.meshes")
    builds = dict(meshes.WORKLOADS["check_contacts"].meshes)
    builds.update(meshes.WORKLOADS["check_embedded"].meshes)
    if name in builds:
        return triangle_soup(triangulate_faces(builds[name]().unit_scaled()[0]))
    if name == "grid_klein_4x4_bary1":
        return triangle_soup(barycentric_subdivision(grid_klein(4, 4)))
    cx = grid_klein(8, 8).unit_scaled()[0]
    points = cx.vertices.copy()
    points[::5, 0] += 2.0**-20
    return triangle_soup(triangulate_faces(replace(cx, vertices=points)))


def _flat_rows(soup, cands):
    """Which rows of cands have both triangles on one plane label."""
    table, unusable = soup.filter_table
    labels = plane_labels(table[:, :9].reshape(-1, 3, 3), table[:, 9:12], unusable)
    return (labels[cands[:, 0]] >= 0) & (labels[cands[:, 0]] == labels[cands[:, 1]])


@pytest.mark.parametrize("name", ["folded_flat_torus_12x12_2", "grid_klein_8x8",
                                  "quad_torus_16x16", "grid_klein_4x4_bary1",
                                  "grid_klein_8x8_part_off_grid"])
def test_undecided_rows_independent_of_block(monkeypatch, name):
    """The float pass decides each row on its own: blocks of 1, 4, 7, 64
    and 2,048 rows give the same rows for the loop and the same contacts,
    in the same order, on the check meshes, on quad_torus 16^2, on a
    subdivided Klein grid whose centroids leave the pass's 2^-15 grid, and
    on the Klein grid with every fifth vertex moved off that grid within
    its plane, so that blocks mix flat rows with coplanar rows that have
    no plane label and take the plane and edge-line tests: in blocks of 4
    one call meets all-flat, mixed and unflat blocks."""
    soup = _float_pass_soup(monkeypatch, name)
    cands = candidate_pairs(build_hierarchy(soup))
    outputs = []
    for block in (1, 4, 7, 64, 2048):
        monkeypatch.setattr(intersect, "_ROW_BLOCK", block)
        outputs.append([a.tolist() for a in intersect._undecided_rows(soup, cands)])
    assert all(out == outputs[0] for out in outputs)
    assert outputs[0][1] or name == "quad_torus_16x16"
    if name == "grid_klein_8x8_part_off_grid":
        flat = _flat_rows(soup, cands)
        off = ~flat
        # both kinds of row in one 2,048-row block, and rows of each left
        assert flat[:2048].any() and off[:2048].any()
        blocks = [flat[k:k + 4] for k in range(0, len(flat), 4)]
        assert {(b.all(), b.any()) for b in blocks} == {(True, True), (False, True), (False, False)}
        left = {tuple(r) for r in outputs[0][0]}
        assert left & {tuple(r) for r in cands[off].tolist()}
        assert _loop_report(soup) == self_intersections(soup)


@pytest.mark.parametrize("name, off_grid", [("folded_flat_torus_12x12_2", False),
                                            ("grid_klein_8x8", False),
                                            ("grid_klein_8x8_part_off_grid", True)])
def test_separation_tests_run_only_on_unflat_rows(monkeypatch, name, off_grid):
    """Every row of the contact-rich check meshes is flat, so the float
    pass never calls the plane and edge-line tests; the Klein grid partly
    off the 2^-15 grid has unflat rows, and the pass runs the tests."""
    soup = _float_pass_soup(monkeypatch, name)
    cands = candidate_pairs(build_hierarchy(soup))
    assert _flat_rows(soup, cands).all() != off_grid
    with mock.patch.object(intersect, "_separated", wraps=intersect._separated) as tests:
        intersect._undecided_rows(soup, cands)
    assert (tests.call_count > 0) == off_grid


def test_filter_table_built_once_per_check(monkeypatch):
    """triangle_soup and then self_intersections scale the corners and take
    their normals once, on a mesh whose unflat rows take the plane and
    edge-line tests: both read the soup's one filter table."""
    with mock.patch.object(intersect, "filter_scaled", wraps=filter_scaled) as scale, \
            mock.patch.object(intersect, "normals", wraps=normals) as normal:
        soup = _float_pass_soup(monkeypatch, "grid_klein_8x8_part_off_grid")
        report = self_intersections(soup)
    assert scale.call_count == normal.call_count == 1
    assert report.pairs


def _assert_filter_table(soup):
    """The soup's filter table is filter_scaled's corners beside normals'
    normal and permanent, bit for bit, with filter_scaled's mask."""
    table, unusable = soup.filter_table
    scaled, mask = filter_scaled(soup.coords, soup.points)
    want = np.concatenate((scaled.reshape(-1, 9), *normals(scaled)), axis=1)
    assert table.dtype == want.dtype and table.shape == want.shape
    assert table.tobytes() == want.tobytes() and np.array_equal(unusable, mask)
    return table, unusable


@pytest.mark.parametrize("spec", standard_corpus(), ids=lambda spec: spec.label)
def test_filter_table_matches_filter_scaled_and_normals(spec):
    """On every corpus mesh, and on a replace()d soup with one coordinate
    moved to 2^-1060: the moved soup builds its own table, not the first
    soup's, and the moved vertex's triangles come out zeroed and
    unusable."""
    soup = _soup_for(spec)
    assert not _assert_filter_table(soup)[1].any()
    points = soup.points.copy()
    points[0, 0] = 2.0**-1060
    moved = replace(soup, coords=points[soup.corners], points=points)
    table, unusable = _assert_filter_table(moved)
    named = (soup.corners == 0).any(axis=1)
    assert np.array_equal(unusable, named) and not table[named].any()


def _pair_rows(n):
    return np.column_stack(np.triu_indices(n, 1)).astype(np.intp)


def _assert_filter_refereed(soup):
    """Every pair the float pass decides gets the same answer from the
    exact path: a contact it reports is the kernel's, of the same kind, a
    pair or a local overlap as the shared-cell test says; of the pairs it
    drops, one with no shared corner id is one the kernel finds disjoint,
    and any other is one whose contact, if any, lies in the cells its
    faces may share."""
    pairs = _pair_rows(len(soup))
    rows, decided = intersect._undecided_rows(soup, pairs)
    left = {tuple(r) for r in rows.tolist()}
    told = {(i, j): (intersect.KINDS[kind], local) for i, j, kind, local in decided.tolist()}
    grid, _ = intersect._grid(soup.points)
    corners = soup.corners.tolist()
    tris = [intersect._triangle(grid[a], grid[b], grid[c]) for a, b, c in corners]
    for (i, j), run in zip(pairs.tolist(), intersect._cell_runs(soup, pairs)[0]):
        if (i, j) in left:
            continue
        found = intersect._contact(tris[i], tris[j])
        if (i, j) not in told and set(corners[i]).isdisjoint(corners[j]):
            assert found is None, (i, j)
        elif found is not None:
            cells = intersect._shared_cells(soup, grid, corners[i], corners[j], run)
            beyond = cells is None or intersect._beyond_allowed(*found, *cells)
            assert told.get((i, j)) == ((found[0], cells is not None) if beyond else None), (i, j)
        else:
            assert (i, j) not in told, (i, j)
    return len(pairs) - len(left)


def _jittered(points, at, steps):
    """points with one coordinate moved by `steps` units in its last place."""
    points = points.copy()
    flat = points.reshape(-1)
    at %= flat.size
    flat[at] += steps * np.spacing(flat[at])
    return points


@settings(max_examples=600, deadline=None)
@given(
    cx=_small_complex(),
    k=st.just(0) | st.integers(-1060, 1000),
    jitter=st.none() | st.tuples(st.integers(0, 2**10), st.integers(-3, 3)),
)
def test_filter_decisions_match_exact_path(cx, k, jitter):
    """The float filter on free, shared-corner, shared-edge and coplanar
    pairs, one coordinate moved by a few ulps, at every binary scale."""
    rows, faces, refine = cx
    try:
        refinement = refine(build_complex(rows, faces))
        derived = refinement.derived
        points = derived.vertices if jitter is None else _jittered(derived.vertices, *jitter)
        points = _scaled(points, k)
        assume(points is not None)
        soup = triangle_soup(replace(refinement, derived=replace(derived, vertices=points)))
    except MeshError:
        reject()
    _assert_filter_refereed(soup)


@pytest.mark.parametrize("spec", standard_corpus(), ids=lambda spec: spec.label)
def test_filter_decisions_match_exact_path_on_corpus(spec):
    """The referee over all pairs of every corpus mesh."""
    assert _assert_filter_refereed(_soup_for(spec)) > 0


def _loop_report(soup):
    """self_intersections with every box-meeting pair left to the loop."""
    def undecided(soup, cands):
        return cands, np.empty((0, 4), dtype=np.intp)
    with mock.patch.object(intersect, "_undecided_rows", undecided):
        return self_intersections(soup)


def test_filter_leaves_unusable_rows_undecided():
    """A triangle with a coordinate the static bounds cannot serve keeps
    its rows for the exact loop: a non-finite one, or a nonzero one below
    2^-200 once the soup is scaled to its largest coordinate, because it
    is tiny (2^-1060) or another is huge (1e300); and so does a coplanar
    one off the pass's 2^-15 grid.  No RuntimeWarning."""
    base = [T_BASE, T_BASE + 10.0, T_BASE + 20.0]
    rows = _pair_rows(3)

    def left(coords, soup=None):
        soup = soup or independent_soup(coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return intersect._undecided_rows(soup, rows)[0].tolist()

    assert left(base) == []
    tiny = np.array(base)
    tiny[2, 0, 2] = 2.0**-1060
    assert left(tiny) == [[0, 2], [1, 2]]
    huge = np.array(base)
    huge[2, 0, 2] = 1e300
    assert left(huge) == rows.tolist()
    for bad in (math.nan, math.inf):
        soup = independent_soup(base)
        coords, points = soup.coords.copy(), soup.points.copy()
        coords[2, 1, 0] = points[7, 0] = bad
        assert left(None, replace(soup, coords=coords, points=points)) == [[0, 2], [1, 2]]

    # Coplanar rows: grid_klein 8^2 lies in z = 0, and the pass decides
    # most of its rows.  A vertex whose x is made non-finite or nonzero
    # below 2^-200 once scaled keeps every row of its triangles for the
    # loop; one moved off the 2^-15 grid keeps them from the pass.  The
    # report is the loop's.
    klein = _soup_for(GeneratorSpec("grid_klein", m=8, n=8))
    cands = candidate_pairs(build_hierarchy(klein))
    for v, x in ((0, math.nan), (0, math.inf), (0, 2.0**-1060), (9, 1.0 + 2.0**-52)):
        points = klein.points.copy()
        points[v, 0] = x
        moved = replace(klein, coords=points[klein.corners], points=points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, decided = intersect._undecided_rows(moved, cands)
            named = np.flatnonzero((klein.corners == v).any(axis=1))
            assert len(decided) > 500 and not np.isin(decided[:, :2], named).any()
            if v == 0:
                assert (np.isin(rows, named).any(axis=1).sum()
                        == np.isin(cands, named).any(axis=1).sum())
            if math.isfinite(x):
                assert self_intersections(moved) == _loop_report(moved)


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


# ---------------------------------------------------------------------------
# shared-cell exclusion against a Fraction referee

def _referee_allowed(points, pts, segs) -> bool:
    """Whether a contact, one point or a segment's two ends as homogeneous
    (x, y, z, w), lies in the union of the shared points and segments, in
    Fraction.  A point lies on a segment when it is collinear with it and
    inside its bounding box; a contact segment lies in the union when each
    end of a piece of its line inside it, and each midpoint between two
    such ends, lies on a segment of that line."""
    def frac(p):
        return tuple(Fraction(c, p[3]) for c in p[:3])

    def collinear(x, a, b):
        u = [bi - ai for ai, bi in zip(a, b)]
        v = [xi - ai for ai, xi in zip(a, x)]
        return all(v[i] * u[j] == v[j] * u[i] for i, j in ((0, 1), (1, 2), (0, 2)))

    def on(x, a, b):
        return collinear(x, a, b) and all(min(s, t) <= c <= max(s, t)
                                          for s, t, c in zip(a, b, x))

    cells = [frac(p) for p in pts]
    lines = [(frac(a), frac(b)) for a, b in segs]
    if len(points) == 1:
        x = frac(points[0])
        return x in cells or any(on(x, a, b) for a, b in lines)
    p, q = map(frac, points)
    axis = max(range(3), key=lambda k: abs(q[k] - p[k]))
    along = [(a, b) for a, b in lines if collinear(a, p, q) and collinear(b, p, q)]
    ends = sorted({Fraction(0), Fraction(1)} | {
        t for a, b in along for t in ((a[axis] - p[axis]) / (q[axis] - p[axis]),
                                      (b[axis] - p[axis]) / (q[axis] - p[axis])) if 0 < t < 1})
    ts = ends + [(s + t) / 2 for s, t in zip(ends, ends[1:])]
    return all(any(on(tuple(pk + t * (qk - pk) for pk, qk in zip(p, q)), a, b)
                   for a, b in along) for t in ts)


@st.composite
def _contact_and_cells(draw):
    """A contact on the line b + t d, its points at t = a / w with w > 1
    and not reduced to lowest terms, some moved off the line by e, and
    the cells two faces may share: segments of the line between whole t,
    in either direction, some with one end or both moved off by e, and
    points on and off the line."""
    coord = st.integers(-3, 3)
    b = draw(st.tuples(coord, coord, coord))
    d = draw(st.tuples(coord, coord, coord).filter(any))
    e = draw(st.tuples(coord, coord, coord).filter(lambda e: cross(e, d) != (0, 0, 0)))
    w = draw(st.integers(2, 5))

    def at(t, off, scale=1):
        return tuple(scale * bi + t * di + off * ei for bi, di, ei in zip(b, d, e)) + (scale,)

    off = st.sampled_from((0, 0, 0, 1, -1))
    n_points = draw(st.integers(1, 2))
    ts = draw(st.lists(st.integers(-2 * w, 6 * w), min_size=n_points, max_size=n_points,
                       unique=True))
    points = tuple(at(t, draw(off), w) for t in ts)
    segs = []
    for _ in range(draw(st.integers(0, 4))):
        t0, t1 = draw(st.lists(st.integers(-2, 6), min_size=2, max_size=2, unique=True))
        segs.append((at(t0, draw(off)), at(t1, draw(off))))
    pts = [at(draw(st.integers(-2, 6)), draw(off)) for _ in range(draw(st.integers(0, 2)))]
    return points, pts, segs


def _x(*ts, w=2):
    """Points at t = ts on the x axis, in units of 1/w."""
    return tuple((t, 0, 0, w) for t in ts)


def _xs(*spans):
    """Segments of the x axis between whole t."""
    return [((s, 0, 0, 1), (t, 0, 0, 1)) for s, t in spans]


# (points, pts, segs) that reach each branch of the point and segment tests
_SHARED_CELL_CASES = [
    (_x(0), [], _xs((0, 2))),                   # a point at a segment's start
    (_x(3), [], _xs((2, 1))),                   # inside a reversed segment
    (_x(5), [], _xs((0, 2))),                   # on the line, beyond the segment
    (((2, 1, 0, 2),), [], _xs((0, 2))),         # beside the segment
    (_x(1, 3), [], _xs((0, 1), (1, 2))),        # two abutting segments
    (_x(1, 3), [], _xs((2, 0), (1, 2))),        # overlapping, one reversed
    (_x(1, 5), [], _xs((0, 1), (2, 3))),        # a gap between them
    (_x(1, 5), [], _xs((0, 2))),                # the segments end short
    (_x(0, 4), [], _xs((0, 2))),                # exactly one segment
    (_x(0, 4), [], [((0, 0, 0, 1), (2, 1, 0, 1)), ((0, 0, 0, 1), (2, 0, 0, 1))]),
    (_x(0, 4), [], [((0, 0, 0, 1), (2, 1, 0, 1))]),         # only partly collinear
]


@settings(max_examples=400, deadline=None)
@given(case=_contact_and_cells())
@example(case=_SHARED_CELL_CASES[0])
@example(case=_SHARED_CELL_CASES[4])
@example(case=_SHARED_CELL_CASES[6])
def test_beyond_allowed_matches_fraction_referee(case):
    """_beyond_allowed, which scales everything to one denominator and
    walks the contact's line by dot products, says a point or segment
    contact leaves the shared cells exactly when the Fraction referee
    does."""
    points, pts, segs = case
    kind = "touch-point" if len(points) == 1 else "touch-segment"
    assert intersect._beyond_allowed(kind, points, pts, segs) == (
        not _referee_allowed(points, pts, segs))


def _line_after(fn, text: str, skip: int = 0) -> int:
    """The number of the line `skip` lines after fn's line that reads text."""
    lines, start = inspect.getsourcelines(fn)
    [k] = [k for k, line in enumerate(lines) if line.strip() == text]
    return start + k + skip


def test_shared_cell_branches_run():
    """The cases above run the point test on a segment's line, the
    segment test's return at a gap and its return after the last
    interval, and each agrees with the referee."""
    codes = {intersect._point_on_segment.__code__, intersect._segment_allowed.__code__}
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code not in codes:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = [intersect._beyond_allowed("touch-point" if len(c[0]) == 1 else "touch-segment", *c)
               for c in _SHARED_CELL_CASES]
    finally:
        sys.settrace(before)
    assert got == [not _referee_allowed(*c) for c in _SHARED_CELL_CASES]
    assert got == [False, False, True, True, False, False, True, True, False, False, True]
    want = {_line_after(intersect._point_on_segment, "t = dot(w, d)"),
            _line_after(intersect._point_on_segment, "return 0 <= t <= dot(d, d)"),
            _line_after(intersect._segment_allowed, "if lo > covered:", 1),
            _line_after(intersect._segment_allowed, "return covered >= need_hi")}
    assert want <= ran
