"""Face triangulation and barycentric subdivision, and their provenance."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import (
    MeshError,
    ToleranceProfile,
    TriangulationError,
    barycentric_subdivision,
    build_complex,
    check_closed_manifold,
    euler_characteristic,
    generate,
    orientability,
    standard_corpus,
    triangle_contact,
    triangle_soup,
    triangulate_faces,
)

from conftest import (cube, face_area, grid_klein, random_rotation, referee_barycentric,
                      referee_repeats, tetra, total_area)
from flatcheck import refine
from flatcheck.flatness import face_geometries


def _planar_face_complex(points2d):
    """Wrap one planar polygon as a single-face open complex."""
    pts = [(x, y, 0.0) for x, y in points2d]
    return build_complex(pts, [tuple(range(len(pts)))])


def _shoelace(points2d) -> float:
    s = 0.0
    n = len(points2d)
    for i in range(n):
        x0, y0 = points2d[i]
        x1, y1 = points2d[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def _assert_no_interior_overlap(refinement):
    """Derived triangles of one source face may only touch, never overlap."""
    coords = refinement.derived.vertices
    by_face = {}
    for t, src in enumerate(refinement.triangle_sources):
        by_face.setdefault(src, []).append(refinement.derived.faces[t])
    for tris in by_face.values():
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                c = triangle_contact(coords[list(tris[i])], coords[list(tris[j])])
                assert c is None or c.kind in ("touch-point", "touch-segment")


def test_triangles_pass_through(monkeypatch):
    # validation told the source triangles apart, so no repeat check runs
    monkeypatch.setattr(refine, "_reject_repeats", mock.Mock(side_effect=AssertionError))
    ref = triangulate_faces(tetra())
    assert ref.derived.faces == ref.source.faces
    assert ref.fallbacks == ()
    assert ref.derived.vertices.tobytes() == ref.source.vertices.tobytes()
    assert ref.triangle_sources.tolist() == [0, 1, 2, 3]
    assert ref.triangle_sources.dtype == np.int64 and not ref.triangle_sources.flags.writeable


def test_triangle_complex_is_its_own_triangulation(monkeypatch):
    """A complex of triangles only comes back as its own derived complex,
    with no face table and no repeat check."""
    monkeypatch.setattr(refine, "face_geometries", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(refine, "_reject_repeats", mock.Mock(side_effect=AssertionError))
    for spec in standard_corpus():
        cx = generate(spec)
        if cx.face_degree_census().keys() == {3}:
            ref = triangulate_faces(cx)
            assert ref.derived is cx and ref.source is cx, spec.label
            assert ref.triangle_sources.tolist() == list(range(cx.n_faces)), spec.label
            assert ref.fallbacks == ()


def test_subnormal_dart_triangulates():
    """At 2^-1074 the dart's projected corners 0 and 2 would round onto one
    point and leave no ear; face_geometries keeps the projected points at
    the unit scale it fits at, so the dart splits along its diagonal 0-2
    as at any scale."""
    units = np.array([(2, 2, -4), (4, 3, -6), (1, 2, -4), (-1, -1, 2)], dtype=float)
    dart = build_complex(np.ldexp(units, -1074), [(0, 1, 2, 3)])
    assert face_geometries(dart).simple.tolist() == [True]
    assert triangulate_faces(dart).derived.faces == ((0, 1, 2), (0, 2, 3))


def _tilted_star_polygon(rng: np.random.Generator) -> np.ndarray:
    """A star-shaped 4- to 7-gon: corners at sorted angles and radii in
    [1, 6], rounded to integers, on the plane spanned by two small integer
    vectors, so its integer 3-d corners lie exactly in one plane."""
    k = int(rng.integers(4, 8))
    theta = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    r = rng.uniform(1.0, 6.0, k)
    xy = np.rint(np.column_stack((r * np.cos(theta), r * np.sin(theta))))
    while True:
        a, b = rng.integers(-3, 4, (2, 3))
        if np.cross(a, b).any():
            return xy[:, :1] * a + xy[:, 1:] * b


def test_subnormal_polygons_triangulate_as_unit_scaled():
    """Seeded search: every simple polygon of 2,000 tilted star-shaped 4-
    to 7-gons with integer corners, taken at 2^-1074, where a projected
    point rounded to the input's grid can land on or across a diagonal,
    triangulates as its unit-scaled copy does."""
    rng = np.random.default_rng(7)
    simple = ear_clipped = 0
    for _ in range(2000):
        units = _tilted_star_polygon(rng)
        cx = build_complex(np.ldexp(units, -1074), [tuple(range(len(units)))])
        unit = cx.unit_scaled()[0]
        table = face_geometries(unit)
        if table.degenerate or not table.simple[0]:
            continue
        simple += 1
        ear_clipped += bool((table.turns <= 0).any())     # not in closed form
        got, want = triangulate_faces(cx), triangulate_faces(unit, geos=table)
        assert (got.derived.faces, got.fallbacks) == (want.derived.faces, want.fallbacks), units
    assert (simple, ear_clipped) == (1622, 1199)


def test_cube_triangulation():
    cx = cube()
    ref = triangulate_faces(cx)
    assert len(ref.derived.faces) == 12
    assert ref.fallbacks == ()
    assert total_area(ref.derived) == pytest.approx(6.0, rel=1e-12)
    # each quad contributes two triangles of half its area
    for f in range(6):
        tris = [t for t, s in enumerate(ref.triangle_sources) if s == f]
        assert len(tris) == 2
        area = sum(
            face_area(ref.derived, t) for t in tris
        )
        assert area == pytest.approx(face_area(cx, f), rel=1e-12)
    _assert_no_interior_overlap(ref)
    mesh = check_closed_manifold(ref.derived)
    assert euler_characteristic(mesh) == 2


def test_dart_ear_clip():
    pts = [(0.0, 0.0), (4.0, 0.0), (1.0, 1.0), (0.0, 4.0)]
    cx = _planar_face_complex(pts)
    ref = triangulate_faces(cx)
    assert ref.fallbacks == ()
    assert len(ref.derived.faces) == 2
    assert total_area(ref.derived) == pytest.approx(_shoelace(pts), rel=1e-12)
    _assert_no_interior_overlap(ref)


def test_tilted_pentagon_ear_clip():
    rng = np.random.default_rng(3)
    angles = 2.0 * math.pi * np.arange(5) / 5
    pts2 = np.column_stack([np.cos(angles), np.sin(angles)])
    pts3 = np.column_stack([pts2, np.zeros(5)]) @ random_rotation(rng).T
    cx = build_complex([tuple(p) for p in pts3], [(0, 1, 2, 3, 4)])
    ref = triangulate_faces(cx)
    assert ref.fallbacks == ()
    assert len(ref.derived.faces) == 3
    pentagon_area = 2.5 * math.sin(2.0 * math.pi / 5)
    assert total_area(ref.derived) == pytest.approx(pentagon_area, rel=1e-12)
    _assert_no_interior_overlap(ref)


def test_comb_polygon_ear_clip():
    # four reflex teeth along the top edge
    pts = [
        (0.0, 0.0),
        (8.0, 0.0),
        (8.0, 3.0),
        (7.0, 1.0),
        (6.0, 3.0),
        (5.0, 1.0),
        (4.0, 3.0),
        (3.0, 1.0),
        (2.0, 3.0),
        (1.0, 1.0),
        (0.0, 3.0),
    ]
    cx = _planar_face_complex(pts)
    ref = triangulate_faces(cx)
    assert ref.fallbacks == ()
    assert len(ref.derived.faces) == len(pts) - 2
    assert total_area(ref.derived) == pytest.approx(_shoelace(pts), rel=1e-12)
    _assert_no_interior_overlap(ref)


def test_nonplanar_quad_falls_back():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.4), (0.0, 1.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2, 3)])
    ref = triangulate_faces(cx)
    assert {r.reason for r in ref.fallbacks} == {"planarity"}
    assert [r.face for r in ref.fallbacks] == [0]
    assert len(ref.derived.faces) == 2
    # a loose tolerance accepts the same quad
    loose = triangulate_faces(cx, ToleranceProfile(planarity_tol=1.0))
    assert loose.fallbacks == ()


def test_bowtie_falls_back():
    verts = [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2, 3)])
    ref = triangulate_faces(cx)
    assert {r.reason for r in ref.fallbacks} == {"not-simple"}
    assert len(ref.derived.faces) == 2


def test_collinear_face_falls_back():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2, 3)])
    ref = triangulate_faces(cx)
    assert {r.reason for r in ref.fallbacks} == {"degenerate-fit"}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_convex_polygon_ear_clip_property(n, seed):
    """Any convex polygon clips into n-2 triangles of exactly covering area."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
    if np.min(gaps) < 0.05:
        return  # nearly repeated corners make the cover test ill conditioned
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    stretch = rng.uniform(-2.0, 2.0, size=(2, 2))
    if abs(np.linalg.det(stretch)) < 0.2:
        return
    pts2 = circle @ stretch  # affine image of a circle polygon stays convex
    hull_area = _shoelace([tuple(p) for p in pts2])
    pts3 = np.column_stack([pts2, np.zeros(n)]) @ random_rotation(rng).T
    cx = build_complex([tuple(p) for p in pts3], [tuple(range(n))])
    ref = triangulate_faces(cx)
    assert ref.fallbacks == ()
    assert len(ref.derived.faces) == n - 2
    assert total_area(ref.derived) == pytest.approx(hull_area, rel=1e-9)
    _assert_no_interior_overlap(ref)


@st.composite
def _convex_polygon(draw):
    """(ids, points2d) of a strictly convex k-gon, 4 <= k <= 8: points in
    angular order on an ellipse, at least 0.15 rad apart, in either
    orientation, with distinct vertex ids in shuffled order."""
    k = draw(st.integers(4, 8))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
    angles = draw(st.floats(0.0, 2.0 * math.pi)) + 2.0 * math.pi * np.cumsum(gaps) / gaps.sum()
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    points = [(a * math.cos(t), b * math.sin(t)) for t in angles.tolist()]
    if draw(st.booleans()):
        points.reverse()
    ids = draw(st.lists(st.integers(0, 3 * k), min_size=k, max_size=k, unique=True))
    return tuple(ids), points


def _ear_clip_referee(ids, points):
    orientation = 1.0 if sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                             in zip(points, points[1:] + points[:1])) >= 0.0 else -1.0
    return refine._ear_clip(ids, points, orientation)


def _triangulated(ids, points):
    """triangulate_faces of the one planar face, tilted out of z = 0, and
    how many faces reached _ear_clip."""
    vertices = np.zeros((max(ids) + 1, 3))
    vertices[list(ids)] = [(x, y, 0.5 * x - 0.25 * y) for x, y in points]
    with mock.patch.object(refine, "_ear_clip", wraps=refine._ear_clip) as clip:
        ref = triangulate_faces(build_complex(vertices, [ids]))
    return ref, clip.call_count


@settings(max_examples=300, deadline=None)
@given(polygon=_convex_polygon())
def test_convex_ears_equal_ear_clip(polygon):
    """The closed form gives _ear_clip's triangles, in its order, and
    triangulate_faces takes it without calling _ear_clip."""
    ids, points = polygon
    want = _ear_clip_referee(ids, points)
    assert refine._convex_ears(np.array([ids]))[0].tolist() == [list(t) for t in want]
    ref, clipped = _triangulated(ids, points)
    assert clipped == 0 and ref.fallbacks == ()
    assert ref.derived.faces == tuple(want)


@pytest.mark.parametrize("points", [
    [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)],      # straight corner 1
    [(0.0, 0.0), (4.0, 0.0), (1.0, 1.0), (0.0, 4.0)],      # reflex corner 2
], ids=["straight", "reflex"])
def test_quads_with_a_corner_that_does_not_turn_left_reach_ear_clip(points):
    ids = (5, 2, 7, 3)
    ref, clipped = _triangulated(ids, points)
    assert clipped == 1 and ref.fallbacks == ()
    assert ref.derived.faces == tuple(_ear_clip_referee(ids, points))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_vertex_is_left_to_the_soup(bad):
    """A non-finite coordinate makes the faces that use it degenerate in
    the face table, with no fit over it and no RuntimeWarning (the test
    configuration makes one an error); triangulate_faces passes triangles
    through and fans polygons, and the soup names the vertex."""
    for cx in (tetra(), cube()):
        vertices = cx.vertices.copy()
        vertices[2, 1] = bad
        moved = replace(cx, vertices=vertices)
        uses = [f for f, face in enumerate(cx.faces) if 2 in face]
        assert face_geometries(moved).degenerate == tuple(
            (f, "a corner has a non-finite coordinate") for f in uses)
        ref = triangulate_faces(moved)
        assert [r.face for r in ref.fallbacks] == [f for f in uses if len(cx.faces[f]) > 3]
        with pytest.raises(MeshError, match=r"^derived vertex 2 has a non-finite coordinate"):
            triangle_soup(ref)


def test_barycentric_tetra_counts_and_origins():
    cx = tetra()
    ref = barycentric_subdivision(cx)
    assert ref.derived.n_vertices == 4 + 6 + 4
    assert len(ref.derived.faces) == 24
    pts = ref.derived.vertices
    assert pts[:4].tobytes() == cx.vertices.tobytes()
    # vertex 4 + e is the midpoint of sorted edge e, 10 + f the centroid of face f
    edges = sorted({tuple(sorted((f[k], f[k - 1]))) for f in cx.faces for k in range(3)})
    assert len(edges) == 6
    for k, (u, v) in enumerate(edges, 4):
        mid = 0.5 * (cx.vertices[u] + cx.vertices[v])
        assert np.allclose(pts[k], mid, atol=0)
    for k, face in enumerate(cx.faces, 10):
        cent = cx.vertices[list(face)].mean(axis=0)
        assert np.allclose(pts[k], cent, atol=1e-15)
    assert ref.triangle_sources.tolist() == np.repeat(np.arange(4), 6).tolist()
    assert total_area(ref.derived) == pytest.approx(total_area(cx), rel=1e-12)
    mesh = check_closed_manifold(ref.derived)
    assert euler_characteristic(mesh) == 2


def test_barycentric_requires_triangles():
    with pytest.raises(TriangulationError):
        barycentric_subdivision(cube())
    # the first face that is not a triangle is named, as the loop names it
    mixed = build_complex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)],
                          [(0, 1, 4), (1, 2, 3, 4), (0, 4, 3)])
    message = r"^barycentric subdivision needs a triangulated complex; face 1 has degree 4$"
    with pytest.raises(TriangulationError, match=message):
        barycentric_subdivision(mixed)
    with pytest.raises(TriangulationError, match=message):
        referee_barycentric(mixed)


def _relabelled(cx, rng):
    """cx rotated, with its vertices relabelled, its faces shuffled and
    each face's corners rotated, all drawn from rng."""
    perm = rng.permutation(cx.n_vertices)
    vertices = np.empty_like(cx.vertices)
    vertices[perm] = cx.vertices @ random_rotation(rng).T
    faces = []
    for f in rng.permutation(cx.n_faces).tolist():
        face = [int(perm[i]) for i in cx.faces[f]]
        k = int(rng.integers(len(face)))
        faces.append(face[k:] + face[:k])
    return build_complex(vertices, faces)


def test_barycentric_matches_loop_referee(corpus_meshes):
    """The array subdivision equals the loop, to the vertex bytes, face
    order and provenance, on every corpus mesh triangulated and on a
    seeded relabelled, rotated and reordered Klein grid."""
    complexes = [triangulate_faces(cx).derived for _, cx in corpus_meshes.values()]
    complexes.append(_relabelled(grid_klein(5, 4), np.random.default_rng(21)))
    for cx in complexes:
        got, want = barycentric_subdivision(cx), referee_barycentric(cx)
        assert got.derived.vertices.tobytes() == want.derived.vertices.tobytes()
        assert got.derived.faces == want.derived.faces
        assert got.triangle_sources.tobytes() == want.triangle_sources.tobytes()


def test_triangulate_then_subdivide_cube():
    tri = triangulate_faces(cube())
    sub = barycentric_subdivision(tri.derived)
    assert sub.derived.n_vertices == 8 + 18 + 12
    assert len(sub.derived.faces) == 72
    mesh = check_closed_manifold(sub.derived)
    assert euler_characteristic(mesh) == 2
    assert total_area(sub.derived) == pytest.approx(6.0, rel=1e-12)
    assert orientability(mesh).orientable


@pytest.mark.parametrize("k", [1023, -1060])
def test_subdivision_at_the_ends_of_the_double_range(k):
    """The triangulated cube times 2^k subdivides to 2^k times its
    unit-scale subdivision: midpoints and centroids are taken at unit
    scale, so at 2^1023 no sum overflows, and at 2^-1060 they round as
    the unit-scale ones scaled down."""
    tri = triangulate_faces(cube()).derived
    vertices = np.ldexp(tri.vertices, k)
    assert (np.ldexp(vertices, -k) == tri.vertices).all()
    scaled = build_complex(vertices, tri.faces)
    unit, e = scaled.unit_scaled()
    got, want = barycentric_subdivision(scaled), barycentric_subdivision(unit)
    assert got.derived.faces == want.derived.faces
    assert got.derived.vertices.tobytes() == np.ldexp(want.derived.vertices, e).tobytes()
    assert got.derived.vertices[:8].tobytes() == vertices.tobytes()


def test_refinement_preserves_klein_topology():
    base = grid_klein(3, 3)
    sub = barycentric_subdivision(base)
    mesh = check_closed_manifold(sub.derived)
    assert euler_characteristic(mesh) == 0
    assert not orientability(mesh).orientable
    assert len(sub.derived.faces) == 6 * len(base.faces)


@st.composite
def _repeated_triangles(draw):
    """Distinct triangles in any corner order plus two or more rotated or
    reversed copies, shuffled, and a source face for each."""
    nv = draw(st.integers(3, 8))
    base = draw(st.lists(st.sampled_from(list(combinations(range(nv), 3))),
                         min_size=1, max_size=12, unique=True))
    triangles = [tuple(draw(st.permutations(t))) for t in base]
    for _ in range(draw(st.integers(2, 5))):
        t = triangles[draw(st.integers(0, len(triangles) - 1))]
        k = draw(st.integers(0, 2))
        t = t[k:] + t[:k]
        triangles.append(t[::-1] if draw(st.booleans()) else t)
    triangles = draw(st.permutations(triangles))
    sources = draw(st.lists(st.integers(0, 20), min_size=len(triangles),
                            max_size=len(triangles)))
    return triangles, sources


@settings(max_examples=300, deadline=None)
@given(case=_repeated_triangles())
def test_repeat_check_matches_dict_loop(case):
    """The repeat check, mesh's face validation run on the triangles,
    names the faces and the triangle that the dict loop names: the first
    repeat in order, and the first triangle it repeats."""
    triangles, sources = case
    with pytest.raises(TriangulationError) as want:
        referee_repeats(triangles, sources)
    with pytest.raises(TriangulationError) as got:
        refine._reject_repeats(np.array(triangles, dtype=np.int64), sources)
    assert str(got.value) == str(want.value)


# the unit square 0 1 2 3, apex 4 above it, and 5 beyond the square's
# corner 2, so that the quad (0, 3, 5, 1) is convex
_EAR_POINTS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1.2, 1.2, 0)]


@pytest.mark.parametrize("faces", [
    [(4, 1, 2), (0, 1, 2, 3), (1, 0, 3)],       # a quad's ear is an input triangle
    [(4, 1, 2), (0, 1, 2, 3), (0, 3, 5, 1)],    # two quads' ears at tip 0 coincide
])
def test_repeated_ear_names_source_faces(faces):
    """An ear clipped from a quad that repeats a triangle of another face
    is rejected, naming both source faces and the later triangle."""
    with pytest.raises(TriangulationError) as got:
        triangulate_faces(build_complex(_EAR_POINTS, faces))
    assert str(got.value) == ("faces 1 and 2 both yield triangle (1, 0, 3) "
                              "(identical up to rotation/reversal)")
