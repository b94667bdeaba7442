"""Plane fitting, interior angles, angle defects, Gauss-Bonnet, vertex links.

Every fact is read from the producer the certificate reads: plane fits
and interior angles from the face table (face_geometries), defects and
the Gauss-Bonnet balance from flatness_report, links from the star pass
(flatness._vertex_stars) through conftest.vertex_link.  Four independent
referees live here: a spherical grid search for the orthogonal
least-squares plane, a dense arc-sampling proof that link arcs are apart,
conftest.exact_link_contact's integer cone test for link contacts, and
a left-to-right loop over referee_manifold's stars for the defects, bit
for bit.  The batched face table is refereed by its own one-face tables,
and the star pass's links by conftest.referee_link, bit for bit.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import (
    GeneratorSpec,
    LinkVerdict,
    MeshError,
    ToleranceProfile,
    build_certificate,
    build_complex,
    check_closed_manifold,
    euler_characteristic,
    flatness_report,
    generate,
    link_is_embedded,
    triangulate_faces,
)
from flatcheck import certificate, flatness, refine
from flatcheck.corpus import doubled_cone, folded_flat_torus
from flatcheck.flatness import face_geometries

from conftest import (TWO_PI, cube, exact_link_contact, fold_vertex_ids, grid_torus,
                      random_rotation, referee_link, referee_manifold, referee_stars, tetra,
                      vertex_link)

LIFTED_SQUARE = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.1], [0.0, 1.0, 0.0]]
)


def _polygon(points):
    """The face table of one polygon, its points in order: its per-face
    columns have one row, its per-corner columns one per point."""
    return face_geometries(build_complex(points, [tuple(range(len(points)))]))


def _fit(points):
    """The plane fit the face table runs, on one polygon: its unit normal,
    largest deviation and diameter."""
    diameters, _, _, normals, deviations = flatness._plane_fits(
        np.asarray(points, dtype=float)[None])
    return normals[0], deviations[0], diameters[0]


def _plane_cost(points, normal):
    """Best sum of squared orthogonal deviations for a fixed normal."""
    d = points @ normal
    d = d - d.mean()
    return float(d @ d), float(np.max(np.abs(d)))


def _grid_search_plane(points):
    """Brute-force orthogonal least squares over a spherical grid of normals."""
    best = (math.inf, None)
    theta = np.linspace(0.0, math.pi, 120)
    phi = np.linspace(0.0, 2.0 * math.pi, 240, endpoint=False)
    for t in theta:
        st_, ct = math.sin(t), math.cos(t)
        for p in phi:
            n = np.array([st_ * math.cos(p), st_ * math.sin(p), ct])
            cost, _ = _plane_cost(points, n)
            if cost < best[0]:
                best = (cost, n)
    # local refinement around the grid winner
    n = best[1]
    step = math.pi / 120
    for _ in range(40):
        improved = False
        for axis in np.eye(3):
            for s in (step, -step):
                c = math.cos(s)
                sn = math.sin(s)
                k = np.cross(axis, n)
                cand = n * c + k * sn + axis * (axis @ n) * (1 - c)
                cand = cand / np.linalg.norm(cand)
                cost, _ = _plane_cost(points, cand)
                if cost < best[0]:
                    best = (cost, cand)
                    n = cand
                    improved = True
        if not improved:
            step *= 0.5
    return _plane_cost(points, best[1])


def test_plane_fit_exact_planar():
    pts = np.array([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]], dtype=float)
    normal, deviation, _ = _fit(pts)
    assert deviation <= 1e-15
    assert _polygon(pts).rel_deviation[0] <= 1e-15
    assert abs(abs(normal[2]) - 1.0) <= 1e-15


def test_plane_fit_rotated_planar():
    rng = np.random.default_rng(7)
    base = rng.uniform(-1, 1, size=(8, 2))
    pts3 = np.column_stack([base, np.zeros(8)])
    rot = random_rotation(rng)
    _, deviation, _ = _fit(pts3 @ rot.T + np.array([3.0, -1.0, 2.0]))
    assert deviation <= 1e-13


def test_lifted_corner_square_frozen_value():
    _, deviation, diameter = _fit(LIFTED_SQUARE)
    assert deviation == pytest.approx(0.025061798, abs=1e-9)
    assert _polygon(LIFTED_SQUARE).rel_deviation[0] == pytest.approx(0.017677229528, abs=1e-9)
    assert diameter == pytest.approx(math.sqrt(2.01), rel=1e-12)


def test_lifted_corner_square_matches_grid_oracle():
    normal, deviation, _ = _fit(LIFTED_SQUARE)
    fit_cost, fit_dev = _plane_cost(LIFTED_SQUARE, normal)
    oracle_cost, oracle_dev = _grid_search_plane(LIFTED_SQUARE)
    # the eigen solution must be at least as good as the brute search
    assert fit_cost <= oracle_cost + 1e-12
    assert fit_dev == pytest.approx(oracle_dev, abs=1e-6)
    assert deviation == pytest.approx(fit_dev, abs=1e-15)


def test_corner_angle_basics():
    o = (0.0, 0.0, 0.0)
    assert _polygon([(1.0, 0, 0), o, (0, 1.0, 0)]).angles[1] == (
        pytest.approx(math.pi / 2, abs=1e-15)
    )
    (straight,), (zero,) = flatness._corner_angles(np.array([[1.0, 0, 0]]),
                                                   np.array([[-1.0, 0, 0]]))
    assert straight == pytest.approx(math.pi, abs=1e-15) and not zero
    b = (0.5, math.sqrt(3) / 2, 0)
    assert _polygon([(1.0, 0, 0), o, b]).angles[1] == pytest.approx(math.pi / 3, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_corner_angle_rigid_motion_and_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(3, 3))
    # keep away from degenerate corners
    if np.linalg.norm(pts[0] - pts[1]) < 0.1 or np.linalg.norm(pts[2] - pts[1]) < 0.1:
        return
    base = _polygon(pts).angles[1]
    rot = random_rotation(rng)
    shift = rng.uniform(-5, 5, size=3)
    moved = pts @ rot.T * scale + shift
    assert _polygon(moved).angles[1] == pytest.approx(base, abs=1e-9)


DART = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 4.0, 0.0)]


def test_dart_reflex_angles():
    cx = build_complex(DART, [(0, 1, 2, 3)])
    geo = face_geometries(cx)
    assert geo.simple[0]
    assert geo.turns.tolist() == [1, 1, -1, 1]      # reflex at corner 2
    assert sum(geo.angles) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert geo.angles[2] > math.pi


def test_bowtie_not_simple():
    verts = [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2, 3)])
    assert not face_geometries(cx).simple[0]


def test_cube_face_angles():
    geo = face_geometries(cube())
    assert geo.simple[0]
    assert geo.turns[:4].tolist() == [1, 1, 1, 1]     # face 0: no reflex corner
    assert np.allclose(geo.angles[:4], math.pi / 2, atol=1e-15)


@pytest.mark.parametrize(
    "maker,defect",
    [
        (tetra, math.pi),  # three equilateral corners
        (cube, math.pi / 2),  # three right angles
    ],
)
def test_angle_defects_platonic(maker, defect):
    report = flatness_report(check_closed_manifold(maker()))
    for d in report.defects:
        assert d == pytest.approx(defect, abs=1e-12)


def test_icosahedron_defect():
    report = flatness_report(check_closed_manifold(generate(GeneratorSpec("icosahedron"))))
    assert len(report.defects) == 12
    for d in report.defects:
        assert d == pytest.approx(math.pi / 3, abs=1e-12)


def test_gauss_bonnet_corpus(corpus_halfedge):
    for label, mesh in corpus_halfedge.items():
        report = flatness_report(mesh)
        n_corners = sum(len(f) for f in mesh.complex.faces)
        assert abs(report.gauss_bonnet_residual) <= 1e-10 * n_corners, label
        assert report.gauss_bonnet_reference == pytest.approx(
            2.0 * math.pi * euler_characteristic(mesh))


def test_gauss_bonnet_cube_exact():
    report = flatness_report(check_closed_manifold(cube()))
    assert report.defect_total == 4.0 * math.pi
    assert report.gauss_bonnet_residual == 0.0


def _sample_arc(arc, n=64):
    """Points along the arc by rotating its start about its axis."""
    out = np.empty((n + 1, 3))
    k = np.asarray(arc.axis, dtype=float)
    v = np.asarray(arc.start, dtype=float)
    for i in range(n + 1):
        ang = arc.length * i / n
        c, s = math.cos(ang), math.sin(ang)
        out[i] = v * c + np.cross(k, v) * s + k * (k @ v) * (1.0 - c)
    return out


def _oracle_link_simple(link, margin=1e-6):
    """Dense-sampling simplicity check for a spherical link path.

    Returns False when two distinct points of the closed path get closer
    than the margin (other than shared endpoints of consecutive arcs).
    """
    arcs = link.arcs
    k = len(arcs)
    samples = [_sample_arc(a) for a in arcs]
    for pts, arc in zip(samples, arcs):
        # endpoints must land where the arc says
        assert np.linalg.norm(pts[0] - np.asarray(arc.start)) < 1e-9
        assert np.linalg.norm(pts[-1] - np.asarray(arc.end)) < 1e-9
    for i in range(k):
        for j in range(i + 1, k):
            pa, pb = samples[i], samples[j]
            d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
            if j == i + 1:
                d2[-1, 0] = math.inf  # shared endpoint
            if i == 0 and j == k - 1:
                d2[0, -1] = math.inf
            if d2.min() < margin * margin:
                return False
    return True


def test_cube_corner_link():
    mesh = check_closed_manifold(cube())
    link = vertex_link(mesh, 0)
    assert len(link.arcs) == 3
    assert sum(a.length for a in link.arcs) == pytest.approx(3 * math.pi / 2)
    verdict = link_is_embedded(link)
    assert verdict.embedded
    assert verdict.witness is None
    assert _oracle_link_simple(link)


def test_square_pyramid_apex_link():
    verts = [
        (0.0, 0.0, 1.0),
        (1.0, 1.0, 0.0),
        (-1.0, 1.0, 0.0),
        (-1.0, -1.0, 0.0),
        (1.0, -1.0, 0.0),
    ]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 4, 3, 2)]
    mesh = check_closed_manifold(build_complex(verts, faces))
    link = vertex_link(mesh, 0)
    assert len(link.arcs) == 4
    assert link_is_embedded(link).embedded
    assert _oracle_link_simple(link)


def test_doubled_cone_winding():
    """A flattened cone apex winds total_angle / 2pi times around its link.

    At 2pi the star is a flat embedded disk; at 4pi the link runs around
    twice and must be rejected.
    """
    flat = check_closed_manifold(
        generate(GeneratorSpec("doubled_cone", total_angle=2 * math.pi, segments=8))
    )
    defects = flatness_report(flat).defects
    for apex in (0, 1):
        assert defects[apex] == pytest.approx(0.0, abs=1e-12)
        link = vertex_link(flat, apex)
        assert link_is_embedded(link).embedded
        assert _oracle_link_simple(link)

    double = check_closed_manifold(
        generate(GeneratorSpec("doubled_cone", total_angle=4 * math.pi, segments=8))
    )
    defects = flatness_report(double).defects
    for apex in (0, 1):
        assert defects[apex] == pytest.approx(-2 * math.pi, abs=1e-12)
        link = vertex_link(double, apex)
        assert not link_is_embedded(link).embedded
        # independent witness: the eight rim directions repeat after one turn
        dirs = np.asarray(link.directions)
        dup = min(
            np.linalg.norm(dirs[i] - dirs[j])
            for i in range(len(dirs))
            for j in range(i + 1, len(dirs))
        )
        assert dup < 1e-12


def test_folded_torus_flat_with_fold_failures():
    mesh = check_closed_manifold(
        generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2))
    )
    report = flatness_report(mesh)
    assert report.all_faces_planar
    assert report.all_defects_zero
    assert report.max_abs_defect <= 1e-12
    assert report.flat
    assert not report.all_links_embedded
    failed = {v.vertex for v in report.links if not v.embedded}
    assert failed == set(fold_vertex_ids(4, 4, 2))


def test_round_torus_curved_but_embedded_links():
    mesh = check_closed_manifold(grid_torus(4, 5))
    report = flatness_report(mesh)
    assert not report.all_defects_zero  # genuinely curved embedding
    assert report.all_links_embedded
    failed = {lv.vertex for lv in report.links}
    for v in range(mesh.n_vertices):
        assert _oracle_link_simple(vertex_link(mesh, v)) == (v not in failed)


def test_flatness_report_cube():
    report = flatness_report(check_closed_manifold(cube()))
    assert report.all_faces_planar
    assert report.simple.all()
    assert report.max_rel_deviation == 0.0
    assert not report.all_defects_zero
    assert report.max_abs_defect == pytest.approx(math.pi / 2)
    assert report.all_links_embedded
    assert not report.flat
    assert report.gauss_bonnet_residual == 0.0


def test_tolerance_profile_defaults():
    tol = ToleranceProfile()
    assert tol.planarity_tol == 1e-8
    assert tol.defect_tol == 1e-8
    assert tol.link_tol == 1e-9


# ---------------------------------------------------------------------------
# The face table against its one-face calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# square, four coincident points, four collinear points, collinear points
# with a repeated one, a plane with a repeated point, then two triangles
DEGENERATE_MIX = build_complex(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
     (2, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2),
     (0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1),
     (0, 0, 2), (1, 0, 2), (1, 0, 2), (3, 0, 2),
     (0, 0, 3), (1, 0, 3), (1, 0, 3), (0, 1, 3)],
    [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15), (16, 17, 18, 19),
     (0, 1, 2), (16, 17, 19)],
)


@pytest.fixture(scope="module")
def perfbench_meshes():
    """perfbench's meshes module: its workloads and seeded symmetries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("meshes")


@pytest.fixture(scope="module")
def bench_meshes(perfbench_meshes):
    """Name -> complex for the meshes of perfbench's two check workloads."""
    return {name: build()
            for workload in ("check_embedded", "check_contacts")
            for name, build in perfbench_meshes.WORKLOADS[workload].meshes}


def _bits(table, complex, f):
    """Every column of face f in a face table, each float as its exact
    bits; for a degenerate face, its message."""
    for face, message in table.degenerate:
        if face == f:
            return ("error", message)
    at = slice(*complex.offsets[f:f + 2].tolist())
    return tuple(column[f].tobytes() for column in (
        table.rel_deviation, table.simple, table.orientation, table.basis)) + tuple(
        column[at].tobytes() for column in (table.angles, table.turns, table.points2d))


def test_face_table_equals_one_face_calls(corpus_meshes, bench_meshes):
    """Stacking faces by degree moves no bit of any column, and no row of
    a stack leaks into another: each face's columns equal those of the
    one-face complex on the same vertices, and so do those of a seeded
    shuffle of the faces."""
    rng = random.Random(9)
    complexes = [cx for _, cx in corpus_meshes.values()] + list(bench_meshes.values())
    for cx in complexes + [DEGENERATE_MIX]:
        single = []
        for f in range(cx.n_faces):
            one = build_complex(cx.vertices, [cx.faces[f]])
            single.append(_bits(face_geometries(one), one, 0))
        table = face_geometries(cx)
        assert [_bits(table, cx, f) for f in range(cx.n_faces)] == single
        order = list(range(cx.n_faces))
        rng.shuffle(order)
        shuffled = build_complex(cx.vertices, [cx.faces[f] for f in order])
        table = face_geometries(shuffled)
        assert ([_bits(table, shuffled, f) for f in range(cx.n_faces)]
                == [single[f] for f in order])


def test_face_table_degenerate_entries():
    """Coincident, then collinear, then zero-length edge: the first failing
    check names the entry."""
    assert face_geometries(DEGENERATE_MIX).degenerate == (
        (1, "all points coincide"),
        (2, "points are collinear within working precision"),
        (3, "points are collinear within working precision"),
        (4, "corner has a zero-length incident edge"),
    )


def test_one_face_table_per_certificate(monkeypatch, bench_meshes):
    """build_certificate fits every face once: one face_geometries call,
    shared by flatness_report and triangulate_faces, which refits nothing."""
    cx = bench_meshes["quad_torus_16x16"]
    calls, rows = [], []
    real_table, real_fits = flatness.face_geometries, flatness._plane_fits

    def table(complex):
        calls.append(complex.n_faces)
        return real_table(complex)

    def fits(pts):
        rows.append(len(pts))
        return real_fits(pts)

    for module in (flatness, refine, certificate):
        monkeypatch.setattr(module, "face_geometries", table)
    monkeypatch.setattr(flatness, "_plane_fits", fits)
    build_certificate(cx)
    assert calls == [cx.n_faces]
    assert sum(rows) == cx.n_faces == 256


def test_table_and_triangles_on_raw_extreme_coordinates(corpus_meshes):
    """face_geometries, triangulate_faces and flatness_report on a corpus
    mesh times 2^1000, or times 2^-1060 where that scaling is exact,
    called on the raw coordinates: no RuntimeWarning (the test
    configuration makes one an error), and the simple flags, turns,
    degenerate faces, triangles and link verdicts of the unit-scaled run."""
    runs = 0
    for _, cx in corpus_meshes.values():
        unit = cx.unit_scaled()[0]
        want, tri = face_geometries(unit), triangulate_faces(unit)
        links = flatness_report(check_closed_manifold(unit)).links
        for k in (1000, -1060):
            vertices = np.ldexp(unit.vertices, k)
            if not (np.ldexp(vertices, -k) == unit.vertices).all():
                continue    # subnormal rounding: not the same surface
            scaled = build_complex(vertices, cx.faces)
            got = face_geometries(scaled)
            assert got.simple.tolist() == want.simple.tolist()
            assert got.turns.tolist() == want.turns.tolist()
            assert got.degenerate == want.degenerate
            assert triangulate_faces(scaled).derived.faces == tri.derived.faces
            assert flatness_report(check_closed_manifold(scaled)).links == links
            runs += 1
    assert runs >= len(corpus_meshes) + 4


def test_quad_torus_certificate_runs_no_ear_clip_and_no_segment_test(bench_meshes):
    """Every quad of quad_torus 16^2 turns one way at all four corners, so
    the turns alone make it simple and the closed form triangulates it."""
    with mock.patch.object(refine, "_ear_clip", wraps=refine._ear_clip) as clip, \
            mock.patch.object(flatness, "_is_simple", wraps=flatness._is_simple) as segments:
        cert = build_certificate(bench_meshes["quad_torus_16x16"])
    assert cert["immersion"]["triangles"] == 512
    assert clip.call_count == 0 and segments.call_count == 0


def _report_fields(report):
    """The report's fields, each array as its bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(report).items()}


def test_prebuilt_table_changes_nothing(bench_meshes):
    for cx in bench_meshes.values():
        mesh = check_closed_manifold(cx)
        table = face_geometries(cx)
        assert _report_fields(flatness_report(mesh, None, table)) == _report_fields(
            flatness_report(mesh))
        given_table, own = triangulate_faces(cx, None, table), triangulate_faces(cx)
        assert given_table.derived.faces == own.derived.faces
        assert given_table.triangle_sources.tobytes() == own.triangle_sources.tobytes()
        assert given_table.fallbacks == own.fallbacks


# ---------------------------------------------------------------------------
# Defects against a loop over the referee's stars

def _referee_defects(cx):
    """2*pi minus a left-to-right `total += angle` over each star of
    referee_manifold, with the face table's interior angles."""
    ref = referee_manifold(cx)
    angles = face_geometries(cx).angles.tolist()
    corners, bounds = ref["star_corners"], ref["star_offsets"]
    defects = []
    for start, stop in zip(bounds, bounds[1:]):
        total = 0.0
        for c in corners[start:stop]:
            total += angles[c]
        defects.append(TWO_PI - total)
    return defects


# A sphere of a square and two triangles below it, whose vertices 1 and 3
# have valence 2.
FOLDED_SQUARE = build_complex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                              [(0, 1, 2, 3), (1, 0, 3), (1, 3, 2)])


def test_defects_match_star_loop(corpus_meshes, bench_meshes, perfbench_meshes):
    """Every defect flatness_report records is the loop's, bit for bit, on
    the corpus, every benchmark mesh and a sphere with valence-2 vertices,
    as generated and under a seeded symmetry, which reorders every star."""
    topology = [build() for _, build in perfbench_meshes.WORKLOADS["topology"].meshes]
    complexes = ([cx for _, cx in corpus_meshes.values()] + list(bench_meshes.values())
                 + topology + [FOLDED_SQUARE])
    for cx in complexes + [perfbench_meshes.transformed(cx, random.Random(5)) for cx in complexes]:
        report = flatness_report(check_closed_manifold(cx))
        assert [d.hex() for d in report.defects.tolist()] == [
            d.hex() for d in _referee_defects(cx)]


# ---------------------------------------------------------------------------
# Link verdicts against the sampling oracle

def _oracle_decision(link, n=64):
    """True where sampling proves the link's arcs pairwise apart, else None.

    Distances are taken between n + 1 samples per arc.  A contact puts a
    sample of each arc within half a step of it, so a smallest distance
    above the two arcs' steps proves the arcs apart.  Consecutive arcs
    share an endpoint e; pairs of their samples both near e are left out,
    since two distinct great circles meet only at e and -e.  Where the
    arcs leave e along one circle they may overlap from e on, so apartness
    stays undecided there.  Contacts are left to the exact test,
    conftest.exact_link_contact.
    """
    arcs = link.arcs
    k = len(arcs)
    samples = [_sample_arc(a, n) for a in arcs]
    steps = [2.0 * math.sin(a.length / (2 * n)) for a in arcs]
    for i in range(k):
        for j in range(i + 1, k):
            d = np.sqrt(((samples[i][:, None, :] - samples[j][None, :, :]) ** 2).sum(axis=2))
            for a, b in ((i, j), (j, i)):
                if (b - a) % k != 1:
                    continue
                # arc a ends at the point e where arc b starts
                e = samples[b][0]
                ta = -np.cross(np.asarray(arcs[a].axis), e)   # back along a
                tb = np.cross(np.asarray(arcs[b].axis), e)    # on along b
                cos = float(ta @ tb) / float(np.linalg.norm(ta) * np.linalg.norm(tb))
                sin = math.sqrt(max(0.0, 1.0 - cos * cos))
                if cos > 0.0 and sin < 1e-6:
                    return None
                radius = min(1.0, 2.0 * (steps[a] + steps[b]) / (sin if cos > 0.0 else 1.0))
                near = np.outer(np.linalg.norm(samples[a] - e, axis=1) <= radius,
                                np.linalg.norm(samples[b] - e, axis=1) <= radius)
                d[near if a == i else near.T] = math.inf
            if d.min() <= steps[i] + steps[j]:
                return None
    return True


def test_sampling_oracle_decides_both_ways():
    """The oracle proves the doubled cone's apex link and every grid torus
    link apart; the exact test finds the contacts of the cone's vertex 2
    and the fold's vertex 6, which the oracle leaves undecided."""
    cone = check_closed_manifold(doubled_cone(2 * math.pi, 8))
    assert _oracle_decision(vertex_link(cone, 0)) is True
    assert exact_link_contact(cone, 2) and _oracle_decision(vertex_link(cone, 2)) is None
    folded = check_closed_manifold(folded_flat_torus(4, 4, 2))
    assert exact_link_contact(folded, 6) and _oracle_decision(vertex_link(folded, 6)) is None
    torus = check_closed_manifold(grid_torus(4, 5))
    assert all(_oracle_decision(vertex_link(torus, v)) is True for v in range(20))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_link_verdict_matches_sampling_oracle(data):
    """Vertex stars of doubled cones of any total angle and of jittered
    torus, Klein and folded grids, all triangles: where the exact test
    finds a contact, link_is_embedded says not embedded, and where
    sampling proves the arcs apart, it says embedded.  flatness_report's
    verdicts on the whole mesh, certified in advance or not, are
    link_is_embedded's."""
    kind = data.draw(st.sampled_from(["cone", "grid_torus", "grid_klein", "folded"]))
    if kind == "cone":
        cx = doubled_cone(data.draw(st.floats(0.05, 6 * math.pi - 0.05)))
    else:
        base = generate({
            "grid_torus": GeneratorSpec("grid_torus", m=4, n=5),
            "grid_klein": GeneratorSpec("grid_klein", m=5, n=4),
            "folded": GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
        }[kind])
        scale = data.draw(st.sampled_from([0.0, 1e-13, 1e-6, 1e-3, 0.05]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cx = build_complex(base.vertices + rng.normal(scale=scale, size=base.vertices.shape),
                           base.faces)
    mesh = check_closed_manifold(cx)
    assert flatness_report(mesh).links == _subarc_links(mesh)
    v = data.draw(st.integers(0, mesh.n_vertices - 1))
    link = vertex_link(mesh, v)
    if exact_link_contact(mesh, v):
        assert not link_is_embedded(link).embedded
    elif _oracle_decision(link):
        assert link_is_embedded(link).embedded


def test_link_witnesses_pinned():
    cone = check_closed_manifold(generate(GeneratorSpec("doubled_cone", total_angle=4 * math.pi)))
    assert link_is_embedded(vertex_link(cone, 0)).witness == (
        "link vertices 0 and 4 coincide (incident edges point the same way)")
    folded = check_closed_manifold(folded_flat_torus(4, 4, 2))
    assert link_is_embedded(vertex_link(folded, 6)).witness == (
        "link vertices 2 and 5 coincide (incident edges point the same way)")
    klein = check_closed_manifold(generate(GeneratorSpec("grid_klein", m=5, n=4)))
    assert link_is_embedded(vertex_link(klein, 3)).witness == (
        "arcs 0 and 3 are not adjacent but intersect (overlap)")


# ---------------------------------------------------------------------------
# Link verdicts against the exact cone test

def _jittered_fold(seed):
    """The folded torus 4x4 with two folds, its vertices moved by a normal
    jitter of scale 1e-9."""
    base = folded_flat_torus(4, 4, 2)
    jitter = np.random.default_rng(seed).normal(scale=1e-9, size=base.vertices.shape)
    return check_closed_manifold(build_complex(base.vertices + jitter, base.faces))


def test_jittered_fold_link_has_the_exact_verdict():
    """Fold vertex 11 at seed 0, where sampling finds two arcs within
    1e-10: adjacent arcs that fold back at an angle above 0 share only the
    ray of their common edge, so the link is embedded, exactly."""
    mesh = _jittered_fold(0)
    assert not exact_link_contact(mesh, 11)
    assert link_is_embedded(vertex_link(mesh, 11)).embedded


def test_exact_link_contacts_are_read_not_embedded():
    """Soundness over every link of the jittered folded torus, seeds 0-39:
    wherever two arcs exactly share a direction, link_is_embedded says
    not embedded.  The fold makes such contacts common (373 of 640)."""
    contacts = 0
    for seed in range(40):
        mesh = _jittered_fold(seed)
        links = flatness._vertex_stars(mesh, face_geometries(mesh.complex), 1.0)[1]
        for v, link in links.items():
            if exact_link_contact(mesh, v):
                contacts += 1
                assert not link_is_embedded(link).embedded, (seed, v)
    assert contacts == 373


@pytest.mark.parametrize("k", [0, 900, -900])
def test_exact_link_contacts_are_reported_at_any_scale(k):
    """Soundness through flatness_report, on the jittered folded tori of
    seeds 0-39 times 2^k where that scaling is exact: every vertex whose
    link has an exact contact is listed in the report's links."""
    contacts = 0
    for seed in range(40):
        base = _jittered_fold(seed)
        vertices = np.ldexp(base.complex.vertices, k)
        if not (np.ldexp(vertices, -k) == base.complex.vertices).all():
            continue
        mesh = check_closed_manifold(build_complex(vertices, base.complex.faces))
        reported = {lv.vertex for lv in flatness_report(mesh).links}
        for v in range(mesh.n_vertices):
            if exact_link_contact(mesh, v):
                contacts += 1
                assert v in reported, (seed, v)
    assert contacts == 373


# ---------------------------------------------------------------------------
# Links certified by the azimuth pass against the sub-arc test

def _referee_links(mesh, table):
    """referee_link of every vertex, built at unit scale as flatness_report
    builds its links, or its error message."""
    unit = replace(mesh, complex=mesh.complex.unit_scaled()[0])
    stars, out = referee_stars(unit), {}
    for v in range(mesh.n_vertices):
        try:
            out[v] = referee_link(unit, v, table, stars)
        except MeshError as exc:
            out[v] = str(exc)
    return out


def _subarc_links(mesh, tol=None):
    """link_is_embedded's verdict on every referee_link that is not
    embedded, in vertex order, with the referee's error as the witness
    where the link is undefined."""
    tol = tol or ToleranceProfile()
    out = []
    for v, link in _referee_links(mesh, face_geometries(mesh.complex)).items():
        verdict = (LinkVerdict(v, False, link) if isinstance(link, str)
                   else link_is_embedded(link, tol.link_tol))
        if not verdict.embedded:
            out.append(verdict)
    return tuple(out)


def _assert_links_match(cx, tol=None):
    mesh = check_closed_manifold(cx)
    assert flatness_report(mesh, tol).links == _subarc_links(mesh, tol)


def _subarc_tested(mesh, tol=None):
    """The report, and the vertices whose links flatness_report hands to
    link_is_embedded, in order."""
    with mock.patch.object(flatness, "link_is_embedded", wraps=flatness.link_is_embedded) as test:
        report = flatness_report(mesh, tol)
    return report, [call.args[0].vertex for call in test.call_args_list]


def test_certified_links_match_subarc_test(corpus_meshes, bench_meshes, perfbench_meshes):
    """Verdicts and witnesses on the corpus and the benchmark's check
    meshes, as generated and under three seeded symmetries each."""
    for cx in [cx for _, cx in corpus_meshes.values()] + list(bench_meshes.values()):
        _assert_links_match(cx)
        for seed in range(3):
            _assert_links_match(perfbench_meshes.transformed(cx, random.Random(seed)))


_NEAR_ZERO = st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
                              1e-5, 1e-4, 1e-3, 1e-2, 0.3])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certified_links_match_on_near_degenerate_stars(data):
    """Bipyramids squashed toward their equator and doubled cones of angle
    near 2*pi, whose apex stars are nearly flat, jittered by down to 0 and
    turned; link_tol from far below the pass's margin up to 1e-2."""
    if data.draw(st.booleans()):
        k, h = data.draw(st.integers(3, 9)), data.draw(_NEAR_ZERO)
        ring = [(math.cos(TWO_PI * t / k), math.sin(TWO_PI * t / k), 0.0) for t in range(k)]
        base = build_complex(ring + [(0.0, 0.0, h), (0.0, 0.0, -h)],
                             [(t, (t + 1) % k, k) for t in range(k)]
                             + [((t + 1) % k, t, k + 1) for t in range(k)])
    else:
        delta = data.draw(_NEAR_ZERO) * data.draw(st.sampled_from([-1.0, 1.0]))
        base = doubled_cone(TWO_PI + delta, data.draw(st.integers(3, 9)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vertices = base.vertices + rng.normal(scale=data.draw(_NEAR_ZERO), size=base.vertices.shape)
    if data.draw(st.booleans()):
        vertices = vertices @ random_rotation(rng).T
    tol = ToleranceProfile(link_tol=data.draw(st.sampled_from(
        [1e-15, 1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3, 1e-2])))
    _assert_links_match(build_complex(vertices, base.faces), tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300, None],
                         ids=["nan", "inf", "huge", "zero-length-edge"])
def test_azimuth_pass_leaves_unusable_rows_uncertified(bad):
    """A coordinate that is not finite or beyond 2^500, or an edge of zero
    length, at vertex 0 of a tetrahedron leaves every vertex to the sub-arc
    test, with no RuntimeWarning on the way (the test configuration makes
    one an error)."""
    cx = tetra()
    vertices = cx.vertices.copy()
    vertices[0] = vertices[1] if bad is None else bad
    mesh = replace(check_closed_manifold(cx), complex=replace(cx, vertices=vertices))
    _, links = flatness._vertex_stars(mesh, face_geometries(cx), 1e-9)
    assert sorted(links) == [0, 1, 2, 3]
    if bad is None:
        assert links == _referee_links(mesh, face_geometries(cx))


@pytest.mark.parametrize("name, failures", [
    ("grid_torus_12x12", 0),
    ("quad_torus_16x16", 0),
    ("icosahedron_bary1", 0),
    ("folded_flat_torus_12x12_2", 44),
    ("grid_klein_8x8", 28),
])
def test_subarc_test_runs_only_on_link_failures(bench_meshes, name, failures):
    """On the benchmark's check meshes the azimuth pass certifies every
    embedded link, so the sub-arc test runs only where a link fails, and
    one flatness_report builds a SphericalLink for those vertices alone."""
    mesh = check_closed_manifold(bench_meshes[name])
    with mock.patch.object(flatness, "SphericalLink", wraps=flatness.SphericalLink) as built:
        report, tested = _subarc_tested(mesh)
    assert tested == [lv.vertex for lv in report.links if not lv.embedded]
    assert len(tested) == failures
    assert built.call_count == failures


# ---------------------------------------------------------------------------
# The star pass's links against referee_link

def _split_cube():
    """The cube with its edge (0, 1) split at the midpoint, vertex 8, whose
    two corners are straight."""
    cx = cube()
    faces = [list(face) for face in cx.faces]
    for face in faces:
        for i, u in enumerate(face):
            if {u, face[(i + 1) % len(face)]} == {0, 1}:
                face.insert(i + 1, 8)
                break
    return build_complex(np.vstack([cx.vertices, 0.5 * (cx.vertices[0] + cx.vertices[1])]), faces)


def test_straight_corner_link():
    """Vertex 8 of the split cube has valence 2 and two straight corners,
    each a link arc of length pi oriented by its face's plane; the azimuth
    pass leaves it to the sub-arc test, which calls it embedded."""
    mesh = check_closed_manifold(_split_cube())
    link = vertex_link(mesh, 8)
    assert [arc.length for arc in link.arcs] == pytest.approx([math.pi, math.pi])
    assert link_is_embedded(link).embedded
    report, tested = _subarc_tested(mesh)
    assert report.links == ()
    assert 8 in tested
    assert link == _referee_links(mesh, face_geometries(mesh.complex))[8]


@pytest.mark.parametrize("fault, witness", [
    ("projected edge", "straight corner with zero-length projected edge"),
    ("frame", "face 2: cannot orient straight corner 4 from its plane"),
])
def test_straight_corner_witnesses_equal_referee(fault, witness):
    """The split cube's face table, doctored at corner 13, the straight
    corner of vertex 8 and the last of face 2: the projected point of the
    next corner (the face's first, 9) moved onto it, or the face's in-plane
    frame turned along the corner's first edge.
    The star pass then gives vertex 8 referee_link's witness."""
    mesh = check_closed_manifold(_split_cube())
    table = face_geometries(mesh.complex)
    points2d, basis = table.points2d.copy(), table.basis.copy()
    if fault == "projected edge":
        points2d[9] = points2d[13]
    else:
        basis[2] = vertex_link(mesh, 8).directions[1]
    doctored = replace(table, points2d=points2d, basis=basis)
    assert flatness._vertex_stars(mesh, doctored, 1.0)[1][8] == witness
    assert _referee_links(mesh, doctored)[8] == witness


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_star_pass_links_equal_referee(data, corpus_meshes, perfbench_meshes):
    """Every link and undefined-link witness the star pass builds equals
    referee_link's, tuple for tuple: on the corpus, the benchmark meshes,
    the folded torus 4x4 with two folds jittered by 1e-9, the folded 6x6
    scaled far up, into the subnormals and by 0.1 and 3, the split cube
    and the notched prism, each maybe under a seeded symmetry.  The links a report builds
    at the default link_tol are the same ones."""
    kind = data.draw(st.sampled_from(["corpus", "bench", "jittered", "scaled", "split"]))
    if kind == "corpus":
        cx = corpus_meshes[data.draw(st.sampled_from(sorted(corpus_meshes)))][1]
    elif kind == "bench":
        cx = data.draw(st.sampled_from([build for workload in perfbench_meshes.WORKLOADS.values()
                                        for _, build in workload.meshes]))()
    elif kind == "jittered":
        base = folded_flat_torus(4, 4, 2)
        jitter = np.random.default_rng(data.draw(st.integers(0, 39))).normal(
            scale=1e-9, size=base.vertices.shape)
        cx = build_complex(base.vertices + jitter, base.faces)
    elif kind == "scaled":
        base = folded_flat_torus(6, 6, 2)
        cx = build_complex(base.vertices * data.draw(st.sampled_from(
            [2.0 ** 1000, 2.0 ** -1060, 0.1, 3.0])), base.faces)
    else:
        cx = data.draw(st.sampled_from([_split_cube(), NOTCHED_PRISM]))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**16)))
    if seed is not None:
        cx = perfbench_meshes.transformed(cx, random.Random(seed))
    mesh = check_closed_manifold(cx)
    table = face_geometries(mesh.complex)
    _, links = flatness._vertex_stars(mesh, table, 1.0)
    assert links == _referee_links(mesh, table)
    _, uncertified = flatness._vertex_stars(mesh, table, ToleranceProfile().link_tol)
    assert uncertified == {v: links[v] for v in uncertified}


# A prism of height 1 over a convex hexagon (0-5 below, 7-12 above), its
# bottom cut into an L-shaped hexagon with its reflex corner at 6 = (1, 1)
# and two triangles that fill the L's notch; every face points outward.
_OUTLINE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.6, 1.6), (1.0, 2.0), (0.0, 2.0)]
NOTCHED_PRISM = build_complex(
    [(x, y, 0.0) for x, y in _OUTLINE] + [(1.0, 1.0, 0.0)] + [(x, y, 1.0) for x, y in _OUTLINE],
    [(6, 2, 1, 0, 5, 4), (6, 3, 2), (6, 4, 3), tuple(range(7, 13))]
    + [(i, (i + 1) % 6, 7 + (i + 1) % 6, 7 + i) for i in range(6)],
)


def test_reflex_corner_links_pinned():
    """At vertex 6 the L's reflex corner gives a link arc of 3*pi/2, which
    _link orients by flipping the corner's axis: turned the other way, it
    would run over the notch triangles' arcs in the same plane.  The
    azimuth pass leaves the vertex to the sub-arc test."""
    mesh = check_closed_manifold(NOTCHED_PRISM)
    report, tested = _subarc_tested(mesh)
    assert report.links == ()
    assert tested == [6]
    assert [arc.length for arc in vertex_link(mesh, 6).arcs] == pytest.approx(
        [1.5 * math.pi, 0.25 * math.pi, 0.25 * math.pi])


def _squashed_octahedron(h):
    """Equator (+-1, 0, 0), (0, +-1, 0) as vertices 0-3, apexes (0, 0, +-h)."""
    return build_complex(
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
         (0.0, 0.0, h), (0.0, 0.0, -h)],
        [(i, (i + 1) % 4, 4) for i in range(4)] + [((i + 1) % 4, i, 5) for i in range(4)],
    )


def test_link_tolerance_pinned_on_squashed_octahedron():
    """Exactly embedded at every height, but at h = 1e-10 the two apex
    directions at each equator vertex are within link_tol = 1e-9 of each
    other; those vertices stay with the sub-arc test, which applies it.
    (So may the apexes, whose stars are flat up to h.)"""
    thin = build_certificate(_squashed_octahedron(1e-10))
    assert thin["verdict"]["immersion"] == "not-an-immersion"
    assert thin["geometry"]["link_failures"] == [0, 1, 2, 3]
    assert build_certificate(_squashed_octahedron(1e-9))["verdict"]["immersion"] == "embedded"
    for h in (1e-10, 1e-9):
        _, tested = _subarc_tested(check_closed_manifold(_squashed_octahedron(h)))
        assert {0, 1, 2, 3} <= set(tested)
