"""Plane fitting, interior angles, angle defects, Gauss-Bonnet, vertex links.

Two independent oracles live here: a spherical grid search for the orthogonal
least-squares plane, and a dense arc-sampling test for link embeddedness.
The batched face table is refereed by its own one-face calls, bit for bit.
"""

from __future__ import annotations

import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import (
    DegenerateFaceError,
    GeneratorSpec,
    ToleranceProfile,
    angle_defect,
    build_certificate,
    build_complex,
    check_closed_manifold,
    corner_angle,
    euler_characteristic,
    face_geometry,
    face_plane_fit,
    flatness_report,
    gauss_bonnet_check,
    generate,
    link_is_embedded,
    triangulate_faces,
    vertex_link,
)
from flatcheck import certificate, flatness, refine
from flatcheck.corpus import doubled_cone, fold_vertex_ids, folded_flat_torus
from flatcheck.flatness import face_geometries

from conftest import cube, grid_torus, random_rotation, tetra

LIFTED_SQUARE = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.1], [0.0, 1.0, 0.0]]
)


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
    fit = face_plane_fit(pts)
    assert fit.max_deviation <= 1e-15
    assert fit.rel_deviation <= 1e-15
    assert abs(abs(fit.normal[2]) - 1.0) <= 1e-15


def test_plane_fit_rotated_planar():
    rng = np.random.default_rng(7)
    base = rng.uniform(-1, 1, size=(8, 2))
    pts3 = np.column_stack([base, np.zeros(8)])
    rot = random_rotation(rng)
    fit = face_plane_fit(pts3 @ rot.T + np.array([3.0, -1.0, 2.0]))
    assert fit.max_deviation <= 1e-13


def test_lifted_corner_square_frozen_value():
    fit = face_plane_fit(LIFTED_SQUARE)
    assert fit.max_deviation == pytest.approx(0.025061798, abs=1e-9)
    assert fit.rel_deviation == pytest.approx(0.017677229528, abs=1e-9)
    assert fit.diameter == pytest.approx(math.sqrt(2.01), rel=1e-12)


def test_lifted_corner_square_matches_grid_oracle():
    fit = face_plane_fit(LIFTED_SQUARE)
    fit_cost, fit_dev = _plane_cost(LIFTED_SQUARE, np.asarray(fit.normal))
    oracle_cost, oracle_dev = _grid_search_plane(LIFTED_SQUARE)
    # the eigen solution must be at least as good as the brute search
    assert fit_cost <= oracle_cost + 1e-12
    assert fit_dev == pytest.approx(oracle_dev, abs=1e-6)
    assert fit.max_deviation == pytest.approx(fit_dev, abs=1e-15)


def test_corner_angle_basics():
    o = np.zeros(3)
    assert corner_angle(np.array([1.0, 0, 0]), o, np.array([0, 1.0, 0])) == (
        pytest.approx(math.pi / 2, abs=1e-15)
    )
    assert corner_angle(np.array([1.0, 0, 0]), o, np.array([-1.0, 0, 0])) == (
        pytest.approx(math.pi, abs=1e-15)
    )
    a = np.array([1.0, 0, 0])
    b = np.array([0.5, math.sqrt(3) / 2, 0])
    assert corner_angle(a, o, b) == pytest.approx(math.pi / 3, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_corner_angle_rigid_motion_and_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(3, 3))
    # keep away from degenerate corners
    if np.linalg.norm(pts[0] - pts[1]) < 0.1 or np.linalg.norm(pts[2] - pts[1]) < 0.1:
        return
    base = corner_angle(pts[0], pts[1], pts[2])
    rot = random_rotation(rng)
    shift = rng.uniform(-5, 5, size=3)
    moved = pts @ rot.T * scale + shift
    assert corner_angle(moved[0], moved[1], moved[2]) == pytest.approx(base, abs=1e-9)


DART = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 4.0, 0.0)]


def test_dart_reflex_angles():
    cx = build_complex(DART, [(0, 1, 2, 3)])
    geo = face_geometry(cx, 0)
    assert geo.simple
    assert geo.reflex_corners == (2,)
    assert sum(geo.angles) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert geo.angles[2] > math.pi


def test_bowtie_not_simple():
    verts = [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)]
    cx = build_complex(verts, [(0, 1, 2, 3)])
    assert not face_geometry(cx, 0).simple


def test_cube_face_angles():
    geo = face_geometry(cube(), 0)
    assert geo.simple
    assert geo.reflex_corners == ()
    assert np.allclose(geo.angles, math.pi / 2, atol=1e-15)


@pytest.mark.parametrize(
    "maker,defect",
    [
        (tetra, math.pi),  # three equilateral corners
        (cube, math.pi / 2),  # three right angles
    ],
)
def test_angle_defects_platonic(maker, defect):
    mesh = check_closed_manifold(maker())
    for v in range(mesh.complex.n_vertices):
        assert angle_defect(mesh, v) == pytest.approx(defect, abs=1e-12)


def test_icosahedron_defect():
    mesh = check_closed_manifold(generate(GeneratorSpec("icosahedron")))
    for v in range(12):
        assert angle_defect(mesh, v) == pytest.approx(math.pi / 3, abs=1e-12)


def test_gauss_bonnet_corpus(corpus_halfedge):
    for label, mesh in corpus_halfedge.items():
        total, ref, residual = gauss_bonnet_check(mesh)
        n_corners = sum(len(f) for f in mesh.complex.faces)
        assert abs(residual) <= 1e-10 * n_corners, label
        assert ref == pytest.approx(2.0 * math.pi * euler_characteristic(mesh))


def test_gauss_bonnet_cube_exact():
    total, ref, residual = gauss_bonnet_check(check_closed_manifold(cube()))
    assert total == 4.0 * math.pi
    assert residual == 0.0


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
    for apex in (0, 1):
        assert angle_defect(flat, apex) == pytest.approx(0.0, abs=1e-12)
        link = vertex_link(flat, apex)
        assert link_is_embedded(link).embedded
        assert _oracle_link_simple(link)

    double = check_closed_manifold(
        generate(GeneratorSpec("doubled_cone", total_angle=4 * math.pi, segments=8))
    )
    for apex in (0, 1):
        assert angle_defect(double, apex) == pytest.approx(-2 * math.pi, abs=1e-12)
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
    assert not report.locally_embedded_flat
    failed = {v.vertex for v in report.links if not v.embedded}
    assert failed == set(fold_vertex_ids(4, 4, 2))


def test_round_torus_curved_but_embedded_links():
    mesh = check_closed_manifold(grid_torus(4, 5))
    report = flatness_report(mesh)
    assert not report.all_defects_zero  # genuinely curved embedding
    assert report.all_links_embedded
    for v in report.links:
        assert _oracle_link_simple(vertex_link(mesh, v.vertex)) == v.embedded


def test_flatness_report_cube():
    report = flatness_report(check_closed_manifold(cube()))
    assert report.all_faces_planar
    assert report.all_faces_simple
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
def bench_meshes():
    """Name -> complex for the meshes of perfbench's two check workloads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        meshes = importlib.import_module("meshes")
    return {name: build()
            for workload in ("check_embedded", "check_contacts")
            for name, build in meshes.WORKLOADS[workload].meshes}


def _bits(geo):
    """Every field of a FaceGeometry, each float as its exact bits; for a
    degenerate face, the error's message."""
    if isinstance(geo, DegenerateFaceError):
        return ("error", str(geo))
    fit = geo.fit
    return (geo.face, fit.normal.tobytes(), fit.offset.hex(), fit.max_deviation.hex(),
            fit.rel_deviation.hex(), fit.diameter.hex(), tuple(a.hex() for a in geo.angles),
            geo.simple, geo.reflex_corners, geo.basis.tobytes(), geo.orientation.hex(),
            geo.points2d.tobytes())


def test_face_table_equals_one_face_calls(corpus_meshes, bench_meshes):
    """Stacking faces by degree moves no bit of any field, and no row of a
    stack leaks into another: a seeded shuffle of the faces gives the same
    entries."""
    rng = random.Random(9)
    complexes = [cx for _, cx in corpus_meshes.values()] + list(bench_meshes.values())
    for cx in complexes + [DEGENERATE_MIX]:
        single = [_bits(face_geometries(cx, [f])[0]) for f in range(cx.n_faces)]
        assert [_bits(g) for g in face_geometries(cx)] == single
        order = list(range(cx.n_faces))
        rng.shuffle(order)
        assert [_bits(g) for g in face_geometries(cx, order)] == [single[f] for f in order]


def test_face_table_degenerate_entries():
    """Coincident, then collinear, then zero-length edge: the first failing
    check names the entry, and face_geometry raises that same error."""
    table = face_geometries(DEGENERATE_MIX)
    assert [str(g) if isinstance(g, DegenerateFaceError) else None for g in table] == [
        None,
        "all points coincide",
        "points are collinear within working precision",
        "points are collinear within working precision",
        "corner has a zero-length incident edge",
        None,
        None,
    ]
    for f, geo in enumerate(table):
        if isinstance(geo, DegenerateFaceError):
            with pytest.raises(DegenerateFaceError, match=str(geo)):
                face_geometry(DEGENERATE_MIX, f)


def test_one_face_table_per_certificate(monkeypatch, bench_meshes):
    """build_certificate fits every face once: one face_geometries call,
    shared by flatness_report and triangulate_faces, which refits nothing."""
    cx = bench_meshes["quad_torus_16x16"]
    calls, rows = [], []
    real_table, real_group = flatness.face_geometries, flatness._degree_group

    def table(complex, faces=None):
        calls.append(faces)
        return real_table(complex, faces)

    def group(faces, pts):
        rows.append(len(faces))
        return real_group(faces, pts)

    for module in (flatness, refine, certificate):
        monkeypatch.setattr(module, "face_geometries", table)
    monkeypatch.setattr(flatness, "_degree_group", group)
    build_certificate(cx)
    assert calls == [None]
    assert sum(rows) == cx.n_faces == 256


def test_prebuilt_table_changes_nothing(bench_meshes):
    for cx in bench_meshes.values():
        mesh = check_closed_manifold(cx)
        table = face_geometries(cx)
        assert flatness_report(mesh, None, table) == flatness_report(mesh)
        given_table, own = triangulate_faces(cx, None, table), triangulate_faces(cx)
        assert given_table.derived.faces == own.derived.faces
        assert given_table.triangle_sources == own.triangle_sources
        assert given_table.fallbacks == own.fallbacks


# ---------------------------------------------------------------------------
# Link verdicts against the sampling oracle

def _oracle_decision(link, n=64):
    """The sampling oracle's verdict where sampling decides it, else None.

    Distances are taken between n + 1 samples per arc.  A contact puts a
    sample of each arc within half a step of it, so a smallest distance
    above the two arcs' steps proves the arcs apart; one below 1e-10, far
    under the link tolerance, proves a contact, and so does a clear
    crossing (see _crosses).  Consecutive arcs share an
    endpoint e; pairs of their samples both near e are left out, since two
    distinct great circles meet only at e and -e.  Where the arcs leave e
    along one circle they may overlap from e on, so apartness stays
    undecided there.
    """
    arcs = link.arcs
    k = len(arcs)
    samples = [_sample_arc(a, n) for a in arcs]
    steps = [2.0 * math.sin(a.length / (2 * n)) for a in arcs]
    apart = True
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
                    radius = 1e-8
                    apart = False
                else:
                    radius = min(1.0, 2.0 * (steps[a] + steps[b]) / (sin if cos > 0.0 else 1.0))
                near = np.outer(np.linalg.norm(samples[a] - e, axis=1) <= radius,
                                np.linalg.norm(samples[b] - e, axis=1) <= radius)
                d[near if a == i else near.T] = math.inf
            low = d.min()
            if low < 1e-10 or _crosses(arcs[i], samples[i], arcs[j]) \
                    or _crosses(arcs[j], samples[j], arcs[i]):
                return False
            apart = apart and low > steps[i] + steps[j]
    return True if apart else None


def _crosses(a, samples, b, margin=1e-7):
    """True when arc a, between two of its samples on strictly opposite
    sides of b's great circle, crosses that circle at least margin inside
    arc b: a contact well inside both arcs, away from any shared endpoint."""
    kb = np.asarray(b.axis, dtype=float)
    side = samples @ kb
    flips = ((side[:-1] > margin) & (side[1:] < -margin)) | ((side[:-1] < -margin) & (side[1:] > margin))
    for p in np.nonzero(flips)[0]:
        x = np.cross(np.asarray(a.axis, dtype=float), kb)
        x /= np.linalg.norm(x)
        if x @ (samples[p] + samples[p + 1]) < 0.0:
            x = -x
        start = np.asarray(b.start, dtype=float)
        ang = math.atan2(float(x @ np.cross(kb, start)), float(x @ start)) % (2.0 * math.pi)
        if margin <= ang <= b.length - margin:
            return True
    return False


def test_sampling_oracle_decides_both_ways():
    cone = check_closed_manifold(doubled_cone(2 * math.pi, 8))
    assert _oracle_decision(vertex_link(cone, 0)) is True
    assert _oracle_decision(vertex_link(cone, 2)) is False
    folded = check_closed_manifold(folded_flat_torus(4, 4, 2))
    assert _oracle_decision(vertex_link(folded, 6)) is False
    torus = check_closed_manifold(grid_torus(4, 5))
    assert all(_oracle_decision(vertex_link(torus, v)) is True for v in range(20))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_link_verdict_matches_sampling_oracle(data):
    """Vertex stars of doubled cones of any total angle and of jittered
    torus, Klein and folded grids: wherever sampling decides the link,
    link_is_embedded agrees."""
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
    link = vertex_link(mesh, data.draw(st.integers(0, mesh.n_vertices - 1)))
    expect = _oracle_decision(link)
    if expect is not None:
        assert link_is_embedded(link).embedded == expect


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
