"""Integral homology: Smith normal form, boundary maps, surface classification.

The dense Smith form is cross-checked against the determinantal-divisor
definition: the k-th invariant factor equals gcd(k-minors) / gcd((k-1)-minors),
computed here by brute cofactor expansion over all k-by-k submatrices.  The
dense form referees the profile homology_profile reads off a closed
manifold's dual labelling.  Homology is computed for closed manifolds
only: boundary_matrices sends a bare complex through
check_closed_manifold, and an open or non-manifold one raises the
NotManifoldError whose defects the certificate records.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import (
    BoundaryMatrices,
    GeneratorSpec,
    HomologyProfile,
    NotManifoldError,
    boundary_matrices,
    build_certificate,
    build_complex,
    check_closed_manifold,
    classify_surface,
    connected_components,
    euler_characteristic,
    generate,
    homology_profile,
    orientability,
)
from flatcheck import mesh as mesh_module

from conftest import (canonical_face, grid_klein, grid_torus, referee_manifold,
                      referee_orientability, smith_normal_form, tetra)


def _dense(coo, shape) -> np.ndarray:
    """Object-dtype dense matrix of COO entries (repeats add up)."""
    out = np.zeros(shape, dtype=object)
    for i, j, a in zip(*(x.tolist() for x in coo)):
        out[i, j] += a
    return out


def _dense_profile(b: BoundaryMatrices) -> HomologyProfile:
    """homology_profile's formulas on the dense Smith forms of d1 and d2."""
    s1 = smith_normal_form(_dense(b.d1, (b.n_edges, b.n_vertices)))
    s2 = smith_normal_form(_dense(b.d2, (b.n_faces, b.n_edges)))
    return HomologyProfile(
        betti=(b.n_vertices - s1.rank, b.n_edges - s1.rank - s2.rank, b.n_faces - s2.rank),
        torsion=(s1.torsion, s2.torsion, ()),
    )


def _det_int(rows) -> int:
    """Exact integer determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det_int(minor)
    return total


def _minor_gcd_invariants(mat) -> tuple[int, ...]:
    """Invariant factors via determinantal divisors. Exponential, keep tiny."""
    rows = [[int(x) for x in r] for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _det_int(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


@pytest.mark.parametrize(
    "mat,factors,rank",
    [
        ([[2, 4], [6, 8]], (2, 4), 2),
        ([[1, 0], [0, 0]], (1,), 1),
        ([[0, 0], [0, 0]], (), 0),
        ([[2, 4, 4]], (2,), 1),
        ([[6]], (6,), 1),
        ([[2, 0], [0, 3]], (1, 6), 2),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], (1, 3), 2),
    ],
)
def test_smith_known_values(mat, factors, rank):
    s = smith_normal_form(mat)
    assert s.invariant_factors == factors
    assert s.rank == rank


def test_smith_empty_shapes():
    assert smith_normal_form(np.zeros((0, 5), dtype=np.int64)).rank == 0
    assert smith_normal_form(np.zeros((5, 0), dtype=np.int64)).invariant_factors == ()


def test_smith_divisibility_chain():
    s = smith_normal_form([[4, 6, 2], [6, 4, 8], [2, 8, 12]])
    f = s.invariant_factors
    for a, b in zip(f, f[1:]):
        assert b % a == 0


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_smith_matches_minor_gcd_oracle(rows, cols, data):
    mat = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    s = smith_normal_form(mat)
    expect = _minor_gcd_invariants(mat)
    assert s.invariant_factors == expect
    assert s.rank == len(expect)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_smith_invariant_under_permutation_and_transpose(seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-9, 10, size=(rng.integers(1, 5), rng.integers(1, 5)))
    base = smith_normal_form(mat).invariant_factors
    shuffled = mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
    assert smith_normal_form(shuffled).invariant_factors == base
    assert smith_normal_form(mat.T).invariant_factors == base


def _relabelled(base, seed):
    """base with its vertices permuted, each face rotated and the faces
    shuffled, by a seeded generator."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.n_vertices)
    verts = [None] * base.n_vertices
    for old, new in enumerate(perm):
        verts[new] = tuple(base.vertices[old])
    faces = []
    for face in base.faces:
        g = [int(perm[i]) for i in face]
        k = int(rng.integers(len(g)))
        faces.append(tuple(g[k:] + g[:k]))
    rng.shuffle(faces)
    return build_complex(verts, faces)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_smith_matches_dense_on_relabelled_klein(seed):
    b = boundary_matrices(check_closed_manifold(_relabelled(grid_klein(3, 3), seed)))
    prof = homology_profile(b)
    assert prof == _dense_profile(b)
    assert prof.betti == (1, 1, 0)
    assert prof.torsion == ((), (2,), ())


def _union(*parts):
    """The disjoint union of complexes, each moved apart from the last."""
    verts, faces = [], []
    for k, cx in enumerate(parts):
        faces += [tuple(i + len(verts) for i in f) for f in cx.faces]
        verts += [(x + 40.0 * k, y, z) for x, y, z in cx.vertices.tolist()]
    return build_complex(verts, faces)


def _assert_one_labelling_agrees(mesh, label):
    """The profile read off the mesh's dual flags equals the one read off
    its bare complex's and the dense referee's; the flags, one read-only
    bool per component, orientability and the component count agree with
    the breadth-first referee's."""
    b = boundary_matrices(mesh)
    assert b.dual is mesh.dual_components, label
    assert b.dual.dtype == bool and not b.dual.flags.writeable, label
    bare = boundary_matrices(mesh.complex)
    prof = homology_profile(b)
    assert prof == homology_profile(bare) == _dense_profile(b), label
    per_component = referee_orientability(referee_manifold(mesh.complex), mesh.n_faces)
    assert orientability(mesh).per_component == per_component, label
    assert b.dual.tolist() == [not o for o in per_component], label
    assert connected_components(mesh) == len(per_component), label


def test_one_labelling_agrees_on_corpus(corpus_halfedge):
    for label, mesh in corpus_halfedge.items():
        _assert_one_labelling_agrees(mesh, label)


@pytest.mark.parametrize("maker,betti,torsion,per_component", [
    (lambda: _relabelled(grid_klein(3, 4), 7), (1, 1, 0), ((), (2,), ()), (False,)),
    (lambda: _relabelled(grid_klein(4, 3), 8), (1, 1, 0), ((), (2,), ()), (False,)),
    (lambda: _projective_plane(), (1, 0, 0), ((), (2,), ()), (False,)),
    (lambda: _union(grid_torus(3, 3), grid_klein(3, 4)), (2, 3, 1), ((), (2,), ()),
     (True, False)),
    (lambda: _union(tetra(), _projective_plane()), (2, 0, 1), ((), (2,), ()), (True, False)),
    (lambda: _union(_projective_plane(), grid_klein(3, 3), tetra()), (3, 1, 1),
     ((), (2, 2), ()), (False, False, True)),
], ids=["klein-relabelled-a", "klein-relabelled-b", "projective-plane", "torus+klein",
        "sphere+projective-plane", "projective-plane+klein+sphere"])
def test_one_labelling_agrees_on_mixed_unions(maker, betti, torsion, per_component):
    """Relabelled Klein bottles, the projective plane, and disjoint unions
    of orientable and nonorientable components."""
    mesh = check_closed_manifold(maker())
    _assert_one_labelling_agrees(mesh, "")
    prof = homology_profile(boundary_matrices(mesh))
    assert (prof.betti, prof.torsion) == (betti, torsion)
    assert orientability(mesh).per_component == per_component


def test_dual_labelling_made_once_per_mesh(monkeypatch):
    """orientability, connected_components and boundary_matrices share one
    labelling of the dual graph, and a replace() copy makes its own."""
    calls = []
    real = mesh_module.signed_components

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(mesh_module, "signed_components", counting)
    mesh = check_closed_manifold(grid_klein(3, 4))
    b = boundary_matrices(mesh)
    homology_profile(b)
    orientability(mesh)
    connected_components(mesh)
    assert calls == [mesh.n_faces]
    copy = replace(mesh)
    assert "dual_components" not in vars(copy)
    assert orientability(copy) == orientability(mesh)
    assert len(calls) == 2


def _old_check_fails(mesh) -> bool:
    """Whether d2 @ d1 is nonzero with d2's signs read off the mesh's
    origin and edge_of as boundary_matrices reads them, summed entry by
    entry."""
    total: dict = {}
    for f, e, o in zip(mesh.face_of.tolist(), mesh.edge_of.tolist(), mesh.origin.tolist()):
        lo, hi = mesh.edge_ends[e].tolist()
        s = 1 if o == lo else -1
        total[f, hi] = total.get((f, hi), 0) + s
        total[f, lo] = total.get((f, lo), 0) - s
    return any(total.values())


@pytest.mark.parametrize("corrupt", ["edge_of", "sign"])
def test_corrupted_incidence_fails_the_boundary_check(corpus_halfedge, corrupt):
    """One side sent to another edge, or one d2 sign flipped (its origin
    set to the other end of its edge), makes d2 @ d1 nonzero, and
    boundary_matrices raises on it as it did with the summed check."""
    for label, mesh in corpus_halfedge.items():
        nh = mesh.twin.size
        for h in (0, nh // 2, nh - 1):
            if corrupt == "edge_of":
                edge_of = mesh.edge_of.copy()
                edge_of[h] = (edge_of[h] + 1) % mesh.n_edges
                bad = replace(mesh, edge_of=edge_of)
            else:
                origin = mesh.origin.copy()
                origin[h] = mesh.edge_ends[mesh.edge_of[h]].sum() - origin[h]
                bad = replace(mesh, origin=origin)
            assert _old_check_fails(bad), (label, h)
            with pytest.raises(AssertionError, match="boundary of a boundary is nonzero"):
                boundary_matrices(bad)


def test_boundary_composition_is_zero(corpus_halfedge):
    # rows index cells: d1 is edges-by-vertices, d2 is faces-by-edges,
    # so boundary-of-boundary reads d2 @ d1
    for label, mesh in corpus_halfedge.items():
        b = boundary_matrices(mesh)
        d1 = _dense(b.d1, (b.n_edges, b.n_vertices))
        prod = _dense(b.d2, (b.n_faces, b.n_edges)) @ d1
        assert not prod.any(), label
        assert d1.shape == (len(b.edges), mesh.complex.n_vertices)
        # one d2 entry per half-edge, two d1 entries per edge
        assert len(b.d2[0]) == len(mesh.twin) and len(b.d1[0]) == 2 * mesh.n_edges, label


def test_boundary_rows_follow_mesh_edges():
    mesh = check_closed_manifold(grid_klein(3, 3))
    from_mesh = boundary_matrices(mesh)
    from_complex = boundary_matrices(mesh.complex)
    assert np.array_equal(from_mesh.edges, mesh.edge_ends)
    edge_ends = referee_manifold(mesh.complex)["edge_ends"]
    assert tuple(map(tuple, from_mesh.edges.tolist())) == edge_ends
    assert np.array_equal(from_mesh.edges, from_complex.edges)
    for a, b in zip(from_mesh.d1 + from_mesh.d2, from_complex.d1 + from_complex.d2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "maker,betti,torsion",
    [
        (tetra, (1, 0, 1), ((), (), ())),
        (grid_torus, (1, 2, 1), ((), (), ())),
        (grid_klein, (1, 1, 0), ((), (2,), ())),
    ],
)
def test_homology_profiles(maker, betti, torsion):
    mesh = check_closed_manifold(maker())
    prof = homology_profile(boundary_matrices(mesh))
    assert prof.betti == betti
    assert prof.torsion == torsion


@pytest.mark.parametrize(
    "maker,betti,torsion",
    [
        (grid_torus, (1, 2, 1), ((), (), ())),
        (grid_klein, (1, 1, 0), ((), (2,), ())),
    ],
)
def test_homology_profiles_at_64(maker, betti, torsion):
    # 8192 faces: far beyond what a dense Smith form of d2 handles quickly
    mesh = check_closed_manifold(maker(64, 64))
    prof = homology_profile(boundary_matrices(mesh))
    assert prof.betti == betti
    assert prof.torsion == torsion


def _assert_refused_as_certified(cx):
    """boundary_matrices raises NotManifoldError on cx, with the defects
    build_certificate records for it; returns them."""
    with pytest.raises(NotManifoldError) as info:
        boundary_matrices(cx)
    defects = [{"kind": d.kind, "location": list(d.location), "detail": d.detail}
               for d in info.value.defects]
    assert defects == build_certificate(cx)["combinatorics"]["defects"]
    return defects


def test_open_complexes():
    """An open triangle and a ring of four quads between an inner and an
    outer square are refused, each boundary edge named."""
    triangle = build_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    assert [d["location"] for d in _assert_refused_as_certified(triangle)] == [
        [0, 1], [0, 2], [1, 2]]
    n = 4
    ring = [(math.cos(a), math.sin(a), 0.0) for a in (2 * math.pi * i / n for i in range(n))]
    verts = ring + [(2 * x, 2 * y, 0.0) for x, y, _ in ring]
    faces = [(i, (i + 1) % n, n + (i + 1) % n, n + i) for i in range(n)]
    defects = _assert_refused_as_certified(build_complex(verts, faces))
    assert len(defects) == 2 * n
    assert {d["kind"] for d in defects} == {"boundary-edge"}


def _with_fin(base):
    """base with a fin: one more triangle on edge (0, 1), to a new vertex
    off the surface."""
    verts = [tuple(p) for p in base.vertices] + [(0.5, 0.5, 9.0)]
    return build_complex(verts, list(base.faces) + [(0, 1, base.n_vertices)])


def _fin_defects(base):
    """The defects of _with_fin(base): edge (0, 1) in three faces, then
    the fin's two free edges to its new vertex."""
    tip = base.n_vertices
    return [
        {"kind": "nonmanifold-edge", "location": [0, 1], "detail": "used by 3 face sides"},
        {"kind": "boundary-edge", "location": [0, tip], "detail": "used by only one face"},
        {"kind": "boundary-edge", "location": [1, tip], "detail": "used by only one face"},
    ]


@pytest.mark.parametrize("maker", [grid_torus, grid_klein], ids=["grid_torus", "grid_klein"])
def test_edge_in_three_faces_is_refused(maker):
    """A fin on edge (0, 1) of a torus or a Klein bottle is refused with
    that edge named."""
    base = maker(3, 3)
    assert _assert_refused_as_certified(_with_fin(base)) == _fin_defects(base)


def test_fin_on_large_torus_is_refused_quickly():
    """grid_torus 32^2 with a fin (2,049 faces) is refused in linear time
    and memory, with the edge named."""
    base = grid_torus(32, 32)
    assert _assert_refused_as_certified(_with_fin(base)) == _fin_defects(base)


def test_euler_poincare_on_corpus(corpus_halfedge):
    for label, mesh in corpus_halfedge.items():
        prof = homology_profile(boundary_matrices(mesh))
        b0, b1, b2 = prof.betti
        assert b0 - b1 + b2 == euler_characteristic(mesh), label


def test_disjoint_union_adds_betti():
    torus = grid_torus(3, 3)
    verts = [tuple(p) for p in torus.vertices]
    verts += [(x + 40.0, y, z) for x, y, z in verts]
    nv = torus.n_vertices
    faces = list(torus.faces) + [tuple(i + nv for i in f) for f in torus.faces]
    mesh = check_closed_manifold(build_complex(verts, faces))
    prof = homology_profile(boundary_matrices(mesh))
    assert prof.betti == (2, 4, 2)


def _projective_plane():
    """Antipodal quotient of the icosahedron: 6 vertices, 10 faces.

    Geometry is degenerate by construction; only combinatorics are used.
    """
    ico = generate(GeneratorSpec("icosahedron"))
    pts = ico.vertices
    rep = {}
    for i in range(12):
        anti = int(np.argmin(np.linalg.norm(pts + pts[i], axis=1)))
        rep[i] = min(i, anti)
    ids = sorted(set(rep.values()))
    remap = {v: k for k, v in enumerate(ids)}
    seen = set()
    faces = []
    for f in ico.faces:
        g = tuple(remap[rep[i]] for i in f)
        key = canonical_face(g)
        if key not in seen:
            seen.add(key)
            faces.append(g)
    return build_complex([tuple(pts[i]) for i in ids], faces)


def test_projective_plane_homology():
    mesh = check_closed_manifold(_projective_plane())
    assert euler_characteristic(mesh) == 1
    assert not orientability(mesh).orientable
    prof = homology_profile(boundary_matrices(mesh))
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (2,), ())
    cls = classify_surface(prof, 1, False)
    assert cls.name == "projective plane"
    assert cls.consistent


@pytest.mark.parametrize(
    "betti,torsion,chi,orientable,name,genus",
    [
        ((1, 0, 1), ((), (), ()), 2, True, "sphere", 0),
        ((1, 2, 1), ((), (), ()), 0, True, "torus", 1),
        ((1, 4, 1), ((), (), ()), -2, True, "orientable surface of genus 2", 2),
        ((1, 1, 0), ((), (2,), ()), 0, False, "Klein bottle", 2),
        ((1, 0, 0), ((), (2,), ()), 1, False, "projective plane", 1),
        ((1, 2, 0), ((), (2,), ()), -1, False, "nonorientable surface of genus 3", 3),
    ],
)
def test_classify_surface_names(betti, torsion, chi, orientable, name, genus):
    cls = classify_surface(HomologyProfile(betti=betti, torsion=torsion), chi, orientable)
    assert cls.name == name
    assert cls.genus == genus
    assert cls.orientable is orientable
    assert cls.consistent
    assert cls.problems == ()


def test_classify_surface_flags_mismatch():
    klein = HomologyProfile(betti=(1, 1, 0), torsion=((), (2,), ()))
    cls = classify_surface(klein, 0, True)  # orientability contradicts H2 = 0
    assert not cls.consistent
    assert cls.problems


@pytest.mark.parametrize("betti,torsion,chi,orientable,genus,problems", [
    ((1, 0, 1), ((), (), ()), 0, True, 1,
     ("b0 - b1 + b2 = 2 disagrees with Euler characteristic 0",
      "b1 = 0, expected 2 for orientable genus 1")),
    ((1, 0, 1), ((3,), (), ()), 2, True, 0, ("H0 has torsion (3,)",)),
    ((1, 1, 1), ((), (), ()), 1, True, 0,
     ("orientable surface cannot have odd chi = 1", "b1 = 1, expected 0 for orientable genus 0")),
    ((1, 0, 1), ((), (), ()), 2, False, 1,
     ("chi = 2 is impossible for a closed nonorientable surface",
      "b2 = 1, expected 0 for a closed nonorientable surface", "H1 torsion (), expected (2,)")),
], ids=["euler-mismatch", "h0-torsion", "odd-orientable-chi", "nonorientable-chi-2"])
def test_classify_surface_cross_checks_no_mesh_reaches(betti, torsion, chi, orientable, genus,
                                                       problems):
    """Profiles that no closed surface mesh has: every disagreement with
    (chi, orientability) is listed, in check order."""
    cls = classify_surface(HomologyProfile(betti=betti, torsion=torsion), chi, orientable)
    assert (cls.name, cls.orientable, cls.genus, cls.consistent, cls.problems) == (
        "inconsistent", orientable, genus, False, problems)


@pytest.mark.parametrize("maker,per_component,problems", [
    (lambda: _union(grid_klein(3, 3), grid_klein(3, 3)), [False, False],
     ["b0 = 2, expected 1 for a connected surface",
      "b1 = 2, expected 1 for nonorientable genus 2", "H1 torsion (2, 2), expected (2,)"]),
    (lambda: _union(grid_klein(3, 3), grid_torus(3, 3)), [False, True],
     ["b0 = 2, expected 1 for a connected surface",
      "b1 = 3, expected 1 for nonorientable genus 2",
      "b2 = 1, expected 0 for a closed nonorientable surface"]),
], ids=["klein+klein", "klein+torus"])
def test_disconnected_nonorientable_certificate_problems(maker, per_component, problems):
    """A closed but disconnected nonorientable mesh is classified as the
    one surface of its Euler characteristic, and the certificate lists
    the cross-checks its homology fails."""
    cert = build_certificate(maker())
    assert cert["combinatorics"]["orientable_per_component"] == per_component
    assert cert["topology"]["classification"] == {
        "name": "inconsistent", "orientable": False, "genus": 2, "consistent": False,
        "problems": problems}
    assert cert["verdict"]["connected"] is False and cert["verdict"]["surface"] == "inconsistent"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_homology_ignores_face_order(seed):
    base = grid_klein(3, 3)
    rng = np.random.default_rng(seed)
    faces = list(base.faces)
    rng.shuffle(faces)
    mesh = check_closed_manifold(
        build_complex([tuple(p) for p in base.vertices], faces)
    )
    prof = homology_profile(boundary_matrices(mesh))
    assert prof.betti == (1, 1, 0)
    assert prof.torsion == ((), (2,), ())
