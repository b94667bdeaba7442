"""Cell complex validation, closed-manifold checking, orientability."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcheck import (
    InvalidComplexError,
    NotManifoldError,
    build_complex,
    check_closed_manifold,
    connected_components,
    edge_census,
    euler_characteristic,
    orientability,
)
from flatcheck.corpus import doubled_cone
from flatcheck.mesh import (_min_labels, complex_from_flat, signed_components,
                            triangle_key)

from conftest import (canonical_face, cube, grid_klein, grid_torus, icosa, referee_build,
                      referee_manifold, referee_orientability, tetra)

TETRA_VERTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
TETRA_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def test_build_complex_basic():
    cx = build_complex(TETRA_VERTS, TETRA_FACES)
    assert cx.n_vertices == 4
    assert cx.n_faces == 4
    assert cx.vertices.shape == (4, 3)
    assert cx.faces == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def test_complex_from_flat_one_based():
    faces1 = [tuple(i + 1 for i in f) for f in TETRA_FACES]
    cx = complex_from_flat(TETRA_VERTS, [i for f in faces1 for i in f], [3] * len(faces1),
                           index_base=1)
    assert cx.faces == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


@pytest.mark.parametrize(
    "faces",
    [
        [(0, 1, 4)],  # out of range
        [(0, 1)],  # degree 2
        [(0, 1, 1)],  # repeated vertex
        [(0, 1, 2), (2, 1, 0)],  # same face reversed
        [(0, 1, 2), (1, 2, 0)],  # same face rotated
    ],
)
def test_build_complex_rejects(faces):
    with pytest.raises(InvalidComplexError):
        build_complex(TETRA_VERTS, faces)


def test_canonical_face_rotation_reversal():
    assert canonical_face((2, 0, 1)) == canonical_face((0, 1, 2))
    assert canonical_face((2, 1, 0)) == canonical_face((0, 1, 2))
    # a quad and its reversal share a canonical form, distinct quads do not
    assert canonical_face((0, 1, 2, 3)) == canonical_face((3, 2, 1, 0))
    assert canonical_face((0, 1, 2, 3)) != canonical_face((0, 2, 1, 3))


def test_edge_census_cube():
    census = edge_census(cube())
    assert len(census) == 12
    assert set(census.values()) == {2}


def test_face_degree_census():
    assert cube().face_degree_census() == {4: 6}
    assert tetra().face_degree_census() == {3: 4}


@pytest.mark.parametrize(
    "maker,chi",
    [
        (tetra, 2),
        (cube, 2),
        (icosa, 2),
        (grid_torus, 0),
        (grid_klein, 0),
    ],
)
def test_closed_manifold_and_euler(maker, chi):
    mesh = check_closed_manifold(maker())
    assert euler_characteristic(mesh) == chi


def test_boundary_edge_defect():
    with pytest.raises(NotManifoldError) as exc:
        check_closed_manifold(build_complex(TETRA_VERTS[:3], [(0, 1, 2)]))
    kinds = {d.kind for d in exc.value.defects}
    assert kinds == {"boundary-edge"}
    locations = {d.location for d in exc.value.defects}
    assert locations == {(0, 1), (0, 2), (1, 2)}


def test_overfull_edge_defect():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)]
    with pytest.raises(NotManifoldError) as exc:
        check_closed_manifold(build_complex(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]))
    kinds = {d.kind for d in exc.value.defects}
    assert "nonmanifold-edge" in kinds
    assert any(d.location == (0, 1) for d in exc.value.defects)


def test_pinched_vertex_defect():
    # two tetrahedra glued at vertex 0: every edge is fine, the vertex is not
    verts = [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
    ]
    faces = [
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 1),
        (1, 3, 2),
        (0, 4, 5),
        (0, 5, 6),
        (0, 6, 4),
        (4, 6, 5),
    ]
    with pytest.raises(NotManifoldError) as exc:
        check_closed_manifold(build_complex(verts, faces))
    assert [(d.kind, d.location) for d in exc.value.defects] == [
        ("pinched-vertex", (0,))
    ]


def test_two_component_union():
    verts = TETRA_VERTS + [(10 + x, y, z) for x, y, z in TETRA_VERTS]
    faces = list(TETRA_FACES) + [tuple(i + 4 for i in f) for f in TETRA_FACES]
    mesh = check_closed_manifold(build_complex(verts, faces))
    assert connected_components(mesh) == 2
    assert euler_characteristic(mesh) == 4
    rep = orientability(mesh)
    assert rep.orientable
    assert rep.per_component == (True, True)


@pytest.mark.parametrize(
    "maker,expect",
    [
        (tetra, True),
        (cube, True),
        (icosa, True),
        (grid_torus, True),
        (grid_klein, False),
    ],
)
def test_orientability(maker, expect):
    rep = orientability(check_closed_manifold(maker()))
    assert rep.orientable is expect


def test_orientability_mixed_components():
    torus = grid_torus(3, 3)
    klein = grid_klein(3, 3)
    shift = np.array([50.0, 0.0, 0.0])
    verts = [tuple(p) for p in torus.vertices] + [
        tuple(p + shift) for p in klein.vertices
    ]
    nv = torus.n_vertices
    faces = list(torus.faces) + [tuple(i + nv for i in f) for f in klein.faces]
    mesh = check_closed_manifold(build_complex(verts, faces))
    rep = orientability(mesh)
    assert not rep.orientable
    assert sorted(rep.per_component) == [False, True]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_face_order_and_rotation_invariance(seed):
    """Manifoldness, chi and orientability ignore face listing order and
    the choice of starting corner within each face."""
    base = grid_klein(3, 4)
    rng = np.random.default_rng(seed)
    faces = list(base.faces)
    rng.shuffle(faces)
    faces = [tuple(np.roll(f, rng.integers(0, len(f)))) for f in faces]
    mesh = check_closed_manifold(
        build_complex([tuple(p) for p in base.vertices], faces)
    )
    assert euler_characteristic(mesh) == 0
    assert not orientability(mesh).orientable
    assert connected_components(mesh) == 1


# ---------------------------------------------------------------------------
# The array-backed core against its face-by-face referees (conftest)
# ---------------------------------------------------------------------------

def _quad_grid(m, n, klein, split):
    """m x n quad grid on the torus or the Klein bottle; split[q] keeps quad
    q (0) or cuts it along one of its two diagonals (1, 2)."""
    def cls(i, j):
        if j >= n:
            i, j = ((m - i) % m if klein else i), j - n
        return j * m + i % m

    faces = []
    for q, (j, i) in enumerate((j, i) for j in range(n) for i in range(m)):
        a, b, c, d = cls(i, j), cls(i + 1, j), cls(i + 1, j + 1), cls(i, j + 1)
        faces += [[(a, b, c, d)], [(a, b, c), (a, c, d)], [(a, b, d), (b, c, d)]][split[q]]
    return m * n, faces


@st.composite
def _combinatorial_cases(draw):
    """(n_vertices, faces): a grid torus or Klein bottle (triangles, or
    quads some of which are cut into triangles) or a tetrahedron,
    optionally with a face deleted, a fin, a second copy joined at one
    vertex or an isolated vertex, then relabelled, with every face rotated
    and some reversed, in shuffled order."""
    kind = draw(st.sampled_from(["grid_torus", "grid_klein", "mixed", "tetra"]))
    m, n = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    if kind == "tetra":
        nv, faces = 4, list(tetra().faces)
    elif kind == "mixed":
        split = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
        nv, faces = _quad_grid(m, n, draw(st.booleans()), split)
    else:
        base = (grid_torus if kind == "grid_torus" else grid_klein)(m, n)
        nv, faces = base.n_vertices, list(base.faces)
    if draw(st.integers(0, 2)) == 0:      # a second copy, joined at one vertex
        joint = draw(st.integers(0, nv - 1))
        faces += [tuple(joint if i == 0 else i + nv - 1 for i in f) for f in faces]
        nv = 2 * nv - 1
    if draw(st.integers(0, 3)) == 0:
        del faces[draw(st.integers(0, len(faces) - 1))]
    if draw(st.integers(0, 3)) == 0:      # a fin on one side of one face
        f = faces[draw(st.integers(0, len(faces) - 1))]
        i = draw(st.integers(0, len(f) - 1))
        faces.append((f[i], f[(i + 1) % len(f)], nv))
        nv += 1
    if draw(st.integers(0, 3)) == 0:
        nv += 1
    perm = draw(st.permutations(range(nv)))
    out = []
    for f in faces:
        g = [perm[i] for i in f]
        k = draw(st.integers(0, len(g) - 1))
        g = g[k:] + g[:k]
        out.append(tuple(reversed(g)) if draw(st.integers(0, 4)) == 0 else tuple(g))
    return nv, draw(st.permutations(out))


def _joined(nv, faces, v, other_nv, other_faces, w):
    """(nv, faces) of two complexes joined at their vertices v and w: the
    second one's vertices follow the first's, w becoming v."""
    def label(i):
        return v if i == w else nv + i - (i > w)
    return nv + other_nv - 1, list(faces) + [tuple(map(label, f)) for f in other_faces]


def _torus_with_two_quads():
    """grid_torus(3, 3) with the two triangles of one square replaced by
    two quads around a new vertex that meets the square's diagonal ends:
    the new vertex has valence 2 and every other vertex 6."""
    cx = grid_torus(3, 3)
    (a, x, b), *rest = cx.faces
    (y,) = [next(i for i in f if i not in (a, b)) for f in rest
            if {a, b} <= set(f)]
    rest = [f for f in rest if not {a, b} <= set(f)]
    v = cx.n_vertices
    return v + 1, rest + [(v, a, x, b), (v, b, y, a)], v


_QUAD_NV, _QUAD_FACES, _QUAD_APEX = _torus_with_two_quads()


@settings(max_examples=150, deadline=None)
@given(case=_combinatorial_cases())
@example(case=(7, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2),
                   (0, 4, 5), (0, 5, 6), (0, 6, 4), (4, 6, 5)]))   # two tetrahedra at a vertex
# pinched at the lowest valence, 4, where every other vertex has 6
@example(case=_joined(_QUAD_NV, _QUAD_FACES, _QUAD_APEX, _QUAD_NV, _QUAD_FACES, _QUAD_APEX))
# pinched at the highest valence, 7, from cycles of 3 and 4
@example(case=_joined(4, tetra().faces, 0, 6, doubled_cone(2 * math.pi, 4).faces, 0))
# the two apexes walk 50 steps, the other 50 vertices stop at 4
@example(case=(52, list(doubled_cone(2 * math.pi, 50).faces)))
def test_manifold_check_matches_referee(case):
    """check_closed_manifold raises the referee's defects, equal in kind,
    location, detail and order; on success its twins, edges and stars,
    and orientability per component, equal the referee's."""
    nv, faces = case
    cx = build_complex(np.zeros((nv, 3)), faces)
    ref = referee_manifold(cx)
    try:
        mesh = check_closed_manifold(cx)
    except NotManifoldError as exc:
        assert ref["defects"] and list(exc.defects) == ref["defects"]
        return
    assert ref["defects"] == []
    for name in ("origin", "face_of", "twin", "star_corners", "star_entries", "star_offsets"):
        assert tuple(getattr(mesh, name).tolist()) == ref[name], name
    assert tuple(map(tuple, mesh.edge_ends.tolist())) == ref["edge_ends"]
    per_component = referee_orientability(ref, cx.n_faces)
    assert orientability(mesh).per_component == per_component
    assert connected_components(mesh) == len(per_component)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2 ** 31 + 3, 3_000_000_000]), data=st.data())
def test_triangle_key_orders_sorted_corners(n, data):
    """triangle_key at vertex ids near 2^31 and near the n < 3.03e9 bound
    of its exactness: equal keys are equal sorted corners, a sort on the
    key sorts the sorted corners, and it flags a repeated id."""
    ids = st.sampled_from([0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, n - 2, n - 1])
    triangles = data.draw(st.lists(st.tuples(ids, ids, ids), min_size=1, max_size=12))
    a, b, c = np.array(triangles, dtype=np.int64).T
    key, hi, repeated = triangle_key(a, b, c, n)
    corners = [tuple(sorted(t)) for t in triangles]
    assert [(k, h) for k, h in zip(key.tolist(), hi.tolist())] == [
        (lo * n + mid, top) for lo, mid, top in corners]
    assert repeated.tolist() == [len(set(t)) < 3 for t in triangles]
    order = np.lexsort((hi, key)).tolist()
    assert order == sorted(range(len(corners)), key=corners.__getitem__)


def _index_forms(draw, face):
    """The same indices as Python ints, a NumPy int array or NumPy scalars."""
    form = draw(st.sampled_from(["int", "array", "scalar"]))
    if form == "array":
        return np.array(face, dtype=draw(st.sampled_from([np.int64, np.int32])))
    if form == "scalar":
        return tuple(np.int64(i) for i in face)
    return tuple(face)


@st.composite
def _raw_complexes(draw):
    """(vertices, raw faces, index_base): faces of 0 to 5 indices, some out
    of range or repeating a vertex, some copies of earlier faces rotated or
    reversed, now and then a non-finite coordinate."""
    nv = draw(st.integers(0, 8))
    base = draw(st.sampled_from([0, 1]))
    vertices = np.zeros((nv, 3))
    if nv and draw(st.integers(0, 9)) == 0:
        vertices[draw(st.integers(0, nv - 1)), draw(st.integers(0, 2))] = np.nan
    lo, hi = (base - 2, nv + base + 1) if draw(st.integers(0, 3)) == 0 else (base, nv + base - 1)
    index = st.integers(lo, max(lo, hi))
    faces = []
    for _ in range(draw(st.integers(0, 8))):
        if faces and draw(st.integers(0, 3)) == 0:
            g = list(draw(st.sampled_from(faces)))
            k = draw(st.integers(0, max(len(g) - 1, 0)))
            g = g[k:] + g[:k]
            faces.append(tuple(reversed(g)) if draw(st.booleans()) else tuple(g))
        elif hi - lo < 4 or draw(st.integers(0, 9)) == 0:
            faces.append(tuple(draw(st.lists(index, max_size=5))))
        else:
            faces.append(tuple(draw(st.lists(index, min_size=3, max_size=5, unique=True))))
    return vertices, [_index_forms(draw, f) for f in faces], base


@settings(max_examples=400, deadline=None)
@given(raw=_raw_complexes())
@example(raw=(np.zeros((3, 3)), [(0, 1, 2), (1, 2, 0)], 0))
# a triangle repeated in each of the six orders of its corners
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (1, 2, 3)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (2, 3, 1)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (3, 1, 2)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (1, 3, 2)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (3, 2, 1)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3), (0, 1, 2), (2, 1, 3)], 0))
@example(raw=(np.zeros((4, 3)), [(1, 2, 3, 4), (4, 3, 2, 1), (1, 2)], 1))
@example(raw=(np.zeros((3, 3)), [(0, 1, 2 ** 70)], 0))
def test_build_complex_matches_referee(raw):
    """build_complex, or for 1-based faces complex_from_flat as the readers
    call it, returns the referee's faces or raises its exception type with
    its message, for every face degree, index base and integer type."""
    vertices, faces, base = raw

    def build():
        if base == 0:
            return build_complex(vertices, faces)
        return complex_from_flat(vertices, [int(i) for f in faces for i in f],
                                 [len(f) for f in faces], index_base=base)

    try:
        expected = referee_build(vertices, faces, base)
    except InvalidComplexError as exc:
        with pytest.raises(InvalidComplexError) as got:
            build()
        assert str(got.value) == str(exc)
        return
    cx = build()
    assert cx.faces == expected[1]
    assert np.array_equal(cx.vertices, expected[0])
    assert cx.corners.tolist() == [i for f in expected[1] for i in f]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_unflipped_signed_components_equal_double_cover(n, data):
    """With no flipped link, signed_components labels the graph itself;
    its labels and balance are those read off the double cover, labelled
    by _min_labels with nodes 2x and 2x + 1 for the two signs of x."""
    node = st.integers(0, n - 1)
    links = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    a = np.array([x for x, _ in links], dtype=np.int64)
    b = np.array([y for _, y in links], dtype=np.int64)
    lifted = _min_labels(2 * n, np.concatenate([2 * a, 2 * a + 1]),
                         np.concatenate([2 * b, 2 * b + 1]))
    label, unbalanced = signed_components(n, a, b, np.zeros(a.size, dtype=bool))
    assert label.tolist() == (lifted[0::2] >> 1).tolist()
    assert unbalanced.tolist() == (lifted[0::2] == lifted[1::2]).tolist()
