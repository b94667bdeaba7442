"""Generator corpus: counts, validation, and the promised topology of each kind."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flatcheck import (
    GeneratorError,
    GeneratorSpec,
    boundary_matrices,
    check_closed_manifold,
    classify_surface,
    connected_components,
    euler_characteristic,
    generate,
    homology_profile,
    orientability,
    standard_corpus,
)
from flatcheck import corpus

from conftest import fold_vertex_ids


def _topology(cx):
    mesh = check_closed_manifold(cx)
    chi = euler_characteristic(mesh)
    orient = orientability(mesh).orientable
    prof = homology_profile(boundary_matrices(mesh))
    return mesh, chi, orient, prof


@pytest.mark.parametrize(
    "kind,nv,nf,chi",
    [
        ("tetrahedron", 4, 4, 2),
        ("cube", 8, 6, 2),
        ("icosahedron", 12, 20, 2),
    ],
)
def test_platonic_counts(kind, nv, nf, chi):
    cx = generate(GeneratorSpec(kind))
    assert cx.n_vertices == nv
    assert cx.n_faces == nf
    mesh, got_chi, orient, prof = _topology(cx)
    assert got_chi == chi
    assert orient
    assert classify_surface(prof, got_chi, orient).name == "sphere"


def test_icosahedron_edge_lengths_equal():
    cx = generate(GeneratorSpec("icosahedron"))
    lengths = set()
    for f in cx.faces:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            lengths.add(round(float(np.linalg.norm(cx.vertices[a] - cx.vertices[b])), 9))
    assert len(lengths) == 1


def test_grid_torus_structure():
    cx = generate(GeneratorSpec("grid_torus", m=3, n=4))
    assert cx.n_vertices == 12
    assert cx.n_faces == 24  # two triangles per quad cell
    mesh, chi, orient, prof = _topology(cx)
    assert chi == 0
    assert orient
    assert prof.betti == (1, 2, 1)
    assert prof.torsion == ((), (), ())
    assert classify_surface(prof, chi, orient).name == "torus"


def test_grid_torus_round_embedding():
    cx = generate(GeneratorSpec("grid_torus", m=4, n=4))
    # all vertices on the standard round torus with radii 2 and 1
    x, y, z = cx.vertices.T
    ring = np.hypot(x, y)
    assert np.allclose((ring - 2.0) ** 2 + z**2, 1.0, atol=1e-12)


def test_grid_klein_structure():
    cx = generate(GeneratorSpec("grid_klein", m=4, n=3))
    assert cx.n_vertices == 12
    assert cx.n_faces == 24
    mesh, chi, orient, prof = _topology(cx)
    assert chi == 0
    assert not orient
    assert prof.betti == (1, 1, 0)
    assert prof.torsion == ((), (2,), ())
    assert classify_surface(prof, chi, orient).name == "Klein bottle"


def test_grid_requires_three():
    """Through generate, and from the builder called directly."""
    for kind, build in (("grid_torus", corpus.grid_torus), ("grid_klein", corpus.grid_klein)):
        for m, n in ((2, 5), (4, 2)):
            with pytest.raises(GeneratorError, match=f"^{kind} needs m, n >= 3, got {m}x{n}$"):
                generate(GeneratorSpec(kind, m=m, n=n))
            with pytest.raises(GeneratorError, match=f"^{kind} needs m, n >= 3, got {m}x{n}$"):
                build((m, n))


def test_folded_torus_validation():
    # each message names the kind
    with pytest.raises(GeneratorError, match="^folded_flat_torus folds must be even"):
        generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=3))  # odd
    with pytest.raises(GeneratorError, match="^folded_flat_torus folds must divide"):
        generate(GeneratorSpec("folded_flat_torus", m=6, n=4, folds=4))  # 4 excl 6
    with pytest.raises(GeneratorError, match="^folded_flat_torus folds must divide"):
        generate(GeneratorSpec("folded_flat_torus", m=3, n=3, folds=2))  # 2 excl 3


def test_folded_torus_structure():
    cx = generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2))
    assert cx.n_vertices == 16
    mesh, chi, orient, prof = _topology(cx)
    assert chi == 0
    assert orient
    assert prof.betti == (1, 2, 1)
    folds = fold_vertex_ids(4, 4, 2)
    assert folds == frozenset(
        j * 4 + i for j in range(4) for i in range(4) if i % 2 == 0 or j % 2 == 0
    )


def test_folded_torus_unit_slope():
    cx = generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2))
    # all coordinates live on the integer lattice of the zigzag profile
    assert np.allclose(cx.vertices, np.round(cx.vertices), atol=0)


def test_doubled_cone_validation():
    # each message names the kind
    for angle in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(GeneratorError, match="^doubled_cone total_angle must be positive"):
            generate(GeneratorSpec("doubled_cone", total_angle=angle))
    with pytest.raises(GeneratorError, match="^doubled_cone segments must be >= 3, got 2$"):
        generate(GeneratorSpec("doubled_cone", total_angle=2 * math.pi, segments=2))
    with pytest.raises(GeneratorError, match="^doubled_cone segments=4 gives corner angle"):
        # sector angle would reach pi
        generate(GeneratorSpec("doubled_cone", total_angle=4 * math.pi, segments=4))


def test_doubled_cone_structure():
    cx = generate(GeneratorSpec("doubled_cone", total_angle=4 * math.pi, segments=8))
    assert cx.n_vertices == 10  # two apexes plus the rim
    assert cx.n_faces == 16
    mesh, chi, orient, prof = _topology(cx)
    assert chi == 2
    assert orient
    assert classify_surface(prof, chi, orient).name == "sphere"
    # both apexes sit at the origin, the rim at unit radius
    assert np.allclose(cx.vertices[:2], 0.0, atol=0)
    assert np.allclose(np.linalg.norm(cx.vertices[2:], axis=1), 1.0, atol=1e-12)


def test_doubled_cone_default_segments():
    cx = generate(GeneratorSpec("doubled_cone", total_angle=2 * math.pi))
    assert cx.n_vertices == 2 + 4  # ceil(2 * theta / pi) = 4 sectors


@pytest.mark.parametrize("spec", [
    GeneratorSpec("grid_torus", m=1449, n=1449),
    GeneratorSpec("grid_klein", m=3, n=10**12),
    GeneratorSpec("folded_flat_torus", m=1450, n=1450, folds=2),
    GeneratorSpec("doubled_cone", total_angle=1e9),
    GeneratorSpec("doubled_cone", total_angle=2 * math.pi, segments=2**21 + 1),
    GeneratorSpec("doubled_cone", total_angle=1e300),
])
def test_face_count_bound(spec):
    # each one just over 2^22 faces, or far over; refused before allocating
    with pytest.raises(GeneratorError, match=f"^{spec.kind} would have \\d+ faces, more than 4194304$"):
        generate(spec)


@pytest.mark.parametrize("spec, name", [
    (GeneratorSpec("cube", m=3), "m"),
    (GeneratorSpec("grid_torus", m=4, n=5, folds=3), "folds"),
    (GeneratorSpec("grid_klein", m=3, n=3, total_angle=1.0), "total_angle"),
    (GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2, segments=8), "segments"),
    (GeneratorSpec("doubled_cone", n=4, total_angle=2 * math.pi), "n"),
])
def test_generate_refuses_fields_the_kind_does_not_take(spec, name):
    with pytest.raises(GeneratorError, match=f"^{spec.kind} takes no {name}$"):
        generate(spec)


def test_unknown_kind():
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("octahedron"))


def test_standard_corpus_all_manifold(corpus_meshes):
    assert len(corpus_meshes) == 10
    labels = list(corpus_meshes)
    assert len(set(labels)) == 10
    for label, (spec, cx) in corpus_meshes.items():
        mesh = check_closed_manifold(cx)
        assert connected_components(mesh) == 1, label


def test_spec_labels():
    assert GeneratorSpec("tetrahedron").label == "tetrahedron"
    assert GeneratorSpec("grid_torus", m=3, n=4).label == "grid_torus_3x4"
    assert (
        GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2).label
        == "folded_flat_torus_4x4_folds2"
    )
    # segments changes the surface, so it is part of the label
    plain = GeneratorSpec("doubled_cone", total_angle=2 * math.pi)
    split = GeneratorSpec("doubled_cone", total_angle=2 * math.pi, segments=8)
    assert (plain.label, split.label) == ("doubled_cone_angle6.28319",
                                          "doubled_cone_angle6.28319_segments8")
    assert (generate(plain).n_faces, generate(split).n_faces) == (8, 16)
