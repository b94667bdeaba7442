"""Certificate assembly and the canonical JSON wire format."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from flatcheck import certificate
from flatcheck import (
    GeneratorSpec,
    ToleranceProfile,
    angle_defect,
    build_certificate,
    build_complex,
    canonical_json,
    certificate_text,
    check_closed_manifold,
    connected_components,
    edge_census,
    flatness_report,
    gauss_bonnet_check,
    generate,
    orientability,
    write_certificate,
)

GOLDEN = Path(__file__).parent / "golden" / "tetrahedron_certificate.json"

# sha256 of certificate_text(build_certificate(...)) with default
# tolerances: any change to a certificate byte shows here
CERTIFICATE_SHA256 = {
    "tetrahedron": "47d0d7c8a4b177c2dc75f3d9628a3b1103427d335f9e3e439c91811c014e1488",
    "cube": "7bdea5c2bf026b67d1b64e9faa99ba7dcec80c4591c13ece767c5521d8587c5e",
    "icosahedron": "764a7281454f991273385d15940ff156d3de11f7a694a78d4c767919b29daeae",
    "grid_torus_3x3": "e48a9eeb5218bfc173b9f67622ebe136233a13f1d6e44c12cb59be8dc2eb88f3",
    "grid_torus_4x5": "ed6228c7587a652ec837cd57ee8197195594c550908a9e045a838e2951d74600",
    "grid_klein_3x3": "6d6cb72a7633d17cfeed922dfbd37b694fec4d576d2b073bc98d07636e1f3566",
    "grid_klein_5x4": "f523b9b5ba93791588ed5f5acbef5f1c1c00a652bcb6b9ecff905b7b1c9c5f1b",
    "folded_flat_torus_4x4_folds2":
        "35e31c428f8b7f2ecc6f15c59a6ef7b3cae353561acff2c621461d116dc2e5f5",
    "doubled_cone_angle6.28319":
        "45972cf2410761d306434e126251e0c94d541862a856b7731b8ef6108b7c78eb",
    "doubled_cone_angle12.5664":
        "5a30121498d249f01f6698e8cd40b12f960b10a09efd4d6fd31706cc354e421d",
    "two_tetrahedra": "6c6900b26346429a75ae6381a3b3b5186a6b51023e712140165e7a673c9ac269",
}


def _two_tetrahedra():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return build_complex(verts + [(10 + x, y, z) for x, y, z in verts],
                         faces + [tuple(i + 4 for i in f) for f in faces])


def test_canonical_json_scalars():
    assert canonical_json(None) == "null"
    assert canonical_json(True) == "true"
    assert canonical_json(False) == "false"
    assert canonical_json(42) == "42"
    assert canonical_json(-1) == "-1"
    assert canonical_json("a\"b\n") == json.dumps("a\"b\n")


def test_canonical_json_floats():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(1.0) == "1"
    assert canonical_json(-0.0) == "-0"
    assert canonical_json(math.pi) == "3.1415926535897931"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonical_json(bad)


def test_canonical_json_containers():
    assert canonical_json([]) == "[]"
    assert canonical_json({}) == "{}"
    text = canonical_json({"b": 1, "a": [1, {"z": None}]})
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == {"b": 1, "a": [1, {"z": None}]}


def test_canonical_json_rejects_unknown():
    with pytest.raises(TypeError):
        canonical_json({1, 2})
    with pytest.raises(TypeError):
        canonical_json(object())


def test_certificate_matches_golden():
    text = certificate_text(build_certificate(generate(GeneratorSpec("tetrahedron"))))
    assert text == GOLDEN.read_text()


def test_certificate_bytes_pinned_over_corpus(corpus_meshes):
    meshes = {label: cx for label, (_, cx) in corpus_meshes.items()}
    meshes["two_tetrahedra"] = _two_tetrahedra()
    assert set(meshes) == set(CERTIFICATE_SHA256)
    for label, cx in meshes.items():
        cert = build_certificate(cx)
        text = certificate_text(cert)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERTIFICATE_SHA256[label], label
        # the public functions agree, bit for bit, with what the
        # certificate reads from its single producer of each fact
        mesh = check_closed_manifold(cx)
        report = flatness_report(mesh)
        recorded = math.fsum(v.defect for v in report.vertices)
        assert report.defect_total.hex() == recorded.hex(), label
        assert gauss_bonnet_check(mesh)[0].hex() == recorded.hex(), label
        assert [angle_defect(mesh, v) for v in range(cx.n_vertices)] == [
            v.defect for v in report.vertices], label
        components = len(orientability(mesh).per_component)
        assert connected_components(mesh).count == components == cert["combinatorics"]["components"]
        assert cert["input"]["n_edges"] == mesh.n_edges == len(edge_census(cx)), label


def test_closed_input_counts_edges_once(monkeypatch):
    # the half-edge mesh already holds the edge list; the census is only
    # for input that is not a closed manifold
    def census(complex):
        raise AssertionError("edge_census called on closed input")

    monkeypatch.setattr(certificate, "edge_census", census)
    assert build_certificate(generate(GeneratorSpec("cube")))["input"]["n_edges"] == 12


def test_certificate_deterministic_bytes(tmp_path):
    cx = generate(GeneratorSpec("grid_klein", m=4, n=4))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_certificate(build_certificate(cx), a)
    write_certificate(build_certificate(cx), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_certificate_is_valid_json():
    cert = build_certificate(generate(GeneratorSpec("cube")))
    parsed = json.loads(certificate_text(cert))
    assert parsed["verdict"]["surface"] == "sphere"


def test_cube_certificate_fields():
    cert = build_certificate(generate(GeneratorSpec("cube")))
    assert cert["input"]["face_degree_census"] == {"4": 6}
    assert cert["combinatorics"]["euler_characteristic"] == 2
    assert cert["topology"]["classification"]["name"] == "sphere"
    geo = cert["geometry"]
    assert geo["all_faces_planar"]
    assert not geo["all_defects_zero"]
    assert geo["max_abs_defect"] == pytest.approx(math.pi / 2)
    assert cert["immersion"]["classification"] == "embedded"
    v = cert["verdict"]
    assert v["closed_manifold"] and v["connected"] and v["locally_embedded"]
    assert not v["flat"] and not v["pass"]


def test_klein_certificate_fields():
    cert = build_certificate(generate(GeneratorSpec("grid_klein", m=4, n=4)))
    assert cert["combinatorics"]["orientable"] is False
    top = cert["topology"]
    assert top["betti"] == [1, 1, 0]
    assert top["torsion"] == [[], [2], []]
    assert top["classification"]["name"] == "Klein bottle"
    assert cert["verdict"]["self_intersecting"] is True
    assert cert["verdict"]["immersion"] == "not-an-immersion"
    assert cert["verdict"]["pass"] is False


def test_folded_torus_certificate_verdict():
    cert = build_certificate(
        generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2))
    )
    v = cert["verdict"]
    assert v["surface"] == "torus"
    assert v["flat"] is True
    assert v["locally_embedded"] is False
    assert v["immersion"] == "not-an-immersion"
    assert v["pass"] is False


def test_nonmanifold_certificate():
    cert = build_certificate(
        build_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    )
    comb = cert["combinatorics"]
    assert comb["closed_manifold"] is False
    kinds = {d["kind"] for d in comb["defects"]}
    assert kinds == {"boundary-edge"}
    assert cert["topology"] is None
    assert cert["geometry"] is None
    assert cert["immersion"] is None
    assert cert["verdict"]["pass"] is False
    # still canonically serializable
    json.loads(certificate_text(cert))


def test_degenerate_geometry_certificate():
    # squashed octahedron: one apex pushed onto an equator edge
    verts = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.5, 0.5, 0.0),
        (0.0, 0.0, -1.0),
    ]
    faces = [
        (4, 0, 1),
        (4, 1, 2),
        (4, 2, 3),
        (4, 3, 0),
        (5, 1, 0),
        (5, 2, 1),
        (5, 3, 2),
        (5, 0, 3),
    ]
    cert = build_certificate(build_complex(verts, faces))
    assert cert["geometry"] == {"error": "face 0: points are collinear within working precision"}
    assert "zero-area" in cert["immersion"]["error"]
    assert cert["verdict"]["flat"] is False
    assert cert["verdict"]["immersion"] is None
    assert cert["verdict"]["pass"] is False
    json.loads(certificate_text(cert))


def test_sources_and_tolerances_recorded(tmp_path):
    from flatcheck import read_mesh, write_mesh

    cx = generate(GeneratorSpec("tetrahedron"))
    path = tmp_path / "t.off"
    write_mesh(cx, path)
    loaded = read_mesh([path])
    tol = ToleranceProfile(planarity_tol=1e-6)
    cert = build_certificate(loaded.complex, tolerances=tol, sources=loaded.sources)
    assert cert["tool"]["tolerances"]["planarity_tol"] == 1e-6
    src = cert["input"]["sources"]
    assert len(src) == 1
    assert src[0]["path"] == str(path)
    assert len(src[0]["sha256"]) == 64
