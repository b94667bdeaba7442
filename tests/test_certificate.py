"""Certificate assembly and the canonical JSON wire format."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcheck import certificate, intersect
from flatcheck import (
    ContactRows,
    GeneratorSpec,
    ToleranceProfile,
    build_certificate,
    build_complex,
    canonical_json,
    certificate_text,
    check_closed_manifold,
    connected_components,
    edge_census,
    flatness_report,
    generate,
    orientability,
    write_certificate,
)

from conftest import referee_canonical_json

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


class _Row(NamedTuple):
    i: int
    j: int
    kind: str


class _Cell(NamedTuple):
    key: str
    value: object


_INTS = st.integers(-2**70, 2**70)
_TEXT = st.text(max_size=12)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _TEXT,
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.builds(_Row, _INTS, _INTS, _TEXT)),
    max_leaves=6,
)


@contextmanager
def _spy_rows():
    """Record each ContactRows that canonical_json writes from its rows."""
    calls = []
    real = certificate._contact_lines

    def spy(contacts, indent, out):
        calls.append(contacts)
        return real(contacts, indent, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificate, "_contact_lines", spy)
        yield calls


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.builds(_Row, _INTS, _INTS, _TEXT), min_size=1, max_size=40),
       cells=st.lists(st.builds(_Cell, _TEXT, _VALUES), min_size=1, max_size=8),
       indent=st.integers(0, 3))
@example(rows=[_Row(-1, 2**64, 'q"uo\\te\nline \u00e9\u4e2d\U0001f600')],
         cells=[_Cell("k", [_Row(0, -3, "x")])], indent=0)
def test_named_tuple_rows_match_dicts(rows, cells, indent):
    """A list of named tuples gives the bytes of the same list of dicts,
    alone, as a tuple, item by item, and beside a dict: int and str
    fields, and other values (None, bools, floats, lists, nested named
    tuples) too."""
    for named in (rows, cells):
        plain = [r._asdict() for r in named]
        assert canonical_json(named, indent) == canonical_json(plain, indent)
        assert canonical_json(tuple(named), indent) == canonical_json(plain, indent)
        assert canonical_json(named[0], indent) == canonical_json(plain[0], indent)
    mixed = [rows[0], {"i": 1, "j": 2, "kind": "touch-point"}, *rows[1:]]
    assert canonical_json(mixed, indent) == canonical_json(
        [r if isinstance(r, dict) else r._asdict() for r in mixed], indent)


_INT64 = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_INT64, _INT64, st.integers(0, len(ContactRows.kinds) - 1)),
                     max_size=40),
       indent=st.integers(0, 3))
def test_contact_rows_match_dicts(rows, indent):
    """A ContactRows, alone or inside a dict, is written from its integer
    rows with the bytes of the same list of {"i", "j", "kind"} dicts, for
    every kind index, the full int64 range and the empty list."""
    contacts = ContactRows(rows)
    plain = [{"i": i, "j": j, "kind": ContactRows.kinds[k]} for i, j, k in rows]
    with _spy_rows() as calls:
        assert canonical_json(contacts, indent) == canonical_json(plain, indent)
        assert (canonical_json({"pairs": contacts}, indent)
                == canonical_json({"pairs": plain}, indent))
    assert all(c is contacts for c in calls) and len(calls) == (2 if rows else 0)


_INDEX = st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0]), st.integers(-2, 2), _INT64)
_CONTACTS = st.builds(ContactRows, st.lists(
    st.tuples(_INDEX, _INDEX, st.integers(0, len(ContactRows.kinds) - 1)), max_size=12))
_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INT64, _INTS, _TEXT,
              st.floats(allow_nan=False, allow_infinity=False), _CONTACTS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=3),
                            st.builds(_Cell, _TEXT, inner), st.builds(_Row, _INTS, _INTS, _TEXT)),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(value=_TREES, contacts=_CONTACTS, key=_TEXT, indent=st.integers(0, 3))
@example(value={"\u00e9\u4e2d": ContactRows([(2**63 - 1, -2**63, 4), (2**63 - 1, 2**63 - 1, 0)])},
         contacts=ContactRows([(1, 1, 1), (1, 2, 3), (2, 1, 2)]), key="k\U0001f600", indent=3)
def test_writer_matches_referee(value, contacts, key, indent):
    """The one-list writer gives the recursive referee's bytes on nested
    dicts, lists, tuples and named tuples, a ContactRows two levels deep
    and an empty one, and raises the referee's error on a value that has
    no JSON form, nested."""
    for v in (value, {key: [contacts, {key: contacts}], "": ContactRows([])}):
        assert canonical_json(v, indent) == referee_canonical_json(v, indent)
    assert certificate_text({key: value}) == referee_canonical_json({key: value}) + "\n"
    for bad in (math.inf, math.nan, {1}, object()):
        with pytest.raises((TypeError, ValueError)) as want:
            referee_canonical_json({key: [value, bad]}, indent)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            canonical_json({key: [value, bad]}, indent)


def _plain(value):
    """value with every ContactRows replaced by the list of its
    PairContacts' dicts, read item by item."""
    if isinstance(value, ContactRows):
        return [pc._asdict() for pc in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _crossing_tetrahedra():
    # a unit tetrahedron and a copy moved off every face plane, so that
    # their faces cross transversally
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return build_complex(verts + [(x + 0.3, y + 0.2, z + 0.1) for x, y, z in verts],
                         faces + [tuple(i + 4 for i in f) for f in faces])


@pytest.mark.parametrize("cx", [
    generate(GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2)),
    generate(GeneratorSpec("grid_klein", m=3, n=3)),
    _crossing_tetrahedra(),
], ids=["folded_flat_torus_4x4_folds2", "grid_klein_3x3", "crossing_tetrahedra"])
def test_certificate_text_matches_generic_path(cx):
    """The pair lists go into the certificate as ContactRows; their text,
    written from the rows, is that of the generic writer on the dicts of
    their PairContacts, and the counts and the census are those of the
    lists."""
    cert = build_certificate(cx)
    imm = cert["immersion"]
    assert imm["pairs"] or imm["local_overlaps"]
    assert isinstance(imm["pairs"], ContactRows) and isinstance(imm["local_overlaps"], ContactRows)
    with _spy_rows() as calls:
        assert certificate_text(cert) == canonical_json(_plain(cert)) + "\n"
    assert [id(c) for c in calls] == [id(c) for c in (imm["pairs"], imm["local_overlaps"]) if c]
    assert imm["pair_count"] == len(imm["pairs"])
    assert imm["local_overlap_count"] == len(imm["local_overlaps"])
    assert imm["kind_census"] == dict(sorted(Counter(p.kind for p in imm["pairs"]).items()))
    assert list(imm["kind_census"]) == sorted(imm["kind_census"])


@pytest.mark.parametrize("spec", [
    GeneratorSpec("folded_flat_torus", m=12, n=12, folds=2),
    GeneratorSpec("grid_klein", m=8, n=8),
], ids=lambda spec: spec.label)
def test_certificate_builds_no_pair_contact(spec):
    """On the contact-rich check meshes, build_certificate and
    certificate_text build no PairContact: the contacts stay integer rows
    from the float pass to the text.  Reading a list item by item does
    build them, which the same spy sees."""
    cx = generate(spec)
    refuse = mock.Mock(side_effect=AssertionError("PairContact built"),
                       **{"_make.side_effect": AssertionError("PairContact built")})
    with mock.patch.object(intersect, "PairContact", refuse):
        cert = build_certificate(cx)
        text = certificate_text(cert)
        imm = cert["immersion"]
        assert imm["pair_count"] + imm["local_overlap_count"] > 1000
        for contacts in (imm["pairs"], imm["local_overlaps"]):
            with pytest.raises(AssertionError, match="PairContact built"):
                contacts[0]
            with pytest.raises(AssertionError, match="PairContact built"):
                list(contacts)
    assert text == certificate_text(build_certificate(cx)) == referee_canonical_json(cert) + "\n"


def test_crossing_tetrahedra_cross_transversally():
    imm = build_certificate(_crossing_tetrahedra())["immersion"]
    assert imm["classification"] == "immersed"
    assert imm["kind_census"].get("transversal", 0) > 0


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
        assert text == referee_canonical_json(cert) + "\n", label
        # the public functions agree, bit for bit, with what the
        # certificate reads from its single producer of each fact
        mesh = check_closed_manifold(cx)
        report = flatness_report(mesh)
        recorded = math.fsum(report.defects.tolist())
        assert report.defect_total.hex() == recorded.hex(), label
        components = len(orientability(mesh).per_component)
        assert connected_components(mesh) == components == cert["combinatorics"]["components"]
        assert cert["input"]["n_edges"] == mesh.n_edges == len(edge_census(cx)), label


@pytest.mark.parametrize("k", [-900, -300, -3, 3, 600, 900])
def test_power_of_two_scale_keeps_certificate(corpus_meshes, k):
    # each stage's own unit scaling is exact, so the float stages compute
    # with the coordinates of the unscaled mesh; unscaled, 2^-300 made the
    # folded torus non-flat (defect 2 pi) and 2^600 made the tetrahedron's
    # plane fit raise LinAlgError
    meshes = {label: cx for label, (_, cx) in corpus_meshes.items()}
    meshes["two_tetrahedra"] = _two_tetrahedra()
    for label, cx in meshes.items():
        scaled = build_complex(np.ldexp(cx.vertices, k), cx.faces)
        text = certificate_text(build_certificate(scaled))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERTIFICATE_SHA256[label], label


def test_closed_input_counts_edges_once(monkeypatch):
    # the half-edge mesh already holds the edge list; the certificate builds
    # an edge table of its own only for input that is not a closed manifold
    def table(complex):
        raise AssertionError("edge_table called on closed input")

    monkeypatch.setattr(certificate, "edge_table", table)
    assert build_certificate(generate(GeneratorSpec("cube")))["input"]["n_edges"] == 12


def test_certificate_deterministic_bytes(tmp_path):
    """The file holds certificate_text's UTF-8 bytes, with no newline
    translated, so its sha256 is that of the text on every platform."""
    cx = generate(GeneratorSpec("grid_klein", m=4, n=4))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    cert = build_certificate(cx)
    write_certificate(cert, a)
    write_certificate(build_certificate(cx), b)
    assert a.read_bytes() == b.read_bytes() == certificate_text(cert).encode("utf-8")
    assert a.read_bytes().endswith(b"\n") and b"\r" not in a.read_bytes()


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


def test_small_angle_adjacent_arcs_keep_torus_embedded():
    """grid_torus 4x5 moved by a 1e-6 jitter: two adjacent arcs of a
    vertex link cross at a small angle, and their computed crossing misses
    the shared endpoint by more than a fixed allowance would admit.  The
    link is embedded, and the surface reads embedded."""
    base = generate(GeneratorSpec("grid_torus", m=4, n=5))
    jitter = np.random.default_rng(4113).normal(scale=1e-6, size=base.vertices.shape)
    cert = build_certificate(build_complex(base.vertices + jitter, base.faces))
    assert cert["geometry"]["link_failures"] == []
    assert cert["immersion"]["pair_count"] == 0
    assert cert["immersion"]["local_overlap_count"] == 0
    assert cert["verdict"]["locally_embedded"] is True
    assert cert["verdict"]["immersion"] == "embedded"


def test_nonmanifold_certificate():
    cert = build_certificate(
        build_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    )
    comb = cert["combinatorics"]
    assert comb["closed_manifold"] is False
    kinds = {d["kind"] for d in comb["defects"]}
    assert kinds == {"boundary-edge"}
    assert cert["input"]["n_edges"] == 3
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


_NO_MASKED_ARRAYS = """
import sys, tempfile
from pathlib import Path
from flatcheck import (boundary_matrices, build_certificate, certificate_text,
                       check_closed_manifold, classify_surface, euler_characteristic, generate,
                       homology_profile, orientability, read_off, standard_corpus, write_off)
path = Path(tempfile.mkdtemp()) / "mesh.off"
for spec in standard_corpus():
    write_off(generate(spec), path)
    loaded = read_off(path)
    certificate_text(build_certificate(loaded.complex, sources=loaded.sources))
    mesh = check_closed_manifold(read_off(path).complex)
    classify_surface(homology_profile(boundary_matrices(mesh)), euler_characteristic(mesh),
                     orientability(mesh).orientable)
path.unlink()
path.parent.rmdir()
print("numpy.ma" in sys.modules)
"""


def test_no_op_imports_masked_arrays():
    """NumPy imports numpy.ma on the first plain np.unique call, at a cost
    of milliseconds and megabytes; check ops and topology queries on the
    corpus meshes, in a fresh process, import it nowhere."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], capture_output=True,
                          text=True, env=env, check=True, timeout=300)
    assert proc.stdout.split() == ["False"]
