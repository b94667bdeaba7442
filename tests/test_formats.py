"""Mesh interchange: OFF, OBJ, and the two-file faces/vertices layout."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from flatcheck import (
    FormatError,
    GeneratorSpec,
    build_complex,
    edge_census,
    generate,
    read_mesh,
    read_obj,
    read_off,
    read_pair,
    write_mesh,
    write_obj,
    write_off,
    write_pair,
)

AWKWARD = [
    (0.1, 1.0 / 3.0, math.sqrt(2.0)),
    (-1e-17, 2.0**53, 1.0),
    (math.pi, -math.e, 6.02214076e23),
    (0.0, -0.0, 1e-300),
]
AWKWARD_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def _awkward_complex():
    return build_complex(AWKWARD, AWKWARD_FACES)


def test_off_round_trip_exact(tmp_path):
    cx = _awkward_complex()
    path = tmp_path / "mesh.off"
    write_off(cx, path)
    back = read_off(path).complex
    assert np.array_equal(back.vertices, cx.vertices)
    assert back.faces == cx.faces


def test_off_counts_line(tmp_path):
    cx = generate(GeneratorSpec("cube"))
    path = tmp_path / "cube.off"
    write_off(cx, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == f"8 6 {len(edge_census(cx))}"


def test_off_comments_and_blank_lines(tmp_path):
    path = tmp_path / "mesh.off"
    path.write_text(
        "OFF\n# a comment\n\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2  # trailing\n"
    )
    got = read_off(path).complex
    assert got.n_vertices == 3
    assert got.faces == ((0, 1, 2),)


def test_off_header_with_counts(tmp_path):
    path = tmp_path / "mesh.off"
    path.write_text("OFF 3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert read_off(path).complex.n_faces == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("PLY\n3 1 3\n", "header"),
        ("OFF\n3 1\n", "counts"),
        ("OFF\n3 1 3\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "coordinate"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "face"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", "face"),
        ("OFF\n4 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", ""),
    ],
)
def test_off_diagnostics(tmp_path, text, fragment):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert fragment in str(exc.value)


def test_off_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n# filler\n3 1 3\n0 0 0\nnope nope nope\n0 1 0\n3 0 1 2\n")
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert ":5:" in str(exc.value)


def test_line_numbers_follow_text_mode_newlines(tmp_path):
    # \r\n and a lone \r end a line; a form feed or NEL inside one does not
    path = tmp_path / "bad.off"
    path.write_bytes("OFF\r\n# filler\x0cmore\r3 1 3\n0 0 0\x85\nnope\x0c nope nope\r\n"
                     "0 1 0\n3 0 1 2\n".encode("utf-8"))
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert f"{path}:5: bad coordinate" in str(exc.value)


def test_obj_round_trip_exact(tmp_path):
    cx = _awkward_complex()
    path = tmp_path / "mesh.obj"
    write_obj(cx, path)
    back = read_obj(path).complex
    assert np.array_equal(back.vertices, cx.vertices)
    assert back.faces == cx.faces


def test_obj_reference_styles(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text(
        "# header\nmtllib none.mtl\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "vt 0 0\nvn 0 0 1\nusemtl stone\n"
        "f 1/1/1 2/1/1 3/1/1\nf 1//1 3//1 4//1\nf -4 -1 -3\nf 2 4 3\n"
    )
    got = read_obj(path).complex
    assert got.faces == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def test_obj_w_coordinate_accepted(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text("v 0 0 0 1.0\nv 1 0 0 1.0\nv 0 1 0\nf 1 2 3\n")
    assert read_obj(path).complex.n_vertices == 3


def test_obj_diagnostics(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    with pytest.raises(FormatError) as exc:
        read_obj(path)
    assert ":3:" in str(exc.value)


def test_pair_round_trip(tmp_path):
    cx = _awkward_complex()
    fp, vp = tmp_path / "faces.txt", tmp_path / "verts.txt"
    write_pair(cx, fp, vp)
    back = read_pair(fp, vp).complex
    assert np.array_equal(back.vertices, cx.vertices)
    assert back.faces == cx.faces


def test_pair_zero_based(tmp_path):
    cx = _awkward_complex()
    fp, vp = tmp_path / "faces.txt", tmp_path / "verts.txt"
    write_pair(cx, fp, vp, index_base=0)
    assert read_pair(fp, vp, index_base=0).complex.faces == cx.faces
    # first face line starts with vertex 0 only in the zero-based file
    assert fp.read_text().split()[0] == "0"


def test_pair_mixed_degree(tmp_path):
    fp, vp = tmp_path / "f.txt", tmp_path / "v.txt"
    vp.write_text("0 0 0\n2 0 0\n2 2 0\n0 2 0\n1 1 2\n")
    fp.write_text("1 2 3 4\n1 5 2\n2 5 3\n3 5 4\n4 5 1\n")
    got = read_pair(fp, vp).complex
    assert got.face_degree_census() == {3: 4, 4: 1}


def test_read_mesh_dispatch(tmp_path):
    cx = _awkward_complex()
    off, obj = tmp_path / "m.off", tmp_path / "m.obj"
    write_mesh(cx, off)
    write_mesh(cx, obj)
    assert read_mesh([off]).complex.faces == cx.faces
    assert read_mesh([obj]).complex.faces == cx.faces
    fp, vp = tmp_path / "faces.dat", tmp_path / "verts.dat"
    write_pair(cx, fp, vp)
    assert read_mesh([fp, vp]).complex.faces == cx.faces
    renamed = tmp_path / "m.mesh"
    renamed.write_bytes(off.read_bytes())
    with pytest.raises(FormatError):
        read_mesh([renamed])
    assert read_mesh([renamed], fmt="off").complex.faces == cx.faces


def test_sources_record_sha256(tmp_path):
    cx = _awkward_complex()
    path = tmp_path / "m.off"
    write_off(cx, path)
    loaded = read_off(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert loaded.sources == ((str(path), digest),)


def test_pair_sources_record_sha256(tmp_path):
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    write_pair(_awkward_complex(), fp, vp)
    assert read_pair(fp, vp).sources == (
        (str(fp), hashlib.sha256(fp.read_bytes()).hexdigest()),
        (str(vp), hashlib.sha256(vp.read_bytes()).hexdigest()),
    )


def test_nonmanifold_file_still_loads(tmp_path):
    # loading only validates the complex, not closedness
    path = tmp_path / "open.off"
    path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert read_off(path).complex.n_faces == 1


def test_write_mesh_unknown_extension(tmp_path):
    with pytest.raises(FormatError):
        write_mesh(_awkward_complex(), tmp_path / "m.xyz")
