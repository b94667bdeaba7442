"""Mesh interchange: OFF, OBJ, and the two-file faces/vertices layout."""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import formats
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

from conftest import referee_read_obj, referee_read_off, referee_read_pair

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
        # a header that merely starts with OFF is not one
        ("OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", ":1: expected OFF header, got 'OFF3'"),
        ("OFFSET 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         ":1: expected OFF header, got 'OFFSET'"),
    ],
)
def test_off_diagnostics(tmp_path, text, fragment):
    path = tmp_path / "bad.off"
    path.write_text(text)
    for reader in (read_off, referee_read_off):
        with pytest.raises(FormatError) as exc:
            reader(path)
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


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("marked", ["off", "obj", "faces", "vertices"])
def test_byte_order_mark_reads_as_its_absence(tmp_path, marked):
    """A leading UTF-8 byte-order mark is not data: an OFF header behind
    it is found, an OBJ file keeps its first vertex, and either file of a
    pair reads as it does without one.  The sha256 is of the bytes given."""
    cx = _awkward_complex()
    off, obj = tmp_path / "m.off", tmp_path / "m.obj"
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    write_off(cx, off)
    write_obj(cx, obj)
    write_pair(cx, fp, vp)
    target = {"off": off, "obj": obj, "faces": fp, "vertices": vp}[marked]
    paths = [target] if marked in ("off", "obj") else [fp, vp]
    plain = read_mesh(paths).complex
    target.write_bytes(BOM + target.read_bytes())
    got = read_mesh(paths)
    assert np.array_equal(got.complex.vertices, plain.vertices)
    assert got.complex.faces == plain.faces
    assert got.sources == tuple((str(p), hashlib.sha256(p.read_bytes()).hexdigest())
                                for p in paths)


def test_byte_order_mark_keeps_bad_byte_located(tmp_path):
    """The mark is dropped after decoding, so a later byte that is not
    UTF-8 is still named, on its own line, counted from the first byte."""
    path = tmp_path / "bad.off"
    path.write_bytes(BOM + b"OFF\n3 1 3\n0 0 0\n1 0 0\n\xff 1 0\n3 0 1 2\n")
    with pytest.raises(FormatError, match=rf"^{path}:5: byte 0xff is not UTF-8"):
        read_off(path)


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


def test_off_build_error_names_line(tmp_path):
    # comments and blank lines shift the line numbers away from the counts
    path = tmp_path / "rep.off"
    path.write_text("OFF\n3 2 0\n0 0 0\n# moved\n1 0 0\n0 1 0\n\n3 0 1 2\n3 2 1 0\n")
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert str(exc.value) == (f"{path}: face 1 duplicates face 0 "
                              "(identical up to rotation/reversal) (line 9)")
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert str(exc.value) == f"{path}: face 0 repeats a vertex: (0, 1, 1) (line 6)"
    path.write_text("OFF\n3 1 0\n0 0 0\n\n1 nan 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(FormatError) as exc:
        read_off(path)
    assert str(exc.value) == f"{path}: vertex 1 has a non-finite coordinate: [1.0, nan, 0.0] (line 5)"


@pytest.mark.parametrize("faces,message", [
    (["3 0 1 2", "3 0 2 3", "3 4 0 1", "3 2 1 0"],
     "face 3 duplicates face 0 (identical up to rotation/reversal) (line 14)"),
    (["3 0 1 2", "3 0 2 3", "3 0 1 5", "3 2 1 0"],
     "face 2 references vertex 5, valid range is 0..4 (line 13)"),
    (["4 0 1 2 3", "3 0 1 4", "3 1 2 4", "4 2 3 0 1"],
     "face 3 duplicates face 0 (identical up to rotation/reversal) (line 14)"),
    (["4 0 1 2 3", "3 0 1 4", "3 1 2 7", "4 2 3 0 1"],
     "face 2 references vertex 7, valid range is 0..4 (line 13)"),
])
def test_off_face_block_errors_name_lines(tmp_path, monkeypatch, faces, message):
    """A face block of one degree is read as one table, a block of mixed
    degrees with its count tokens deleted (np.delete); both take the bulk
    parse, and a build error names the file line of its face."""
    path = tmp_path / "block.off"
    path.write_text("OFF\n5 4 0\n0 0 0\n1 0 0\n# moved\n1 1 0\n0 1 0\n\n0 0 1\n"
                    + "\n".join(faces[:2] + ["# moved"] + faces[2:]) + "\n")
    assert _outcome(referee_read_off, path) == ("FormatError", f"{path}: {message}")
    delete, text, rows = mock.Mock(wraps=np.delete), formats._Lines.text, []
    monkeypatch.setattr(np, "delete", delete)
    monkeypatch.setattr(formats._Lines, "text", lambda lines, r: rows.append(r) or text(lines, r))
    assert _outcome(read_off, path) == ("FormatError", f"{path}: {message}")
    assert rows == [slice(0, 1), slice(1, 2)]          # the header lines only
    assert delete.call_count == len({len(f.split()) for f in faces}) - 1


def test_obj_build_error_names_line(tmp_path):
    # records interleave, and other records take lines too
    path = tmp_path / "rep.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1 2 3\nv 0 inf 1\nf 3 2 4\n")
    with pytest.raises(FormatError) as exc:
        read_obj(path)
    assert str(exc.value) == f"{path}: vertex 4 has a non-finite coordinate: [0.0, inf, 1.0] (line 6)"
    path.write_text("v 0 0 0\nv 1 0 0\nvn 0 0 1\nv 0 1 0\nf 1 2 3\nf 3 2 1\n")
    with pytest.raises(FormatError) as exc:
        read_obj(path)
    assert str(exc.value) == (f"{path}: face 1 duplicates face 0 "
                              "(identical up to rotation/reversal) (line 6)")


def test_pair_build_error_names_line(tmp_path):
    # a face names its line in the faces file, a vertex its line in the
    # vertices file
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    vp.write_text("0 0 0\n1 0 0\n# apex\n0 1 0\n")
    fp.write_text("1 2 3\n\n2 3 3\n")
    with pytest.raises(FormatError) as exc:
        read_pair(fp, vp)
    assert str(exc.value) == f"{fp}: face 1 repeats a vertex: (2, 3, 3) (line 3)"
    vp.write_text("0 0 0\n1 0 0\n# apex\n0 -inf 0\n")
    fp.write_text("1 2 3\n")
    with pytest.raises(FormatError) as exc:
        read_pair(fp, vp)
    assert str(exc.value) == (f"{fp}: vertex 3 has a non-finite coordinate: [0.0, -inf, 0.0] "
                              f"({vp} line 4)")


# ---------------------------------------------------------------------------
# Bulk parsing against the line-by-line referees
# ---------------------------------------------------------------------------

# tokens the C-level parse reads otherwise than float()/int(), or not at all
EDGE_TOKENS = ["1_0", "٣", "+3", "-0", "3.5", "1e3", "0x1F", "99999999999999999999",
               "-9223372036854775808", "9223372036854775807", "nan", "infinity", "1e-300",
               "nan(1)", "-nan", "-", "+", "1-2", "007", "-1", "1e999", "inf"]
_FACE_SETS = [
    [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)],
    [(0, 1, 2, 3), (0, 4, 1), (1, 4, 2), (2, 4, 3), (3, 4, 0)],
    [(0, 2, 1), (0, 1, 3)],
]
_SEPARATORS = [" ", "  ", "\t", " \t ", "\x0c", " \x0b ", " \x85 ", "\x1c", "\u3000"]
_NOISE = ["", "   ", "# comment", "\t# indented comment", "\x0c", "\xa0\u2028"]


def _outcome(read, *paths, **kw):
    """What a reader returns, as comparable bytes and tuples, or the type
    and text of what it raises."""
    try:
        loaded = read(*paths, **kw)
    except Exception as exc:   # noqa: BLE001 - the exception itself is compared
        return type(exc).__name__, str(exc)
    cx = loaded.complex
    return cx.vertices.tobytes(), cx.faces, cx.corners.tolist(), cx.offsets.tolist(), loaded.sources


@st.composite
def _mesh_files(draw):
    """(format, {suffix: text}): one mesh written as OFF, OBJ or a
    faces/vertices pair, with tabs, form feeds, NEL inside lines, CR, CRLF
    or LF line ends, blank lines and comments, an inline or separate OFF
    counts line, now and then an odd token or a wrong token count."""
    fmt = draw(st.sampled_from(["off", "obj", "pair0", "pair1"]))
    faces = draw(st.sampled_from(_FACE_SETS))
    nv = max(max(f) for f in faces) + 1
    odd = draw(st.integers(0, 3)) == 0

    def rarely():
        return odd and draw(st.integers(0, 5)) == 0

    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.floats(-1e3, 1e3).map(lambda x: format(x, ".17g")),
                       st.integers(-10**6, 10**6).map(str))

    def tokens(values):
        values = [draw(st.sampled_from(EDGE_TOKENS)) if rarely() else v for v in values]
        if rarely():
            values = values[:-1] if draw(st.booleans()) else values + ["0"]
        return values

    def line(values, head=""):
        sep = draw(st.sampled_from(_SEPARATORS)) if draw(st.booleans()) else " "
        text = head + sep.join(values)
        if draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(["  # trailing", "#", "\t"]))
        return text

    coords = [tokens([draw(number) for _ in range(3)]) for _ in range(nv)]
    base = {"off": 0, "obj": 1, "pair0": 0, "pair1": 1}[fmt]
    rows = [tokens([str(i + base) for i in f]) for f in faces]
    if fmt == "off":
        counts = f"{nv} {len(faces) + (draw(st.integers(-1, 1)) if rarely() else 0)} 0"
        head = ["OFF " + counts] if draw(st.booleans()) else ["OFF", counts]
        files = {".off": head + [line(c) for c in coords]
                 + [line([str(len(r))] + r) for r in rows]}
    elif fmt == "obj":
        vs = [line(c + (["1.0"] if draw(st.integers(0, 3)) == 0 else []), "v ") for c in coords]
        fs = []
        for r in rows:
            style = draw(st.sampled_from(["{}", "{}/1/1", "{}//1", "neg"]))
            refs = [str(int(i) - nv - 1) if style == "neg" and i.isdigit() else
                    style.replace("neg", "{}").format(i) for i in r]
            fs.append(line(refs, "f "))
        files = {".obj": vs + ["vn 0 0 1", "usemtl stone"] + fs}
    else:
        files = {".v": [line(c) for c in coords], ".f": [line(r) for r in rows]}
    out = {}
    for suffix, lines in files.items():
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_NOISE)))
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        if draw(st.booleans()):
            ends = [ends[0]] * len(lines)
        out[suffix] = "".join(a + b for a, b in zip(lines, ends))
    return fmt, out


def _read_both(directory, fmt, texts):
    """(reader outcome, referee outcome) on the files texts describes."""
    paths = {}
    for suffix, text in texts.items():
        paths[suffix] = directory / f"mesh{suffix}"
        paths[suffix].write_bytes(text.encode("utf-8"))
    if fmt == "off":
        return _outcome(read_off, paths[".off"]), _outcome(referee_read_off, paths[".off"])
    if fmt == "obj":
        return _outcome(read_obj, paths[".obj"]), _outcome(referee_read_obj, paths[".obj"])
    base = int(fmt[-1])
    return (_outcome(read_pair, paths[".f"], paths[".v"], index_base=base),
            _outcome(referee_read_pair, paths[".f"], paths[".v"], index_base=base))


@settings(max_examples=500, deadline=None)
@given(files=_mesh_files())
def test_readers_equal_line_by_line_referees(files):
    """Every reader returns its referee's vertex bytes, faces and sources,
    or raises its exception with its text."""
    fmt, texts = files
    with tempfile.TemporaryDirectory() as d:
        got, expected = _read_both(Path(d), fmt, texts)
    assert got == expected


_TETRA_OFF = ["OFF", "4 4 6", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
              "3 0 1 2", "3 0 2 3", "3 0 3 1", "3 1 3 2"]


def _separated(sep):
    return "\n".join([_TETRA_OFF[0]] + [line.replace(" ", sep) for line in _TETRA_OFF[1:]]) + "\n"


_SPACED_OFF = [
    # blank lines, and lines of separators only, inside both blocks
    "\n".join(_TETRA_OFF[:4] + ["", "   ", "\t\x1c"] + _TETRA_OFF[4:8] + ["\x0c"]
              + _TETRA_OFF[8:]) + "\n\n",
    # whole-line and trailing comments, with signs, slashes and a second #
    "\n".join(["# head -1/2"] + _TETRA_OFF[:3] + ["  # 1 2 3"] + _TETRA_OFF[3:7]
              + [_TETRA_OFF[7] + " # -4 +5 / #"] + _TETRA_OFF[8:]) + "#",
    _separated("\t"),
    *[_separated(sep) for sep in ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f "]],
    "\r".join(_TETRA_OFF) + "\r",
    "\r\n".join(_TETRA_OFF),
    "\r\n".join(_TETRA_OFF[:5]) + "\r" + "\n".join(_TETRA_OFF[5:]) + "\n\r",
    # non-ASCII spaces separate tokens, and non-ASCII text in a comment
    *[_separated(sep) for sep in ["\xa0", "\x85", " \u2003", "\u3000", "\u2028"]],
    "\n".join(_TETRA_OFF[:6] + ["# \u00e9t\u00e9 \u2003"] + _TETRA_OFF[6:]),
    "\n".join(_TETRA_OFF[:4] + ["\u3000\x85", " \xa0"] + _TETRA_OFF[4:]),
    # a line of one separator np.fromstring does not skip, in the vertex
    # block, and such separators between two tokens of one line
    *["\n".join(_TETRA_OFF[:4] + [sep] + _TETRA_OFF[4:]) for sep in ["\x1c", "\u3000", " \x1f\t"]],
    "\n".join(_TETRA_OFF[:3] + ["1\x1c0 0"] + _TETRA_OFF[4:7] + ["3 0\u30002 3"] + _TETRA_OFF[8:]),
]
# (text, the line its error names), each error past lines like the above
_SPACED_OFF_ERRORS = [
    ("\r".join(_TETRA_OFF[:4] + ["# c", "0 1\x1c0 9", "0 0 1"] + _TETRA_OFF[6:]), 6),
    ("\n".join(_TETRA_OFF[:5] + ["0\u20030 nope"] + _TETRA_OFF[6:]), 6),
    ("\n".join(_TETRA_OFF[:6] + ["", "3\xa00 1 2 5"] + _TETRA_OFF[7:]), 8),
    ("\r\n".join(_TETRA_OFF[:6] + ["3 0 1 2 # \u00e9", "3 0 2 3 4"] + _TETRA_OFF[8:]), 8),
    ("\n".join(_TETRA_OFF[:9] + ["3 3\x1c1\x0b0"]), 10),
]


@pytest.mark.parametrize("text,line", [(t, None) for t in _SPACED_OFF] + _SPACED_OFF_ERRORS)
def test_off_separators_and_line_ends_equal_referee(tmp_path, monkeypatch, text, line):
    """Blank lines, comments, every byte str.split() separates on, the
    non-ASCII spaces, and CR, CRLF or LF line ends read as the line-by-line
    referee reads them: the tetrahedron, or the same error at the same line.
    The tetrahedron's two blocks each take the bulk parse, which reads the
    separators np.fromstring does not skip as spaces."""
    path = tmp_path / "mesh.off"
    path.write_bytes(text.encode("utf-8"))
    real, parsed = formats._bulk, []
    monkeypatch.setattr(formats, "_bulk", lambda *args: parsed.append(real(*args)) or parsed[-1])
    got = _outcome(read_off, path)
    assert got == _outcome(referee_read_off, path)
    if line is None:
        assert got[1] == tuple(map(tuple, _FACE_SETS[0]))
        assert len(parsed) == 2 and all(values is not None for values in parsed)
    else:
        assert got[0] == "FormatError" and (f"{path}:{line}:" in got[1]
                                            or got[1].endswith(f"(line {line})"))


def test_odd_separators_keep_the_obj_bulk_parse(tmp_path, monkeypatch):
    """The OBJ records' bytes get the same spaces."""
    path = tmp_path / "mesh.obj"
    path.write_bytes("v 0 0 0\nv 1\x1c0 0\n\x1d\nv 0 1 0\nv 0 0\u30001\n"
                     "f 1 2 3\nf 1\x1e3 4\nf 1 4 2\nf 2 4 3\n".encode("utf-8"))
    monkeypatch.setattr(formats, "_obj_records",
                        mock.Mock(side_effect=AssertionError("per-line parse")))
    monkeypatch.setattr(formats, "_obj_face", mock.Mock(side_effect=AssertionError("per-line")))
    loaded = read_obj(path)
    monkeypatch.undo()
    assert _outcome(read_obj, path) == _outcome(referee_read_obj, path)
    assert loaded.complex.faces == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def test_plain_files_keep_their_bytes(tmp_path):
    """A file with no separator np.fromstring stops at hands the bulk
    parse its own bytes, with no spaced copy."""
    path = tmp_path / "mesh.off"
    path.write_bytes(_separated(" \t\x0b\x0c").encode("utf-8"))
    lines, _ = formats._data_lines(path)
    assert lines.spaced is lines.data


def test_wide_spaces_are_every_non_ascii_space():
    """The line index marks as separators exactly the non-ASCII
    characters that str.split() separates on."""
    assert set(formats._WIDE_SPACES) == {c for c in map(chr, range(0x80, sys.maxunicode + 1))
                                         if c.isspace()}


# OBJ face reference styles the bulk face parse leaves to the loop:
# v/vt and v//vn forms, relative, signed and out-of-range references
OBJ_REFERENCES = ["3/1", "3//1", "3/1/1", "3/", "/3", "-4", "-5", "+03", "0", "5", "03"]


@pytest.mark.parametrize("token", EDGE_TOKENS + OBJ_REFERENCES)
@pytest.mark.parametrize("fmt", ["off", "obj", "pair1"])
@pytest.mark.parametrize("where", ["coordinate", "last coordinate", "index", "last index"])
def test_edge_tokens_equal_referees(tmp_path, token, fmt, where):
    """Each odd token, as a coordinate or a face index, in the middle of
    its block or at its end, reads as the referee reads it: the fallback
    parses what float()/int() accept, and each OBJ reference style what
    the loop over references accepts."""
    coords = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    base = 0 if fmt == "off" else 1
    rows = [[str(i + base) for i in f] for f in faces]
    if where.endswith("coordinate"):
        coords[-1 if where.startswith("last") else 2][-1 if where.startswith("last") else 1] = token
    else:
        rows[-1 if where.startswith("last") else 1][2] = token
    if fmt == "off":
        texts = {".off": "OFF\n4 4 6\n" + "".join(" ".join(c) + "\n" for c in coords)
                 + "".join(f"3 {' '.join(r)}\n" for r in rows)}
    elif fmt == "obj":
        texts = {".obj": "".join(f"v {' '.join(c)}\n" for c in coords)
                 + "".join(f"f {' '.join(r)}\n" for r in rows)}
    else:
        texts = {".v": "".join(" ".join(c) + "\n" for c in coords),
                 ".f": "".join(" ".join(r) + "\n" for r in rows)}
    got, expected = _read_both(tmp_path, fmt, texts)
    assert got == expected


def test_plain_obj_faces_take_the_bulk_parse(tmp_path, monkeypatch):
    """Faces of plain 1-based references take one bulk parse, with no call
    per line; a reference to a vertex declared only after its face line is
    refused there and named by the loop, as the referee names it."""
    cx = generate(GeneratorSpec("grid_klein", m=4, n=3))
    plain, late = tmp_path / "plain.obj", tmp_path / "late.obj"
    write_obj(cx, plain)
    lines = plain.read_text().splitlines(keepends=True)
    first_f = next(k for k, line in enumerate(lines) if line.startswith("f "))
    late.write_text("".join(lines[:first_f - 1] + lines[first_f:] + lines[first_f - 1:first_f]))
    expected = _outcome(referee_read_obj, late)
    assert "out of range" in expected[1]
    with monkeypatch.context() as mp:
        mp.setattr(formats, "_obj_face", mock.Mock(side_effect=AssertionError("per-line parse")))
        loaded = read_obj(plain)
    assert loaded.complex.faces == cx.faces
    assert loaded.complex.vertices.tobytes() == cx.vertices.tobytes()
    assert _outcome(read_obj, late) == expected


@pytest.mark.parametrize("wrong,warns", [("truncated", True), ("truncated", False),
                                         ("shifted", True)])
def test_refused_bulk_parse_takes_the_fallback(tmp_path, monkeypatch, wrong, warns):
    """Where NumPy 1.24 cannot read a text to its end, it warns and returns
    what it read.  The readers then parse line by line and let no warning
    out.  A short array is refused with no warning too, and a warning
    refuses an array with one value per token."""
    real = np.fromstring

    def numpy_124(text, dtype=float, sep=""):
        values = real(text, dtype=dtype, sep=sep)
        if warns:
            warnings.warn("string or file could not be read to its end due to unmatched data; "
                          "this will raise a ValueError in the future.", DeprecationWarning)
        return values[:-1] if wrong == "truncated" else values + 1

    cx = _awkward_complex()
    off, obj, fp, vp = (tmp_path / n for n in ("m.off", "m.obj", "f.txt", "v.txt"))
    write_off(cx, off)
    write_obj(cx, obj)
    write_pair(cx, fp, vp)
    monkeypatch.setattr(np, "fromstring", numpy_124)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [read_off(off), read_obj(obj), read_pair(fp, vp)]
    assert caught == []
    for loaded in got:
        assert loaded.complex.vertices.tobytes() == cx.vertices.tobytes()
        assert loaded.complex.faces == cx.faces


def test_writers_equal_per_line_formatting(tmp_path):
    """One template per degree writes what one format call per value
    wrote: 17 significant digits, faces of mixed degree in order."""
    cx = build_complex([(0.1, 1.0 / 3.0, -0.0), (2.0, 1e-300, 0.0), (2.0, 2.0, 6.02214076e23),
                        (-math.pi, 2.0, 0.0), (1.0, 1.0, 2.0)],
                       [(0, 1, 2, 3), (0, 4, 1), (1, 4, 2), (2, 4, 3), (3, 4, 0)])
    vertex_lines = [" ".join(format(float(x), ".17g") for x in v) for v in cx.vertices]
    off, obj, fp, vp = (tmp_path / n for n in ("m.off", "m.obj", "f.txt", "v.txt"))
    write_off(cx, off)
    write_obj(cx, obj)
    write_pair(cx, fp, vp, index_base=0)
    assert off.read_text() == "\n".join(
        ["OFF", f"5 5 {len(edge_census(cx))}"] + vertex_lines
        + [f"{len(f)} " + " ".join(map(str, f)) for f in cx.faces]) + "\n"
    assert obj.read_text() == "\n".join(
        ["v " + v for v in vertex_lines]
        + ["f " + " ".join(str(i + 1) for i in f) for f in cx.faces]) + "\n"
    assert fp.read_text() == "\n".join(" ".join(map(str, f)) for f in cx.faces) + "\n"
    assert vp.read_text() == "\n".join(vertex_lines) + "\n"
