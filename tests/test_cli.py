"""Command-line interface: exit codes, reports, and the summary output."""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import build_complex, read_off, write_off
from flatcheck.cli import main

from conftest import cube, tetra


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def tetra_off(tmp_path, capsys):
    path = tmp_path / "tetra.off"
    rc, _, _ = run(capsys, "generate", "tetrahedron", "-o", str(path))
    assert rc == 0
    return path


@pytest.fixture()
def klein_off(tmp_path, capsys):
    path = tmp_path / "klein.off"
    rc, _, _ = run(capsys, "generate", "grid_klein", "4", "4", "-o", str(path))
    assert rc == 0
    return path


def test_generate_writes_mesh(klein_off):
    cx = read_off(klein_off).complex
    assert cx.n_vertices == 16
    assert cx.n_faces == 32


def test_topology_klein(capsys, klein_off):
    rc, out, _ = run(capsys, "topology", str(klein_off))
    assert rc == 0
    assert "Klein bottle" in out
    assert "PASS" in out


def test_check_tetra_fails_flatness(capsys, tetra_off, tmp_path):
    report = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "check", str(tetra_off), "--report", str(report))
    assert rc == 1
    assert "FAIL" in out
    cert = json.loads(report.read_text())
    assert cert["verdict"]["pass"] is False
    assert cert["verdict"]["flat"] is False
    assert cert["input"]["sources"][0]["path"] == str(tetra_off)


def test_check_quiet_emits_certificate(capsys, tetra_off):
    rc, out, _ = run(capsys, "check", str(tetra_off), "--quiet")
    assert rc == 1
    cert = json.loads(out)
    assert cert["verdict"]["closed_manifold"] is True


def test_check_report_deterministic(capsys, klein_off, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "check", str(klein_off), "--report", str(a), "--quiet")
    run(capsys, "check", str(klein_off), "--report", str(b), "--quiet")
    assert a.read_bytes() == b.read_bytes()


def test_flatness_exit_code(capsys, tetra_off):
    rc, out, _ = run(capsys, "flatness", str(tetra_off))
    assert rc == 1
    assert "FAIL" in out


def test_intersections_report_only(capsys, klein_off):
    rc, out, _ = run(capsys, "intersections", str(klein_off))
    assert rc == 0
    assert "pair(s)" in out
    assert "not-an-immersion" in out


def test_triangulate_roundtrip(capsys, tmp_path):
    cube_path = tmp_path / "cube.off"
    out_path = tmp_path / "tri.off"
    run(capsys, "generate", "cube", "-o", str(cube_path))
    rc, _, _ = run(capsys, "triangulate", str(cube_path), "-o", str(out_path))
    assert rc == 0
    cx = read_off(out_path).complex
    assert cx.n_faces == 12
    assert all(len(f) == 3 for f in cx.faces)


def test_subdivide_counts(capsys, tetra_off, tmp_path):
    out_path = tmp_path / "sub.off"
    rc, _, _ = run(capsys, "subdivide", str(tetra_off), "-o", str(out_path))
    assert rc == 0
    cx = read_off(out_path).complex
    assert cx.n_vertices == 14
    assert cx.n_faces == 24


def test_pair_input_index_base(capsys, tmp_path):
    from flatcheck import GeneratorSpec, generate, write_pair

    cx = generate(GeneratorSpec("tetrahedron"))
    fp, vp = tmp_path / "f.txt", tmp_path / "v.txt"
    write_pair(cx, fp, vp, index_base=0)
    rc, out, _ = run(capsys, "topology", str(fp), str(vp), "--zero-based")
    assert rc == 0
    assert "sphere" in out
    # wrong base shifts every index and must be rejected loudly
    rc2, _, err2 = run(capsys, "topology", str(fp), str(vp))
    assert rc2 == 2
    assert "error" in err2.lower()


def test_missing_file_is_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "check", str(tmp_path / "missing.off"))
    assert rc == 2
    assert "error" in err.lower()


def test_bad_generate_params(capsys, tmp_path):
    rc, _, err = run(capsys, "generate", "grid_torus", "4", "-o", str(tmp_path / "x.off"))
    assert rc == 2
    rc2, _, err2 = run(capsys, "generate", "nonagon", "-o", str(tmp_path / "y.off"))
    assert rc2 == 2


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_tolerance_flags_change_verdict(capsys, tetra_off):
    # a huge defect tolerance declares the tetrahedron flat
    rc, out, _ = run(capsys, "flatness", str(tetra_off), "--defect-tol", "10")
    assert rc == 0
    assert "PASS" in out


def test_console_script_wiring(tetra_off):
    proc = subprocess.run(
        [sys.executable, "-m", "flatcheck.cli", "topology", str(tetra_off)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sphere" in proc.stdout


def test_pair_nonmanifold_certificate(capsys, tmp_path):
    # a lone triangle in the 1-based two-file layout: every edge is a boundary edge
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    fp.write_text("1 2 3\n")
    vp.write_text("0 0 0\n1 0 0\n0 1 0\n")
    report = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "check", str(fp), str(vp), "--report", str(report))
    assert rc == 1
    assert "boundary-edge" in out
    cert = json.loads(report.read_text())
    assert cert["verdict"]["closed_manifold"] is False
    assert [(d["kind"], d["location"]) for d in cert["combinatorics"]["defects"]] == [
        ("boundary-edge", [0, 1]), ("boundary-edge", [0, 2]), ("boundary-edge", [1, 2]),
    ]


@pytest.mark.parametrize("command", ["triangulate", "subdivide"])
@pytest.mark.parametrize("option", [
    ["--report", "x.json"], ["--quiet"], ["--defect-tol", "1"], ["--link-tol", "1"],
])
def test_refine_rejects_check_options(capsys, tetra_off, tmp_path, command, option):
    out_path = tmp_path / "out.off"
    rc, _, _ = run(capsys, command, str(tetra_off), "-o", str(out_path), *option)
    assert rc == 2
    assert not out_path.exists()
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_nonfinite_coordinate_is_located(capsys, tmp_path, token):
    off = tmp_path / "bad.off"
    off.write_text(f"OFF\n4 4 6\n0 0 0\n1 0 0\n0 {token} 0\n0 0 1\n"
                   "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")
    rc, _, err = run(capsys, "check", str(off))
    assert rc == 2
    assert f"{off}: vertex 2 has a non-finite coordinate" in err
    # the two-file layout counts vertices from 1 by default
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    fp.write_text("1 3 2\n1 2 4\n2 3 4\n1 4 3\n")
    vp.write_text(f"0 0 0\n1 0 0\n0 {token} 0\n0 0 1\n")
    rc, _, err = run(capsys, "check", str(fp), str(vp))
    assert rc == 2
    assert "vertex 3 has a non-finite coordinate" in err


def test_zero_length_edge_is_located_in_certificate(capsys, tmp_path):
    # vertex 1 of the cube moved onto vertex 0: face 0 keeps a plane but
    # has a zero-length edge
    cx = cube()
    verts = cx.vertices.copy()
    verts[1] = verts[0]
    path = tmp_path / "pinched.off"
    write_off(build_complex(verts, cx.faces), path)
    rc, out, _ = run(capsys, "check", str(path), "--quiet")
    assert rc == 1
    cert = json.loads(out)
    assert cert["geometry"] == {"error": "face 0: corner has a zero-length incident edge"}
    assert cert["immersion"]["error"] is not None


def test_zero_area_triangle_names_source_face(capsys, tmp_path):
    # the same pinched cube: the derived triangles are not listed in the
    # certificate, so the error must name the cube face they come from
    cx = cube()
    verts = cx.vertices.copy()
    verts[1] = verts[0]
    path = tmp_path / "pinched.off"
    write_off(build_complex(verts, cx.faces), path)
    rc, out, _ = run(capsys, "check", str(path), "--quiet")
    assert rc == 1
    error = json.loads(out)["immersion"]["error"]
    found = re.search(r"first at index \d+ \(source face (\d+)\)$", error)
    assert found, error
    assert {0, 1} <= set(cx.faces[int(found.group(1))])


def test_repeated_derived_triangle_names_source_faces(capsys, tmp_path):
    # a sphere with V 4, E 5, F 3: the quad's ear clip yields (3, 0, 1),
    # which is face 1 again
    off = tmp_path / "sphere.off"
    off.write_text("OFF\n4 3 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
                   "4 0 1 2 3\n3 1 0 3\n3 1 2 3\n")
    message = "faces 0 and 1 both yield triangle (1, 0, 3) (identical up to rotation/reversal)"
    rc, out, err = run(capsys, "check", str(off), "--quiet")
    assert (rc, err) == (1, "")
    cert = json.loads(out)
    assert cert["verdict"]["closed_manifold"] is True
    assert cert["verdict"]["surface"] == "sphere"
    assert cert["input"]["n_edges"] == 5
    assert cert["immersion"] == {
        "triangles": None, "triangulation_fallbacks": None, "error": message,
        "pairs": None, "local_overlaps": None, "classification": None,
    }
    out_path = tmp_path / "tri.off"
    rc, _, err = run(capsys, "triangulate", str(off), "-o", str(out_path))
    assert (rc, err) == (1, f"error: {message}\n")
    assert not out_path.exists()


def test_intersections_fails_on_nonmanifold_input(capsys, tmp_path):
    # two triangles sharing one edge: four boundary edges, no soup is tested
    off = tmp_path / "pair.off"
    off.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n")
    rc, out, _ = run(capsys, "intersections", str(off))
    assert rc == 1
    assert "closed manifold: FAIL" in out
    assert "boundary-edge" in out


def test_empty_input_is_located(capsys, tmp_path):
    off = tmp_path / "empty.off"
    off.write_text("OFF\n0 0 0\n")
    rc, _, err = run(capsys, "check", str(off))
    assert rc == 2
    assert err == f"error: {off}: complex has no faces\n"
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    fp.write_text("")
    vp.write_text("")
    rc, _, err = run(capsys, "check", str(fp), str(vp))
    assert rc == 2
    assert err == f"error: {fp}: complex has no faces\n"


_NUMBERS = ["-1", "0", "1", "2", "0.5"]
_SPECIALS = ["nan", "inf", "-inf", "1e300", "1e-300"]
_GARBAGE = ["x", "1/2", "#", "OFF", "3 0 1"]


def _rarely(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


@st.composite
def _off_text(draw):
    """OFF text, well-formed often enough for degenerate geometry to reach
    every stage, with rare non-finite values, garbage tokens and bad counts."""
    if draw(st.booleans()):
        # closed combinatorics with coordinates from a tiny pool, so vertices
        # repeat and faces collapse onto lines and points
        faces = list(draw(st.sampled_from([tetra().faces, cube().faces])))
        nv = max(max(f) for f in faces) + 1
    else:
        nv = draw(st.integers(0, 12))
        faces = draw(st.lists(st.lists(st.integers(-1, nv), max_size=5), max_size=12))
    pool = _NUMBERS + (_SPECIALS if _rarely(draw) else [])
    coords = draw(st.lists(st.lists(st.sampled_from(pool), min_size=3, max_size=3),
                           min_size=nv, max_size=nv))
    lines = ["OFF", f"{nv} {len(faces) + (draw(st.integers(-1, 1)) if _rarely(draw) else 0)} 0"]
    lines += [" ".join(c) for c in coords]
    lines += [" ".join(str(i) for i in [len(f), *f]) for f in faces]
    if _rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_GARBAGE)))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_off_text())
def test_check_never_raises_on_fuzzed_off(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.off"
        path.write_text(text)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(["check", str(path), "--quiet"])
    assert rc in (0, 1, 2)
