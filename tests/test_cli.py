"""Command-line interface: exit codes, reports, and the summary output."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcheck import (barycentric_subdivision, build_complex, generate, read_off,
                       standard_corpus, triangulate_faces, write_off)
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
    # grid_klein meets itself in R^3, so the verdict fails after the
    # topology lines and the self-intersection report
    rc, out, _ = run(capsys, "check", str(klein_off))
    assert rc == 1
    assert "closed manifold: PASS" in out
    assert "surface: Klein bottle" in out
    assert "pair(s)" in out
    assert "classification: not-an-immersion" in out


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


@pytest.mark.parametrize("command", ["triangulate", "subdivide"])
def test_refine_output_unchanged_at_scale_one(capsys, tmp_path, command):
    # the command refines at unit scale and scales back; at scale 1 that
    # must write the bytes of the stages run on the raw coordinates
    for spec in standard_corpus():
        cx = generate(spec)
        src, got, want = (tmp_path / f"{name}.off" for name in ("src", "got", "want"))
        write_off(cx, src)
        rc, _, _ = run(capsys, command, str(src), "-o", str(got))
        assert rc == 0, spec.label
        refinement = triangulate_faces(cx)
        if command == "subdivide":
            refinement = barycentric_subdivision(refinement.derived)
        write_off(refinement.derived, want)
        assert got.read_bytes() == want.read_bytes(), spec.label


@pytest.mark.parametrize("command", ["triangulate", "subdivide"])
@pytest.mark.parametrize("k", [-660, 530, 600])
def test_refine_is_scale_free(capsys, tmp_path, command, k):
    base = cube()
    outputs = []
    for scale in (0, k):
        src, dst = tmp_path / f"cube{scale}.off", tmp_path / f"out{scale}.off"
        write_off(build_complex(np.ldexp(base.vertices, scale), base.faces), src)
        rc, _, err = run(capsys, command, str(src), "-o", str(dst))
        assert rc == 0, err
        outputs.append(read_off(dst).complex)
    unscaled, scaled = outputs
    assert scaled.faces == unscaled.faces
    np.testing.assert_array_equal(scaled.vertices, np.ldexp(unscaled.vertices, k))


def test_pair_input_index_base(capsys, tmp_path):
    from flatcheck import GeneratorSpec, generate, write_pair

    cx = generate(GeneratorSpec("tetrahedron"))
    fp, vp = tmp_path / "f.txt", tmp_path / "v.txt"
    write_pair(cx, fp, vp, index_base=0)
    rc, out, _ = run(capsys, "check", str(fp), str(vp), "--zero-based")
    assert rc == 1      # the tetrahedron is not flat
    assert "surface: sphere" in out
    # wrong base shifts every index and must be rejected loudly
    rc2, _, err2 = run(capsys, "check", str(fp), str(vp))
    assert rc2 == 2
    assert "error" in err2.lower()


def test_missing_file_is_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "check", str(tmp_path / "missing.off"))
    assert rc == 2
    assert "error" in err.lower()


# each reader's input with one byte that is not UTF-8, on line 5 of the
# file named by the last argument, counting \r\n and \r as line ends
NOT_UTF8 = {
    "off": {"m.off": b"OFF\r\n3 1 0\r0 0 0\r\n1 0 0\n0 1 \xff\n3 0 1 2\n"},
    "obj": {"m.obj": b"# mesh\r\nv 0 0 0\rv 1 0 0\r\nv 0 1 0\n\xe9 comment\nf 1 2 3\n"},
    "pair": {"faces.txt": b"1 2 3\n", "vertices.txt": b"0 0 0\r\n1 0 0\r0 1 0\n\n1 \xc3(\n"},
}


@pytest.mark.parametrize("reader", sorted(NOT_UTF8))
def test_not_utf8_is_located(capsys, tmp_path, reader):
    paths = []
    for name, data in NOT_UTF8[reader].items():
        paths.append(tmp_path / name)
        paths[-1].write_bytes(data)
    rc, out, err = run(capsys, "check", *map(str, paths))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {paths[-1]}:5: byte 0x")
    assert "is not UTF-8" in err


def test_bad_generate_params(capsys, tmp_path):
    """Each exits 2 with a message that names the kind, and writes no file."""
    for argv in [("grid_torus", "4"), ("nonagon",), ("cube", "1"), ("grid_torus", "4", "x"),
                 ("doubled_cone",), ("doubled_cone", "x"), ("folded_flat_torus", "4", "4"),
                 ("doubled_cone", "6.5", "2.5")]:
        rc, out, err = run(capsys, "generate", *argv, "-o", str(tmp_path / "x.off"))
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: ") and argv[0] in err, argv
    assert not (tmp_path / "x.off").exists()


@pytest.mark.parametrize("spec", standard_corpus(), ids=lambda spec: spec.label)
def test_generate_writes_each_corpus_spec(capsys, tmp_path, spec):
    """`flatcheck generate kind params...` writes the bytes write_off
    writes for generate(spec); the parameters are the spec's fields in
    the order the kind takes them, a float as its repr."""
    params = [str(v) for v in (spec.m, spec.n, spec.folds, spec.total_angle, spec.segments)
              if v is not None]
    rc, _, _ = run(capsys, "generate", spec.kind, *params, "-o", str(tmp_path / "cli.off"))
    write_off(generate(spec), tmp_path / "api.off")
    assert rc == 0
    assert (tmp_path / "cli.off").read_bytes() == (tmp_path / "api.off").read_bytes()


def test_oversized_generator_is_usage_error(capsys, tmp_path):
    # the face count is checked before any array is allocated
    rc, _, err = run(capsys, "generate", "doubled_cone", "1e300", "-o", str(tmp_path / "c.off"))
    assert rc == 2
    assert err.startswith("error: doubled_cone would have ")
    assert err.endswith(" faces, more than 4194304\n")
    assert not (tmp_path / "c.off").exists()


def test_non_finite_cone_angle_is_usage_error(capsys, tmp_path):
    # 1e308 is finite, but twice it overflows to inf before the segment count
    for angle in ("inf", "nan", "1e308", "0"):
        rc, _, err = run(capsys, "generate", "doubled_cone", angle, "-o", str(tmp_path / "c.off"))
        assert rc == 2, angle
        assert err.startswith("error: doubled_cone total_angle "), angle
    assert not (tmp_path / "c.off").exists()


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


@pytest.mark.parametrize("command", ["topology", "flatness", "intersections"])
def test_scoped_subcommands_are_gone(capsys, tetra_off, command):
    # check is the one verifying command
    rc, out, err = run(capsys, command, str(tetra_off))
    assert (rc, out) == (2, "")
    assert f"invalid choice: '{command}'" in err
    assert "Traceback" not in err


def test_tolerance_flags_change_verdict(capsys, tetra_off):
    # a huge defect tolerance declares the tetrahedron flat
    rc, out, _ = run(capsys, "check", str(tetra_off), "--defect-tol", "10")
    assert rc == 0
    assert "defects zero: PASS" in out


def test_console_script_wiring(tetra_off):
    proc = subprocess.run(
        [sys.executable, "-m", "flatcheck.cli", "check", str(tetra_off), "--defect-tol", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "surface: sphere" in proc.stdout


def test_check_stdout_is_report_bytes(tmp_path):
    """check without --report writes the summary, then the exact bytes
    that --report writes to its file, also when standard output is
    block-buffered."""
    klein = tmp_path / "klein.off"
    assert main(["generate", "grid_klein", "4", "4", "-o", str(klein)]) == 0
    report = tmp_path / "klein.json"
    cli = [sys.executable, "-m", "flatcheck.cli", "check", str(klein)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    assert subprocess.run([*cli, "--quiet", "--report", str(report)], env=env).returncode == 1
    text = report.read_bytes()
    proc = subprocess.run(cli, capture_output=True, env=env)
    assert proc.returncode == 1 and proc.stdout.endswith(text)
    summary = proc.stdout[:-len(text)].decode("ascii")
    assert summary.startswith("vertices 16") and summary.endswith("not-an-immersion\n")
    assert subprocess.run([*cli, "--quiet"], capture_output=True, env=env).stdout == text


def test_pair_nonmanifold_certificate(capsys, tmp_path):
    # a lone triangle in the 1-based two-file layout: every edge is a boundary edge
    fp, vp = tmp_path / "faces.txt", tmp_path / "vertices.txt"
    fp.write_text("1 2 3\n")
    vp.write_text("0 0 0\n1 0 0\n0 1 0\n")
    report = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "check", str(fp), str(vp), "--report", str(report))
    assert rc == 1
    assert "closed manifold: FAIL" in out
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


def test_geometry_error_in_summary(capsys, tmp_path):
    # the pinched cube again, with the summary lines: the geometry section
    # holds only its error, which takes the place of the flatness lines
    cx = cube()
    verts = cx.vertices.copy()
    verts[1] = verts[0]
    path = tmp_path / "pinched.off"
    write_off(build_complex(verts, cx.faces), path)
    rc, out, err = run(capsys, "check", str(path))
    assert (rc, err) == (1, "")
    assert "geometry: FAIL (face 0: corner has a zero-length incident edge)\n" in out
    assert "faces planar" not in out


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
@given(text=_off_text(), report=st.booleans(), quiet=st.booleans())
def test_check_never_raises_on_fuzzed_off(text, report, quiet):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.off"
        path.write_text(text)
        argv = ["check", str(path)] + (["--report", str(Path(d) / "cert.json")] if report else [])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv + (["--quiet"] if quiet else []))
    assert rc in (0, 1, 2)
