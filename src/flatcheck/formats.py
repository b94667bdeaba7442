"""Mesh file readers and writers.

Three interchange formats: OFF (ASCII header + counts, 0-based faces),
OBJ (v/f records, 1-based, polygonal faces allowed), and a plain-text
pair of files holding one face per line as whitespace-separated vertex
indices (1-based by default) and one vertex per line as a coordinate
triple.  Readers attach the SHA-256 of every file they consumed;
writers serialize coordinates with 17 significant digits so that a
write/read round trip reproduces the float values bit for bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import CellComplex, InvalidComplexError, MeshError, complex_from_flat, edge_table


class FormatError(MeshError):
    """Malformed mesh file; message carries path and line number."""


@dataclass(frozen=True)
class LoadedMesh:
    """A parsed complex plus the identity of the file(s) it came from."""

    complex: CellComplex
    sources: tuple[tuple[str, str], ...]    # (path, sha256 hex)


def _fail(path, lineno: int, message: str):
    raise FormatError(f"{path}:{lineno}: {message}")


def _data_lines(path: str | Path) -> tuple[list[tuple[int, str]], tuple[str, str]]:
    """Read the file once: (lineno, stripped content) for every line that
    is not blank or a comment, and the (path, sha256) of the bytes parsed.

    Lines end at \n, \r\n or \r, as in text mode; str.splitlines would
    also split on \x0c and \x85 and shift the line numbers.
    """
    data = Path(path).read_bytes()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines, (str(path), hashlib.sha256(data).hexdigest())


def read_off(path: str | Path) -> LoadedMesh:
    """Parse an ASCII OFF file (header, counts, vertices, 0-based faces)."""
    lines, source = _data_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file")
    lineno, header = lines[0]
    rest = lines[1:]
    if not header.startswith("OFF"):
        _fail(path, lineno, f"expected OFF header, got {header.split()[0]!r}")
    tail = header[3:].split()
    if tail:
        counts_line = (lineno, tail)
    else:
        if not rest:
            _fail(path, lineno, "missing counts after OFF header")
        counts_lineno, counts = rest[0]
        counts_line = (counts_lineno, counts.split())
        rest = rest[1:]
    lineno, tokens = counts_line
    if len(tokens) != 3:
        _fail(path, lineno, f"expected 'V F E' counts, got {len(tokens)} token(s)")
    try:
        nv, nf, _ne = (int(t) for t in tokens)
    except ValueError:
        _fail(path, lineno, f"non-integer counts {tokens!r}")
    if nv < 0 or nf < 0:
        _fail(path, lineno, "negative counts")
    if len(rest) != nv + nf:
        _fail(path, lineno,
              f"header promises {nv} vertices + {nf} faces, file has {len(rest)} data line(s)")

    vertices = _coordinates(path, rest[:nv])
    indices: list[int] = []
    degrees: list[int] = []
    for flineno, line in rest[nv:]:
        try:
            tokens = [int(p) for p in line.split()]
        except ValueError:
            _fail(path, flineno, f"bad face index in {line!r}")
        if tokens[0] != len(tokens) - 1:
            _fail(path, flineno, f"face line must read 'k i0 .. i(k-1)', got {line!r}")
        indices += tokens[1:]
        degrees.append(tokens[0])

    complex = _build(vertices, indices, degrees, 0, path,
                     [n for n, _ in rest[:nv]], [n for n, _ in rest[nv:]])
    return LoadedMesh(complex=complex, sources=(source,))


def _coordinates(path, lines: list[tuple[int, str]]) -> np.ndarray:
    """(n, 3) array of the coordinate triples on the given lines, or a
    FormatError naming the first line that is not three numbers."""
    rows = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            _fail(path, lineno, f"bad coordinate in {line!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), 3)


def read_obj(path: str | Path) -> LoadedMesh:
    """Parse the v/f records of a Wavefront OBJ file (1-based, polygonal)."""
    vertices: list[list[float]] = []
    indices: list[int] = []
    degrees: list[int] = []
    vertex_lines: list[int] = []
    face_lines: list[int] = []
    lines, source = _data_lines(path)
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "v":
            if len(parts) not in (4, 5):
                _fail(path, lineno, f"expected 'v x y z', got {line!r}")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError:
                _fail(path, lineno, f"bad coordinate in {line!r}")
            vertex_lines.append(lineno)
        elif parts[0] == "f":
            if len(parts) < 4:
                _fail(path, lineno, "face needs at least 3 vertices")
            for ref in parts[1:]:
                head = ref.split("/", 1)[0]
                try:
                    idx = int(head)
                except ValueError:
                    _fail(path, lineno, f"bad face reference {ref!r}")
                if idx < 0:
                    idx = len(vertices) + 1 + idx   # OBJ negative refs are relative
                # references must point at vertices already declared
                if not (1 <= idx <= len(vertices)):
                    _fail(path, lineno, f"face reference {ref!r} out of range")
                indices.append(idx)
            degrees.append(len(parts) - 1)
            face_lines.append(lineno)
        # every other record type (vn, vt, usemtl, ...) is irrelevant here
    arr = np.array(vertices, dtype=np.float64).reshape(len(vertices), 3)
    complex = _build(arr, indices, degrees, 1, path, vertex_lines, face_lines)
    return LoadedMesh(complex=complex, sources=(source,))


def read_pair(faces_path: str | Path, vertices_path: str | Path,
              index_base: int = 1) -> LoadedMesh:
    """Parse the two-file form: one face per line in the first file, one
    coordinate triple per line in the second."""
    vertex_lines, vertex_source = _data_lines(vertices_path)
    vertices = _coordinates(vertices_path, vertex_lines)
    face_lines, face_source = _data_lines(faces_path)
    indices: list[int] = []
    degrees: list[int] = []
    for lineno, line in face_lines:
        parts = line.split()
        if len(parts) < 3:
            _fail(faces_path, lineno, f"face needs at least 3 vertices, got {len(parts)}")
        try:
            indices += [int(p) for p in parts]
        except ValueError:
            _fail(faces_path, lineno, f"bad face index in {line!r}")
        degrees.append(len(parts))
    complex = _build(vertices, indices, degrees, index_base, faces_path,
                     [n for n, _ in vertex_lines], [n for n, _ in face_lines],
                     vertices_path=vertices_path)
    return LoadedMesh(complex=complex, sources=(face_source, vertex_source))


def _build(vertices, indices, degrees, index_base: int, path, vertex_lines: list[int],
           face_lines: list[int], vertices_path=None) -> CellComplex:
    """complex_from_flat, with a build error located at the file line of
    the vertex or face it names (vertex_lines[k] and face_lines[k] are the
    lines of vertex k and face k; vertices_path is the vertices' file when
    it is not path)."""
    try:
        return complex_from_flat(vertices, indices, degrees, index_base=index_base)
    except InvalidComplexError as exc:
        where = ""
        if exc.face is not None:
            where = f" (line {face_lines[exc.face]})"
        elif exc.vertex is not None:
            lineno = vertex_lines[exc.vertex]
            where = f" ({vertices_path} line {lineno})" if vertices_path else f" (line {lineno})"
        raise FormatError(f"{path}: {exc}{where}") from exc


def read_mesh(paths, fmt: str | None = None, index_base: int = 1) -> LoadedMesh:
    """Read a mesh from one path (OFF/OBJ by extension or explicit fmt) or
    a (faces, vertices) path pair."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    paths = list(paths)
    if len(paths) == 2 or fmt == "pair":
        if len(paths) != 2:
            raise FormatError("pair format needs exactly two paths: faces, vertices")
        return read_pair(paths[0], paths[1], index_base=index_base)
    if len(paths) != 1:
        raise FormatError(f"expected one mesh path or a faces/vertices pair, got {len(paths)}")
    path = paths[0]
    kind = fmt or Path(path).suffix.lower().lstrip(".")
    if kind == "off":
        return read_off(path)
    if kind == "obj":
        return read_obj(path)
    raise FormatError(f"cannot infer format of {path!r}; use --format off|obj|pair")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_off(complex: CellComplex, path: str | Path) -> None:
    lines = ["OFF"]
    lines.append(f"{complex.n_vertices} {complex.n_faces} {len(edge_table(complex).ends)}")
    for v in complex.vertices:
        lines.append(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    for face in complex.faces:
        lines.append(f"{len(face)} {' '.join(map(str, face))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_obj(complex: CellComplex, path: str | Path) -> None:
    lines = []
    for v in complex.vertices:
        lines.append(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    for face in complex.faces:
        lines.append("f " + " ".join(str(i + 1) for i in face))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pair(complex: CellComplex, faces_path: str | Path,
               vertices_path: str | Path, index_base: int = 1) -> None:
    fl = [" ".join(str(i + index_base) for i in face) for face in complex.faces]
    vl = [f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}" for v in complex.vertices]
    Path(faces_path).write_text("\n".join(fl) + "\n", encoding="utf-8")
    Path(vertices_path).write_text("\n".join(vl) + "\n", encoding="utf-8")


def write_mesh(complex: CellComplex, path: str | Path, fmt: str | None = None) -> None:
    """Write OFF or OBJ, inferring the format from the extension."""
    kind = fmt or Path(path).suffix.lower().lstrip(".")
    if kind == "off":
        write_off(complex, path)
    elif kind == "obj":
        write_obj(complex, path)
    else:
        raise FormatError(f"cannot infer output format of {path!r}; use .off or .obj")
