"""Mesh file readers and writers.

Three interchange formats: OFF (ASCII header + counts, 0-based faces),
OBJ (v/f records, 1-based, polygonal faces allowed), and a plain-text
pair of files holding one face per line as whitespace-separated vertex
indices (1-based by default) and one vertex per line as a coordinate
triple.  Readers attach the SHA-256 of every file they consumed;
writers serialize coordinates with 17 significant digits so that a
write/read round trip reproduces the float values bit for bit.

Readers convert each block of numbers (the vertex lines, the face
lines) with one C-level parse.  They trust that parse only where it
reads every token exactly as float() or int() would; otherwise they
parse the block line by line, which returns the same values for what
the bulk parse refused, or raises a FormatError at the first bad line.
"""
from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import itemgetter
from pathlib import Path

import numpy as np

from .mesh import (CellComplex, InvalidComplexError, MeshError, by_degree, complex_from_flat,
                   edge_table)

_COMMENT = re.compile(r"#[^\n]*")
_INT64_MAX = np.iinfo(np.int64).max


class FormatError(MeshError):
    """Malformed mesh file; message carries path and line number."""


@dataclass(frozen=True)
class LoadedMesh:
    """A parsed complex plus the identity of the file(s) it came from."""

    complex: CellComplex
    sources: tuple[tuple[str, str], ...]    # (path, sha256 hex)


def _fail(path, lineno: int, message: str):
    raise FormatError(f"{path}:{lineno}: {message}")


def _data_lines(path: str | Path) -> tuple[list[int], list[str], tuple[str, str]]:
    """Read the file once: the line numbers and the stripped contents of
    the lines that are not blank or a comment, and the (path, sha256) of
    the bytes parsed.

    Lines end at \n, \r\n or \r, as in text mode; str.splitlines would
    also split on \x0c and \x85 and shift the line numbers.  A byte that
    is not UTF-8 fails at its line.  A leading byte-order mark is dropped
    after decoding, so an error's offset still counts from the first byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        _fail(path, lineno, f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = _COMMENT.sub("", text)
    stripped = list(map(str.strip, text.split("\n")))
    return (list(compress(count(1), stripped)), list(filter(None, stripped)),
            (str(path), hashlib.sha256(data).hexdigest()))


def _bulk(lines: list[str], n_tokens: int, dtype) -> np.ndarray | None:
    """Every number on lines, in order, from one C-level parse; None when
    that parse might read a token otherwise than float() or int() does.

    It is trusted when it returns one value per token and warns of
    nothing (NumPy 1.24 returns a truncated array under a
    DeprecationWarning where later versions raise).  Floats must not be
    NaN (it reads 'nan(1)'); integers must carry no sign (it reads a lone
    '-' as 0) and stop short of the int64 maximum (it saturates there).
    """
    text = " ".join(lines)
    integer = dtype == np.int64
    if integer and ("-" in text or "+" in text):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != n_tokens:
        return None
    bad = values == _INT64_MAX if integer else np.isnan(values)
    return None if bad.any() else values


def _coordinates(path, linenos: list[int], lines: list[str]) -> np.ndarray:
    """(n, 3) array of the coordinate triples on the given lines, or a
    FormatError naming the first line that is not three numbers."""
    counts = list(map(len, map(str.split, lines)))
    if counts.count(3) == len(counts):
        values = _bulk(lines, 3 * len(lines), np.float64)
        if values is not None:
            return values.reshape(-1, 3)
    rows = []
    for lineno, line in zip(linenos, lines):
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            _fail(path, lineno, f"bad coordinate in {line!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), 3)


def _face_indices(path, linenos: list[int], lines: list[str], counted: bool):
    """(indices, degrees) of the faces on the given lines, or a
    FormatError naming the first bad line.  A counted line reads
    'k i0 .. i(k-1)' (OFF); otherwise a line lists at least 3 indices."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    values = _bulk(lines, int(counts.sum()), np.int64)
    if values is not None:
        if not counted:
            if (counts >= 3).all():
                return values, counts
        else:
            heads = np.cumsum(counts) - counts
            if (values[heads] == counts - 1).all():
                return np.delete(values, heads), counts - 1
    indices: list[int] = []
    degrees: list[int] = []
    for lineno, line in zip(linenos, lines):
        parts = line.split()
        if not counted and len(parts) < 3:
            _fail(path, lineno, f"face needs at least 3 vertices, got {len(parts)}")
        try:
            tokens = [int(p) for p in parts]
        except ValueError:
            _fail(path, lineno, f"bad face index in {line!r}")
        if counted:
            if tokens[0] != len(tokens) - 1:
                _fail(path, lineno, f"face line must read 'k i0 .. i(k-1)', got {line!r}")
            tokens = tokens[1:]
        indices += tokens
        degrees.append(len(tokens))
    return indices, degrees


def read_off(path: str | Path) -> LoadedMesh:
    """Parse an ASCII OFF file (header, counts, vertices, 0-based faces)."""
    linenos, lines, source = _data_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file")
    first, *tokens = lines[0].split()
    if first != "OFF":
        _fail(path, linenos[0], f"expected OFF header, got {first!r}")
    body = 1
    if not tokens:
        if len(lines) < 2:
            _fail(path, linenos[0], "missing counts after OFF header")
        tokens = lines[1].split()
        body = 2
    lineno = linenos[body - 1]
    if len(tokens) != 3:
        _fail(path, lineno, f"expected 'V F E' counts, got {len(tokens)} token(s)")
    try:
        nv, nf, _ne = (int(t) for t in tokens)
    except ValueError:
        _fail(path, lineno, f"non-integer counts {tokens!r}")
    if nv < 0 or nf < 0:
        _fail(path, lineno, "negative counts")
    if len(lines) - body != nv + nf:
        _fail(path, lineno, f"header promises {nv} vertices + {nf} faces, "
                            f"file has {len(lines) - body} data line(s)")

    mid = body + nv
    vertices = _coordinates(path, linenos[body:mid], lines[body:mid])
    indices, degrees = _face_indices(path, linenos[mid:], lines[mid:], counted=True)
    complex = _build(vertices, indices, degrees, 0, path, linenos[body:mid], linenos[mid:])
    return LoadedMesh(complex=complex, sources=(source,))


def read_obj(path: str | Path) -> LoadedMesh:
    """Parse the v/f records of a Wavefront OBJ file (1-based, polygonal).

    Every other record type (vn, vt, usemtl, ...) is irrelevant here.
    """
    linenos, lines, source = _data_lines(path)
    records = list(map(str.split, lines))
    kinds = list(map(itemgetter(0), records))
    is_v = list(map("v".__eq__, kinds))
    is_f = list(map("f".__eq__, kinds))
    vertices = _obj_coordinates(list(compress(lines, is_v)), list(compress(records, is_v)))
    if vertices is None:
        vertices, indices, degrees = _obj_records(path, linenos, lines, records)
    else:
        # accumulate(is_v) counts the vertices declared up to each line
        declared = list(compress(accumulate(is_v), is_f))
        faces = _obj_faces(list(compress(lines, is_f)), list(compress(records, is_f)), declared)
        if faces is None:
            indices, degrees = [], []
            for lineno, parts, known in zip(compress(linenos, is_f), compress(records, is_f),
                                            declared):
                indices += _obj_face(path, lineno, parts, known)
                degrees.append(len(parts) - 1)
        else:
            indices, degrees = faces
    complex = _build(vertices, indices, degrees, 1, path,
                     list(compress(linenos, is_v)), list(compress(linenos, is_f)))
    return LoadedMesh(complex=complex, sources=(source,))


def _obj_coordinates(lines: list[str], records: list[list[str]]) -> np.ndarray | None:
    """The (n, 3) coordinates of the v lines from one bulk parse, with a
    fourth (w) value ignored; None when that parse refuses them."""
    counts = np.fromiter(map(len, records), np.int64, len(records)) - 1
    if not ((counts == 3) | (counts == 4)).all():
        return None
    # each line starts with the one-letter token v
    values = _bulk(list(map(itemgetter(slice(1, None)), lines)), int(counts.sum()), np.float64)
    if values is None:
        return None
    return values[(np.cumsum(counts) - counts)[:, None] + np.arange(3)]


def _obj_faces(lines: list[str], records: list[list[str]], declared: list[int]):
    """(indices, degrees) of the f lines from one bulk parse, when every
    reference is a plain unsigned integer naming a vertex declared before
    its line; None otherwise (v/vt forms, relative or signed references,
    a reference out of range, a face of fewer than 3), for _obj_face."""
    counts = np.fromiter(map(len, records), np.int64, len(records)) - 1
    if not (counts >= 3).all() or "/" in "".join(lines):
        return None
    # each line starts with the one-letter token f
    values = _bulk(list(map(itemgetter(slice(1, None)), lines)), int(counts.sum()), np.int64)
    if values is None or not ((values >= 1) & (values <= np.repeat(declared, counts))).all():
        return None
    return values, counts


def _obj_records(path, linenos: list[int], lines: list[str], records: list[list[str]]):
    """(vertices, indices, degrees) of the v and f records read line by
    line, or a FormatError naming the first bad one."""
    vertices: list[list[float]] = []
    indices: list[int] = []
    degrees: list[int] = []
    for lineno, line, parts in zip(linenos, lines, records):
        if parts[0] == "v":
            if len(parts) not in (4, 5):
                _fail(path, lineno, f"expected 'v x y z', got {line!r}")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError:
                _fail(path, lineno, f"bad coordinate in {line!r}")
        elif parts[0] == "f":
            indices += _obj_face(path, lineno, parts, len(vertices))
            degrees.append(len(parts) - 1)
    return np.array(vertices, dtype=np.float64).reshape(len(vertices), 3), indices, degrees


def _obj_face(path, lineno: int, parts: list[str], declared: int) -> list[int]:
    """The 1-based vertex indices of the f record parts, given the number
    of vertices declared before it."""
    if len(parts) < 4:
        _fail(path, lineno, "face needs at least 3 vertices")
    face = []
    for ref in parts[1:]:
        head = ref.split("/", 1)[0]
        try:
            idx = int(head)
        except ValueError:
            _fail(path, lineno, f"bad face reference {ref!r}")
        if idx < 0:
            idx = declared + 1 + idx    # OBJ negative refs are relative
        # references must point at vertices already declared
        if not (1 <= idx <= declared):
            _fail(path, lineno, f"face reference {ref!r} out of range")
        face.append(idx)
    return face


def read_pair(faces_path: str | Path, vertices_path: str | Path,
              index_base: int = 1) -> LoadedMesh:
    """Parse the two-file form: one face per line in the first file, one
    coordinate triple per line in the second."""
    vertex_lines, vertex_text, vertex_source = _data_lines(vertices_path)
    vertices = _coordinates(vertices_path, vertex_lines, vertex_text)
    face_lines, face_text, face_source = _data_lines(faces_path)
    indices, degrees = _face_indices(faces_path, face_lines, face_text, counted=False)
    complex = _build(vertices, indices, degrees, index_base, faces_path,
                     vertex_lines, face_lines, vertices_path=vertices_path)
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


def _vertex_lines(complex: CellComplex, head: str = "") -> list[str]:
    """One line per vertex: head, then its coordinates to 17 digits."""
    return list(map(f"{head}{{:.17g}} {{:.17g}} {{:.17g}}".format, *complex.vertices.T.tolist()))


def _face_lines(complex: CellComplex, head: str, base: int) -> list[str]:
    """One line per face: head, with {k} the face's degree, then its
    indices plus base, written with one template per degree."""
    def lines(k, flat):
        return map((head.format(k=k) + " ".join(["{}"] * k)).format, *[iter(flat)] * k)
    return by_degree(complex.corners + base, complex.offsets, lines)


def _write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_off(complex: CellComplex, path: str | Path) -> None:
    header = ["OFF", f"{complex.n_vertices} {complex.n_faces} {len(edge_table(complex).ends)}"]
    _write_lines(path, header + _vertex_lines(complex) + _face_lines(complex, "{k} ", 0))


def write_obj(complex: CellComplex, path: str | Path) -> None:
    _write_lines(path, _vertex_lines(complex, "v ") + _face_lines(complex, "f ", 1))


def write_pair(complex: CellComplex, faces_path: str | Path,
               vertices_path: str | Path, index_base: int = 1) -> None:
    _write_lines(faces_path, _face_lines(complex, "", index_base))
    _write_lines(vertices_path, _vertex_lines(complex))


def write_mesh(complex: CellComplex, path: str | Path) -> None:
    """Write OFF or OBJ, inferring the format from the extension."""
    kind = Path(path).suffix.lower().lstrip(".")
    if kind == "off":
        write_off(complex, path)
    elif kind == "obj":
        write_obj(complex, path)
    else:
        raise FormatError(f"cannot infer output format of {path!r}; use .off or .obj")
