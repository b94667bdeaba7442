"""Mesh file readers and writers.

Three interchange formats: OFF (ASCII header + counts, 0-based faces),
OBJ (v/f records, 1-based, polygonal faces allowed), and a plain-text
pair of files holding one face per line as whitespace-separated vertex
indices (1-based by default) and one vertex per line as a coordinate
triple.  Readers attach the SHA-256 of every file they consumed;
writers serialize coordinates with 17 significant digits so that a
write/read round trip reproduces the float values bit for bit.

A reader first builds the file's line index in whole-array passes over
its bytes: where each line that is not blank or a comment starts and
ends, its line number, and how many str.split() tokens it holds, counted
from the ASCII bytes str.split() separates on (in a file with non-ASCII
text, the UTF-8 bytes of the other spaces it separates on are marked
too).  Readers convert each block of numbers (the vertex lines,
the face lines) with one C-level parse of the block's bytes.  They trust
that parse only where it reads one value per token the index counts, as
float() or int() would read it; otherwise they parse the block line by
line, which returns the same values for what the bulk parse refused, or
raises a FormatError at the first bad line.  Only that path and the OFF
header make str lines.
"""
from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import (CellComplex, InvalidComplexError, MeshError, by_degree, complex_from_flat,
                   edge_table)

_INT64_MAX = np.iinfo(np.int64).max
_BOM = b"\xef\xbb\xbf"
# the characters past ASCII that str.split() separates on: every
# c > '\x7f' with c.isspace()
_WIDE_SPACES = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
                + "\u2028\u2029\u202f\u205f\u3000")
_WIDE_SPACE = re.compile(b"|".join(re.escape(c.encode("utf-8")) for c in _WIDE_SPACES))


class FormatError(MeshError):
    """Malformed mesh file; message carries path and line number."""


@dataclass(frozen=True)
class LoadedMesh:
    """A parsed complex plus the identity of the file(s) it came from."""

    complex: CellComplex
    sources: tuple[tuple[str, str], ...]    # (path, sha256 hex)


def _fail(path, lineno: int, message: str):
    raise FormatError(f"{path}:{lineno}: {message}")


@dataclass(frozen=True, eq=False)
class _Lines:
    """The line index of a file: its lines that are not blank or a comment.

    Line k of the index is file line linenos[k]; its text, up to the
    whitespace around it, is data[starts[k]:ends[k]], which starts at its
    first token, and it holds tokens[k] str.split() tokens.  data is the
    file's bytes after a leading byte-order mark, with every comment turned
    into spaces, so the bytes between two lines of the index are
    whitespace.  sep[p] says whether str.split() separates on data[p], and
    sep[len(data)] is True.  spaced is data with every such byte turned
    into a space, for np.fromstring, which stops at \x1c .. \x1f and at
    non-ASCII spaces; it is data itself when the file holds none of those.
    """

    data: bytes
    spaced: bytes
    sep: np.ndarray
    linenos: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    tokens: np.ndarray

    def __len__(self) -> int:
        return int(self.linenos.size)

    def text(self, rows) -> list[str]:
        """The stripped text of the lines rows (a slice or an index array)."""
        return [self.data[s:e].decode("utf-8").strip()
                for s, e in zip(self.starts[rows].tolist(), self.ends[rows].tolist())]

    def block(self, lo: int, hi: int) -> bytes:
        """The bytes of lines lo .. hi - 1, from the first token of lo to
        the end of hi - 1, with every separator a space."""
        return self.spaced[self.starts[lo]:self.ends[hi - 1]] if hi > lo else b""


def _data_lines(path: str | Path) -> tuple[_Lines, tuple[str, str]]:
    """The line index of the file and the (path, sha256) of its bytes.

    Lines end at \\n, \\r\\n or \\r, as in text mode; a form feed or NEL
    inside a line does not end it.  A comment runs from a line's first #
    to its end.  A byte that is not UTF-8 fails at its line; a leading
    byte-order mark is left out, so an error's offset still counts from
    the first byte.
    """
    data = Path(path).read_bytes()
    body = data[len(_BOM):] if data.startswith(_BOM) else data
    wide = not body.isascii()
    if wide:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            _fail(path, lineno, f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})")
    raw = np.frombuffer(body, dtype=np.uint8)
    lf, cr = raw == 10, raw == 13
    cr[:-1] &= ~lf[1:]                    # the \r of \r\n ends no line
    ends = np.append(np.flatnonzero(lf | cr), raw.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    hashes = np.flatnonzero(raw == 35)
    if hashes.size:
        cut = hashes[np.minimum(np.searchsorted(hashes, starts), hashes.size - 1)]
        commented = (cut >= starts) & (cut < ends)
        edge = np.zeros(raw.size + 1, dtype=np.int8)
        edge[cut[commented]] = 1
        edge[ends[commented]] = -1
        raw = np.where(np.cumsum(edge[:-1], dtype=np.int8) > 0, np.uint8(32), raw)
        body = raw.tobytes()
    # str.split() separates on \t \n \x0b \x0c \r, \x1c .. \x1f and space;
    # np.fromstring skips only the first six
    unit = (raw - np.uint8(28)) < 4
    sep = np.append((raw == 32) | ((raw - np.uint8(9)) < 5) | unit, True)
    odd = unit.any()
    if wide:
        for space in _WIDE_SPACE.finditer(body):
            sep[space.start():space.end()] = True
            odd = True
    spaced = np.where(sep[:-1], np.uint8(32), raw).tobytes() if odd else body
    # a token starts at a byte str.split() keeps, after one it separates on
    word = ~sep[:-1]
    word[1:] &= sep[:-2]
    words = np.flatnonzero(word)
    first = np.searchsorted(words, starts)
    tokens = np.searchsorted(words, ends) - first
    kept = np.flatnonzero(tokens)
    return (_Lines(body, spaced, sep, kept + 1, words[first[kept]], ends[kept], tokens[kept]),
            (str(path), hashlib.sha256(data).hexdigest()))


def _bulk(text: bytes, n_tokens: int, dtype) -> np.ndarray | None:
    """Every number in text, in order, from one C-level parse; None when
    that parse might read a token otherwise than float() or int() does.

    It is trusted when it returns one value per token and warns of
    nothing (NumPy 1.24 returns a truncated array under a
    DeprecationWarning where later versions raise).  Floats must not be
    NaN (it reads 'nan(1)'); integers must carry no sign (it reads a lone
    '-' as 0) and stop short of the int64 maximum (it saturates there).
    """
    integer = dtype == np.int64
    if integer and (b"-" in text or b"+" in text):
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


def _coordinates(path, lines: _Lines, lo: int, hi: int) -> np.ndarray:
    """(n, 3) array of the coordinate triples on lines lo .. hi - 1, or a
    FormatError naming the first line that is not three numbers."""
    if (lines.tokens[lo:hi] == 3).all():
        values = _bulk(lines.block(lo, hi), 3 * (hi - lo), np.float64)
        if values is not None:
            return values.reshape(-1, 3)
    rows = []
    for lineno, line in zip(lines.linenos[lo:hi].tolist(), lines.text(slice(lo, hi))):
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            _fail(path, lineno, f"bad coordinate in {line!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), 3)


def _face_indices(path, lines: _Lines, lo: int, hi: int, counted: bool):
    """(indices, degrees) of the faces on lines lo .. hi - 1, or a
    FormatError naming the first bad line.  A counted line reads
    'k i0 .. i(k-1)' (OFF); otherwise a line lists at least 3 indices."""
    counts = lines.tokens[lo:hi]
    values = _bulk(lines.block(lo, hi), int(counts.sum()), np.int64)
    if values is not None:
        if not counted:
            if (counts >= 3).all():
                return values, counts
        elif counts.size and (counts == counts[0]).all():
            # every line 'k i0 .. i(k-1)' with one k: a table with k in front
            rows = values.reshape(counts.size, -1)
            if (rows[:, 0] == counts[0] - 1).all():
                return rows[:, 1:].ravel(), counts - 1
        else:
            heads = np.cumsum(counts) - counts
            if (values[heads] == counts - 1).all():
                return np.delete(values, heads), counts - 1
    indices: list[int] = []
    degrees: list[int] = []
    for lineno, line in zip(lines.linenos[lo:hi].tolist(), lines.text(slice(lo, hi))):
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
    lines, source = _data_lines(path)
    if not len(lines):
        raise FormatError(f"{path}: empty file")
    linenos = lines.linenos
    first, *tokens = lines.text(slice(0, 1))[0].split()
    if first != "OFF":
        _fail(path, int(linenos[0]), f"expected OFF header, got {first!r}")
    body = 1
    if not tokens:
        if len(lines) < 2:
            _fail(path, int(linenos[0]), "missing counts after OFF header")
        tokens = lines.text(slice(1, 2))[0].split()
        body = 2
    lineno = int(linenos[body - 1])
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
    vertices = _coordinates(path, lines, body, mid)
    indices, degrees = _face_indices(path, lines, mid, len(lines), counted=True)
    complex = _build(vertices, indices, degrees, 0, path, linenos[body:mid], linenos[mid:])
    return LoadedMesh(complex=complex, sources=(source,))


def read_obj(path: str | Path) -> LoadedMesh:
    """Parse the v/f records of a Wavefront OBJ file (1-based, polygonal).

    Every other record type (vn, vt, usemtl, ...) is irrelevant here.
    """
    lines, source = _data_lines(path)
    # a record's kind is its first token; v and f are one letter long
    letter = np.frombuffer(lines.data, dtype=np.uint8)[lines.starts]
    one = lines.sep[lines.starts + 1]
    v = np.flatnonzero(one & (letter == ord("v")))
    f = np.flatnonzero(one & (letter == ord("f")))
    vertices = _obj_coordinates(lines, v)
    if vertices is None:
        vertices, indices, degrees = _obj_records(path, lines)
    else:
        # the number of vertices declared before each f line
        declared = np.searchsorted(v, f)
        faces = _obj_faces(lines, f, declared)
        if faces is None:
            indices, degrees = [], []
            for lineno, line, known in zip(lines.linenos[f].tolist(), lines.text(f),
                                           declared.tolist()):
                parts = line.split()
                indices += _obj_face(path, lineno, parts, known)
                degrees.append(len(parts) - 1)
        else:
            indices, degrees = faces
    complex = _build(vertices, indices, degrees, 1, path, lines.linenos[v], lines.linenos[f])
    return LoadedMesh(complex=complex, sources=(source,))


def _records(lines: _Lines, rows: np.ndarray) -> bytes:
    """The bytes of the records rows after their one-letter kind, with
    every separator a space."""
    return b" ".join(map(lines.spaced.__getitem__,
                         map(slice, (lines.starts[rows] + 1).tolist(), lines.ends[rows].tolist())))


def _obj_coordinates(lines: _Lines, v: np.ndarray) -> np.ndarray | None:
    """The (n, 3) coordinates of the v lines from one bulk parse, with a
    fourth (w) value ignored; None when that parse refuses them."""
    counts = lines.tokens[v] - 1
    if not ((counts == 3) | (counts == 4)).all():
        return None
    values = _bulk(_records(lines, v), int(counts.sum()), np.float64)
    if values is None:
        return None
    return values[(np.cumsum(counts) - counts)[:, None] + np.arange(3)]


def _obj_faces(lines: _Lines, f: np.ndarray, declared: np.ndarray):
    """(indices, degrees) of the f lines from one bulk parse, when every
    reference is a plain unsigned integer naming a vertex declared before
    its line; None otherwise (v/vt forms, relative or signed references,
    a reference out of range, a face of fewer than 3), for _obj_face."""
    counts = lines.tokens[f] - 1
    text = _records(lines, f)
    if not (counts >= 3).all() or b"/" in text:
        return None
    values = _bulk(text, int(counts.sum()), np.int64)
    if values is None or not ((values >= 1) & (values <= np.repeat(declared, counts))).all():
        return None
    return values, counts


def _obj_records(path, lines: _Lines):
    """(vertices, indices, degrees) of the v and f records read line by
    line, or a FormatError naming the first bad one."""
    vertices: list[list[float]] = []
    indices: list[int] = []
    degrees: list[int] = []
    for lineno, line in zip(lines.linenos.tolist(), lines.text(slice(None))):
        parts = line.split()
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
    vertex_lines, vertex_source = _data_lines(vertices_path)
    vertices = _coordinates(vertices_path, vertex_lines, 0, len(vertex_lines))
    face_lines, face_source = _data_lines(faces_path)
    indices, degrees = _face_indices(faces_path, face_lines, 0, len(face_lines), counted=False)
    complex = _build(vertices, indices, degrees, index_base, faces_path,
                     vertex_lines.linenos, face_lines.linenos, vertices_path=vertices_path)
    return LoadedMesh(complex=complex, sources=(face_source, vertex_source))


def _build(vertices, indices, degrees, index_base: int, path, vertex_lines: np.ndarray,
           face_lines: np.ndarray, vertices_path=None) -> CellComplex:
    """complex_from_flat, with a build error located at the file line of
    the vertex or face it names (vertex_lines[k] and face_lines[k] are the
    lines of vertex k and face k; vertices_path is the vertices' file when
    it is not path)."""
    try:
        return complex_from_flat(vertices, indices, degrees, index_base=index_base)
    except InvalidComplexError as exc:
        where = ""
        if exc.face is not None:
            where = f" (line {int(face_lines[exc.face])})"
        elif exc.vertex is not None:
            lineno = int(vertex_lines[exc.vertex])
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
