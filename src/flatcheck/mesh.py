"""Polygonal cell complexes and combinatorial surface checks.

A complex is a list of points in R^3 plus faces given as one flat corner
array of vertex indices with offsets, and the combinatorial checks run
on that array: validation sorts one key per face degree (for a
triangle, the two keys (lo * V + mid, hi) of its corners in order), and
the half-edge structure comes from one sort of the undirected edge keys
min(u, v) * V + max(u, v).  Adjacent rows of that sort are the sides of
one edge, and the vertex stars are cycles of one permutation, walked in
order of valence, so that the vertices still walking form a suffix.
Components of signed graphs are labelled by pointer jumping, on the
signed double cover only when some link flips; a half-edge mesh labels
its signed dual graph once and keeps one flag per component, whether it
is unbalanced.  Everything downstream (homology, flatness, intersection
tests) is built on top of the validated half-edge structure constructed
here.  Indices are 0-based internally; interchange formats convert on
the way in.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .predicates import unit_exponent


class MeshError(Exception):
    """Base class for all mesh construction and validation failures."""


class InvalidComplexError(MeshError):
    """Raw vertex/face data does not define a valid cell complex.

    face or vertex is the input position of the offending face or vertex,
    when the error has one, so that a reader can name its file line.
    """

    def __init__(self, message: str, face: int | None = None, vertex: int | None = None):
        super().__init__(message)
        self.face = face
        self.vertex = vertex


@dataclass(frozen=True)
class ManifoldDefect:
    """One reason a complex fails to be a closed 2-manifold.

    kind is one of "boundary-edge", "nonmanifold-edge", "pinched-vertex",
    "isolated-vertex".  location holds the edge (u, v) or the vertex (v,).
    """

    kind: str
    location: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.location}: {self.detail}"


class NotManifoldError(MeshError):
    """The complex is not a closed 2-manifold; carries all defects found."""

    def __init__(self, defects: Sequence[ManifoldDefect]):
        self.defects = tuple(defects)
        summary = "; ".join(str(d) for d in self.defects[:8])
        if len(self.defects) > 8:
            summary += f"; ... ({len(self.defects)} defects total)"
        super().__init__(f"complex is not a closed 2-manifold: {summary}")


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class CellComplex:
    """A polygonal cell complex: vertex coordinates plus cyclic faces.

    Instances should be built through build_complex so that the validation
    invariants (index range, no repeated vertex inside a face, no duplicate
    face up to rotation and reversal) are guaranteed to hold;
    dataclasses.replace(complex, vertices=...) moves the vertices of a
    valid complex and keeps its faces.

    corners lists the faces' vertex indices face by face, and face f owns
    corners[offsets[f]:offsets[f + 1]].
    """

    vertices: np.ndarray    # (n, 3) float64, read-only
    corners: np.ndarray     # int64, read-only, 0-based vertex indices
    offsets: np.ndarray     # int64, read-only, n_faces + 1

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise InvalidComplexError(f"vertex array must be (n, 3), got {v.shape}")
        v.setflags(write=False)
        self.vertices = v
        self.corners = _frozen(self.corners)
        self.offsets = _frozen(self.offsets)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Each face as a tuple of its corners, made on first read."""
        return tuple(by_degree(self.corners, self.offsets, lambda k, flat: zip(*[iter(flat)] * k)))

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_faces(self) -> int:
        return int(self.offsets.size) - 1

    def face_degree_census(self) -> dict[int, int]:
        """Map face degree -> number of faces with that degree."""
        counts = np.bincount(np.diff(self.offsets))
        degrees = np.flatnonzero(counts)
        return dict(zip(degrees.tolist(), counts[degrees].tolist()))

    def unit_scaled(self) -> tuple[CellComplex, int]:
        """This complex times 2^-e, e = predicates.unit_exponent(vertices),
        and e: exact unless a nonzero coordinate is 2^1021 times smaller
        than the largest.  A stage that makes new points from it maps them
        back by np.ldexp(x, e); no caller of a stage scales."""
        e = unit_exponent(self.vertices)
        return replace(self, vertices=np.ldexp(self.vertices, -e)), e


def build_complex(
    raw_vertices: Iterable[Sequence[float]],
    raw_faces: Iterable[Sequence[int]],
) -> CellComplex:
    """Validate raw data, faces numbering vertices from 0, and return a
    CellComplex.

    Raises InvalidComplexError on NaN or infinite coordinates, out-of-range
    indices, faces with fewer than three vertices, repeated vertices inside
    a face, duplicate faces (up to rotation and reversal), or no faces at
    all.  The error names the first bad vertex, else the first bad face,
    and for that face the first of these checks it fails.
    """
    faces = list(raw_faces)
    return complex_from_flat(raw_vertices, list(map(int, chain.from_iterable(faces))),
                             list(map(len, faces)))


def complex_from_flat(
    raw_vertices: Iterable[Sequence[float]],
    indices: Sequence[int],
    degrees: Sequence[int],
    index_base: int = 0,
) -> CellComplex:
    """build_complex on faces given flat: the indices of every face in
    turn, and the number of vertices of each face.  index_base says how the
    indices count vertices: 1 for data coming from interchange files that
    number vertices from one, 0 for data built in memory."""
    if index_base not in (0, 1):
        raise InvalidComplexError(f"index_base must be 0 or 1, got {index_base}")
    verts = np.array(raw_vertices if isinstance(raw_vertices, np.ndarray) else list(raw_vertices),
                     dtype=np.float64)
    if verts.size == 0:
        verts = verts.reshape(0, 3)
    if verts.ndim == 2:
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if bad.size:
            v = int(bad[0])
            raise InvalidComplexError(
                f"vertex {v + index_base} has a non-finite coordinate: {verts[v].tolist()}",
                vertex=v,
            )
    n = verts.shape[0]
    degree = np.asarray(degrees, dtype=np.int64).reshape(-1)
    offsets = np.cumsum(np.concatenate([[0], degree]))
    try:
        idx = np.asarray(indices, dtype=np.int64).reshape(-1) - index_base
    except OverflowError:
        # beyond int64 is out of range anyway; messages quote indices[k] itself
        idx = np.array([min(max(int(i) - index_base, -1), n) for i in indices], dtype=np.int64)
    _validate_faces(idx, degree, offsets, n, indices, index_base)
    if degree.size == 0:
        raise InvalidComplexError("complex has no faces")
    return CellComplex(verts, idx, offsets)


def by_degree(corners: np.ndarray, offsets: np.ndarray, rows) -> list:
    """One item per face, in face order, made degree by degree:
    rows(k, flat) gets the corners of the faces of degree k as one flat
    list and returns an iterable of their items, in face order.  Mixed
    degrees cost one reorder."""
    degree = np.diff(offsets)
    ks = np.flatnonzero(np.bincount(degree)).tolist()
    if len(ks) < 2:
        return list(rows(ks[0], corners.tolist())) if ks else []
    items: list = []
    groups = []
    for k in ks:
        fs = np.flatnonzero(degree == k)
        items += rows(k, corners[offsets[fs, None] + np.arange(k)].ravel().tolist())
        groups.append(fs)
    rank = np.empty(degree.size, dtype=np.int64)
    rank[np.concatenate(groups)] = np.arange(degree.size)
    return list(map(items.__getitem__, rank.tolist()))


def triangle_key(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sort key (lo * n + mid, hi) of the triangles (a, b, c), vertex
    ids below n, where lo <= mid <= hi are each triangle's corners in
    order, and whether lo == mid or mid == hi (a repeated vertex).

    Two triangles are equal up to rotation and reversal iff their keys
    are, and a sort on the key is a sort on (lo, mid, hi).  lo * n + mid
    is exact while n * n < 2^63, i.e. n < 3.03e9.  An id out of range
    can make two keys collide only when both triangles hold one, so the
    range check names a face no later than such a false duplicate.
    """
    small, large = np.minimum(a, b), np.maximum(a, b)
    lo, hi = np.minimum(small, c), np.maximum(large, c)
    mid = np.maximum(small, np.minimum(large, c))
    return lo * n + mid, hi, (lo == mid) | (mid == hi)


def _validate_faces(idx: np.ndarray, degree: np.ndarray, offsets: np.ndarray, n: int,
                    indices: Sequence[int], index_base: int) -> None:
    """Raise InvalidComplexError for the first face that fails a check.

    Each check finds its first failing face over the whole array; the
    earliest of those faces is reported, with the first check it fails,
    which is the face and message a face-by-face scan would report.
    Faces are compared on one key per degree: a triangle's triangle_key,
    a larger face's rotation to its smallest vertex, in the direction
    whose second vertex is smaller.  One stable sort of the keys puts
    equal faces next to each other, in face order.
    """
    nf = degree.size
    first: dict[str, int] = {}               # check -> its first failing face
    owner = -1                               # the face that first["duplicate"] repeats
    short = np.flatnonzero(degree < 3)
    if short.size:
        first["short"] = int(short[0])
    outside = np.flatnonzero((idx < 0) | (idx >= n))
    if outside.size:
        first["range"] = int(np.searchsorted(offsets, outside[0], side="right")) - 1
    for k in (np.flatnonzero(np.bincount(degree)[3:]) + 3).tolist():
        fs = np.flatnonzero(degree == k)
        # a block of one degree is a reshape, no gather
        rows = idx.reshape(-1, k) if fs.size == nf else idx[offsets[fs, None] + np.arange(k)]
        if k == 3:
            key, hi, repeated = triangle_key(rows[:, 0], rows[:, 1], rows[:, 2], n)
            keys = (hi, key)
        else:
            ordered = np.sort(rows, axis=1)
            repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            r = np.arange(fs.size)[:, None]
            low = rows.argmin(axis=1)[:, None]
            fwd = rows[r, (low + np.arange(k)) % k]
            bwd = rows[r, (low - np.arange(k)) % k]
            keys = tuple(np.where((fwd[:, 1] < bwd[:, 1])[:, None], fwd, bwd).T[::-1])
        repeats = np.flatnonzero(repeated)
        if repeats.size:
            first["repeat"] = min(first.get("repeat", nf), int(fs[repeats[0]]))
        order = np.lexsort(keys)             # stable: equal keys keep face order
        same = np.ones(fs.size - 1, dtype=bool)
        for column in keys:
            column = column[order]
            same &= column[1:] == column[:-1]
        if same.any():
            starts = np.concatenate([[True], ~same])
            heads = fs[order[np.flatnonzero(starts)][np.cumsum(starts) - 1]]
            copies = np.flatnonzero(same) + 1
            at = copies[np.argmin(fs[order[copies]])]
            face = int(fs[order[at]])
            if face < first.get("duplicate", nf):
                first["duplicate"], owner = face, int(heads[at])
    if not first:
        return
    pos = min(first.values())
    face = tuple(int(i) for i in indices[offsets[pos]:offsets[pos + 1]])
    if first.get("short") == pos:
        message = f"face {pos} has {len(face)} vertices; need at least 3"
    elif first.get("range") == pos:
        message = (f"face {pos} references vertex {int(indices[outside[0]])}, valid range is "
                   f"{index_base}..{n - 1 + index_base}")
    elif first.get("repeat") == pos:
        message = f"face {pos} repeats a vertex: {face}"
    else:
        message = f"face {pos} duplicates face {owner} (identical up to rotation/reversal)"
    raise InvalidComplexError(message, face=pos)


# ---------------------------------------------------------------------------
# Edge table
# ---------------------------------------------------------------------------

class EdgeTable(NamedTuple):
    """The face sides of a complex, sorted into undirected edges.

    Half-edge h is the side of its face that leaves corner h: it runs
    from corners[h] to corners[nxt[h]].  order lists the half-edges by
    edge key min * V + max, so the sides of one edge are adjacent, in no
    promised order; edge e is ends[e], sorted pairs in lexicographic
    order, and owns order[starts[e]:starts[e + 1]].
    """

    origin: np.ndarray
    dest: np.ndarray
    nxt: np.ndarray
    face_of: np.ndarray
    order: np.ndarray
    starts: np.ndarray     # n_edges + 1 positions in order
    edge_of: np.ndarray    # half-edge -> edge
    ends: np.ndarray       # (n_edges, 2)


def next_corners(offsets: np.ndarray) -> np.ndarray:
    """The corner after each corner in its face, the last wrapping to the
    first, for the faces that own corners[offsets[f]:offsets[f + 1]]."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


def edge_table(complex: CellComplex) -> EdgeTable:
    """Build the EdgeTable of a complex from one sort."""
    origin, offsets = complex.corners, complex.offsets
    nh = origin.size
    nxt = next_corners(offsets)
    dest = origin[nxt]
    lo, hi = np.minimum(origin, dest), np.maximum(origin, dest)
    key = lo * complex.n_vertices + hi
    # nothing reads the order of an edge's sides; an unstable sort took
    # 43 against 163 us on the 3,456 sides of a relabelled grid_torus 24^2
    order = np.argsort(key)
    new = np.diff(key[order], prepend=-1) != 0
    starts = np.append(np.flatnonzero(new), nh)
    edge_of = np.empty(nh, dtype=np.int64)
    edge_of[order] = np.cumsum(new) - 1
    first = order[starts[:-1]]
    face_of = np.repeat(np.arange(complex.n_faces), np.diff(offsets))
    return EdgeTable(origin, dest, nxt, face_of, order, starts, edge_of,
                     np.stack([lo[first], hi[first]], axis=1))


def edge_census(complex: CellComplex) -> dict[tuple[int, int], int]:
    """Count how many face sides realize each undirected edge.

    Keys are sorted vertex pairs, in sorted order.  A closed 2-manifold
    uses every edge exactly twice; anything else shows up here as a count
    of 1 or >= 3.
    """
    t = edge_table(complex)
    return dict(zip(map(tuple, t.ends.tolist()), np.diff(t.starts).tolist()))


# ---------------------------------------------------------------------------
# Half-edge structure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HalfEdgeMesh:
    """Half-edge view of a closed 2-manifold complex.

    Half-edges are the directed face sides, enumerated face by face, as in
    the complex's corner array: half-edge h leaves corner h.  twin pairs
    the two sides realizing the same undirected edge; for a nonorientable
    gluing the twin may traverse the edge in the SAME direction, which is
    what the orientability scan keys on.  The per-half-edge fields are
    read-only int64 arrays.

    The star of vertex v is star_corners[star_offsets[v]:star_offsets[v + 1]]:
    the half-edges leaving v, i.e. its corners, in cyclic order, and
    star_entries holds for each the neighbor u such that edge {v, u} is
    crossed to enter it from the one before.  A corner's face is
    face_of[corner] and its position in that face is corner minus the
    face's entry in complex.offsets.  The closed-manifold check guarantees
    each star is a single cycle.

    dual_components, one flag per component of the signed dual graph
    saying whether it is unbalanced, which orientability,
    connected_components and boundary_matrices read, is made on first
    read and kept; a dataclasses.replace copy starts without it.
    """

    complex: CellComplex
    origin: np.ndarray         # half-edge -> source vertex
    face_of: np.ndarray        # half-edge -> face index
    twin: np.ndarray           # half-edge -> opposite side of its edge
    edge_of: np.ndarray        # half-edge -> row of edge_ends
    edge_ends: np.ndarray      # (n_edges, 2) sorted pairs, lexicographic order
    star_corners: np.ndarray
    star_entries: np.ndarray
    star_offsets: np.ndarray   # n_vertices + 1

    @property
    def n_vertices(self) -> int:
        return self.complex.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    @property
    def n_faces(self) -> int:
        return self.complex.n_faces

    @cached_property
    def dual_components(self) -> np.ndarray:
        """Per component of the signed dual graph, in order of its lowest
        face, whether it is unbalanced, as a read-only bool array.

        The graph is signed_components' on the faces, linked across every
        edge; a link flips when its two sides traverse the edge in the
        same direction.
        """
        h = np.flatnonzero(np.arange(self.twin.size) < self.twin)
        t = self.twin[h]
        label, unbalanced = signed_components(self.n_faces, self.face_of[h], self.face_of[t],
                                              self.origin[h] == self.origin[t])
        # each component is labelled by its lowest face
        flags = unbalanced[label == np.arange(self.n_faces)]
        flags.setflags(write=False)
        return flags


def check_closed_manifold(complex: CellComplex) -> HalfEdgeMesh:
    """Verify the complex is a closed 2-manifold and build its half-edge mesh.

    Succeeds iff (a) every undirected edge is used by exactly two face
    sides and (b) the corners around every vertex form a single cycle.
    Raises NotManifoldError carrying every defect found: boundary and
    over-used edges in edge order, then isolated vertices, or, when there
    are none of those, pinched vertices, each in vertex order.  On success
    the returned mesh satisfies the twin involution invariant.
    """
    t = edge_table(complex)
    nh, nv = t.origin.size, complex.n_vertices
    counts = np.diff(t.starts)
    defects: list[ManifoldDefect] = []
    bad = np.flatnonzero(counts != 2)
    for edge, c in zip(map(tuple, t.ends[bad].tolist()), counts[bad].tolist()):
        if c == 1:
            defects.append(ManifoldDefect("boundary-edge", edge, "used by only one face"))
        else:
            defects.append(ManifoldDefect("nonmanifold-edge", edge, f"used by {c} face sides"))
    valence = np.bincount(t.origin, minlength=nv)
    for v in np.flatnonzero(valence == 0).tolist():
        defects.append(ManifoldDefect("isolated-vertex", (v,), "no incident face"))
    if defects:
        raise NotManifoldError(defects)

    # every edge has two sides, adjacent in the sorted order
    twin = np.empty(nh, dtype=np.int64)
    twin[t.order[0::2]] = t.order[1::2]
    twin[t.order[1::2]] = t.order[0::2]

    # A walk around v sits in state 2h + s: at corner h (the half-edge
    # leaving v), entered over its incoming side prev -> v (s = 1) or over
    # its outgoing side v -> next (s = 0); with nonorientable gluings both
    # occur.  It leaves over the other side and crosses to the twin: if the
    # twin leaves v too, that twin is the next corner, entered over its
    # outgoing side, else the corner after it in its face, entered over
    # its incoming side.  step is that map on all 2 * nh states at once.
    prev = np.empty(nh, dtype=np.int64)
    prev[t.nxt] = np.arange(nh)
    leave = np.stack([prev, np.arange(nh)], axis=1).ravel()
    across = twin[leave]
    step = np.where(t.origin[across] == np.repeat(t.origin, 2), 2 * across, 2 * t.nxt[across] + 1)
    entry = np.stack([t.dest, t.origin[prev]], axis=1).ravel()

    # Every star starts at its vertex's first corner, entered over its
    # incoming side.  The walk stays among v's corners and meets them in
    # cycle order, so in valence steps it meets every corner iff they form
    # one cycle.  Vertices walk in order of valence, so those still
    # walking at step k, of valence above k, are a suffix of that order.
    star_offsets = np.cumsum(np.concatenate([[0], valence]))
    first = np.full(nv, nh)
    np.minimum.at(first, t.origin, np.arange(nh))
    start = 2 * first + 1
    walkers = np.argsort(valence, kind="stable")
    at, state = star_offsets[walkers], start[walkers]
    states = np.empty(nh, dtype=np.int64)
    for k, stopping in enumerate(np.bincount(valence)[:-1].tolist()):
        at, state = at[stopping:], state[stopping:]
        states[at + k] = state
        state = step[state]
    star_corners = states >> 1
    seen = np.zeros(nh, dtype=bool)
    seen[star_corners] = True
    if not seen.all():
        # a pinched star's walk returns to its start before valence steps
        for v in np.unique(t.origin[~seen]).tolist():
            walk = states[star_offsets[v] + 1:star_offsets[v + 1]]
            defects.append(ManifoldDefect(
                "pinched-vertex", (v,),
                f"{valence[v]} corners form more than one cycle "
                f"({1 + int(np.argmax(walk == start[v]))} reached from the first)",
            ))
        raise NotManifoldError(defects)

    return HalfEdgeMesh(
        complex=complex,
        origin=t.origin,
        face_of=_frozen(t.face_of),
        twin=_frozen(twin),
        edge_of=_frozen(t.edge_of),
        edge_ends=_frozen(t.ends),
        star_corners=_frozen(star_corners),
        star_entries=_frozen(entry[states]),
        star_offsets=_frozen(star_offsets),
    )


def euler_characteristic(mesh: HalfEdgeMesh) -> int:
    """V - E + F of the underlying complex."""
    return mesh.n_vertices - mesh.n_edges + mesh.n_faces


# ---------------------------------------------------------------------------
# Signed components
# ---------------------------------------------------------------------------

def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every node of the graph with links (a[k], b[k]) by the
    smallest node of its component.

    Each round hooks the larger of two roots that a link joins to the
    smaller, then jumps pointers until every node points at its root.
    A link whose ends share a root keeps sharing it, so it is dropped.
    """
    label = np.arange(n)
    while a.size:
        la, lb = label[a], label[b]
        split = la != lb
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


def signed_components(n: int, a: np.ndarray, b: np.ndarray,
                      flip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components and balance of a signed graph on nodes 0 .. n - 1.

    Link k joins a[k] and b[k]; it asks for equal node signs, or for
    opposite ones where flip[k].  Returns, per node, the smallest node of
    its component, and whether the component is unbalanced: no choice of
    signs satisfies all its links, i.e. it has a cycle with an odd number
    of flips.  With no flipped link every component is balanced, and
    the graph itself is labelled.  Otherwise both come from the signed
    double cover, with nodes 2x and 2x + 1 for the two signs of x: a
    balanced component lifts to two components, an unbalanced one to a
    single one, which holds both copies of each of its nodes.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    flip = np.asarray(flip, dtype=np.int64)
    if not flip.any():
        return _min_labels(n, a, b), np.zeros(n, dtype=bool)
    lift = 2 * b + flip
    label = _min_labels(2 * n, np.concatenate([2 * a, 2 * a + 1]),
                        np.concatenate([lift, lift ^ 1]))
    return label[0::2] >> 1, label[0::2] == label[1::2]


@dataclass(frozen=True)
class OrientabilityReport:
    """Orientability verdict, overall and per face-component.

    per_component[k] belongs to the k-th component in order of its
    lowest-numbered face.
    """

    per_component: tuple[bool, ...]

    @property
    def orientable(self) -> bool:
        return all(self.per_component)


def orientability(mesh: HalfEdgeMesh) -> OrientabilityReport:
    """Decide orientability per component of the face-adjacency graph.

    Two faces are coherently oriented across a shared edge iff their two
    sides traverse it in opposite directions.  Giving each face a flip
    flag, a component is orientable iff flags exist that every edge
    accepts: its signed dual graph is balanced.  Disconnected input is
    reported per component rather than rejected.  Reads the mesh's
    dual_components, so it labels the dual graph only if nothing has yet.
    """
    return OrientabilityReport(per_component=tuple((~mesh.dual_components).tolist()))


def connected_components(mesh: HalfEdgeMesh) -> int:
    """Count the components of the face-adjacency graph (faces sharing an
    edge), from the mesh's dual_components, which orientability reads too."""
    return mesh.dual_components.size
