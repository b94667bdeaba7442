"""Polygonal cell complexes and combinatorial surface checks.

A complex is a list of points in R^3 plus faces given as cyclic tuples of
vertex indices.  Everything downstream (homology, flatness, intersection
tests) is built on top of the validated half-edge structure constructed
here.  Indices are 0-based internally; interchange formats convert on the
way in.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class MeshError(Exception):
    """Base class for all mesh construction and validation failures."""


class InvalidComplexError(MeshError):
    """Raw vertex/face data does not define a valid cell complex."""


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


@dataclass(eq=False)
class CellComplex:
    """A polygonal cell complex: vertex coordinates plus cyclic faces.

    Instances should be built through build_complex so that the validation
    invariants (index range, no repeated vertex inside a face, no duplicate
    face up to rotation and reversal) are guaranteed to hold.
    """

    vertices: np.ndarray                 # (n, 3) float64, read-only
    faces: tuple[tuple[int, ...], ...]   # 0-based vertex indices

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise InvalidComplexError(f"vertex array must be (n, 3), got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", tuple(tuple(int(i) for i in f) for f in self.faces))

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_degree_census(self) -> dict[int, int]:
        """Map face degree -> number of faces with that degree."""
        return dict(sorted(Counter(len(f) for f in self.faces).items()))

    def unit_scaled(self) -> tuple[CellComplex, int]:
        """This complex times the power of two 2^-e that brings its largest
        |coordinate| into [0.5, 1), and e.

        The scaling is exact unless a nonzero coordinate is 2^1021 times
        smaller than the largest, and every predicate sign is scale-free,
        so a stage run on the scaled complex decides as on the original,
        while squares of coordinate differences cannot overflow.
        np.ldexp(x, e) maps a derived point back.
        """
        _, exponent = np.frexp(np.abs(self.vertices).max(initial=0.0))
        e = int(exponent)
        return CellComplex(np.ldexp(self.vertices, -e), self.faces), e


def canonical_face(face: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a face under rotation and reversal.

    Rotate so the smallest vertex comes first, then pick the
    lexicographically smaller of the two traversal directions.  Used for
    duplicate detection; vertices within a face are distinct, so the
    smallest vertex is unique.
    """
    f = tuple(int(i) for i in face)
    k = f.index(min(f))
    fwd = f[k:] + f[:k]
    rev = tuple(reversed(f))
    k = rev.index(min(rev))
    bwd = rev[k:] + rev[:k]
    return min(fwd, bwd)


def build_complex(
    raw_vertices: Iterable[Sequence[float]],
    raw_faces: Iterable[Sequence[int]],
    index_base: int = 0,
) -> CellComplex:
    """Validate raw data and return a CellComplex.

    index_base says how the face indices count vertices: 1 for data coming
    from interchange files that number vertices from one, 0 for data built
    in memory.  Raises InvalidComplexError on NaN or infinite coordinates,
    out-of-range indices, faces with fewer than three vertices, repeated
    vertices inside a face, duplicate faces (up to rotation and reversal),
    or no faces at all.
    """
    if index_base not in (0, 1):
        raise InvalidComplexError(f"index_base must be 0 or 1, got {index_base}")
    verts = np.asarray(list(raw_vertices), dtype=np.float64)
    if verts.size == 0:
        verts = verts.reshape(0, 3)
    if verts.ndim == 2:
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if bad.size:
            v = int(bad[0])
            raise InvalidComplexError(
                f"vertex {v + index_base} has a non-finite coordinate: {verts[v].tolist()}"
            )
    n = verts.shape[0]
    faces: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for pos, raw in enumerate(raw_faces):
        face = tuple(int(i) - index_base for i in raw)
        if len(face) < 3:
            raise InvalidComplexError(f"face {pos} has {len(face)} vertices; need at least 3")
        for i in face:
            if not (0 <= i < n):
                raise InvalidComplexError(
                    f"face {pos} references vertex {i + index_base}, valid range is "
                    f"{index_base}..{n - 1 + index_base}"
                )
        if len(set(face)) != len(face):
            raise InvalidComplexError(f"face {pos} repeats a vertex: {tuple(i + index_base for i in face)}")
        key = canonical_face(face)
        if key in seen:
            raise InvalidComplexError(
                f"face {pos} duplicates face {seen[key]} (identical up to rotation/reversal)"
            )
        seen[key] = pos
        faces.append(face)
    if not faces:
        raise InvalidComplexError("complex has no faces")
    return CellComplex(vertices=verts, faces=tuple(faces))


def edge_census(complex: CellComplex) -> dict[tuple[int, int], int]:
    """Count how many face sides realize each undirected edge.

    Keys are sorted vertex pairs.  A closed 2-manifold uses every edge
    exactly twice; anything else shows up here as a count of 1 or >= 3.
    """
    census: Counter[tuple[int, int]] = Counter()
    for face in complex.faces:
        k = len(face)
        for i in range(k):
            u, v = face[i], face[(i + 1) % k]
            census[(u, v) if u < v else (v, u)] += 1
    return dict(census)


# ---------------------------------------------------------------------------
# Half-edge structure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HalfEdgeMesh:
    """Half-edge view of a closed 2-manifold complex.

    Half-edges are the directed face sides, enumerated face by face.  twin
    pairs the two sides realizing the same undirected edge; for a
    nonorientable gluing the twin may traverse the edge in the SAME
    direction, which is what the orientability scan keys on.

    vertex_stars[v] lists the corners (face, position-in-face) around v in
    cyclic order; star_entry_neighbors[v][k] is the neighbor vertex u such
    that edge {v, u} is crossed to enter corner k from corner k-1.  The
    closed-manifold check guarantees each star is a single cycle.
    """

    complex: CellComplex
    origin: tuple[int, ...]          # half-edge -> source vertex
    face_of: tuple[int, ...]         # half-edge -> face index
    twin: tuple[int, ...]            # half-edge -> opposite side of its edge
    edges: tuple[tuple[int, int], ...]           # sorted pairs, lexicographic order
    vertex_stars: tuple[tuple[tuple[int, int], ...], ...]
    star_entry_neighbors: tuple[tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return self.complex.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return self.complex.n_faces


def _half_edges(complex: CellComplex):
    """Enumerate (origin, destination, face, position) for every face side."""
    origin, destination, face_of, pos_in_face = [], [], [], []
    for fi, face in enumerate(complex.faces):
        k = len(face)
        for i in range(k):
            origin.append(face[i])
            destination.append(face[(i + 1) % k])
            face_of.append(fi)
            pos_in_face.append(i)
    return origin, destination, face_of, pos_in_face


def check_closed_manifold(complex: CellComplex) -> HalfEdgeMesh:
    """Verify the complex is a closed 2-manifold and build its half-edge mesh.

    Succeeds iff (a) every undirected edge is used by exactly two face
    sides and (b) the corners around every vertex form a single cycle.
    Raises NotManifoldError carrying every defect found (boundary edges,
    over-used edges, pinched vertices, isolated vertices); on success the
    returned mesh satisfies the twin involution invariant.
    """
    origin, destination, face_of, pos_in_face = _half_edges(complex)
    nh = len(origin)

    sides: dict[tuple[int, int], list[int]] = {}
    for h in range(nh):
        u, v = origin[h], destination[h]
        sides.setdefault((u, v) if u < v else (v, u), []).append(h)

    defects: list[ManifoldDefect] = []
    for edge in sorted(sides):
        c = len(sides[edge])
        if c == 1:
            defects.append(ManifoldDefect("boundary-edge", edge, "used by only one face"))
        elif c > 2:
            defects.append(ManifoldDefect("nonmanifold-edge", edge, f"used by {c} face sides"))

    referenced = set(origin)
    for v in range(complex.n_vertices):
        if v not in referenced:
            defects.append(ManifoldDefect("isolated-vertex", (v,), "no incident face"))

    if defects:
        raise NotManifoldError(defects)

    twin = [-1] * nh
    for a, b in sides.values():
        twin[a], twin[b] = b, a

    # Corners around each vertex: corner (f, i) at v = faces[f][i] is entered
    # and left through its two incident edges {v, prev} and {v, next}.  The
    # walk below hops corner -> corner across twinned sides; a manifold
    # vertex yields one cycle, a pinched vertex several.
    corners_at: list[list[tuple[int, int]]] = [[] for _ in range(complex.n_vertices)]
    for h in range(nh):
        corners_at[origin[h]].append((face_of[h], pos_in_face[h]))

    # half-edges are numbered face by face: side i of face fi is first[fi] + i
    first = [h for h in range(nh) if pos_in_face[h] == 0]

    stars: list[tuple[tuple[int, int], ...]] = []
    entry_neighbors: list[tuple[int, ...]] = []
    for v in range(complex.n_vertices):
        corners = sorted(corners_at[v])
        remaining = set(corners)
        start = corners[0]
        cycle: list[tuple[int, int]] = []
        entries: list[int] = []
        # Each corner has exactly two incident edges at v; the walk enters
        # over one and must leave over the other.  With nonorientable
        # gluings a twin crossing can land on a corner's OUTGOING side, so
        # the entry parity has to be tracked rather than assumed.
        corner = start
        fi, i = start
        entry_neighbor = complex.faces[fi][(i - 1) % len(complex.faces[fi])]
        entered_via_incoming = True
        while True:
            cycle.append(corner)
            remaining.discard(corner)
            entries.append(entry_neighbor)
            fi, i = corner
            k = len(complex.faces[fi])
            if entered_via_incoming:
                exit_he = first[fi] + i             # leave over v -> next
            else:
                exit_he = first[fi] + (i - 1) % k   # leave over prev -> v
            entry_neighbor = destination[exit_he] if origin[exit_he] == v else origin[exit_he]
            t = twin[exit_he]
            tf, ti = face_of[t], pos_in_face[t]
            if origin[t] == v:
                corner = (tf, ti)
                entered_via_incoming = False
            else:
                corner = (tf, (ti + 1) % len(complex.faces[tf]))
                entered_via_incoming = True
            if corner == start or corner not in remaining:
                break
        if remaining:
            defects.append(
                ManifoldDefect(
                    "pinched-vertex",
                    (v,),
                    f"{len(corners)} corners form more than one cycle "
                    f"({len(cycle)} reached from the first)",
                )
            )
        stars.append(tuple(cycle))
        entry_neighbors.append(tuple(entries))

    if defects:
        raise NotManifoldError(defects)

    return HalfEdgeMesh(
        complex=complex,
        origin=tuple(origin),
        face_of=tuple(face_of),
        twin=tuple(twin),
        edges=tuple(sorted(sides)),
        vertex_stars=tuple(stars),
        star_entry_neighbors=tuple(entry_neighbors),
    )


def euler_characteristic(mesh: HalfEdgeMesh) -> int:
    """V - E + F of the underlying complex."""
    return mesh.n_vertices - mesh.n_edges + mesh.n_faces


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
    """Decide orientability by propagating face orientations across edges.

    Two faces are coherently oriented across a shared edge iff their two
    sides traverse it in opposite directions.  A breadth-first sweep
    assigns each face a flip flag; any contradiction makes the component
    nonorientable.  Disconnected input is reported per component rather
    than rejected.
    """
    nf = mesh.n_faces
    flip = [-1] * nf
    verdict: list[bool] = []
    he_of_face: list[list[int]] = [[] for _ in range(nf)]
    for h, f in enumerate(mesh.face_of):
        he_of_face[f].append(h)
    for seed in range(nf):
        if flip[seed] != -1:
            continue
        verdict.append(True)
        flip[seed] = 0
        queue = deque([seed])
        while queue:
            f = queue.popleft()
            for h in he_of_face[f]:
                t = mesh.twin[h]
                g = mesh.face_of[t]
                # Opposite traversal -> same flag; same traversal -> opposite flag.
                expected = flip[f] if mesh.origin[h] != mesh.origin[t] else 1 - flip[f]
                if flip[g] == -1:
                    flip[g] = expected
                    queue.append(g)
                elif flip[g] != expected:
                    verdict[-1] = False
    return OrientabilityReport(per_component=tuple(verdict))


@dataclass(frozen=True)
class ComponentLabels:
    """Connected components of the face-adjacency graph."""

    count: int


def connected_components(mesh: HalfEdgeMesh) -> ComponentLabels:
    """Count the components of the face-adjacency graph (faces sharing an
    edge); orientability's sweep visits each component once."""
    return ComponentLabels(count=len(orientability(mesh).per_component))
