"""Global self-intersection detection for triangulated surfaces.

The triangle soup is built once from a refinement, in array passes: corner
coordinates (n, 3, 3), derived corner ids and source faces, per triangle
which opposite edges are edge cells of its source face, and each source
face's own cells as sorted keys, face * len(points) + vertex per vertex
cell and face * len(edges) + k per edge cell, edge k the k-th of the
sorted distinct keys u * len(points) + v, u < v; every face's cells are
read off its own triangles, whose sides that occur once are its boundary
(a corner two faces share is a vertex cell of both).  The cells two faces
both have are looked up only for the rows that ask, by expanding one
face's keys and searching for the other's.  Broad phase: one
sort-and-sweep over the triangles' axis-aligned boxes, which are finite
with lo <= hi, on the axis whose runs hold the fewest pairs; the runs are
expanded by np.repeat and masked on the two other axes, which yields
exactly the pairs whose boxes meet.
Narrow phase, in two steps.  First a float pass decides, in blocks of
pairs in NumPy, every pair whose answer it can prove.  With Shewchuk's
static error bounds on the power-of-two scaled coordinates, it drops a
pair when one triangle's remaining corners lie strictly on one side of the
other's plane, or of an edge line in a coordinate projection, through the
corners the two share; for free pairs that proves them disjoint, and for
neighbours whose shared corner or edge is a cell both may share, that they
meet only there.  Once per call it labels each triangle whose scaled
coordinates are multiples of 2^-15 by its exact plane (the normal, below
2^33 in units of 2^-30, and the offset n . c0, below 2^50 in units of
2^-45, divided by their gcd), and, when some triangle has a label, gives
each triangle its edge lines: the corners projected along its dominant
normal axis, its edges turned counter-clockwise, and their line
constants, so that a corner's turn is exact, below 2^33.  A pair with one
label is exactly coplanar; its plane and edge tests are skipped, and the
signs of the turns of each triangle's corners against the other's edge
lines, taken once into int8, give the contact's kind with no clip ring.
A block gathers the ids (int32) and the edge lines with one take for
both triangles of every row, and for its rows without one plane label
the soup's filter table (scaled corners, normal, permanent) with one
take per side; the edge-line test turns their edges by the signs of
their areas.  The pass reports the contacts of pairs with one label
between faces that share no vertex, and their overlaps between faces
that do, and drops a neighbours' touch that is exactly the corner or
edge they may share; it reports as a local overlap a neighbours'
touch-segment when they may share only finitely many points (at most one
shared corner, and one face or faces with no common edge cell).  Then
every pair left is decided exactly: the points those pairs read are put
once on one power-of-two grid, so every corner is an integer triple, and
every sign is exact in Python integers.  Each pair goes to the contact
kernel: each triangle's corners are evaluated once against the other
triangle's plane; those two sign vectors reject separated pairs and
decide transversality, and the same values build the contact as
homogeneous integer points, so every reported contact is the true
intersection of the given float coordinates; only triangle_contact turns
them into Fractions, for its caller.  Contacts between triangles from the
same or vertex-adjacent source faces are excluded from the
self-intersection list, but flagged separately when they extend beyond
the cells the faces legitimately share (a local embedding failure).  Reports: the float pass's contacts and the
exact loop's few are rows (i, j, kind, local) of one integer array, kind
an index into KINDS + ("transversal",); the float pass's come in pair
order, and one lexsort merges the loop's, when there are any; local
splits them into pairs and local overlaps, and each list stays an
(m, 3) integer array in a ContactRows, a read-only sequence that yields
PairContact named tuples only when read item by item; the kind census
and the certificate text are read off the array itself.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index
from typing import NamedTuple

import numpy as np

from .mesh import InvalidComplexError, MeshError
from .predicates import (KINDS, NO_CONTACT, OVERLAP, PLANE, TOUCH_SEGMENT, area_signs,
                         coplanar_kinds, cross, dot, edge_lines, edge_separated, filter_scaled,
                         normals, off_plane, plane_labels, plane_values, sub, to_grid)
from .refine import Refinement


class DegenerateTriangleError(MeshError):
    """The soup would contain a zero-area triangle."""



@dataclass(frozen=True, eq=False)
class TriangleSoup:
    """Triangles of a refinement, one row per triangle, with each source
    face's cells and, derived on first read, the float filter's table."""

    coords: np.ndarray                          # (n, 3, 3) float64 corner rows
    corners: np.ndarray                         # (n, 3) derived vertex ids
    source_face: np.ndarray                     # (n,) source face of each triangle
    points: np.ndarray                          # derived vertex coordinates
    # (n, 3) bool: the edge opposite corner k is an edge cell of its face
    edge_cells: np.ndarray
    # each source face's cells, as sorted int64 keys: face * len(points) +
    # vertex per vertex cell, and face * len(edges) + k per edge cell, edge
    # k the k-th of the sorted distinct keys u * len(points) + v, u < v
    face_vertices: np.ndarray
    edges: np.ndarray
    face_edges: np.ndarray

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def filter_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The float filter's (n, 15) float64 rows, the corners scaled by
        filter_scaled, then their normal and its permanent (see normals),
        and its (n,) unusable mask, whose rows are zeroed; read-only."""
        scaled, unusable = filter_scaled(self.coords, self.points)
        table = np.concatenate((scaled.reshape(-1, 9), *normals(scaled)), axis=1)
        table.flags.writeable = unusable.flags.writeable = False
        return table, unusable


def _face_cells(refinement: Refinement) -> tuple[np.ndarray, ...]:
    """The soup's edge cell flags, then each face's vertex cells, the
    edges, and each face's edge cells (see TriangleSoup).  The cells of
    every source face are read off its own triangles.

    A polygon triangulated without new vertices has each diagonal in two
    of its triangles and each side in one; barycentric subdivision splits
    each side at its midpoint and puts every spoke in two triangles.  So
    the sides that occur once among a face's triangles are its boundary,
    and their ends are its vertices and edge midpoints: a rounded midpoint
    need not lie on the segment uv, but it is a vertex of both faces at uv.
    """
    corners, n = refinement.derived.corners.reshape(-1, 3), refinement.derived.n_vertices
    nxt, prv = corners[:, [1, 2, 0]], corners[:, [2, 0, 1]]
    face = np.repeat(refinement.triangle_sources, 3)
    side = (np.minimum(nxt, prv) * n + np.maximum(nxt, prv)).ravel()
    order = np.lexsort((side, face))
    face, side = face[order], side[order]
    repeat = np.zeros(len(side) + 1, dtype=bool)
    repeat[1:-1] = (face[1:] == face[:-1]) & (side[1:] == side[:-1])
    once = ~(repeat[:-1] | repeat[1:])
    edge_cells = np.empty(len(once), dtype=bool)
    edge_cells[order] = once
    face, side = face[once], side[once]
    # each face's vertices, as the sorted distinct keys face * n + vertex
    vertex = np.sort(np.concatenate((face, face)) * n + np.concatenate(np.divmod(side, n)))
    edges = np.sort(side)
    edges = edges[np.diff(edges, prepend=-1) != 0]
    # the sides ascend within each face, and so do their indices in edges
    return (edge_cells.reshape(-1, 3), vertex[np.diff(vertex, prepend=-1) != 0], edges,
            face * len(edges) + np.searchsorted(edges, side))


def triangle_soup(refinement: Refinement) -> TriangleSoup:
    """Triangle soup of a refinement, with each source face's cells.

    Raises InvalidComplexError naming the first derived vertex with a
    non-finite coordinate, and DegenerateTriangleError if any derived
    triangle has zero area (exact test), since the narrow phase assumes
    proper triangles.

    The float pass takes a corner that triangles of two source faces share
    as a vertex cell of both, which every refinement keeps true:
    triangulate_faces adds no vertex, and each corner of a face ends a
    side that occurs once among its triangles; barycentric_subdivision's
    only derived vertices that are not cells are the centroids V + E + f,
    each a corner of face f's triangles only.
    """
    derived = refinement.derived
    pts = derived.vertices
    nonfinite = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if nonfinite.size:
        v = int(nonfinite[0])
        raise InvalidComplexError(
            f"derived vertex {v} has a non-finite coordinate: {pts[v].tolist()}")
    corners = derived.corners.reshape(-1, 3)
    coords = pts[corners]
    soup = TriangleSoup(coords, corners, refinement.triangle_sources, pts, *_face_cells(refinement))
    # a certified nonzero normal component proves area; the rest (none on
    # a proper mesh) take the exact test: a zero normal on their own grid
    table, unusable = soup.filter_table
    unproved = np.flatnonzero(~area_signs(table[:, 9:12], table[:, 12:]).any(axis=1) | unusable)
    grid = _grid(coords[unproved].reshape(-1, 3))[0] if unproved.size else []
    bad = [t for t, k in zip(unproved.tolist(), range(0, len(grid), 3))
           if cross(sub(grid[k + 1], grid[k]), sub(grid[k + 2], grid[k])) == (0, 0, 0)]
    if bad:
        raise DegenerateTriangleError(
            f"{len(bad)} zero-area derived triangle(s), first at index {bad[0]}"
            f" (source face {refinement.triangle_sources[bad[0]]})"
        )
    return soup


# ---------------------------------------------------------------------------
# broad phase

def build_hierarchy(soup: TriangleSoup) -> tuple[np.ndarray, np.ndarray]:
    """The axis-aligned bounding boxes of the soup's triangles, the broad
    phase's input, as the pair (lo, hi) of their (n, 3) low and high
    corners."""
    return soup.coords.min(axis=1), soup.coords.max(axis=1)


# Pairs expanded per block of the sweep.  The runs on the sweep axis hold
# many times the pairs whose boxes meet on all three axes: 1.87 million
# against 53,029 on grid_torus 64^2, and 14.9 million at 128^2.  Expanding
# them all at once peaked at 81 MB at 64^2 against 4.3 MB in blocks, so
# blocks of about this many pairs, each ending at the end of a run, bound
# the scratch memory and the kept pairs dominate the peak.
_PAIR_BLOCK = 1 << 16


def candidate_pairs(boxes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """All triangle index pairs (i < j) whose boxes (lo, hi) meet
    (inclusive), as an (m, 2) array sorted lexicographically.  Every box
    must be finite, with lo <= hi on every axis.

    Sort and sweep: in the order of low ends on one axis, the boxes that
    meet box s on that axis and come after it are the contiguous run whose
    low ends are at most s's high end, found by one searchsorted.  The
    axis whose runs hold the fewest pairs is swept: on axis a they hold
    sum(searchsorted(sort(lo_a), hi_a, 'right')) - n(n + 1)/2 pairs, so
    only that axis is argsorted.  Its runs are expanded by np.repeat, in
    blocks that end at the end of a run, and masked on the two other axes,
    one after the other; the sort and the run bound already prove the
    sweep axis.
    """
    box_lo, box_hi = boxes
    n = len(box_lo)
    totals = [int(np.searchsorted(np.sort(box_lo[:, a]), box_hi[:, a], side="right").sum())
              for a in range(3)]
    axis = totals.index(min(totals))
    order = np.argsort(box_lo[:, axis])
    end = np.searchsorted(box_lo[order, axis], box_hi[order, axis], side="right")
    counts = end - np.arange(1, n + 1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    other = [a for a in range(3) if a != axis]
    lo = [box_lo[order, a] for a in other]
    hi = [box_hi[order, a] for a in other]
    keys = [np.empty(0, dtype=np.intp)]
    first = 0
    while first < n:
        last = max(int(np.searchsorted(starts, starts[first] + _PAIR_BLOCK, side="right")) - 1,
                   first + 1)
        runs = counts[first:last]
        s = np.repeat(np.arange(first, last), runs)
        # t - s - 1 counts up from 0 along each run
        t = np.arange(s.size) + np.repeat(np.arange(first + 1, last + 1)
                                          - (starts[first:last] - starts[first]), runs)
        # the first other axis on the whole block, the second on the pairs
        # that meet on the first; s's own values repeat along its run
        near = np.flatnonzero((np.repeat(lo[0][first:last], runs) <= hi[0].take(t))
                              & (lo[0].take(t) <= np.repeat(hi[0][first:last], runs)))
        s, t = s.take(near), t.take(near)
        meet = (lo[1].take(s) <= hi[1].take(t)) & (lo[1].take(t) <= hi[1].take(s))
        a, b = order.take(s[meet]), order.take(t[meet])
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
        first = last
    i, j = np.divmod(np.sort(np.concatenate(keys)), n)
    return np.column_stack((i, j))


# ---------------------------------------------------------------------------
# float filter: the box-meeting pairs whose answer static error bounds settle

# Candidate rows filtered per block.  A block holds about 0.5 KB per row
# in gathered columns and temporaries (tracemalloc peak 1.1 MB on
# folded_flat_torus 12^2 x2, 1.4 MB on quad_torus 16^2), and each block
# pays NumPy's fixed cost per call.  Measured on a shared 2-core Xeon with
# NumPy 2.4, ms per call at 512 / 1,024 / 2,048 / 4,096 rows: folded torus
# 4.6 / 3.9 / 3.4 / 3.5, quad_torus 16^2 4.2 / 2.9 / 2.6 / 2.5, grid_torus
# 64^2 42 / 32 / 25 / 20, grid_klein 64^2 345 / 216 / 189 / 140.  4,096
# helps the large meshes, but it raises the peak to 1.9 MB on the folded
# torus and from 5.6 MB to 6.8 MB on grid_torus 64^2, and it more than
# doubles the minor page faults of the pass in a benchmark op on
# quad_torus 16^2 (148 to 389).
_ROW_BLOCK = 1 << 11


def _columns(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """table's rows at `rows`, with its column axis first: the row axes
    come last and are contiguous, so that every operation of the filters
    runs over whole blocks."""
    return np.ascontiguousarray(table.take(rows, axis=0).transpose(-1, *range(rows.ndim)))


def _subset(mask: np.ndarray):
    """An index of mask's true rows: the whole block, a view with no copy,
    when every row is."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _common_cells(keys: np.ndarray, width: int, f: np.ndarray,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells that faces f[r] and g[r] both have, given every face's
    cells as the sorted keys face * width + cell (see TriangleSoup): rows
    r, ascending, and beside each a cell, ascending within a row.  Each
    f[r]'s keys are expanded, and g[r]'s same cells searched for."""
    start, end = np.searchsorted(keys, (f * width, (f + 1) * width))
    counts = end - start
    row = np.repeat(np.arange(len(f)), counts)
    # start[r] + (place in r's run), the runs laid end to end
    at = np.arange(len(row)) + np.repeat(start - np.cumsum(counts) + counts, counts)
    want = keys.take(at) + np.repeat((g - f) * width, counts)
    found = keys.take(np.searchsorted(keys, want), mode="clip") == want
    return row[found], want[found] % width


def _separated(planes, ij, on_a, on_b, eligible) -> np.ndarray:
    """(m,) whether the plane or the edge-line tests settle each eligible
    row (i, j) of ij (2, m); on_a and on_b (3, m) flag the corners the
    other triangle has (see _undecided_rows), and planes is the soup's
    filter table."""
    pa, pb = (_columns(planes, k) for k in ij)
    xa, xb = pa[:9].reshape(3, 3, -1), pb[:9].reshape(3, 3, -1)
    settled = eligible & (off_plane(*plane_values(xa, pa[9:12], pa[12:], xb), on_b)
                          | off_plane(*plane_values(xb, pb[9:12], pb[12:], xa), on_a))
    left = eligible & ~settled
    if left.any():
        # compress keeps the row axis last and contiguous
        xl, yl, sa, sb, na, nb = (v.compress(left, axis=-1)
                                  for v in (xa, xb, on_a, on_b, pa[9:], pb[9:]))
        # edge k passes through every shared corner iff corner k + 2 is
        # not shared
        settled[left] = (
            edge_separated(xl, area_signs(na[:3], na[3:]), ~np.roll(sa, -2, axis=0), yl, sb)
            | edge_separated(yl, area_signs(nb[:3], nb[3:]), ~np.roll(sb, -2, axis=0), xl, sa))
    return settled


def _pair_flags(ids: np.ndarray, ij: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row (i, j) of ij (2, m), read off one gather of the ids table
    (see _undecided_rows): on_a and on_b (3, m), the corners of each
    triangle that the other has; how many they share; whether the row is
    eligible for the plane and edge-line tests; whether it is flat; and
    its two source faces (2, m), in int64 for their cell keys.  The
    gathered ids are freed on return, before the block gathers its edge
    lines."""
    ia, ib = _columns(ids, ij).transpose(1, 0, 2)
    same = ia[:3, None] == ib[None, :3]
    on_a, on_b = same.any(axis=1), same.any(axis=0)
    shared = on_a.sum(axis=0, dtype=np.int8)
    # one shared corner is a cell of both faces (see triangle_soup); two
    # are one when both flag the edge opposite their unshared corner (a
    # flag of 1 where on_a or on_b is 0)
    cell = (shared < 2) | ((ia[3:6] > on_a).any(axis=0) & (ib[3:6] > on_b).any(axis=0))
    eligible = (shared < 3) & ((ia[6] == ib[6]) | cell) & (ia[7] + ib[7] == 0)
    flat = (ia[8] >= 0) & (ia[8] == ib[8])
    return on_a, on_b, shared, eligible, flat, np.stack((ia[6], ib[6]), dtype=np.int64)


def _undecided_rows(soup: TriangleSoup, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of cands, in order, that the float pass leaves to the exact
    loop, and the contacts it reports itself, as rows (i, j, kind, local):
    kind indexes KINDS, and local marks a local overlap, not a pair.

    It drops a pair whose contact is known to add nothing to the report:
    an empty contact, or, when the s = 1 or 2 corners the two share are
    cells they may share (one source face, or a cell of both faces), a
    contact within those corners.  Each test sees the 3 - s other corners
    of one triangle strictly on one side of a plane or line through the
    other's shared corners, whose own values are exact zeros:
    - the other triangle's plane; for s = 0 the pair is then disjoint, for
      s = 2 the two meet only in their edge, and for s = 1 only in their
      corner;
    - in some coordinate projection where the other has area, an edge line
      through its shared corners, with its third corner on the other side;
      the projections then meet only in the projected shared cell, and
      the other triangle has only that cell over it.
    Every row with a triangle the bounds cannot serve (see filter_scaled)
    stays.

    A row is flat when both triangles have one plane label (see
    plane_labels): they are exactly coplanar, and their plane values are
    exact zeros, so neither test above settles it.  Those two tests run
    only on the rows that are not flat, on the soup's filter table;
    coplanar_kinds gives a flat row's kind from the two triangles' edge
    lines.  Source faces that share no vertex report it.  For one face or
    faces that share a vertex, an overlap is a local overlap, and no
    contact adds nothing, nor does a contact that is exactly the shared
    cell when the two may share it: a touch-point of a
    pair that shares a corner is that corner, and a touch-segment of a
    coplanar pair that shares an edge is that edge.  A touch-segment of a
    pair that shares at most one corner is a local overlap when its
    triangles come from one source face, or from two faces that share no
    edge cell: the cells the two may then share are finitely many points
    (the shared corner, or the faces' common vertex cells), and a segment
    of positive length never lies within them, which is what
    _beyond_allowed would find.  Every other flat row stays.

    A block takes the ids of both triangles of every row at once, row by
    row, and transposes them once (_columns); the edge lines are held
    with the triangle axis last and taken column by column.  Each layout
    measured the faster for its table, as did the filter table's two
    takes per side.  A block whose rows are all flat, or all not, is read
    as it is, with no compressed copy.
    """
    planes, unusable = soup.filter_table
    x, normal = planes[:, :9].reshape(-1, 3, 3), planes[:, 9:12]
    labels = plane_labels(x, normal, unusable)
    # per triangle: its corner ids, edge cells, source face, unusable flag
    # and plane label, in int32 when every id fits, which halves the
    # block's gather; its edge lines, when some triangle has a label
    id_type = np.int32 if max(len(soup.points), len(soup)) < 2**31 else np.int64
    ids = np.concatenate((soup.corners, soup.edge_cells, soup.source_face[:, None],
                          unusable[:, None], labels[:, None]), axis=1, dtype=id_type)
    lines = edge_lines(x, normal) if labels.max(initial=-1) >= 0 else None
    lone = np.bincount(soup.source_face) == 1      # faces of one triangle
    # per row: settled, and the kind of a contact the pass reports (else
    # -1) and whether it is local
    settled = np.zeros(len(cands), dtype=bool)
    reported = np.full(len(cands), -1, dtype=np.int8)
    local = np.zeros(len(cands), dtype=bool)
    for first in range(0, len(cands), _ROW_BLOCK):
        block = slice(first, first + _ROW_BLOCK)
        ij = np.ascontiguousarray(cands[block].T)     # take is fastest on contiguous indices
        on_a, on_b, shared, eligible, flat, faces = _pair_flags(ids, ij)
        done = settled[block]
        if not flat.all():
            t = _subset(~flat)
            done[t] = _separated(planes, ij[:, t], on_a[:, t], on_b[:, t], eligible[t])
        if flat.any():
            f = _subset(flat)
            kind = coplanar_kinds(lines.take(ij[:, f], axis=1))
            fi, fj = faces[:, f]
            # a shared corner is a vertex cell of both faces (see triangle_soup)
            free = (kind != NO_CONTACT) & (shared[f] == 0) & (fi != fj)
            # a touch-segment beyond the finitely many points the pair may share
            segment = (kind == TOUCH_SEGMENT) & (shared[f] < 2)
            # two faces' common cells are looked up only where they change the
            # answer, and not for two one-triangle faces: their cells are
            # their corners and sides, so the shared corners tell
            for mask, keys, width in ((free, soup.face_vertices, len(soup.points)),
                                      (segment, soup.face_edges, len(soup.edges))):
                r = np.flatnonzero(mask & (fi != fj))
                r = r[~(lone.take(fi[r]) & lone.take(fj[r]))]
                if r.size:
                    mask[r[_common_cells(keys, width, fi[r], fj[r])[0]]] = False
            told = (kind != NO_CONTACT) & (free | (kind == OVERLAP) | segment)
            reported[block][f] = np.where(told, kind, np.int8(-1))
            local[block][f] = ~free
            # kind == shared: a touch at the one shared corner, or along the
            # shared edge, is that cell
            done[f] = (free | (kind == NO_CONTACT) | (kind == OVERLAP) | segment
                       | (eligible[f] & (kind == shared[f])))
    at = np.flatnonzero(reported >= 0)
    return cands[~settled], np.column_stack((cands[at], reported[at], local[at]))


# ---------------------------------------------------------------------------
# narrow phase, exact in integers on one power-of-two grid
#
# Every finite double is n / 2^k, so the points of one call share the grid
# 2^-s, s the largest k, and every corner becomes an integer triple.  Every
# predicate sign is scale-free, so plane values, normals and clip sides are
# plain int arithmetic.  A constructed point is homogeneous, (X, Y, Z, W)
# with W > 0 and gcd 1, so equal points are equal tuples.

IVec3 = tuple[int, int, int]
Hom = tuple[int, int, int, int]
# three grid corners, the plane's normal n and offset n . corner 0, then the
# coplanar clip setup: n's dominant axis, and the three edges of the
# projection along it, counter-clockwise, each as (ex, ey, c): a point q is
# on the inner side of the edge iff ex * q_y - ey * q_x - c * W >= 0
Tri = tuple[Hom, Hom, Hom, IVec3, int, int, tuple[IVec3, IVec3, IVec3]]


def _grid(values: np.ndarray) -> tuple[list[Hom], int]:
    """Rows of an (m, 3) float array as grid points (X, Y, Z, 1): the row is
    (X, Y, Z) / 2^s, exactly, with s the largest binary exponent that any
    coordinate's n / 2^k needs."""
    ints, s = to_grid(values.ravel().tolist())
    return [(*ints[k:k + 3], 1) for k in range(0, len(ints), 3)], s


def _triangle(c0: Hom, c1: Hom, c2: Hom) -> Tri:
    n = cross(sub(c1, c0), sub(c2, c0))
    axis = _dominant_axis(n)
    i, j = PLANE[axis]
    # the projection's doubled signed area is n[axis]
    ring = (c0, c1, c2) if n[axis] >= 0 else (c2, c1, c0)
    clip = []
    for e in range(3):
        p, q = ring[e], ring[(e + 1) % 3]
        ex, ey = q[i] - p[i], q[j] - p[j]
        clip.append((ex, ey, ex * p[j] - ey * p[i]))
    return c0, c1, c2, n, dot(n, c0), axis, tuple(clip)


def _hom(x: int, y: int, z: int, w: int) -> Hom:
    """Canonical homogeneous point: W > 0 and gcd(X, Y, Z, W) = 1."""
    if w < 0:
        x, y, z, w = -x, -y, -z, -w
    g = gcd(x, y, z, w)
    return (x // g, y // g, z // g, w // g)


def _mix(sa: int, a: Hom, sb: int, b: Hom) -> Hom:
    """The point sa*b - sb*a: where a linear form with values sa at a and sb
    at b (opposite strict signs) vanishes on the segment [a, b]."""
    return _hom(sa * b[0] - sb * a[0], sa * b[1] - sb * a[1],
                sa * b[2] - sb * a[2], sa * b[3] - sb * a[3])


@dataclass(frozen=True)
class Contact:
    """Exact intersection of two triangles.

    kind is one of "touch-point", "touch-segment", "transversal",
    "coplanar-overlap"; points holds the witness geometry in exact
    rationals (one point, two segment endpoints, or a polygon ring).
    """

    kind: str
    points: tuple[tuple[Fraction, Fraction, Fraction], ...]


def _dedupe(pts: list[Hom]) -> list[Hom]:
    """The distinct points of pts, in order of first appearance."""
    uniq: list[Hom] = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    return uniq


def _plane_section(tri: Tri, d: tuple[int, int, int]) -> list[Hom]:
    """Points of a triangle's intersection with a plane, given the three
    signed plane values of its corners (not all one strict sign)."""
    pts = [tri[k] for k in range(3) if d[k] == 0]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        if d[a] * d[b] < 0:
            pts.append(_mix(d[a], tri[a], d[b], tri[b]))
    return _dedupe(pts)


def _dominant_axis(n: IVec3) -> int:
    mags = (abs(n[0]), abs(n[1]), abs(n[2]))
    return max(range(3), key=lambda k: mags[k])


def _clip_coplanar(subject: tuple[Hom, ...], clip: Tri) -> list[Hom]:
    """Sutherland-Hodgman clip of subject by the clip triangle, both in one
    plane; sidedness is computed on the 2-d projection along the clip
    triangle's axis while crossing points are mixed from the 3-d
    homogeneous points."""
    i, j = PLANE[clip[5]]
    out = list(subject)
    for ex, ey, c in clip[6]:
        if not out:
            break
        inp = out
        out = []
        # e x (q - e0), times q's W > 0: the side of q, on the grid
        sides = [ex * q[j] - ey * q[i] - c * q[3] for q in inp]
        for k in range(len(inp)):
            scur, snxt = sides[k], sides[(k + 1) % len(inp)]
            if scur >= 0:
                out.append(inp[k])
            if (scur > 0 and snxt < 0) or (scur < 0 and snxt > 0):
                out.append(_mix(scur, inp[k], snxt, inp[(k + 1) % len(inp)]))
    return _dedupe(out)


def _has_area(ring: list[Hom], axis: int) -> bool:
    """A convex ring of distinct coplanar points has positive area iff some
    (p0, p1, pk) has a non-zero homogeneous determinant in the projection."""
    i, j = PLANE[axis]
    p0, p1 = ring[0], ring[1]
    # the projected line through p0 and p1, as (x, y, W) . m = 0
    m = (p0[j] * p1[3] - p0[3] * p1[j], p0[3] * p1[i] - p0[i] * p1[3],
         p0[i] * p1[j] - p0[j] * p1[i])
    return any(m[0] * p[i] + m[1] * p[j] + m[2] * p[3] for p in ring[2:])


def _below(x, y) -> bool:
    """Whether x's value X / W is below y's, for keys (X, W, ...), W > 0."""
    return x[0] * y[1] < y[0] * x[1]


def _one_sign(d: tuple[int, int, int]) -> bool:
    """True when every plane value is strictly positive, or every one is
    strictly negative: the triangle lies off the plane, on one side."""
    return (d[0] > 0 and d[1] > 0 and d[2] > 0) or (d[0] < 0 and d[1] < 0 and d[2] < 0)


def _span(pts: list[Hom], u: IVec3):
    """The lowest and highest of pts along u, each as (u . P, W, point):
    its value along u is the fraction u . P / W."""
    lo = hi = (dot(u, pts[0]), pts[0][3], pts[0])
    for p in pts[1:]:
        key = (dot(u, p), p[3], p)
        if _below(key, lo):
            lo = key
        if _below(hi, key):
            hi = key
    return lo, hi


def _plane_values(t: Tri, c: Tri) -> tuple[int, int, int]:
    """c's corners against t's plane: n . corner - n . t's corner 0."""
    n, o = t[3], t[4]
    return (dot(n, c[0]) - o, dot(n, c[1]) - o, dot(n, c[2]) - o)


def _contact(a: Tri, b: Tri) -> tuple[str, tuple[Hom, ...]] | None:
    """Exact contact of two positive-area triangles whose corners are grid
    points with W = 1, as (kind, homogeneous points), or None if disjoint.

    b's corners against a's plane (dq) and a's corners against b's plane
    (dp) are the only 3-d signs evaluated.
    """
    n1 = a[3]
    dq = _plane_values(a, b)

    if dq == (0, 0, 0):
        poly = _clip_coplanar(b[:3], a)
        if not poly:
            return None
        if len(poly) >= 3 and _has_area(poly, a[5]):
            return "coplanar-overlap", tuple(poly)
        if len(poly) == 1:
            return "touch-point", (poly[0],)
        # distinct points on one line: their extremes along it differ
        p, q = poly[0], poly[1]
        lo, hi = _span(poly, tuple(q[k] * p[3] - p[k] * q[3] for k in range(3)))
        return "touch-segment", (lo[2], hi[2])
    if _one_sign(dq):
        return None

    dp = _plane_values(b, a)
    if _one_sign(dp):
        return None
    # neither vector is one-signed or all zero, so both sections are
    # non-empty: a point or a segment on the line the two planes share
    u = cross(n1, b[3])
    lo1, hi1 = _span(_plane_section(a, dp), u)
    lo2, hi2 = _span(_plane_section(b, dq), u)
    lo = lo2 if _below(lo1, lo2) else lo1
    hi = hi2 if _below(hi2, hi1) else hi1
    if _below(hi, lo):
        return None
    if not _below(lo, hi):
        return "touch-point", (lo[2],)
    # A section lies in its triangle's boundary iff two corners are on the
    # other plane (it is then that edge); otherwise its relative interior
    # is interior to the triangle, and so is the overlap's, which has
    # positive length here.
    kind = "transversal" if dp.count(0) < 2 and dq.count(0) < 2 else "touch-segment"
    return kind, (lo[2], hi[2])


def triangle_contact(p: np.ndarray, q: np.ndarray) -> Contact | None:
    """Exact contact of two positive-area triangles, or None if disjoint.

    The 18 coordinates are put on their own grid 2^-s; the contact's
    points are returned as rationals X / (W 2^s).  Raises
    InvalidComplexError naming the first corner with a non-finite
    coordinate, and DegenerateTriangleError if either triangle has zero
    area.
    """
    rows = np.array((p, q), dtype=np.float64).reshape(6, 3)
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        name, k = divmod(int(nonfinite[0]), 3)
        raise InvalidComplexError(f"triangle {'pq'[name]} corner {k} has a non-finite"
                                  f" coordinate: {rows[3 * name + k].tolist()}")
    corners, s = _grid(rows)
    a, b = _triangle(*corners[:3]), _triangle(*corners[3:])
    for name, tri in (("p", a), ("q", b)):
        if tri[3] == (0, 0, 0):
            raise DegenerateTriangleError(f"triangle {name} has zero area")
    found = _contact(a, b)
    if found is None:
        return None
    kind, points = found
    return Contact(kind, tuple(
        (Fraction(x, w << s), Fraction(y, w << s), Fraction(z, w << s))
        for x, y, z, w in points
    ))


# ---------------------------------------------------------------------------
# shared-cell exclusion, on integer points of one common grid

def _point_on_segment(p: IVec3, s0: IVec3, s1: IVec3) -> bool:
    d = sub(s1, s0)
    w = sub(p, s0)
    if cross(w, d) != (0, 0, 0):
        return False
    t = dot(w, d)
    return 0 <= t <= dot(d, d)


def _point_allowed(p: IVec3, pts: list[IVec3], segs: list[tuple[IVec3, IVec3]]) -> bool:
    if any(p == q for q in pts):
        return True
    return any(_point_on_segment(p, s0, s1) for s0, s1 in segs)


def _segment_allowed(p: IVec3, q: IVec3, segs: list[tuple[IVec3, IVec3]]) -> bool:
    """True when the whole segment [p, q] lies inside the union of segs."""
    d = sub(q, p)
    intervals = []
    for s0, s1 in segs:
        if cross(sub(s0, p), d) != (0, 0, 0) or cross(sub(s1, p), d) != (0, 0, 0):
            continue
        t0, t1 = dot(sub(s0, p), d), dot(sub(s1, p), d)
        intervals.append((min(t0, t1), max(t0, t1)))
    if not intervals:
        return False
    intervals.sort()
    need_lo, need_hi = 0, dot(d, d)
    covered = need_lo
    for lo, hi in intervals:
        if lo > covered:
            return False
        covered = max(covered, hi)
        if covered >= need_hi:
            return True
    return covered >= need_hi


def _cell_runs(soup: TriangleSoup, rows: np.ndarray) -> tuple[list, np.ndarray]:
    """Per row (i, j), None when its triangles come from one source face,
    else the vertex cells its two faces both have and the keys u *
    len(points) + v of the edge cells they both have, as two ascending
    sequences; and a mask of the points that the shared-cell test reads for
    the rows: the triangles' corners and the shared vertices, which end
    every shared edge."""
    f, g = soup.source_face[rows[:, 0]], soup.source_face[rows[:, 1]]
    two = np.flatnonzero(f != g)
    (vr, v), (er, e) = (_common_cells(keys, width, f[two], g[two]) for keys, width in
                        ((soup.face_vertices, len(soup.points)),
                         (soup.face_edges, len(soup.edges))))
    used = np.zeros(len(soup.points), dtype=bool)
    used[soup.corners[rows.ravel()]] = True
    used[v] = True
    # faces with no common vertex have no common edge; the cells of the
    # rest are slices of the lists of all of them
    runs = [None if same else ((), ()) for same in (f == g).tolist()]
    at = vr[np.diff(vr, prepend=-1) != 0]
    bounds = (np.searchsorted(r, at, side).tolist() for r in (vr, er) for side in ("left", "right"))
    v, e = v.tolist(), soup.edges[e].tolist()
    for k, a, b, c, d in zip(two[at].tolist(), *bounds):
        runs[k] = (v[a:b], e[c:d])
    return runs, used


def _shared_cells(soup: TriangleSoup, grid, ci, cj, run):
    """Grid points and segments that two triangles, with corner ids ci and
    cj and their faces' common cells `run` (see _cell_runs), may
    legitimately have in common, or None when their source faces differ
    and share no vertex.  grid maps vertex ids to grid points."""
    if run is None:
        shared = sorted(set(ci) & set(cj))
        pts = [grid[c] for c in shared]
        segs = [(pts[s], pts[t]) for s in range(len(pts)) for t in range(s + 1, len(pts))]
        return pts, segs
    vertices, edges = run
    if not vertices:
        return None
    n = len(soup.points)
    pts = [grid[v] for v in vertices]
    segs = [(grid[u], grid[v]) for u, v in (divmod(k, n) for k in edges)]
    return pts, segs


def _beyond_allowed(kind: str, points: tuple[Hom, ...], pts, segs) -> bool:
    if kind == "coplanar-overlap":
        return True     # positive area never fits in shared vertices/edges
    # the contact points and the cells, brought to one common denominator w
    w = lcm(*(p[3] for p in points))
    points = [(x * (w // h), y * (w // h), z * (w // h)) for x, y, z, h in points]
    pts = [(x * w, y * w, z * w) for x, y, z, _ in pts]
    segs = [((s[0] * w, s[1] * w, s[2] * w), (t[0] * w, t[1] * w, t[2] * w)) for s, t in segs]
    if len(points) == 1:
        return not _point_allowed(points[0], pts, segs)
    p, q = points
    return not _segment_allowed(p, q, segs)


# ---------------------------------------------------------------------------
# reports

class PairContact(NamedTuple):
    """A contact between triangles i < j: a self-intersection of
    non-adjacent source faces, or a local overlap of adjacent ones."""

    i: int
    j: int
    kind: str


class ContactRows(Sequence):
    """A read-only sequence of PairContacts kept as one (m, 3) int64 array
    of rows (i, j, kind index into KINDS + ("transversal",)).

    It reads as the tuple of its PairContacts: indexing and iteration
    build them, a slice is a ContactRows, and it equals, and hashes like,
    any sequence of the same PairContacts."""

    __slots__ = ("rows",)
    # every contact kind, by the index a row carries: coplanar_kinds'
    # KINDS, then the one kind only the exact loop finds
    kinds = KINDS + ("transversal",)

    def __init__(self, rows) -> None:
        rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ContactRows(self.rows[k])
        i, j, kind = self.rows[index(k)].tolist()
        return PairContact(i, j, self.kinds[kind])

    def __iter__(self):
        i, j, kind = self.rows.T.tolist()
        return map(PairContact._make, zip(i, j, map(self.kinds.__getitem__, kind)))

    def __eq__(self, other) -> bool:
        if isinstance(other, ContactRows):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (str, bytes)) or not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ContactRows({tuple(self)!r})"


_KIND_INDEX = {name: k for k, name in enumerate(ContactRows.kinds)}


@dataclass(frozen=True)
class IntersectionReport:
    pairs: ContactRows
    local_overlaps: ContactRows
    n_candidates: int
    kind_census: dict[str, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # the number of pairs of each kind that occurs, in kind order
        kinds = ContactRows.kinds
        counts = np.bincount(self.pairs.rows[:, 2], minlength=len(kinds)).tolist()
        object.__setattr__(self, "kind_census",
                           {name: c for name, c in zip(kinds, counts) if c})

    @property
    def intersecting(self) -> bool:
        return bool(self.pairs)


def self_intersections(
    soup: TriangleSoup, boxes: tuple[np.ndarray, np.ndarray] | None = None
) -> IntersectionReport:
    """All contacts between triangles of non-adjacent source faces, plus
    local overlaps of adjacent ones beyond their shared cells.

    The result is a pure set function of the coordinates: pair lists are
    sorted by index.  The float pass's contacts and the exact loop's are
    rows (i, j, kind, local) of one array, split on local into two
    ContactRows.  The float pass's rows come in pair order; one lexsort on
    (i, j) merges the loop's rows, when there are any.
    """
    if boxes is None:
        boxes = build_hierarchy(soup)
    cands = candidate_pairs(boxes)
    rows, decided = _undecided_rows(soup, cands)
    runs, used = _cell_runs(soup, rows)
    # only the points the rows read go on the grid; every sign is scale-free
    grid = dict(zip(np.flatnonzero(used).tolist(), _grid(soup.points[used])[0]))
    corners = soup.corners.tolist()
    tris = {t: _triangle(*(grid[c] for c in corners[t])) for t in set(rows.ravel().tolist())}
    loop = []
    for (i, j), run in zip(rows.tolist(), runs):
        found = _contact(tris[i], tris[j])
        if found is None:
            continue
        cells = _shared_cells(soup, grid, corners[i], corners[j], run)
        if cells is None or _beyond_allowed(*found, *cells):
            loop.append((i, j, _KIND_INDEX[found[0]], cells is not None))
    merged = decided        # in pair order: blocks follow cands, compress keeps order
    if loop:
        merged = np.concatenate((decided, np.array(loop, dtype=decided.dtype)))
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
    local = merged[:, 3].astype(bool)
    return IntersectionReport(pairs=ContactRows(merged[~local, :3]),
                              local_overlaps=ContactRows(merged[local, :3]),
                              n_candidates=len(cands))


def classify_immersion(locally_embedded: bool, pairs) -> str:
    """Final verdict: embedded, immersed, or not-an-immersion.

    locally_embedded is the flatness module's vertex-link pass; pairs is
    the self-intersection list between non-adjacent faces.
    """
    if not locally_embedded:
        return "not-an-immersion"
    return "embedded" if len(pairs) == 0 else "immersed"
