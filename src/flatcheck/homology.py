"""Integral cellular homology of a polygonal complex.

Boundary matrices are built over Z with a fixed orientation convention
(edges run from lower to higher vertex index, faces as listed) and kept
as sparse rows.  Betti numbers come from the ranks of d1 and d2, torsion
from their invariant factors.

On a surface both matrices are incidence matrices of signed graphs:
every column of d1 (read as vertices by edges) and of d2 (faces by
edges) holds at most two entries, each +-1.  Their Smith normal form
then comes from one union-find pass over a spanning forest with a
parity bit per node (Zaslavsky, "Signed graphs", 1982; the tree-cotree
idea of Eppstein, 2003).  Within one component of n_C rows the forest's
columns give n_C - 1 unit pivots, and after those eliminations one row
is left: 0 on a balanced non-tree column, +-2 on an unbalanced one and
+-1 on a single-entry (boundary) column.  The component therefore adds
n_C - 1 factors of 1, then one more 1 if it has a boundary column, else
a 2 if it has an unbalanced cycle, else nothing.  A Klein bottle's Z/2
is its one unbalanced dual cycle.

Any other matrix, such as d2 of a complex with an edge in three faces,
takes the exact dense Smith normal form over Python's arbitrary-precision
integers.  The pipeline computes homology only of closed manifolds, whose
matrices are always signed graphs', so it never sends one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .mesh import CellComplex, HalfEdgeMesh, edge_census


@dataclass(frozen=True)
class BoundaryMatrices:
    """Signed incidence matrices of a 2-complex, as sparse rows.

    d1 has one row per edge over the vertex columns (boundary of the
    oriented 1-cells); d2 has one row per face over the edge columns.
    Each row maps a column to its nonzero entry.  With chains as row
    vectors the boundary of a boundary being empty reads d2 @ d1 == 0,
    which the constructor path verifies face by face.
    """

    d1: tuple[dict[int, int], ...]
    d2: tuple[dict[int, int], ...]
    edges: tuple[tuple[int, int], ...]   # row order of d1 / column order of d2
    n_vertices: int

    @property
    def n_edges(self) -> int:
        return len(self.d1)

    @property
    def n_faces(self) -> int:
        return len(self.d2)


def boundary_matrices(mesh: HalfEdgeMesh | CellComplex) -> BoundaryMatrices:
    """Build d1 and d2 for a complex (open complexes are accepted).

    Each edge is oriented from its lower to its higher vertex index; each
    face is traversed in its listed direction, contributing +1 where it
    runs along an edge's orientation and -1 where it runs against it.
    A half-edge mesh supplies its sorted edge list; a bare complex gets
    one from its edge census.
    """
    if isinstance(mesh, HalfEdgeMesh):
        complex, edges = mesh.complex, mesh.edges
    else:
        complex, edges = mesh, tuple(sorted(edge_census(mesh)))
    edge_row = {e: r for r, e in enumerate(edges)}
    d1 = tuple({u: -1, v: 1} for u, v in edges)

    d2: list[dict[int, int]] = []
    for face in complex.faces:
        row: dict[int, int] = {}
        for u, v in zip(face, face[1:] + face[:1]):
            if u < v:
                row[edge_row[(u, v)]] = 1
            else:
                row[edge_row[(v, u)]] = -1
        # the boundary of this face's boundary, summed over its edges
        acc: dict[int, int] = {}
        for r, s in row.items():
            for vtx, a in d1[r].items():
                acc[vtx] = acc.get(vtx, 0) + s * a
        if any(acc.values()):
            raise AssertionError("boundary of a boundary is nonzero; incidence build is broken")
        d2.append(row)
    return BoundaryMatrices(d1=d1, d2=tuple(d2), edges=edges, n_vertices=complex.n_vertices)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithNormalForm:
    """Invariant factors d1 | d2 | ... | dr and the rank r."""

    invariant_factors: tuple[int, ...]
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors larger than one, i.e. the torsion coefficients."""
        return tuple(d for d in self.invariant_factors if d > 1)


def _find_pivot(rows: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    """Nonzero entry of minimum absolute value in the trailing submatrix.

    Scanning favors +-1 pivots, which keep intermediate entries small;
    the fallback to exact big integers makes overflow impossible either way.
    """
    best = None
    best_abs = 0
    for i in range(t, m):
        row = rows[i]
        for j in range(t, n):
            a = row[j]
            if a:
                a = -a if a < 0 else a
                if a == 1:
                    return (i, j)
                if best is None or a < best_abs:
                    best, best_abs = (i, j), a
    return best


def smith_normal_form(matrix) -> SmithNormalForm:
    """Exact Smith normal form of an integer matrix.

    Works over Python integers (arbitrary precision), so large intermediate
    values cannot overflow.  Row and column operations are the standard
    Euclidean reduction with min-|entry| pivoting; the diagonal is then
    normalized into a divisibility chain with pairwise gcd/lcm exchanges,
    which elementary operations realize on 2x2 blocks.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    m, n = a.shape
    rows: list[list[int]] = [[int(v) for v in a[i]] for i in range(m)]

    diag: list[int] = []
    t = 0
    while t < min(m, n):
        piv = _find_pivot(rows, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            rows[pi], rows[t] = rows[t], rows[pi]
        if pj != t:
            for r in rows:
                r[pj], r[t] = r[t], r[pj]
        while True:
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
            p = rows[t][t]
            restart = False
            for i in range(t + 1, m):
                x = rows[i][t]
                if x:
                    q = x // p
                    if q:
                        rt = rows[t]
                        rows[i] = [xi - q * yi for xi, yi in zip(rows[i], rt)]
                    if rows[i][t]:
                        # Remainder is strictly smaller than the pivot: promote it.
                        rows[i], rows[t] = rows[t], rows[i]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                x = rows[t][j]
                if x:
                    q = x // p
                    if q:
                        for r in rows:
                            r[j] -= q * r[t]
                    if rows[t][j]:
                        for r in rows:
                            r[j], r[t] = r[t], r[j]
                        restart = True
                        break
            if not restart:
                break
        diag.append(rows[t][t])
        t += 1

    # Normalize into the divisibility chain d1 | d2 | ... | dr.
    factors = [abs(d) for d in diag]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a_, b_ = factors[i], factors[i + 1]
            if b_ % a_:
                g = gcd(a_, b_)
                factors[i], factors[i + 1] = g, a_ * b_ // g
                changed = True
    return SmithNormalForm(invariant_factors=tuple(factors), rank=len(factors))


def _forest_smith(n_rows: int,
                  columns: Iterable[Collection[tuple[int, int]]]) -> SmithNormalForm | None:
    """Smith normal form of a signed-graph incidence matrix, or None.

    The matrix has n_rows rows; each column lists its (row, entry) pairs.
    A column with two entries joins two nodes, and is balanced when the
    nodes' signs make its entries cancel: entries of opposite sign ask
    for equal node signs, equal entries for opposite ones.  A union-find
    (union by size, path halving) keeps each node's sign relative to its
    parent as a parity bit, so a column inside one tree closes a cycle
    that is unbalanced exactly when the parities disagree with it.  By
    the lemma in the module docstring every join is a factor 1, and each
    component then adds a 1 if it has a single-entry column, else a 2 if
    it has an unbalanced cycle.  Returns None when some column has more
    than two entries or an entry other than +-1.
    """
    parent = list(range(n_rows))
    size = [1] * n_rows
    flip = [0] * n_rows   # parity of a node's sign against its parent's
    odd: list[int] = []   # a node on each unbalanced cycle
    ends: list[int] = []  # the node of each single-entry column

    def root(x: int) -> tuple[int, int]:
        p = 0
        while parent[x] != x:
            up = parent[x]
            flip[x] ^= flip[up]
            parent[x] = top = parent[up]
            p ^= flip[x]
            x = top
        return x, p

    joins = 0
    for col in columns:
        if len(col) == 2:
            (i, a), (j, b) = col
            if (a != 1 and a != -1) or (b != 1 and b != -1):
                return None
            ri, pi = root(i)
            rj, pj = root(j)
            want = a == b
            if ri == rj:
                if pi ^ pj != want:
                    odd.append(ri)
                continue
            if size[ri] < size[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            size[ri] += size[rj]
            flip[rj] = pi ^ pj ^ want
            joins += 1
        elif len(col) == 1:
            (i, a), = col
            if a != 1 and a != -1:
                return None
            ends.append(i)
        elif col:
            return None
    bounded = {root(i)[0] for i in ends}
    twisted = {root(i)[0] for i in odd} - bounded
    return SmithNormalForm(invariant_factors=(1,) * (joins + len(bounded)) + (2,) * len(twisted),
                           rank=joins + len(bounded) + len(twisted))


def _columns(rows: Sequence[Mapping[int, int]], n_cols: int) -> list[tuple[tuple[int, int], ...]]:
    """The columns of a matrix given as sparse rows, as (row, entry) pairs."""
    cols: list[tuple[tuple[int, int], ...]] = [()] * n_cols
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j] += ((i, a),)
    return cols


def _dense(rows: Sequence[Mapping[int, int]], n_cols: int) -> np.ndarray:
    """Object-dtype dense matrix of sparse rows (column -> entry maps)."""
    out = np.zeros((len(rows), n_cols), dtype=object)
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[i, j] = a
    return out


# ---------------------------------------------------------------------------
# Homology profile and surface classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients of H0, H1, H2."""

    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def describe(self, k: int) -> str:
        """Human-readable form of H_k, e.g. 'Z + Z/2'."""
        parts = ["Z"] * self.betti[k] + [f"Z/{d}" for d in self.torsion[k]]
        return " + ".join(parts) if parts else "0"


def homology_profile(b: BoundaryMatrices) -> HomologyProfile:
    """Integral homology from the boundary matrices.

    b_k = (#k-cells) - rank d_k - rank d_{k+1}, with d_0 and d_3 zero;
    the torsion of H_k is carried by the invariant factors of d_{k+1}.
    Each Smith form comes from the spanning-forest pass of the module
    docstring: d1 with the vertices as nodes and each edge's row as a
    column, d2 with the faces as nodes and each edge's column.  Every
    component of d2's dual graph adds one more invariant factor, 1 if it
    has a boundary edge, else 2 if it has an orientation-reversing cycle.
    A matrix that is not a signed graph's (an edge in three faces, an
    entry other than +-1) takes the dense smith_normal_form instead; the
    pipeline's closed manifolds never send one.
    """
    snf1 = (_forest_smith(b.n_vertices, (row.items() for row in b.d1))
            or smith_normal_form(_dense(b.d1, b.n_vertices)))
    snf2 = (_forest_smith(b.n_faces, _columns(b.d2, b.n_edges))
            or smith_normal_form(_dense(b.d2, b.n_edges)))
    r1, r2 = snf1.rank, snf2.rank
    betti = (
        b.n_vertices - r1,
        b.n_edges - r1 - r2,
        b.n_faces - r2,
    )
    if min(betti) < 0:
        raise AssertionError(f"negative Betti number {betti}; rank bookkeeping is broken")
    return HomologyProfile(betti=betti, torsion=(snf1.torsion, snf2.torsion, ()))


@dataclass(frozen=True)
class SurfaceClass:
    """Homeomorphism type of a closed connected surface, with cross-checks.

    name is e.g. "sphere", "torus", "Klein bottle", "orientable surface of
    genus 2", "nonorientable surface of genus 3".  genus is the orientable
    genus or the crosscap number.  consistent is False when the Euler
    characteristic, orientability flag and homology profile do not describe
    the same surface; problems then lists every disagreement.
    """

    name: str
    orientable: bool
    genus: int
    consistent: bool
    problems: tuple[str, ...] = ()


def classify_surface(profile: HomologyProfile, chi: int, orientable: bool) -> SurfaceClass:
    """Name the surface from (orientability, chi) and cross-check homology.

    For a closed connected surface the expected profile is
    H = (Z, Z^2g, Z) in the orientable case (chi = 2 - 2g) and
    (Z, Z^(k-1) + Z/2, 0) in the nonorientable case (chi = 2 - k).
    Any mismatch is reported rather than silently accepted.
    """
    problems: list[str] = []
    b0, b1, b2 = profile.betti
    if b0 != 1:
        problems.append(f"b0 = {b0}, expected 1 for a connected surface")
    if profile.betti[0] - profile.betti[1] + profile.betti[2] != chi:
        problems.append(
            f"b0 - b1 + b2 = {b0 - b1 + b2} disagrees with Euler characteristic {chi}"
        )
    if profile.torsion[0]:
        problems.append(f"H0 has torsion {profile.torsion[0]}")

    if orientable:
        if chi % 2:
            problems.append(f"orientable surface cannot have odd chi = {chi}")
        genus = (2 - chi) // 2
        if genus < 0:
            problems.append(f"chi = {chi} exceeds 2")
            genus = 0
        if b1 != 2 * genus:
            problems.append(f"b1 = {b1}, expected {2 * genus} for orientable genus {genus}")
        if b2 != 1:
            problems.append(f"b2 = {b2}, expected 1 for a closed orientable surface")
        if profile.torsion[1]:
            problems.append(f"H1 torsion {profile.torsion[1]}, expected none when orientable")
        if genus == 0:
            name = "sphere"
        elif genus == 1:
            name = "torus"
        else:
            name = f"orientable surface of genus {genus}"
    else:
        genus = 2 - chi   # crosscap number
        if genus < 1:
            problems.append(f"chi = {chi} is impossible for a closed nonorientable surface")
            genus = max(genus, 1)
        if b1 != genus - 1:
            problems.append(f"b1 = {b1}, expected {genus - 1} for nonorientable genus {genus}")
        if b2 != 0:
            problems.append(f"b2 = {b2}, expected 0 for a closed nonorientable surface")
        if profile.torsion[1] != (2,):
            problems.append(f"H1 torsion {profile.torsion[1]}, expected (2,)")
        if genus == 1:
            name = "projective plane"
        elif genus == 2:
            name = "Klein bottle"
        else:
            name = f"nonorientable surface of genus {genus}"

    if problems:
        return SurfaceClass(
            name="inconsistent",
            orientable=orientable,
            genus=genus,
            consistent=False,
            problems=tuple(problems),
        )
    return SurfaceClass(name=name, orientable=orientable, genus=genus, consistent=True)
