"""Integral cellular homology of a closed polygonal surface.

Boundary matrices are built over Z with a fixed orientation convention
(edges run from lower to higher vertex index, faces as listed) and kept
as COO arrays: d2 has one (face, edge, +-1) entry per half-edge, read off
the half-edge mesh's edge table, and d1 two entries per edge.  The
constructor checks d2 d1 = 0 side by side: for the side of face f along
edge e with d2 entry s, s times d1's row of e must be +1 at the side's
head (the vertex of the next corner of f) and -1 at its tail, with no
other entry.  Row f of d2 d1 then sums head minus tail around the cycle
of f's corners, which is 0.  Betti numbers come from the ranks of d1 and
d2, torsion from their invariant factors.

Homology is computed for closed manifolds only: a bare CellComplex goes
through check_closed_manifold first, whose NotManifoldError names every
boundary or over-used edge and every isolated or pinched vertex, the
defects the certificate records.  On a closed manifold both matrices are
incidence matrices of signed graphs: every column of d1 (read as
vertices by edges) and of d2 (faces by edges) holds two entries, each
+-1.  Their Smith normal form then comes from the components of the graph
and their balance (Zaslavsky, "Signed graphs", 1982; the tree-cotree idea
of Eppstein, 2003).  Within one component of n_C rows the columns of a
spanning tree give n_C - 1 unit pivots, and after those eliminations one
row is left: 0 on a balanced non-tree column, +-2 on an unbalanced one.
The component therefore adds n_C - 1 factors of 1, then a 2 if it has an
unbalanced cycle.  A Klein bottle's Z/2 is its one unbalanced dual cycle.

Both forms come from one labelling, kept as the mesh's dual_components:
one flag per component, whether it is unbalanced, which orientability
reads too.  With c components, u of them unbalanced, d2 has F - c
factors of 1, then u of 2.  The vertex graph of d1 has the same
components as the dual graph, since no vertex is isolated and every
vertex star is one cycle of faces that meet across edges, and it is
balanced, so d1 has V - c factors of 1.  The dense Smith form lives in
the test suite, as the referee of these forms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CellComplex, HalfEdgeMesh, check_closed_manifold, next_corners

Coo = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class BoundaryMatrices:
    """Signed incidence matrices of a closed 2-manifold, as COO arrays.

    d1 has one row per edge over the vertex columns (boundary of the
    oriented 1-cells); d2 has one row per face over the edge columns.
    Each is a (row, column, entry) triple of equal-length integer arrays,
    one item per nonzero entry.  With chains as row vectors the boundary
    of a boundary being empty reads d2 @ d1 == 0, which boundary_matrices
    verifies.  dual holds, per component of the signed dual graph,
    whether it is unbalanced (the mesh's dual_components), from which
    homology_profile reads both ranks and the torsion.
    """

    d1: Coo
    d2: Coo
    edges: np.ndarray      # (n_edges, 2): row order of d1 / column order of d2
    n_vertices: int
    n_faces: int
    dual: np.ndarray       # bool, one flag per component

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def boundary_matrices(mesh: HalfEdgeMesh | CellComplex) -> BoundaryMatrices:
    """Build d1 and d2 for a closed 2-manifold.

    Each edge is oriented from its lower to its higher vertex index; each
    face is traversed in its listed direction, contributing +1 where it
    runs along an edge's orientation and -1 where it runs against it.
    The mesh supplies its edge table and its dual_components.  A bare
    CellComplex goes through check_closed_manifold first, so an open or
    non-manifold complex raises its NotManifoldError.  Raises
    AssertionError when some side fails the module docstring's check of
    d2 d1 = 0.
    """
    if not isinstance(mesh, HalfEdgeMesh):
        mesh = check_closed_manifold(mesh)
    complex, ends, origin, edge_of = mesh.complex, mesh.edge_ends, mesh.origin, mesh.edge_of
    head = origin[next_corners(complex.offsets)]
    n_edges = len(ends)
    lo, hi = ends[edge_of].T
    forward = origin == lo
    d1 = (np.repeat(np.arange(n_edges), 2), ends.ravel(), np.tile(np.array([-1, 1]), n_edges))
    d2 = (mesh.face_of, edge_of, np.where(forward, 1, -1))
    # s * d1[e] is +1 at hi and -1 at lo where s = 1, the reverse where s = -1;
    # head and tail must be those two vertices
    if not np.where(forward, hi == head, (hi == origin) & (lo == head)).all():
        raise AssertionError("boundary of a boundary is nonzero; incidence build is broken")
    return BoundaryMatrices(d1=d1, d2=d2, edges=ends, n_vertices=complex.n_vertices,
                            n_faces=complex.n_faces, dual=mesh.dual_components)


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
    """Integral homology from the boundary matrices of a closed manifold.

    b_k = (#k-cells) - rank d_k - rank d_{k+1}, with d_0 and d_3 zero;
    the torsion of H_k is carried by the invariant factors of d_{k+1}.
    Both ranks and the torsion are read off b's dual flags by the module
    docstring's lemma: with c components, u of them unbalanced,
    rank d1 = V - c, rank d2 = F - c + u, and H1's torsion is u twos.
    """
    n_components, n_twisted = b.dual.size, int(np.count_nonzero(b.dual))
    r1, r2 = b.n_vertices - n_components, b.n_faces - n_components + n_twisted
    betti = (
        b.n_vertices - r1,
        b.n_edges - r1 - r2,
        b.n_faces - r2,
    )
    if min(betti) < 0:
        raise AssertionError(f"negative Betti number {betti}; rank bookkeeping is broken")
    return HomologyProfile(betti=betti, torsion=((), (2,) * n_twisted, ()))


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
