"""Workload meshes and the seeded symmetries applied to them.

Every mesh comes from a flatcheck generator or from quad_torus below.
The workload seed only relabels and re-embeds a mesh by exact
symmetries (vertex relabelling, face shuffling, cyclic rotation of each
face, axis permutation with sign flips), so every expected answer is
independent of the seed while the order in which the pipeline meets
vertices, edges and faces changes with it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from flatcheck import CellComplex, barycentric_subdivision, build_complex, write_off
from flatcheck.corpus import folded_flat_torus, grid_klein, grid_torus, icosahedron


def quad_torus(m: int, n: int) -> CellComplex:
    """m x n quad grid on the round torus, on grid_torus's vertices.

    Each quad spans two parallel chords of two latitude circles, so it is
    a planar isosceles trapezoid; the mesh is embedded, and triangulating
    it exercises the k > 3 plane fits and ear clipping.
    """
    faces = [
        (j * m + i, j * m + (i + 1) % m, ((j + 1) % n) * m + (i + 1) % m, ((j + 1) % n) * m + i)
        for j in range(n) for i in range(m)
    ]
    return build_complex(grid_torus((m, n)).vertices, faces)


def subdivided_icosahedron() -> CellComplex:
    return barycentric_subdivision(icosahedron()).derived


@dataclass(frozen=True)
class Workload:
    op: str                                            # "topology" or "check"
    meshes: tuple[tuple[str, Callable[[], CellComplex]], ...]
    largest: str                                       # mesh timed for largest_verdict_ref


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    "topology": Workload("topology", (
        ("grid_torus_16x16", lambda: grid_torus((16, 16))),
        ("grid_torus_24x24", lambda: grid_torus((24, 24))),
        ("grid_klein_16x16", lambda: grid_klein((16, 16))),
        ("grid_klein_20x20", lambda: grid_klein((20, 20))),
    ), largest="grid_torus_24x24"),
    "check_embedded": Workload("check", (
        ("grid_torus_12x12", lambda: grid_torus((12, 12))),
        ("quad_torus_16x16", lambda: quad_torus(16, 16)),
        ("icosahedron_bary1", subdivided_icosahedron),
    ), largest="quad_torus_16x16"),
    "check_contacts": Workload("check", (
        ("folded_flat_torus_12x12_2", lambda: folded_flat_torus(12, 12, 2)),
        ("grid_klein_8x8", lambda: grid_klein((8, 8))),
    ), largest="folded_flat_torus_12x12_2"),
}


def transformed(complex: CellComplex, rng: random.Random) -> CellComplex:
    """The same surface after a random exact symmetry drawn from rng."""
    nv = complex.n_vertices
    relabel = list(range(nv))
    rng.shuffle(relabel)
    vertices = np.empty_like(complex.vertices)
    vertices[relabel] = complex.vertices
    axes = list(range(3))
    rng.shuffle(axes)
    signs = np.array([rng.choice((-1.0, 1.0)) for _ in range(3)])
    vertices = vertices[:, axes] * signs
    faces = []
    for face in complex.faces:
        k = rng.randrange(len(face))
        faces.append(tuple(relabel[v] for v in face[k:] + face[:k]))
    rng.shuffle(faces)
    return build_complex(vertices, faces)


class Input(NamedTuple):
    mesh: str          # key in expected.json
    path: Path
    faces: int
    variant: int       # 0 is the untransformed mesh


def write_inputs(workload: Workload, seed: int, variants: int, out_dir: Path) -> list[Input]:
    """Write `variants` OFF files per mesh of a workload, mesh by mesh.

    Variant 0 is the mesh as generated, so its certificate is the same
    for every seed; variant k > 0 is the symmetry drawn from (seed, mesh, k).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for name, build in workload.meshes:
        base = build()
        for k in range(variants):
            mesh = transformed(base, random.Random(f"{seed}:{name}:{k}")) if k else base
            path = out_dir / f"{name}.v{k}.off"
            write_off(mesh, path)
            inputs.append(Input(name, path, mesh.n_faces, k))
    return inputs
