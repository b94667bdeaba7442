"""Verification certificates: pipeline assembly and canonical serialization.

A certificate is a nested dict with a fixed key order covering input
identity, combinatorics, topology, geometry, immersion and the derived
verdict.  canonical_json writes it with 17-significant-digit reals and
stable formatting, so two runs over the same input and tolerances
produce byte-identical text.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .flatness import (DegenerateFaceError, FlatnessReport, ToleranceProfile,
                       face_geometries, flatness_report)
from .homology import boundary_matrices, classify_surface, homology_profile
from .intersect import (DegenerateTriangleError, classify_immersion, self_intersections,
                        triangle_soup)
from .mesh import (CellComplex, NotManifoldError, check_closed_manifold, edge_census,
                   euler_characteristic, orientability)
from .refine import TriangulationError, triangulate_faces

TOOL_NAME = "flatcheck"
TOOL_VERSION = "0.1.0"


def canonical_json(value, indent: int = 0) -> str:
    """Serialize to JSON with insertion-order keys and '.17g' reals."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in certificate: {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__} in certificate")


def _geometry_section(report: FlatnessReport) -> dict:
    link_failures = [lv.vertex for lv in report.links if not lv.embedded]
    nonplanar = [f.face for f in report.faces if not f.planar]
    nonsimple = [f.face for f in report.faces if not f.simple_in_plane]
    nonflat = [v.vertex for v in report.vertices if not v.flat]
    return {
        "all_faces_planar": report.all_faces_planar,
        "max_planarity_deviation": report.max_rel_deviation,
        "nonplanar_faces": nonplanar,
        "nonsimple_faces": nonsimple,
        "all_defects_zero": report.all_defects_zero,
        "max_abs_defect": report.max_abs_defect,
        "nonflat_vertices": nonflat,
        "all_links_embedded": report.all_links_embedded,
        "link_failures": link_failures,
        "gauss_bonnet": {
            "defect_total": report.defect_total,
            "reference": report.gauss_bonnet_reference,
            "residual": report.gauss_bonnet_residual,
        },
    }


def build_certificate(
    complex: CellComplex,
    tolerances: ToleranceProfile | None = None,
    sources=(),
) -> dict:
    """Run the whole verification pipeline and collect one certificate.

    Non-manifold input still yields a certificate: the combinatorics
    section carries the defects and the dependent sections are null.

    The pipeline runs on complex.unit_scaled().  Every float in the
    certificate is dimensionless, so a mesh scaled by a power of two gets
    the same certificate.  Stage functions called directly still see raw
    coordinates.
    """
    tol = tolerances or ToleranceProfile()
    complex, _ = complex.unit_scaled()
    census = complex.face_degree_census()
    try:
        mesh = check_closed_manifold(complex)
        n_edges = mesh.n_edges
        defects = []
    except NotManifoldError as exc:
        mesh = None
        n_edges = len(edge_census(complex))
        defects = [
            {"kind": d.kind, "location": list(d.location), "detail": d.detail}
            for d in exc.defects
        ]

    cert: dict = {
        "tool": {
            "name": TOOL_NAME,
            "version": TOOL_VERSION,
            "tolerances": {
                "planarity_tol": tol.planarity_tol,
                "defect_tol": tol.defect_tol,
                "link_tol": tol.link_tol,
            },
        },
        "input": {
            "sources": [{"path": p, "sha256": h} for p, h in sources],
            "n_vertices": complex.n_vertices,
            "n_edges": n_edges,
            "n_faces": complex.n_faces,
            "face_degree_census": {str(k): census[k] for k in sorted(census)},
        },
    }

    if mesh is None:
        cert["combinatorics"] = {
            "closed_manifold": False,
            "defects": defects,
            "components": None,
            "euler_characteristic": None,
            "orientable": None,
        }
        cert["topology"] = None
        cert["geometry"] = None
        cert["immersion"] = None
        cert["verdict"] = {
            "closed_manifold": False,
            "connected": None,
            "surface": None,
            "flat": None,
            "locally_embedded": None,
            "immersion": None,
            "self_intersecting": None,
            "pass": False,
        }
        return cert

    chi = euler_characteristic(mesh)
    orient = orientability(mesh)
    components = len(orient.per_component)
    cert["combinatorics"] = {
        "closed_manifold": True,
        "defects": [],
        "components": components,
        "euler_characteristic": chi,
        "orientable": orient.orientable,
        "orientable_per_component": list(orient.per_component),
    }

    profile = homology_profile(boundary_matrices(mesh))
    surface = classify_surface(profile, chi, orient.orientable)
    cert["topology"] = {
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
        "homology": [profile.describe(k) for k in range(3)],
        "classification": {
            "name": surface.name,
            "orientable": surface.orientable,
            "genus": surface.genus,
            "consistent": surface.consistent,
            "problems": list(surface.problems),
        },
    }

    # one face table for both geometric stages
    face_table = face_geometries(complex)
    try:
        geo = flatness_report(mesh, tol, face_table)
    except DegenerateFaceError as exc:
        # a collinear face or a zero-length edge leaves no plane or no
        # angles, hence no defects; the certificate records the failure
        # instead of crashing
        cert["geometry"] = {"error": str(exc)}
        flat = False
        locally_embedded = False
    else:
        cert["geometry"] = _geometry_section(geo)
        flat = geo.flat
        locally_embedded = geo.all_links_embedded

    immersion: dict = {"triangles": None, "triangulation_fallbacks": None}
    try:
        refinement = triangulate_faces(complex, tol, face_table)
        immersion["triangles"] = refinement.derived.n_faces
        immersion["triangulation_fallbacks"] = [
            {"face": r.face, "reason": r.reason} for r in refinement.fallbacks
        ]
        soup = triangle_soup(refinement)
    except (TriangulationError, DegenerateTriangleError) as exc:
        # two faces yielding one triangle, or a zero-area triangle, leave
        # no soup to test; the certificate records the failure instead
        immersion["error"] = str(exc)
        immersion["pairs"] = None
        immersion["local_overlaps"] = None
        immersion["classification"] = None
        classification = None
        self_intersecting = None
    else:
        rep = self_intersections(soup)
        classification = classify_immersion(locally_embedded, rep.pairs)
        self_intersecting = rep.intersecting
        immersion["pair_count"] = len(rep.pairs)
        immersion["local_overlap_count"] = len(rep.local_overlaps)
        immersion["kind_census"] = {
            k: rep.kind_census[k] for k in sorted(rep.kind_census)
        }
        immersion["pairs"] = [
            {"i": pc.i, "j": pc.j, "kind": pc.kind} for pc in rep.pairs
        ]
        immersion["local_overlaps"] = [
            {"i": ov.i, "j": ov.j, "kind": ov.kind} for ov in rep.local_overlaps
        ]
        immersion["classification"] = classification
    cert["immersion"] = immersion

    cert["verdict"] = {
        "closed_manifold": True,
        "connected": components == 1,
        "surface": surface.name,
        "flat": flat,
        "locally_embedded": locally_embedded,
        "immersion": classification,
        "self_intersecting": self_intersecting,
        "pass": bool(flat and locally_embedded),
    }
    return cert


def certificate_text(cert: dict) -> str:
    return canonical_json(cert) + "\n"


def write_certificate(cert: dict, path: str | Path) -> None:
    Path(path).write_text(certificate_text(cert), encoding="utf-8")
