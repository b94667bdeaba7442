"""Verification certificates: pipeline assembly and canonical serialization.

A certificate is a nested dict with a fixed key order covering input
identity, combinatorics, topology, geometry, immersion and the derived
verdict.  canonical_json writes it with 17-significant-digit reals and
stable formatting, so two runs over the same input and tolerances
produce byte-identical text.  One writer appends fragments to a single
list, joined once, so no nested value's text is copied into its
parent's; write_certificate writes the text's UTF-8 bytes as they are.
"""
from __future__ import annotations

import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .flatness import (DegenerateFaceError, FlatnessReport, ToleranceProfile,
                       face_geometries, flatness_report)
from .homology import boundary_matrices, classify_surface, homology_profile
from .intersect import (ContactRows, DegenerateTriangleError, PairContact, classify_immersion,
                        self_intersections, triangle_soup)
from .mesh import (CellComplex, NotManifoldError, check_closed_manifold, edge_table,
                   euler_characteristic, orientability)
from .refine import TriangulationError, triangulate_faces

TOOL_NAME = "flatcheck"
TOOL_VERSION = "0.1.0"


def canonical_json(value, indent: int = 0) -> str:
    """Serialize to JSON with insertion-order keys and '.17g' reals.

    A named tuple is written exactly as the dict of its _fields would be,
    and a ContactRows exactly as the list of its PairContacts' dicts.
    """
    out: list[str] = []
    _write(value, indent, out)
    return "".join(out)


def _write(value, indent: int, out: list[str]) -> None:
    """Append value's canonical_json text at indent to out, in fragments."""
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in certificate: {value}")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif _is_named_tuple(type(value)):
        _write(value._asdict(), indent, out)
    elif isinstance(value, (dict, list, tuple, ContactRows)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = "  " * (indent + 1), "{\n"
        for k, v in value.items():
            out += (sep, inner, encode_basestring_ascii(str(k)), ": ")
            _write(v, indent + 1, out)
            sep = ",\n"
        out += ("\n", "  " * indent, "}")
    elif isinstance(value, (list, tuple, ContactRows)):
        out.append("[\n")
        if isinstance(value, ContactRows):
            _contact_lines(value, indent + 1, out)
        else:
            inner, sep = "  " * (indent + 1), ""
            for v in value:
                out += (sep, inner)
                _write(v, indent + 1, out)
                sep = ",\n"
        out += ("\n", "  " * indent, "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} in certificate")


def _is_named_tuple(t: type) -> bool:
    return issubclass(t, tuple) and bool(getattr(t, "_fields", ()))


def _contact_lines(contacts: ContactRows, indent: int, out: list[str]) -> None:
    """Append to out the lines of contacts' rows, joined by ",\n", each
    written as the dict of a PairContact's fields at the given indent:
    one (m, 6) object array of a separator, the row head, i, the "j" key,
    j and the tail that holds the kind, with each distinct index written
    once."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    i, j, kind = (f"{inner}{encode_basestring_ascii(f)}: " for f in PairContact._fields)
    tails = np.array([f",\n{kind}{canonical_json(name)}\n{pad}}}" for name in ContactRows.kinds],
                     dtype=object)
    rows = contacts.rows
    # return_inverse also keeps np.unique from importing numpy.ma
    values, slots = np.unique(rows[:, :2].ravel(), return_inverse=True)
    pieces = np.empty((len(rows), 6), dtype=object)
    pieces[:] = np.array([",\n", f"{pad}{{\n{i}", None, f",\n{j}", None, None], dtype=object)
    pieces[0, 0] = ""
    pieces[:, [2, 4]] = np.array(list(map(str, values.tolist())), dtype=object)[slots.reshape(-1, 2)]
    pieces[:, 5] = tails[rows[:, 2]]
    out += pieces.ravel().tolist()


def _geometry_section(report: FlatnessReport) -> dict:
    return {
        "all_faces_planar": report.all_faces_planar,
        "max_planarity_deviation": report.max_rel_deviation,
        "nonplanar_faces": np.flatnonzero(~report.planar).tolist(),
        "nonsimple_faces": np.flatnonzero(~report.simple).tolist(),
        "all_defects_zero": report.all_defects_zero,
        "max_abs_defect": report.max_abs_defect,
        "nonflat_vertices": np.flatnonzero(~report.flat_vertices).tolist(),
        "all_links_embedded": report.all_links_embedded,
        "link_failures": [lv.vertex for lv in report.links],
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

    The stages get the raw coordinates.  Each stage that does float
    arithmetic on them scales what it reads by predicates.unit_exponent's
    power of two, and the exact stages are scale-free, so a mesh scaled
    by a power of two gets the same certificate.
    """
    tol = tolerances or ToleranceProfile()
    census = complex.face_degree_census()
    try:
        mesh = check_closed_manifold(complex)
        n_edges = mesh.n_edges
        defects = []
    except NotManifoldError as exc:
        mesh = None
        n_edges = len(edge_table(complex).ends)
        defects = [
            {"kind": d.kind, "location": list(d.location), "detail": d.detail}
            for d in exc.defects
        ]

    cert: dict = {
        "tool": {
            "name": TOOL_NAME,
            "version": TOOL_VERSION,
            "tolerances": asdict(tol),
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
        census = rep.kind_census
        immersion["kind_census"] = {k: census[k] for k in sorted(census)}
        # ContactRows, which canonical_json writes as {"i", "j", "kind"} each
        immersion["pairs"] = rep.pairs
        immersion["local_overlaps"] = rep.local_overlaps
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
    out: list[str] = []
    _write(cert, 0, out)
    out.append("\n")
    return "".join(out)


def write_certificate(cert: dict, path: str | Path) -> None:
    """Write certificate_text's UTF-8 bytes, with no newline translation."""
    Path(path).write_bytes(certificate_text(cert).encode("utf-8"))
