"""The package's public surface, pinned name by name, and the shapes of
its documented records, field by field."""

from __future__ import annotations

from dataclasses import fields

import flatcheck
from flatcheck import flatness

# Every name `from flatcheck import *` binds, sorted.  __all__ is an
# explicit list, so the package's submodules stay out of a star import.
# Adding or removing a public name means editing this tuple.
PUBLIC_NAMES = (
    "BoundaryMatrices", "CellComplex", "Contact", "ContactRows", "DegenerateFaceError",
    "DegenerateTriangleError", "FallbackRecord", "FlatnessReport", "FormatError",
    "GeneratorError", "GeneratorSpec", "HalfEdgeMesh", "HomologyProfile", "IntersectionReport",
    "InvalidComplexError", "LinkVerdict", "LoadedMesh", "ManifoldDefect", "MeshError",
    "NotManifoldError", "OrientabilityReport", "PairContact", "Refinement", "SphericalLink",
    "SurfaceClass", "TOOL_VERSION", "ToleranceProfile", "TriangleSoup", "TriangulationError",
    "barycentric_subdivision", "boundary_matrices", "build_certificate", "build_complex",
    "build_hierarchy", "candidate_pairs", "canonical_json", "certificate_text",
    "check_closed_manifold", "classify_immersion", "classify_surface", "connected_components",
    "edge_census", "euler_characteristic", "flatness_report", "generate", "homology_profile",
    "link_is_embedded", "orientability", "read_mesh", "read_obj", "read_off", "read_pair",
    "self_intersections", "standard_corpus", "triangle_contact", "triangle_soup",
    "triangulate_faces", "write_certificate", "write_mesh", "write_obj", "write_off",
    "write_pair",
)

def test_public_names_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(flatcheck.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_submodule():
    """A star import binds the public names only: no submodule such as
    mesh or refine lands over a caller's own names."""
    namespace: dict = {}
    exec("from flatcheck import *", namespace)
    namespace.pop("__builtins__")
    assert tuple(sorted(namespace)) == PUBLIC_NAMES


# The field names, in order, of the records the README documents.
# Changing a record's shape means editing this dict.
RECORD_FIELDS = {
    flatcheck.CellComplex: ("vertices", "corners", "offsets"),
    flatcheck.Refinement: ("source", "derived", "triangle_sources", "fallbacks"),
    flatcheck.TriangleSoup: ("coords", "corners", "source_face", "points", "edge_cells",
                             "face_vertices", "edges", "face_edges"),
    flatness.FaceTable: ("rel_deviation", "simple", "orientation", "basis", "angles", "turns",
                         "points2d", "degenerate"),
    flatness.LinkArc: ("start", "end", "axis", "length"),
    flatcheck.SphericalLink: ("vertex", "directions", "arcs"),
    flatcheck.FlatnessReport: ("rel_deviation", "simple", "defects", "links", "defect_total",
                               "gauss_bonnet_reference", "gauss_bonnet_residual",
                               "tolerances"),
    flatcheck.IntersectionReport: ("pairs", "local_overlaps", "n_candidates", "kind_census"),
    flatcheck.PairContact: ("i", "j", "kind"),
}


def test_record_fields_pinned():
    for record, names in RECORD_FIELDS.items():
        got = getattr(record, "_fields", None) or tuple(f.name for f in fields(record))
        assert got == names, record.__name__
