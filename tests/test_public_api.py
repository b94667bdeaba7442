"""The package's public surface, pinned name by name."""

from __future__ import annotations

import flatcheck

# Every name `from flatcheck import *` binds, sorted.  __all__ is built
# from dir(), so the package's submodules appear too.  Adding or removing
# a public name means editing this tuple.
PUBLIC_NAMES = (
    "BoundaryMatrices", "CellComplex", "Contact", "DegenerateFaceError",
    "DegenerateTriangleError", "EdgeMidpoint", "FaceCentroid", "FallbackRecord",
    "FlatnessReport", "FormatError", "GeneratorError", "GeneratorSpec", "HalfEdgeMesh",
    "HomologyProfile", "IntersectionReport", "InvalidComplexError", "LinkVerdict",
    "LoadedMesh", "ManifoldDefect", "MeshError", "NotManifoldError", "OrientabilityReport",
    "PairContact", "PlaneFit", "Refinement", "SmithNormalForm", "SourceVertex",
    "SphericalLink", "SurfaceClass", "TOOL_VERSION", "ToleranceProfile", "TriangleBoxes",
    "TriangleSoup", "TriangulationError", "barycentric_subdivision", "boundary_matrices",
    "build_certificate", "build_complex", "build_hierarchy", "candidate_pairs",
    "canonical_face", "canonical_json", "certificate", "certificate_text",
    "check_closed_manifold", "classify_immersion", "classify_surface", "connected_components",
    "corpus", "edge_census", "euler_characteristic", "flatness", "flatness_report", "formats",
    "generate", "homology", "homology_profile", "intersect", "link_is_embedded", "mesh",
    "orientability", "predicates", "read_mesh", "read_obj", "read_off", "read_pair", "refine",
    "self_intersections", "smith_normal_form", "standard_corpus", "triangle_contact",
    "triangle_soup", "triangulate_faces", "write_certificate", "write_mesh", "write_obj",
    "write_off", "write_pair",
)


def test_public_names_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(flatcheck.__all__) == PUBLIC_NAMES
