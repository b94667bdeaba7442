"""The package's public surface, pinned name by name."""

from __future__ import annotations

import flatcheck

# Every name `from flatcheck import *` binds, sorted.  __all__ is an
# explicit list, so the package's submodules stay out of a star import.
# Adding or removing a public name means editing this tuple.
PUBLIC_NAMES = (
    "BoundaryMatrices", "CellComplex", "Contact", "DegenerateFaceError",
    "DegenerateTriangleError", "FallbackRecord", "FlatnessReport", "FormatError",
    "GeneratorError", "GeneratorSpec", "HalfEdgeMesh", "HomologyProfile", "IntersectionReport",
    "InvalidComplexError", "LinkVerdict", "LoadedMesh", "ManifoldDefect", "MeshError",
    "NotManifoldError", "OrientabilityReport", "PairContact", "Refinement", "SmithNormalForm",
    "SphericalLink", "SurfaceClass",
    "TOOL_VERSION", "ToleranceProfile", "TriangleBoxes", "TriangleSoup", "TriangulationError",
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
