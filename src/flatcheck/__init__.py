"""Verifier for polyhedral surfaces: closed-manifold structure, topology,
intrinsic flatness, and global self-intersection classification."""

from .certificate import (TOOL_VERSION, build_certificate, canonical_json,
                          certificate_text, write_certificate)
from .corpus import GeneratorError, GeneratorSpec, generate, standard_corpus
from .flatness import (DegenerateFaceError, FlatnessReport, LinkVerdict, SphericalLink,
                       ToleranceProfile, flatness_report, link_is_embedded)
from .formats import (FormatError, LoadedMesh, read_mesh, read_obj, read_off,
                      read_pair, write_mesh, write_obj, write_off, write_pair)
from .homology import (BoundaryMatrices, HomologyProfile, SurfaceClass, boundary_matrices,
                       classify_surface, homology_profile)
from .intersect import (Contact, ContactRows, DegenerateTriangleError, IntersectionReport,
                        PairContact, TriangleSoup, build_hierarchy,
                        candidate_pairs, classify_immersion, self_intersections,
                        triangle_contact, triangle_soup)
from .mesh import (CellComplex, HalfEdgeMesh, InvalidComplexError, ManifoldDefect,
                   MeshError, NotManifoldError, OrientabilityReport, build_complex,
                   check_closed_manifold, connected_components, edge_census,
                   euler_characteristic, orientability)
from .refine import (FallbackRecord, Refinement, TriangulationError, barycentric_subdivision,
                     triangulate_faces)

__version__ = TOOL_VERSION

# the public names, without the submodules a star import would otherwise bind
__all__ = [
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
]
