"""Verifier for polyhedral surfaces: closed-manifold structure, topology,
intrinsic flatness, and global self-intersection classification."""

from .certificate import (TOOL_VERSION, build_certificate, canonical_json,
                          certificate_text, write_certificate)
from .corpus import GeneratorError, GeneratorSpec, generate, standard_corpus
from .flatness import (DegenerateFaceError, FlatnessReport, LinkVerdict, PlaneFit,
                       SphericalLink, ToleranceProfile, flatness_report, link_is_embedded)
from .formats import (FormatError, LoadedMesh, read_mesh, read_obj, read_off,
                      read_pair, write_mesh, write_obj, write_off, write_pair)
from .homology import (BoundaryMatrices, HomologyProfile, SmithNormalForm,
                       SurfaceClass, boundary_matrices, classify_surface,
                       homology_profile, smith_normal_form)
from .intersect import (Contact, DegenerateTriangleError, IntersectionReport,
                        PairContact, TriangleBoxes, TriangleSoup, build_hierarchy,
                        candidate_pairs, classify_immersion, self_intersections,
                        triangle_contact, triangle_soup)
from .mesh import (CellComplex, HalfEdgeMesh, InvalidComplexError, ManifoldDefect,
                   MeshError, NotManifoldError, OrientabilityReport, build_complex,
                   canonical_face, check_closed_manifold, connected_components,
                   edge_census, euler_characteristic, orientability)
from .refine import (EdgeMidpoint, FaceCentroid, FallbackRecord, Refinement,
                     SourceVertex, TriangulationError, barycentric_subdivision,
                     triangulate_faces)

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
