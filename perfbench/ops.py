"""The two timed operations, their traced twins, and the answer checks.

The untraced ops are what a user runs: the README's topology query and
what `flatcheck check mesh.off --report` does.  The traced ops call the
same public functions that the untraced ops reach, in the same order
and with the same arguments, each wrapped in a span; the one exception
is that the bounding hierarchy is built once and handed to
self_intersections, so that the candidate pairs it recomputes can be
subtracted from the narrow phase.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from flatcheck import (ToleranceProfile, boundary_matrices, build_certificate, build_hierarchy,
                       candidate_pairs, certificate_text, check_closed_manifold,
                       classify_immersion, classify_surface, connected_components,
                       edge_census, euler_characteristic, flatness_report, homology_profile,
                       orientability, read_off, self_intersections, triangle_soup,
                       triangulate_faces)


def _topology_fields(surface: str, betti, torsion, chi: int, orientable: bool) -> dict:
    return {
        "surface": surface,
        "betti": list(betti),
        "torsion": [list(t) for t in torsion],
        "euler_characteristic": chi,
        "orientable": orientable,
    }


def topology_op(path: str) -> dict:
    """Topology query: read, manifold check, homology, surface name."""
    loaded = read_off(path)
    mesh = check_closed_manifold(loaded.complex)
    profile = homology_profile(boundary_matrices(mesh))
    chi = euler_characteristic(mesh)
    orientable = orientability(mesh).orientable
    surface = classify_surface(profile, chi, orientable)
    return _topology_fields(surface.name, profile.betti, profile.torsion, chi, orientable)


def check_op(path: str) -> tuple[dict, dict, str]:
    """Full pipeline and canonical certificate text; returns (answer, cert, text)."""
    loaded = read_off(path)
    cert = build_certificate(loaded.complex, sources=loaded.sources)
    text = certificate_text(cert)
    return certificate_answer(cert), cert, text


def certificate_answer(cert: dict) -> dict:
    """The fields of a certificate that the expected answers pin."""
    top = cert["topology"]
    comb = cert["combinatorics"]
    imm = cert["immersion"]
    answer = _topology_fields(top["classification"]["name"], top["betti"], top["torsion"],
                              comb["euler_characteristic"], comb["orientable"])
    answer.update({
        "verdict": cert["verdict"],
        "link_failures": len(cert["geometry"]["link_failures"]),
        "triangles": imm["triangles"],
        "triangulation_fallbacks": len(imm["triangulation_fallbacks"]),
        "pair_count": imm["pair_count"],
        "local_overlap_count": imm["local_overlap_count"],
        "kind_census": imm["kind_census"],
    })
    return answer


def mismatches(answer: dict, expected: dict) -> list[str]:
    """Every field of answer that differs from the expected value."""
    return [
        f"{key}: got {answer[key]!r}, expected {expected.get(key)!r}"
        for key in answer if answer[key] != expected.get(key)
    ]


class Tracer:
    """In-memory spans: name, start, end, parent span index, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        record = {"name": name, "op": op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, op: int, fn, *args):
        with self.span(name, op):
            return fn(*args)


def traced_topology_op(path: str, tracer: Tracer, op: int) -> tuple[dict, dict]:
    """topology_op with one span per call; returns (answer, counters)."""
    t = tracer
    with t.span("op.topology", op):
        loaded = t.call("formats.read_off", op, read_off, path)
        mesh = t.call("mesh.check_closed_manifold", op, check_closed_manifold, loaded.complex)
        b = t.call("homology.boundary_matrices", op, boundary_matrices, mesh)
        profile = t.call("homology.homology_profile", op, homology_profile, b)
        chi = t.call("mesh.euler_characteristic", op, euler_characteristic, mesh)
        orientable = t.call("mesh.orientability", op, orientability, mesh).orientable
        surface = t.call("homology.classify_surface", op, classify_surface, profile, chi, orientable)
    answer = _topology_fields(surface.name, profile.betti, profile.torsion, chi, orientable)
    counters = {"mesh.vertices": mesh.n_vertices, "mesh.edges": mesh.n_edges,
                "mesh.faces": mesh.n_faces}
    return answer, counters


def traced_check_op(path: str, cert: dict, tracer: Tracer, op: int) -> tuple[dict, dict]:
    """The calls build_certificate makes, one span each; returns (answer, counters).

    certificate_text is timed on cert, which the untraced check op built
    from the same input, since the traced run assembles no certificate
    dict of its own.
    """
    t = tracer
    tol = ToleranceProfile()
    with t.span("op.check", op):
        loaded = t.call("formats.read_off", op, read_off, path)
        complex = loaded.complex
        t.call("mesh.face_degree_census", op, complex.face_degree_census)
        t.call("mesh.edge_census", op, edge_census, complex)
        mesh = t.call("mesh.check_closed_manifold", op, check_closed_manifold, complex)
        t.call("mesh.connected_components", op, connected_components, mesh)
        chi = t.call("mesh.euler_characteristic", op, euler_characteristic, mesh)
        orientable = t.call("mesh.orientability", op, orientability, mesh).orientable
        b = t.call("homology.boundary_matrices", op, boundary_matrices, mesh)
        profile = t.call("homology.homology_profile", op, homology_profile, b)
        surface = t.call("homology.classify_surface", op, classify_surface, profile, chi, orientable)
        geo = t.call("flatness.flatness_report", op, flatness_report, mesh, tol)
        refinement = t.call("refine.triangulate_faces", op, triangulate_faces, complex, tol)
        soup = t.call("intersect.triangle_soup", op, triangle_soup, refinement)
        hierarchy = t.call("intersect.build_hierarchy", op, build_hierarchy, soup)
        cands = t.call("intersect.candidate_pairs", op, candidate_pairs, hierarchy)
        rep = t.call("intersect.self_intersections", op, self_intersections, soup, hierarchy)
        t.call("intersect.classify_immersion", op, classify_immersion,
               geo.all_links_embedded, rep.pairs)
        text = t.call("certificate.certificate_text", op, certificate_text, cert)
    answer = _topology_fields(surface.name, profile.betti, profile.torsion, chi, orientable)
    answer.update({
        "link_failures": sum(not lv.embedded for lv in geo.links),
        "triangles": refinement.derived.n_faces,
        "triangulation_fallbacks": len(refinement.fallbacks),
        "pair_count": len(rep.pairs),
        "local_overlap_count": len(rep.local_overlaps),
        "kind_census": {k: rep.kind_census[k] for k in sorted(rep.kind_census)},
    })
    counters = {
        "mesh.vertices": mesh.n_vertices, "mesh.edges": mesh.n_edges, "mesh.faces": mesh.n_faces,
        "refine.triangles": refinement.derived.n_faces,
        "refine.fallbacks": len(refinement.fallbacks),
        "intersect.candidates": len(cands),
        "intersect.pairs": len(rep.pairs),
        "intersect.local_overlaps": len(rep.local_overlaps),
        "flatness.link_failures": answer["link_failures"],
        "certificate.bytes": len(text.encode("utf-8")),
    }
    return answer, counters
