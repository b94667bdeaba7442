"""Command-line interface orchestrating the verification pipeline.

Exit codes: 0 when the certificate's verdict passes, 1 when it fails
(the certificate is still written), 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .certificate import build_certificate, certificate_text, write_certificate
from .corpus import GENERATORS, GeneratorError, GeneratorSpec, generate
from .flatness import ToleranceProfile
from .formats import FormatError, LoadedMesh, read_mesh, write_mesh
from .mesh import MeshError
from .refine import TriangulationError, barycentric_subdivision, triangulate_faces


def _add_mesh_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("mesh", nargs="+",
                   help="mesh file (.off/.obj), or a faces file and a vertices file")
    p.add_argument("--format", choices=("off", "obj", "pair"), default=None,
                   help="input format (default: by extension, or pair for two paths)")
    p.add_argument("--zero-based", action="store_true",
                   help="two-file face indices count from 0 instead of 1")


def _add_planarity_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--planarity-tol", type=float, default=ToleranceProfile().planarity_tol,
                   help="max relative deviation from the fitted face plane")


def _add_check_arguments(p: argparse.ArgumentParser) -> None:
    defaults = ToleranceProfile()
    _add_planarity_argument(p)
    p.add_argument("--defect-tol", type=float, default=defaults.defect_tol,
                   help="max |angle defect| in radians for a flat vertex")
    p.add_argument("--link-tol", type=float, default=defaults.link_tol,
                   help="angular resolution of the vertex link embedding test")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the certificate to PATH")
    p.add_argument("--quiet", action="store_true", help="suppress the summary lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatcheck",
        description="Verify closed-manifold, topology, flatness and "
                    "self-intersection properties of polyhedral surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the full pipeline and emit a certificate")
    _add_mesh_arguments(p)
    _add_check_arguments(p)

    for name, blurb in (
        ("triangulate", "triangulate all faces, write the result"),
        ("subdivide", "barycentric subdivision of the triangulated mesh"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_mesh_arguments(p)
        _add_planarity_argument(p)
        p.add_argument("-o", "--output", required=True, help="output mesh path (.off/.obj)")

    p = sub.add_parser("generate", help="emit a built-in test surface")
    p.add_argument("kind", help=" | ".join(map(_usage, GENERATORS)))
    p.add_argument("params", nargs="*", help="numeric parameters for the kind")
    p.add_argument("-o", "--output", required=True, help="output mesh path (.off/.obj)")
    return parser


def _load(args) -> LoadedMesh:
    return read_mesh(args.mesh, fmt=args.format,
                     index_base=0 if args.zero_based else 1)


def _tolerances(args) -> ToleranceProfile:
    return ToleranceProfile(**{f.name: getattr(args, f.name) for f in fields(ToleranceProfile)})


def _usage(kind: str) -> str:
    """kind and the parameters it takes, an optional one in brackets."""
    _, params, required = GENERATORS[kind]
    return " ".join([kind] + [n if k < required else f"[{n}]" for k, (n, _) in enumerate(params)])


def _spec_from_params(kind: str, params: list[str]) -> GeneratorSpec:
    if kind not in GENERATORS:
        raise GeneratorError(f"unknown generator kind {kind!r}")
    _, takes, required = GENERATORS[kind]
    try:
        if required <= len(params) <= len(takes):
            return GeneratorSpec(kind, **{name: parse(text)
                                          for (name, parse), text in zip(takes, params)})
    except ValueError:
        pass    # a parameter that does not parse is the same usage error
    raise GeneratorError(f"expected {_usage(kind)}, got {' '.join([kind, *params])}")


def _flag(ok: bool | None) -> str:
    if ok is None:
        return "SKIP"
    return "PASS" if ok else "FAIL"


def _summarize(cert: dict, out) -> None:
    verdict = cert["verdict"]
    inp = cert["input"]
    print(f"vertices {inp['n_vertices']}  edges {inp['n_edges']}  faces {inp['n_faces']}",
          file=out)
    print(f"closed manifold: {_flag(verdict['closed_manifold'])}", file=out)
    if not verdict["closed_manifold"]:
        for d in cert["combinatorics"]["defects"][:8]:
            print(f"  defect: {d['kind']} at {d['location']}: {d['detail']}", file=out)
        return
    combi = cert["combinatorics"]
    topo = cert["topology"]
    print(f"components {combi['components']}  "
          f"euler characteristic {combi['euler_characteristic']}  "
          f"orientable {combi['orientable']}", file=out)
    print(f"homology: H0={topo['homology'][0]}  H1={topo['homology'][1]}  "
          f"H2={topo['homology'][2]}", file=out)
    cls = topo["classification"]
    tail = "" if cls["consistent"] else f"  (inconsistent: {'; '.join(cls['problems'])})"
    print(f"surface: {cls['name']}{tail}", file=out)
    geo = cert["geometry"]
    if "error" in geo:
        print(f"geometry: FAIL ({geo['error']})", file=out)
    else:
        print(f"faces planar: {_flag(geo['all_faces_planar'])} "
              f"(max deviation {geo['max_planarity_deviation']:.3g})", file=out)
        print(f"defects zero: {_flag(geo['all_defects_zero'])} "
              f"(max |defect| {geo['max_abs_defect']:.3g})", file=out)
        print(f"links embedded: {_flag(geo['all_links_embedded'])}"
              + (f" (failures at {geo['link_failures'][:8]})" if geo["link_failures"] else ""),
              file=out)
    imm = cert["immersion"]
    if imm.get("error"):
        print(f"self-intersections: SKIP ({imm['error']})", file=out)
    else:
        print(f"self-intersections: {imm['pair_count']} pair(s), "
              f"{imm['local_overlap_count']} local overlap(s)", file=out)
        print(f"classification: {imm['classification']}", file=out)


def _run_check(args) -> int:
    loaded = _load(args)
    cert = build_certificate(loaded.complex, _tolerances(args), sources=loaded.sources)
    if args.report:
        write_certificate(cert, args.report)
    if not args.quiet:
        _summarize(cert, sys.stdout)
    if not args.report:
        # certificate_text's bytes, no newline translated, after the summary
        text = certificate_text(cert)
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            out.write(text.encode("utf-8"))
    return 0 if cert["verdict"]["pass"] else 1


def _run_refine(args, subdivide: bool) -> int:
    refinement = triangulate_faces(_load(args).complex,
                                   ToleranceProfile(planarity_tol=args.planarity_tol))
    if subdivide:
        refinement = barycentric_subdivision(refinement.derived)
    write_mesh(refinement.derived, args.output)
    return 0


def _run_generate(args) -> int:
    spec = _spec_from_params(args.kind, args.params)
    write_mesh(generate(spec), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "triangulate":
            return _run_refine(args, subdivide=False)
        if args.command == "subdivide":
            return _run_refine(args, subdivide=True)
        if args.command == "generate":
            return _run_generate(args)
        parser.error(f"unknown command {args.command!r}")
    except TriangulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, GeneratorError, MeshError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
