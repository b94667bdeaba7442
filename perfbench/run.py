"""flatcheck benchmark: time to verdict on seeded mesh workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere inside a checkout; flatcheck is imported from its
src/ directory.  Load is a closed loop in one process on one thread:
one client issues ops back to back, a pass being one op on every mesh
of the workload.  Every run makes the same PASSES passes, pass p on
variant p of each mesh, so every commit times the same inputs;
--seconds only caps the run, in that no pass starts once it has
elapsed.  Every op's answer is checked against expected.json; an op
that raises or disagrees counts as failed.

--trace 0 reports the end-to-end metrics from untraced ops.  Op times
are given in reference units: an op's seconds over the seconds of
reference_work(), a fixed computation that calls nothing in flatcheck,
timed just before and just after the op.  The host the benchmark was
tuned on drifts in speed by up to 1.7 times within minutes, and the
ratio cancels most of that drift.

--trace 1 runs every op untraced and then traced on the same input,
with twice the cap, and reports the per-layer metrics from the traced
ones; spans are kept in memory and written to
.perfbench/trace_<workload>_s<seed>.json when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the
workloads and what each metric should move.
"""
from __future__ import annotations

import os

# numpy must not start BLAS threads (np.linalg.eigh in flatness) on a
# small box; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")        # relative to ROOT: certificates record input paths
PASSES = 3                       # passes per run; pass p times variant p of every mesh

REFERENCE_VALUE = 406160         # what reference_work() returns

END_TO_END_UNITS = {
    "faces_per_ref": "faces/ref", "verdict_ref_p50": "ref", "largest_verdict_ref": "ref",
    "peak_rss_mb": "MB", "setup_s": "s",
}
# per-layer time metric -> spans whose durations it sums
LAYER_SPANS = {
    "formats.read_s": ("formats.read_off",),
    "mesh.manifold_s": ("mesh.check_closed_manifold",),
    "mesh.combinatorics_s": ("mesh.face_degree_census", "mesh.edge_census",
                             "mesh.connected_components", "mesh.euler_characteristic",
                             "mesh.orientability"),
    "homology.boundary_s": ("homology.boundary_matrices",),
    "homology.profile_s": ("homology.homology_profile",),
    "homology.classify_s": ("homology.classify_surface",),
    "flatness.report_s": ("flatness.flatness_report",),
    "refine.triangulate_s": ("refine.triangulate_faces",),
    "intersect.soup_s": ("intersect.triangle_soup",),
    "intersect.bvh_s": ("intersect.build_hierarchy",),
    "intersect.candidates_s": ("intersect.candidate_pairs",),
    "intersect.narrow_s": ("intersect.self_intersections",),   # minus candidates_s
    "certificate.text_s": ("certificate.certificate_text",),
}
COUNTERS = ("mesh.vertices", "mesh.edges", "mesh.faces", "refine.triangles", "refine.fallbacks",
            "intersect.candidates", "intersect.pairs", "intersect.local_overlaps",
            "flatness.link_failures", "certificate.bytes")
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in COUNTERS},
    "certificate.bytes": "bytes",
    "intersect.contact_ratio": "ratio",
    "trace.gap_s": "s",
}


def git_commit() -> str:
    """Commit of the checkout, or "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():     # else git would look in the directories above
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """One benchmark run: inputs, the op loop and the failure tally."""

    def __init__(self, name: str, seed: int, seconds: float, expected: dict):
        import meshes
        import ops
        self.meshes = meshes
        self.ops = ops
        self.name = name
        self.workload = meshes.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.inputs = []

    def setup(self) -> float:
        """Build, transform and write every input; return its duration."""
        gc.collect()
        start = time.perf_counter()
        self.inputs = self.meshes.write_inputs(self.workload, self.seed, PASSES, WORK / "inputs")
        return time.perf_counter() - start

    def variant(self, p: int) -> list:
        return self.inputs[p::PASSES]

    def report(self, mesh: str, what: str, errors: list[str]) -> bool:
        for e in errors:
            print(f"FAIL {self.name} {mesh} {what}: {e}", file=sys.stderr)
        return not errors

    def op(self, inp):
        """One untraced op; returns (seconds, cert or None), tallying failures.

        The certificate of an untransformed input must hash to the pinned
        sha256; the hash is taken after the clock stops.
        """
        ops = self.ops
        self.attempted += 1
        cert = None
        gc.collect()                    # every op starts from a collected heap, as in a fresh process
        start = time.perf_counter()
        try:
            if self.workload.op == "topology":
                answer = ops.topology_op(str(inp.path))
            else:
                answer, cert, text = ops.check_op(str(inp.path))
        except Exception as exc:        # a raising op is a failed op, not a crashed run
            elapsed = time.perf_counter() - start
            self.failed += 1
            traceback.print_exc()
            self.report(inp.mesh, inp.path.name, [f"{type(exc).__name__}: {exc}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        expected = self.expected[inp.mesh]
        errors = ops.mismatches(answer, expected)
        if cert is not None and inp.variant == 0:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != expected["certificate_sha256"]:
                errors.append(f"certificate sha256 {digest}, pinned {expected['certificate_sha256']}")
        if not self.report(inp.mesh, inp.path.name, errors):
            self.failed += 1
        return elapsed, cert

    def traced_op(self, inp, cert: dict | None, tracer) -> dict | None:
        """One traced op and its consistency checks; returns its stage times and counters."""
        ops = self.ops
        op_id = self.attempted
        self.attempted += 1
        first = len(tracer.spans)
        gc.collect()
        try:
            if self.workload.op == "topology":
                answer, counters = ops.traced_topology_op(str(inp.path), tracer, op_id)
            else:
                answer, counters = ops.traced_check_op(str(inp.path), cert, tracer, op_id)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            self.report(inp.mesh, f"{inp.path.name} traced", [f"{type(exc).__name__}: {exc}"])
            return None
        errors = ops.mismatches(answer, self.expected[inp.mesh])
        if cert is not None:
            imm = cert["immersion"]
            pairs, local = counters["intersect.pairs"], counters["intersect.local_overlaps"]
            if (pairs, local) != (imm["pair_count"], imm["local_overlap_count"]):
                errors.append("traced pair / local overlap counts differ from the certificate")
            if pairs + local > counters["intersect.candidates"]:
                errors.append("more contacts than candidate pairs")
        if not self.report(inp.mesh, f"{inp.path.name} traced", errors):
            self.failed += 1
        durations: dict[str, float] = {}
        for span in tracer.spans[first + 1:]:      # children of the op span
            durations[span["name"]] = durations.get(span["name"], 0.0) + span["end"] - span["start"]
        stages = {metric: sum(durations.get(n, 0.0) for n in names)
                  for metric, names in LAYER_SPANS.items()}
        stages["intersect.narrow_s"] -= stages["intersect.candidates_s"]
        return {**stages, **counters}

    def passes(self, body) -> None:
        """Call body(p) for pass p = 0 .. PASSES - 1, unless `seconds` run out first."""
        for p in range(PASSES):
            if p and time.perf_counter() - self.started >= self.seconds:
                print(f"--seconds {self.seconds:g} ran out after {p} of {PASSES} passes",
                      file=sys.stderr)
                return
            body(p)


def reference_work() -> int:
    """A fixed computation that calls nothing in flatcheck.

    Its three parts, of about 0.1 s each, resemble the ops' own work:
    Fraction arithmetic as in the exact predicates, integer row operations
    on long Python lists as in the Smith normal form, and an int64 matrix
    product as in the boundary matrices.  It stays within about 2 MB, below
    every op's own peak, so that peak_rss_mb measures the ops.
    """
    acc = Fraction(0)
    for i in range(1, 15001):
        acc = Fraction((acc + Fraction(i % 13 - 6, i)).numerator % 1_000_003, i % 997 + 1)
    rows = [[(i * j + 3) % 5 - 2 for j in range(1000)] for i in range(120)]
    for t in range(8):
        pivot = rows[t]
        for i in range(t + 1, len(rows)):
            q = rows[i][t] - pivot[t]
            rows[i] = [(x - q * y) % 5 - 2 for x, y in zip(rows[i], pivot)]
    x = np.arange(250 * 400, dtype=np.int64).reshape(250, 400) % 3 - 1
    product = 0
    for k in range(4):
        y = np.arange(400 * 160, dtype=np.int64).reshape(400, 160) % (5 + k) - 2
        product += int((x @ y).sum())
    return acc.numerator + sum(map(sum, rows)) + product


def time_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    value = reference_work()
    elapsed = time.perf_counter() - start
    if value != REFERENCE_VALUE:
        raise RuntimeError(f"reference computation gave {value}, expected {REFERENCE_VALUE}")
    return elapsed


def end_to_end(run: Run) -> dict:
    """Untraced ops, each timed in seconds and in reference units.

    The run goes set-up, reference, op, set-up, reference, op, ...,
    set-up, reference.  An op's time in reference units is its seconds
    over the mean of the reference times just before and just after it,
    which cancels most of the host's drift in speed.  Spread over the
    whole run, the set-ups meet the same stretches of drift as the ops.
    """
    setups = [run.setup()]
    time_reference()                        # warm-up, not counted
    refs = [time_reference()]
    samples: list[tuple[str, int, float, float]] = []   # mesh, faces, seconds, reference units

    def one_pass(p: int) -> None:
        for inp in run.variant(p):
            seconds = run.op(inp)[0]
            setups.append(run.setup())
            refs.append(time_reference())
            samples.append((inp.mesh, inp.faces, seconds, 2 * seconds / (refs[-2] + refs[-1])))

    run.passes(one_pass)
    by_mesh: dict[str, list[float]] = {}
    for mesh, _, _, units in samples:
        by_mesh.setdefault(mesh, []).append(units)
    faces = sum(s[1] for s in samples)
    values = {
        "faces_per_ref": faces / sum(s[3] for s in samples),
        # Each mesh gets the same number of ops, so the median of all ops
        # would fall in the gap between two meshes' times; the median over
        # meshes of each mesh's median op time does not.
        "verdict_ref_p50": statistics.median(statistics.median(u) for u in by_mesh.values()),
        "largest_verdict_ref": statistics.median(by_mesh[run.workload.largest]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    counts = {"verdict_ref_p50": len(samples),
              "largest_verdict_ref": len(by_mesh[run.workload.largest]), "setup_s": len(setups)}
    for mesh, units in by_mesh.items():
        seconds = [s[2] for s in samples if s[0] == mesh]
        print(f"  {mesh:<26} median op {statistics.median(units):.6g} ref, "
              f"{statistics.median(seconds):.6g} s  (n={len(units)})")
    print(f"  reference          median {statistics.median(refs):.6g} s  (n={len(refs)})")
    print(f"  faces_per_s        {faces / sum(s[2] for s in samples):.6g} faces/s  (not normalised)")
    for name, value in values.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<19} {value:.6g} {END_TO_END_UNITS[name]}{n}")
    return values


def per_layer(run: Run, trace_path: Path, env: dict) -> dict:
    run.setup()
    tracer = run.ops.Tracer()
    per_mesh: dict[str, list[dict]] = {}
    gaps: list[float] = []

    def one_pass(p: int) -> None:
        untraced = traced = 0.0
        for inp in run.variant(p):
            elapsed, cert = run.op(inp)
            untraced += elapsed
            record = run.traced_op(inp, cert, tracer)
            if record is not None:
                traced += sum(record[metric] for metric in LAYER_SPANS)
                per_mesh.setdefault(inp.mesh, []).append(record)
        gaps.append(untraced - traced)

    run.passes(one_pass)
    values = {metric: sum(statistics.median(rec.get(metric, 0) for rec in recs)
                          for recs in per_mesh.values())
              for metric in (*LAYER_SPANS, *COUNTERS)}
    contacts = values["intersect.pairs"] + values["intersect.local_overlaps"]
    candidates = values["intersect.candidates"]
    values["intersect.contact_ratio"] = contacts / candidates if candidates else 0.0
    values["trace.gap_s"] = statistics.median(gaps)
    for name, value in values.items():
        print(f"  {name:<24} {value:.6g} {PER_LAYER_UNITS[name]}")
    print(f"  intersect.contact_ratio base: {candidates:g} candidate pairs per pass")
    trace_path.write_text(json.dumps({"environment": env, "workload": run.name,
                                      "spans": tracer.spans}))
    return values


def use_checkout() -> bool:
    """Work from the checkout root and import flatcheck from its src/."""
    if not (ROOT / "src" / "flatcheck" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'flatcheck'} not found; "
              "run the benchmark inside a flatcheck checkout", file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    return True


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    import meshes
    status = 0
    for name in meshes.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        return 2
    import meshes

    if args.workload == "all":
        return run_all(args)
    if args.workload not in meshes.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(meshes.WORKLOADS)} or all")
    expected = json.loads((HERE / "expected.json").read_text())
    env = environment(args.seed)
    print(f"workload {args.workload}  trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(env))

    # A traced pass runs every op twice, untraced and traced, so its cap doubles.
    run = Run(args.workload, args.seed, args.seconds * (1 + args.trace), expected)
    try:
        if args.trace:
            values = per_layer(run, WORK / f"trace_{args.workload}_s{args.seed}.json", env)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORK / "inputs", ignore_errors=True)
    ratio = run.failed / run.attempted
    print(f"  fail_ratio         {ratio:.6g} ({run.failed} of {run.attempted} ops)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
