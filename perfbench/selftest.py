"""Seed-transform self-test for the benchmark inputs.

    python3 perfbench/selftest.py

For the default seed 1 and the held-out seed 9001, which no tuning run
uses, every input a run with that seed times is checked once against
expected.json, including the pinned certificate sha256 of the
untransformed check-workload meshes.  Exits 1 if any answer differs.
"""
from __future__ import annotations

import json
import shutil
import sys

import run as bench

HELD_OUT_SEED = 9001


def main() -> int:
    if not bench.use_checkout():
        return 2
    import meshes

    expected = json.loads((bench.HERE / "expected.json").read_text())
    bad = 0
    try:
        for seed in (1, HELD_OUT_SEED):
            for name in meshes.WORKLOADS:
                run = bench.Run(name, seed, 0.0, expected)
                run.setup()
                for inp in run.inputs:
                    run.op(inp)
                print(f"seed {seed} {name}: {run.attempted} ops, {run.failed} failed", flush=True)
                bad += run.failed > 0
    finally:
        shutil.rmtree(bench.WORK / "inputs", ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
