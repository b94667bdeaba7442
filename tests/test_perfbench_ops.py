"""The benchmark's traced operations run and agree with the certificate.

perfbench/ops.py replays the public calls that build_certificate makes,
one span each; this keeps those calls working as the API changes.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from flatcheck import GeneratorSpec, generate, write_off

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def ops(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("ops")


@pytest.mark.parametrize("spec", [
    GeneratorSpec("grid_klein", m=3, n=3),
    GeneratorSpec("folded_flat_torus", m=4, n=4, folds=2),
], ids=lambda spec: spec.label)
def test_traced_ops_match_certificate(ops, tmp_path, spec):
    path = str(tmp_path / f"{spec.label}.off")
    write_off(generate(spec), path)
    _, cert, _ = ops.check_op(path)
    expected = ops.certificate_answer(cert)
    tracer = ops.Tracer()

    traced, counters = ops.traced_check_op(path, cert, tracer, 0)
    assert ops.mismatches(traced, expected) == []
    assert (counters["intersect.pairs"] + counters["intersect.local_overlaps"]
            <= counters["intersect.candidates"])

    traced, _ = ops.traced_topology_op(path, tracer, 1)
    assert ops.mismatches(traced, expected) == []
    assert all(span["end"] is not None for span in tracer.spans)
