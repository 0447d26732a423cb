"""The names the traced benchmark in perfbench/ reads from codebench.

perfbench/layers.py wraps codebench functions and methods by name and
reads some of their arguments and results (its COUNTERS).  This runs
three traced items through cli.main, so a change under src/ that drops
one of those names, or takes these items off a kernel whose span or
counter the benchmark's own tests expect, fails here, not only under
`python -m pytest perfbench`.
perfbench/ is only read.
"""
import importlib.util
from pathlib import Path

import pytest

from codebench import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_counts():
    layers, tracer_mod = _load("layers"), _load("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install("codebench", layers.specs())
    try:
        exits = [cli.main(argv.split()) for argv in (
            "verify thm4.1 --q 9 --i 1 --family q-minus-pi",
            "verify thm4.3 --q 9 --i 1 --family q-minus-pi",
            "verify thm5.1 --s 5",
        )]
    finally:
        tracer.uninstall()
    return exits, dict(tracer.counts), tracer.aggregate()


def test_traced_items_run_and_count(traced_counts):
    exits, counts, spans = traced_counts
    assert exits == [0, 0, 0]
    assert counts["designs.supports_of_weight.blocks"] > 0
    assert counts["designs.verify_design.tsubsets"] > 0
    assert counts["designs.weight4_blocks_det.triples"] > 0
    assert counts["kernels.weight_counts.msgs"] > 0
    assert {"subfield.report_tables", "codes.TraceDualSpec.weight_distribution",
            "kernels.weight_counts", "kernels.trace_orbit_counts",
            "verify.run_suite"} <= set(spans)
