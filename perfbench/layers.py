"""What the traced run wraps in codebench, and the per-layer metrics.

Every public module-level function of the ten layer modules gets a span
named "<layer>.<function>" (the `_kernels` module is the `kernels`
layer); none runs more than a few hundred times per item.  METHODS adds
the class methods worth a span, leaving out the scalar Field arithmetic
(called 10^4 to 10^5 times per item); several share one span name so
that one metric covers every route to the same work.
"""
from __future__ import annotations

import importlib
import inspect
from math import comb

import numpy as np

LAYERS = {
    "galois": "codebench.galois",
    "cyclotomic": "codebench.cyclotomic",
    "codes": "codebench.codes",
    "kernels": "codebench._kernels",
    "weights": "codebench.weights",
    "designs": "codebench.designs",
    "subfield": "codebench.subfield",
    "diophantine": "codebench.diophantine",
    "verify": "codebench.verify",
    "cli": "codebench.cli",
}

# (layer, class, method) -> span name
METHODS = {
    ("galois", "Field", "__init__"): "galois.Field.init",
    ("galois", "Field", "add_table"): "galois.tables",
    ("galois", "Field", "mul_table"): "galois.tables",
    ("galois", "Field", "neg_table"): "galois.tables",
    ("galois", "Field", "inv_table"): "galois.tables",
    ("galois", "SubfieldEmbedding", "project_table"): "galois.tables",
    ("codes", "LinearCode", "dual"): "codes.LinearCode.dual",
    ("codes", "LinearCode", "codewords"): "codes.codewords",
    ("codes", "TraceDualSpec", "codewords"): "codes.codewords",
    ("codes", "TraceDualSpec", "weight_distribution"): "codes.TraceDualSpec.weight_distribution",
}

# module functions whose span takes another name than "<layer>.<function>"
RENAMED = {
    "galois.trace_table": "galois.tables",
    "galois.subfield_embedding": "galois.tables",
    "galois.unit_circle": "galois.tables",
}


def _words(args, out):
    rows, n = out.shape
    return {"words": rows, "bytes": rows * n * 4}


def _verify_design(args, out):
    blocks = args["blocks"]
    k = len(blocks[0]) if len(blocks) else 0
    return {"tsubsets": out[1] * comb(k, args["t"])}


COUNTERS = {
    "kernels.weight_counts": lambda args, out: {
        "msgs": (args["field"].q ** np.shape(args["gen_matrix"])[0] - 1) // (args["field"].q - 1)
    },
    "kernels.scan_supports": lambda args, out: {
        "subsets": len(out[0]), "hits": np.count_nonzero(out[0] == 1)
    },
    "codes.codewords": _words,
    "designs.supports_of_weight": lambda args, out: {"blocks": len(out.blocks)},
    "designs.verify_design": _verify_design,
    "designs.weight4_blocks_det": lambda args, out: {"triples": comb(args["q"] + 1, 3)},
}


def specs() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for Tracer.install."""
    out = []
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != modname):
                continue
            name = RENAMED.get(name, name)
            out.append((module, attr, name, COUNTERS.get(name)))
    for (layer, cls, attr), name in METHODS.items():
        owner = getattr(importlib.import_module(LAYERS[layer]), cls)
        out.append((owner, attr, name, COUNTERS.get(name)))
    return out


# Per-layer metrics of BENCHMARK.json.  A layer metric's self time sums
# the spans whose name is the layer name or starts with one of its
# prefixes; its calls count the span of that exact name.
TIMED = [
    "kernels.weight_counts", "kernels.scan_supports", "codes.codewords",
    "verify.run_suite", "designs.weight4_blocks_det", "designs.weight5_blocks_rank",
    "designs.supports_of_weight", "designs.verify_design",
    "diophantine.unit_solution_counts", "weights.macwilliams",
    "weights.weight_distribution", "weights.classify", "weights.verify_four_weight",
    "weights.enumerator_formula", "subfield.subfield_subcode_generic",
    "subfield.report_tables", "subfield.dimension_by_cosets", "codes.rref",
    "codes.bch_build", "codes.LinearCode.dual", "cyclotomic.minimal_poly",
    "cyclotomic.splitting_field", "cyclotomic.coset", "galois.Field.init",
    "galois.tables", "cli.main",
]
# the suites run_suite dispatches to, and the parser cli.main builds
PREFIXES = {"verify.run_suite": ("verify.",), "cli.main": ("cli.",)}


def _layer_self(agg: dict, layer: str, key: str) -> float:
    prefixes = PREFIXES.get(layer)
    if prefixes is None:
        return agg.get(layer, {}).get(key, 0.0)
    return sum(row[key] for name, row in agg.items() if name.startswith(prefixes))


def per_layer_metrics(agg: dict, counts: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) from one traced pass; wall_s is its traced wall time."""
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED:
        self_s = _layer_self(agg, layer, "self_s")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (self_s / wall_s, "frac")
        m[f"{layer}.calls"] = (agg.get(layer, {}).get("calls", 0), "count")
    wc = "kernels.weight_counts"
    wc_self = m[f"{wc}.self_s"][0]
    msgs = counts.get(f"{wc}.msgs", 0)
    m[f"{wc}.cpu_s"] = (_layer_self(agg, wc, "cpu_s"), "s")
    m[f"{wc}.msgs"] = (msgs, "count")
    m[f"{wc}.msgs_per_s"] = (msgs / wc_self if wc_self else 0.0, "1/s")
    sc = "kernels.scan_supports"
    subsets = counts.get(f"{sc}.subsets", 0)
    m[f"{sc}.subsets"] = (subsets, "count")
    m[f"{sc}.hit_frac"] = (counts.get(f"{sc}.hits", 0) / subsets if subsets else 0.0, "frac")
    for counter, unit in (("codes.codewords.words", "count"), ("codes.codewords.bytes", "B"),
                          ("designs.weight4_blocks_det.triples", "count"),
                          ("designs.supports_of_weight.blocks", "count"),
                          ("designs.verify_design.tsubsets", "count")):
        m[counter] = (counts.get(counter, 0), unit)
    m["galois.field_new.calls"] = (agg.get("galois.field_new", {}).get("calls", 0), "count")
    m["galois.Field.builds"] = (agg.get("galois.Field.init", {}).get("calls", 0), "count")
    m["trace.other.share"] = (1.0 - sum(m[f"{layer}.share"][0] for layer in TIMED), "frac")
    m["trace.spans"] = (sum(row["calls"] for row in agg.values()), "count")
    m["trace.raised"] = (sum(row["raised"] for row in agg.values()), "count")
    return m

