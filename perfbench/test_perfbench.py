"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The exact-count test spawns two traced passes of every workload (about a
minute on two CPUs); the others take seconds.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NAME, PARENT, T0, T1, C0, C1, ITEM, Tracer  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_golden_covers_every_selectable_item():
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    for workload in workloads.NAMES:
        selectable = {workloads.key(a) for a in workloads.all_items(workload)}
        assert selectable <= set(golden), workload
        for seed in range(200):
            drawn = {workloads.key(a) for a in workloads.items(workload, seed)}
            assert drawn <= selectable, (workload, seed)
        assert workloads.items(workload, 7) == workloads.items(workload, 7)


def test_check_items_counts_every_kind_of_mismatch():
    argv = ["verify", "thm5.2", "--s", "4"]
    golden = {workloads.key(argv): {"exit": 0, "sha256": "ab", "bytes": 1}}
    good = {"argv": argv, "exit": 0, "sha256": "ab", "raised": None}
    bad = [dict(good, exit=1), dict(good, sha256="cd"), dict(good, raised="ValueError()"),
           dict(good, argv=argv + ["--threads", "2"])]
    with redirect_stderr(io.StringIO()):
        assert run.check_items({"items": [good]}, golden) == 0
        assert run.check_items({"items": [good] + bad}, golden) == len(bad)


def test_wall_sums_item_medians_at_reference_speed():
    ref = reference.REF_S
    reports = [{"items": [{"seconds": a, "ref": ref}, {"seconds": b, "ref": 2 * ref}]}
               for a, b in ((1, 10), (3, 2), (2, 6))]
    assert run.item_wall(reports) == pytest.approx(2 + 3)
    assert "codebench" not in vars(reference)
    assert reference.measure() > 0


def test_child_env_drops_route_variables(monkeypatch):
    monkeypatch.setenv("WORKBENCH_BUDGET", "5")
    monkeypatch.setenv("WORKBENCH_BACKEND", "numba")
    env = run.child_env()
    assert "WORKBENCH_BUDGET" not in env and "WORKBENCH_BACKEND" not in env
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def _aliases() -> dict:
    import codebench
    from codebench import cli, designs, verify, weights

    return {
        "weights.classify": weights.classify,
        "cli.classify_code": cli.classify_code,
        "verify.classify": verify.classify,
        "codebench.classify": codebench.classify,
        "verify.SUITES[thm3.1]": verify.SUITES["thm3.1"][0],
        "designs.trace_dual": designs.trace_dual,
        "cli.main": cli.main,
    }


def test_tracer_rebinds_every_alias_and_restores_it():
    before = _aliases()
    assert before["cli.classify_code"] is before["weights.classify"]
    tracer = Tracer()
    tracer.install("codebench", layers.specs())
    try:
        during = _aliases()
    finally:
        tracer.uninstall()
    after = _aliases()
    for key in before:
        assert during[key] is not before[key], key
        assert after[key] is before[key], key
    assert during["cli.classify_code"] is during["weights.classify"] is during["verify.classify"]


SMALL_ITEMS = [
    ["classify", "--q", "27", "--h", "4"],
    ["verify", "thm3.6", "--q", "9", "--i", "1", "--family", "pi-minus-1"],
    ["verify", "thm5.2", "--s", "4"],
    ["verify", "thm3.1", "--q", "9", "--i", "1"],
]


def _traced_small_run():
    from codebench import cli

    tracer = Tracer()
    tracer.install("codebench", layers.specs())
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for idx, argv in enumerate(SMALL_ITEMS):
                tracer.item = idx
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_spans_nest_under_one_cli_main_root_per_item():
    tracer = _traced_small_run()
    spans = tracer.spans
    assert all(t >= 0 for t in tracer.self_times_ns())
    assert all(c >= 0 for c in tracer.self_times_ns(C0, C1))
    for idx in range(len(SMALL_ITEMS)):
        mine = [s for s in spans if s[ITEM] == idx]
        roots = [s for s in mine if s[PARENT] < 0]
        assert [s[NAME] for s in roots] == ["cli.main"]
        root = roots[0]
        assert all(root[T0] <= s[T0] <= s[T1] <= root[T1] for s in mine)
    names = {s[NAME] for s in spans}
    # reached through aliases: cli's classify_code, verify's imports and SUITES
    assert {"weights.classify", "verify.verify_thm36", "verify.verify_thm31",
            "weights.verify_four_weight", "kernels.weight_counts", "codes.codewords",
            "galois.tables", "subfield.report_tables"} <= names
    classify_parent = next(spans[s[PARENT]][NAME] for s in spans
                           if s[NAME] == "weights.classify" and s[ITEM] == 0)
    assert classify_parent == "cli.main"
    agg = tracer.aggregate()
    wall = sum(s[T1] - s[T0] for s in spans if s[PARENT] < 0) / 1e9
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(wall)


def test_exact_counts_repeat_between_traced_runs():
    for workload in workloads.NAMES:
        items = workloads.items(workload, 0)
        first = run.spawn(items, trace=True)[1]
        second = run.spawn(items, trace=True)[1]
        counts = run.work_counts(first)
        assert counts == run.work_counts(second), workload
        assert counts["kernels.weight_counts.calls"] > 0
        if workload == "designs-q27":
            for key in ("kernels.scan_supports.subsets", "codes.codewords.words",
                        "designs.supports_of_weight.blocks", "designs.verify_design.tsubsets",
                        "designs.weight4_blocks_det.triples"):
                assert counts[key] > 0, key
        else:
            assert counts["kernels.weight_counts.msgs"] > 0


def test_benchmark_json_names_what_the_runs_print():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    fake = {"layers": {}, "counts": {}, "wall_s": 1.0,
            "items": [{"seconds": 1.0, "ref": reference.REF_S}]}
    printed = {name: unit for name, (_, unit) in run.trace_metrics([fake], [fake]).items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = _benchmark_json()
    proc = subprocess.run(
        bench["command"] + ["--workload", "sweep-small", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
