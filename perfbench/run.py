"""The codebench benchmark: seeded `codebench verify` workloads.

    python3 perfbench/run.py --workload dual-large --seed 1 --seconds 40 --trace 0

Each pass is a fresh interpreter (child.py) that imports codebench.cli and
runs every item of the workload through cli.main(argv) in process; passes
run one at a time until --seconds would be exceeded (at least one).  Every
item's exit code and stdout digest must match golden.json.

Times are corrected for the host's speed when they were taken: every
workload process times the fixed computation of reference.py after
set-up and after each item, and a time t counts as t * REF_S / r, where
r is the reference time right after set-up for a set-up time, and the
mean of the reference times just before and after an item for an item's
time (see reference.py for why).

--trace 0 prints the end-to-end metrics: wall_s, the sum over items of each
item's median time over the run's passes, corrected; the median set-up
time (spawn to codebench.cli imported) over every spawn of the run,
set-up-only spawns interleaved with the passes included, corrected; and
the median peak_rss_mb over passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of layers.py, medians over the traced passes, with the tracing
overhead.  Traced passes must repeat their work counts exactly.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  A full record (environment, items, spans) goes to
.bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
MIN_SETUPS = 15
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Environment of a workload process: no stray route or budget
    settings, and single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("WORKBENCH_BUDGET", "WORKBENCH_BACKEND")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(items, trace=False, setup_only=False) -> tuple[float, dict]:
    """Run one workload process; returns (set-up seconds, its report).

    The report of a set-up-only process holds just its reference time.
    """
    job = json.dumps({"items": items, "trace": trace, "setup_only": setup_only})
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, job], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return setup, json.loads(rest.splitlines()[-1])


def timed_setup() -> tuple[float, float]:
    """Set-up seconds and reference seconds of one set-up-only process."""
    setup, report = spawn([], setup_only=True)
    return setup, report["ref"]


def check_items(report: dict, golden: dict) -> int:
    """Number of items whose exit code or stdout differs from golden.json."""
    failed = 0
    for item in report["items"]:
        want = golden.get(workloads.key(item["argv"]))
        if (item["raised"] is not None or want is None
                or (item["exit"], item["sha256"]) != (want["exit"], want["sha256"])):
            failed += 1
            print(f"FAILED {workloads.key(item['argv'])}: exit {item['exit']}, "
                  f"raised {item['raised']}", file=sys.stderr)
    return failed


def cache_sizes() -> dict[str, str]:
    """Data and unified cache sizes of cpu0, read from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(e for e in os.listdir(base) if e.startswith("index"))
        for entry in entries:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as fh:
                    fields[name] = fh.read().strip()
            if fields["type"] != "Instruction":
                out[f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass
    return out


def work_counts(report: dict) -> dict[str, int]:
    """Calls per span name and the counters of one traced pass."""
    calls = {f"{name}.calls": row["calls"] for name, row in report["layers"].items()}
    return dict(report["counts"], **calls)


def item_wall(reports: list[dict]) -> float:
    """Sum over items of each item's median corrected time over the passes.

    Every pass runs the same items in the same order.
    """
    times = zip(*([reference.corrected(item["seconds"], item["ref"]) for item in r["items"]]
                  for r in reports))
    return sum(statistics.median(per_item) for per_item in times)


def trace_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, medians over the traced passes, and the tracing
    overhead: traced against untraced wall time, both as item_wall gives
    them."""
    per_pass = [layers.per_layer_metrics(r["layers"], r["counts"], r["wall_s"]) for r in traced]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    traced_wall = item_wall(traced)
    plain_wall = item_wall(untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    items = workloads.items(workload, seed)
    spawn([], setup_only=True)  # compile bytecode and warm the file cache, untimed
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, float] = {}
    setups = []  # (raw set-up seconds, reference seconds) per spawn
    start = time.perf_counter()
    n = 0
    while True:
        mode = modes[n % len(modes)]
        t0 = time.perf_counter()
        setup, report = spawn(items, trace=mode)
        setups.append((setup, report["setup_ref"]))
        passes[mode].append(report)
        setups.append(timed_setup())
        durations[mode] = max(durations.get(mode, 0.0), time.perf_counter() - t0)
        n += 1
        next_mode = modes[n % len(modes)]
        if n >= len(modes) and time.perf_counter() - start + durations[next_mode] > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup())

    reports = passes[False] + passes[True]
    attempted = sum(len(r["items"]) for r in reports)
    failed = sum(check_items(r, golden) for r in reports)
    correct = failed == 0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "items": [workloads.key(argv) for argv in items],
        "env": dict(reports[0]["env"], caches=cache_sizes()),
        "ref_s": reference.REF_S,
        "setups": [{"seconds": t, "ref": r} for t, r in setups],
        "passes": [{k: r[k] for k in ("wall_s", "setup_ref", "peak_rss_mb", "items")}
                   for r in reports],
    }
    if not trace:
        metrics = {
            "wall_s": (item_wall(passes[False]), "s"),
            "setup_s": (statistics.median(reference.corrected(t, r) for t, r in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes[False]), "MB"),
        }
    else:
        traced = passes[True]
        if any(work_counts(r) != work_counts(traced[0]) for r in traced):
            print("work counts differ between traced passes", file=sys.stderr)
            correct = False
        metrics = trace_metrics(traced, passes[False])
        record["traced"] = [{k: r[k] for k in ("layers", "counts", "spans")} for r in traced]
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
