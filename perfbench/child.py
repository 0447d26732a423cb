"""One workload process: import codebench.cli, run the items, report.

Started by run.py as `python child.py JOB`, where JOB is a JSON object
{"items": [argv, ...], "trace": bool, "setup_only": bool}.  The process
prints "ready" as soon as codebench.cli is imported (the parent times
set-up up to that line) and times the reference computation of
reference.py.  It then calls cli.main(argv) in process for each item with
stdout and stderr captured, timing the reference again after each, and
prints one JSON line with each item's exit code, stdout digest, time and
the mean of the reference times just before and after it, the first
reference time, the wall time of the items (their sum: the reference
runs between them do not count) and the peak resident memory.  A set-up-only process prints just the first
reference time.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_items(cli, items: list[list[str]], ref: float,
              tracer=None) -> tuple[list[dict], float]:
    """Run the items; ref is the reference time just before the first."""
    results = []
    for idx, argv in enumerate(items):
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.item = idx
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            code, raised = None, repr(exc)
        end = time.perf_counter()
        data = out.getvalue().encode("utf-8")
        ref_after = reference.measure()  # outside the item's time
        results.append({
            "argv": argv,
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "seconds": end - start,
            "raised": raised,
            "ref": (ref + ref_after) / 2,
        })
        ref = ref_after
    return results, sum(r["seconds"] for r in results)


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    try:
        import codebench
        from codebench import cli
    except ImportError as exc:
        print(f"cannot import codebench from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(codebench.__file__)) != os.path.join(SRC, "codebench"):
        print(f"codebench imported from {codebench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    stdout = sys.stdout
    stdout.write("ready\n")
    stdout.flush()
    ref = reference.measure()
    if job.get("setup_only"):
        stdout.write(json.dumps({"ref": ref}) + "\n")
        return 0

    tracer = None
    if job.get("trace"):
        from layers import specs
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("codebench", specs())
    try:
        results, wall = run_items(cli, job["items"], ref, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    import numpy
    from codebench.config import backend_name

    report = {
        "items": results,
        "wall_s": wall,
        "setup_ref": ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "backend": backend_name(),
        },
    }
    if tracer is not None:
        report["layers"] = tracer.aggregate()
        report["counts"] = dict(sorted(tracer.counts.items()))
        report["spans"] = tracer.spans
    stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
