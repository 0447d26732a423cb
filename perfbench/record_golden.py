"""Record golden.json: exit code and stdout digest of every item argv any
seed can select, one workload process per workload.

    python3 perfbench/record_golden.py

The goldens pin the CLI output byte for byte; re-recording them is a
change of output and belongs only in a change that means to alter it.
"""
from __future__ import annotations

import json
import sys

from run import GOLDEN, spawn
import workloads


def main() -> int:
    golden = {}
    for workload in workloads.NAMES:
        _, report = spawn(workloads.all_items(workload))
        for item in report["items"]:
            if item["raised"] is not None:
                print(f"{workloads.key(item['argv'])} raised {item['raised']}", file=sys.stderr)
                return 1
            golden[workloads.key(item["argv"])] = {
                "exit": item["exit"], "sha256": item["sha256"], "bytes": item["bytes"]
            }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} items written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
