"""Run configuration: the enumeration budget.

Environment variables:

``WORKBENCH_BUDGET``
    Overrides the default enumeration budget (count of enumerated items
    after projective reduction; default ``2**26``).
"""
from __future__ import annotations

import os

DEFAULT_BUDGET = 1 << 26


def default_budget() -> int:
    raw = os.environ.get("WORKBENCH_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    value = int(raw)
    if value < 1:
        raise ValueError("WORKBENCH_BUDGET must be >= 1")
    return value


def backend_name() -> str:
    # the kernels are numpy only; perfbench/child.py stamps its runs with this
    return "numpy"
