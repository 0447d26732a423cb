"""Run configuration: the enumeration budget.

A run's budget comes from ``--budget`` or a caller's ``budget=``
argument, in units of enumerated items after projective reduction; a
missing budget (``None``) means ``DEFAULT_BUDGET``.
"""
from __future__ import annotations

DEFAULT_BUDGET = 1 << 26


def backend_name() -> str:
    # the kernels are numpy only; perfbench/child.py stamps its runs with this
    return "numpy"
