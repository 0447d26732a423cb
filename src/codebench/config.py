"""Run configuration: enumeration budget and compute backend selection.

Environment variables:

``WORKBENCH_BUDGET``
    Overrides the default enumeration budget (count of enumerated items
    after projective reduction; default ``2**26``).
``WORKBENCH_BACKEND``
    ``numba`` (require the jit kernels), ``numpy`` (pure-numpy fallback
    kernels) or ``auto`` (numba when importable; the default).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

DEFAULT_BUDGET = 1 << 26

_BACKENDS = ("auto", "numba", "numpy")


def default_budget() -> int:
    raw = os.environ.get("WORKBENCH_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    value = int(raw)
    if value < 1:
        raise ValueError("WORKBENCH_BUDGET must be >= 1")
    return value


def backend_name() -> str:
    """Resolved backend: 'numba' or 'numpy'."""
    choice = os.environ.get("WORKBENCH_BACKEND", "auto").lower()
    if choice not in _BACKENDS:
        raise ValueError(f"WORKBENCH_BACKEND must be one of {_BACKENDS}")
    if choice == "auto":
        return "numba" if _numba_importable() else "numpy"
    return choice


@cache
def _numba_importable() -> bool:
    # the kernels ask on every call; a failed import is not cached by Python
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by CLI commands and batch verifications."""

    budget: int = DEFAULT_BUDGET
    threads: int = 1
    output_format: str = "text"
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.output_format not in ("text", "json", "csv"):
            raise ValueError("output_format must be text, json or csv")
