"""The three seeded workloads of `codebench verify` items.

A workload is a list of slots; a slot is a list of alternatives of equal
cost (same q, another family or offset index i), and an alternative is a
list of item argvs.  A seed picks one alternative per slot, so every seed
measures the same amount of work.  Items run in slot order whatever the
seed: the peak memory of a process depends on the order of its items
(up to 10% here, since freed memory stays with the process), and that
would make peak_rss_mb differ between seeds of the same code.
`all_items` lists every argv a seed can produce; golden.json covers
exactly that set.
"""
from __future__ import annotations

import random

FAMILIES = ("q-minus-pi", "pi-minus-1")
FOUR_WEIGHT = ("thm3.1", "thm3.4")


def _one(argv: str) -> list[list[str]]:
    return [argv.split()]


# For q > 32 the four-weight suites skip the cross-checks, so nearly all
# of an item is one k=4 weight_counts call.  --threads 2 asks for both CPUs of
# a two-CPU machine; on the numpy path the flag does nothing yet.
_DUAL_LARGE = [
    [_one(f"verify {t} --q 169 --i 1 --threads 2") for t in FOUR_WEIGHT],
    [_one(f"verify {t} --q 125 --i {i} --threads 2") for t in FOUR_WEIGHT for i in (1, 2)],
    [_one(f"verify thm3.1 --q 128 --i {i} --threads 2") for i in range(1, 7)],
]

_SWEEP_SMALL = [
    [_one(argv)] for argv in (
        "verify thm5.2 --s 6", "verify thm5.1 --s 5", "verify thm5.3 --s 3",
        "verify thm5.2 --s 4", "verify thm3.5 --q 49",
    )
]

# the three design suites share one (family, i) per run
_DESIGNS_Q27 = [
    [_one(f"verify {t} --q 27 --i {i}") for t in FOUR_WEIGHT for i in (1, 2)],
    [[f"verify {t} --q 27 --i {i} --family {f}".split() for t in ("thm4.1", "thm4.2", "thm4.3")]
     for f in FAMILIES for i in (1, 2)],
]

WORKLOADS = {
    "dual-large": _DUAL_LARGE,
    "sweep-small": _SWEEP_SMALL,
    "designs-q27": _DESIGNS_Q27,
}

NAMES = tuple(WORKLOADS)


def items(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one run: seed-chosen instances in slot order."""
    rng = random.Random(f"{workload}:{seed}")
    return [argv for slot in WORKLOADS[workload] for argv in rng.choice(slot)]


def all_items(workload: str) -> list[list[str]]:
    """Every argv any seed can produce for this workload."""
    return [argv for slot in WORKLOADS[workload] for alt in slot for argv in alt]


def key(argv: list[str]) -> str:
    """The golden-table key of an item."""
    return " ".join(argv)
