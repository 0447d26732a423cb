"""A fixed reference computation that gauges how fast the host runs now.

On a shared host, other tenants slow this benchmark's process by up to
two times for tens of seconds to minutes at a time, in CPU time as much
as in wall time, so raw item times from two runs minutes apart differ by
more than any change worth measuring.  Every workload process times this
fixed mix of work after set-up and after every item: numpy gathers
through a table over a few megabytes, as the weight-count kernel does,
and Python dict and integer work, as the scalar field code does.  It
calls nothing in codebench, so no change to the program moves it.  A
time t taken while the reference took r is t * REF_S / r at the host
speed at which the reference takes REF_S.
"""
from __future__ import annotations

import time

import numpy as np

# Seconds the reference takes in a quiet spell on a shared 2-vCPU Xeon
# (2.1 GHz, 2 MB L2) with Python 3.11 and numpy 2.4: corrected times are
# seconds at that speed.
REF_S = 0.056

_TABLE = 1 << 16
_CHUNK = 1 << 18
_CHUNKS = 4
_ROUNDS = 12
_PY_STEPS = 200_000


def measure() -> float:
    """Seconds for one pass of the reference work.

    Its arrays live only inside the call (under 8 MB at once), so it does
    not raise the process's peak memory above what an item reaches.
    """
    start = time.perf_counter()
    table = (np.arange(_TABLE, dtype=np.int32) * 40503) & 255
    idx = np.arange(_CHUNKS * _CHUNK, dtype=np.uint32)
    idx *= np.uint32(2654435761)
    idx >>= np.uint32(16)  # scattered over the table
    idx = idx.reshape(_CHUNKS, _CHUNK)
    nonzero = 0
    for _ in range(_ROUNDS):
        for chunk in idx:
            nonzero += int(np.count_nonzero(table.take(chunk)))
    counts: dict[int, int] = {}
    for i in range(_PY_STEPS):
        key = i % 97
        counts[key] = (counts.get(key, 0) + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if nonzero <= 0 or len(counts) != 97:
        raise RuntimeError("reference computation gave a wrong result")
    return elapsed


def corrected(seconds: float, ref_seconds: float) -> float:
    """A time taken while the reference took ref_seconds, at the host speed
    at which it takes REF_S."""
    return seconds * REF_S / ref_seconds
