"""Hot enumeration kernels: numba-jitted with a pure-numpy fallback.

Three kernels dominate every long run:

* ``weight_counts`` — exact weight distribution of the row span of a
  generator matrix, enumerating one representative per projective message
  (scalar multiples share a weight) and scaling counts by q-1.
* ``trace_orbit_counts`` — exact weight distribution of the two-term
  trace code words c_(a,b) with a != 0 over GF(q^m), one orbit
  representative of a per class of the weight-preserving scalar/shift
  group; pure numpy on log/Zech arrays and the logs of ker Tr, with no
  dense table and no backend choice.
* ``scan_supports`` — for 4- or 5-column submatrices of a 4-row parity
  matrix over GF(q^2), classify the nullspace and extract the unique
  projective nullvector where it exists.

Backend selection: ``WORKBENCH_BACKEND`` env var (numba | numpy | auto).
The numba kernels release the GIL, so a thread count > 1 partitions the
message space across a thread pool; partial counts merge by addition, so
results are independent of the partition.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np

from .config import backend_name
from .errors import BudgetExceeded
from .galois import trace_kernel_logs
from . import _kernels_np as npk

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False


def use_numba() -> bool:
    name = backend_name()
    if name == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("WORKBENCH_BACKEND=numba but numba is not importable")
    return name == "numba"


def projective_count(q: int, k: int) -> int:
    """Number of projective messages: (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


if _HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _wdist_range_nb(base, scaled, add_tab, lo, hi, counts):  # pragma: no cover
        # base: (n,) int32 codeword of the lead row; scaled: (kk, q, n) int32
        # multiples of the free rows.  Enumerates free-digit odometer states
        # with flat index in [lo, hi), digit 0 most significant.
        kk = scaled.shape[0]
        n = base.shape[0]
        if kk == 0:
            w = 0
            for i in range(n):
                if base[i] != 0:
                    w += 1
            counts[w] += 1
            return
        q = scaled.shape[1]
        digits = np.zeros(kk, np.int64)
        rem = lo
        for t in range(kk):
            pw = 1
            for _ in range(kk - 1 - t):
                pw *= q
            digits[t] = rem // pw
            rem -= digits[t] * pw
        S = np.empty((kk, n), np.int32)  # S[kk-1] is never read back
        done = 0
        total = hi - lo
        t = 0
        while True:
            w = 0
            for u in range(t, kk):
                row = scaled[u, digits[u]]
                if u == 0:
                    prev = base
                else:
                    prev = S[u - 1]
                if u == kk - 1:
                    for i in range(n):
                        if add_tab[prev[i], row[i]] != 0:
                            w += 1
                else:
                    for i in range(n):
                        S[u, i] = add_tab[prev[i], row[i]]
            counts[w] += 1
            done += 1
            if done >= total:
                return
            t = kk - 1
            while digits[t] == q - 1:
                digits[t] = 0
                t -= 1
            digits[t] += 1

    @njit(cache=True, nogil=True)
    def _scan_supports_nb(H, combos, mul_tab, add_tab, inv_tab, neg_tab, flags, nulls):  # pragma: no cover
        # Gauss-Jordan elimination of each 4 x s column submatrix of H.
        N, s = combos.shape
        M = np.empty((4, s), np.int32)
        pivcol = np.empty(4, np.int64)
        for idx in range(N):
            for r in range(4):
                for c in range(s):
                    M[r, c] = H[r, combos[idx, c]]
            rank = 0
            for r in range(4):
                pivcol[r] = -1
            for col in range(s):
                prow = -1
                for r in range(rank, 4):
                    if M[r, col] != 0:
                        prow = r
                        break
                if prow < 0:
                    continue
                if prow != rank:
                    for c in range(s):
                        tmp = M[rank, c]
                        M[rank, c] = M[prow, c]
                        M[prow, c] = tmp
                pinv = inv_tab[M[rank, col]]
                for c in range(s):
                    M[rank, c] = mul_tab[M[rank, c], pinv]
                for r in range(4):
                    if r != rank and M[r, col] != 0:
                        f = M[r, col]
                        for c in range(s):
                            M[r, c] = add_tab[M[r, c], neg_tab[mul_tab[f, M[rank, c]]]]
                pivcol[rank] = col
                rank += 1
                if rank == 4:
                    break
            if rank == s:
                flags[idx] = 0
                continue
            if rank < s - 1:
                flags[idx] = 3
                continue
            free = -1
            used = np.zeros(s, np.uint8)
            for r in range(rank):
                used[pivcol[r]] = 1
            for c in range(s):
                if used[c] == 0:
                    free = c
                    break
            for c in range(s):
                nulls[idx, c] = 0
            nulls[idx, free] = 1
            ok = True
            for r in range(rank):
                v = neg_tab[M[r, free]]
                nulls[idx, pivcol[r]] = v
                if v == 0:
                    ok = False
            flags[idx] = 1 if ok else 2


def weight_counts(gen_matrix: np.ndarray, field, threads: int = 1) -> np.ndarray:
    """Exact counts (A_0..A_n) of the row span; rows must be GF(q)-independent."""
    G = np.ascontiguousarray(gen_matrix, dtype=np.int32)
    k, n = G.shape
    q = field.q
    add_tab = np.ascontiguousarray(field.add_table(), dtype=np.int32)
    scaled = np.empty((k, q, n), dtype=np.int32)
    for j in range(k):
        scaled[j] = field.mul_arr(np.arange(q, dtype=np.int64)[:, None], G[j][None, :])
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    if not use_numba():
        proj = npk.weight_counts_np(scaled, add_tab, q, n)
        counts[1:] += (q - 1) * proj[1:]
        return counts
    proj = np.zeros(n + 1, dtype=np.int64)
    jobs = []
    for lead in range(k):
        base = np.ascontiguousarray(scaled[lead, 1])
        free = np.ascontiguousarray(scaled[lead + 1 :])
        block = q ** (k - 1 - lead)
        nchunks = min(threads, block) if threads > 1 else 1
        bounds = np.linspace(0, block, nchunks + 1, dtype=np.int64)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b > a:
                jobs.append((base, free, int(a), int(b)))
    if threads > 1 and len(jobs) > 1:
        results = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = [
                pool.submit(_run_range, base, free, add_tab, lo, hi, n)
                for base, free, lo, hi in jobs
            ]
            results = [f.result() for f in futs]
        for r in results:
            proj += r
    else:
        for base, free, lo, hi in jobs:
            proj += _run_range(base, free, add_tab, lo, hi, n)
    counts[1:] += (q - 1) * proj[1:]
    return counts


def _run_range(base, free, add_tab, lo, hi, n):
    local = np.zeros(n + 1, dtype=np.int64)
    _wdist_range_nb(base, free, add_tab, lo, hi, local)
    return local


def trace_orbit_counts(big, q: int, n: int, h: int) -> np.ndarray:
    """Exact counts (A_0..A_n) over the words c_(a,b), a != 0, of the trace
    code c_(a,b)[i] = Tr(a gamma^(h i) + b gamma^((h+1) i)), i < n, where
    big = GF(q^m), Tr is the trace onto GF(q) and gamma = alpha^e,
    e = (q^m-1)/n, has order n.

    Scalars lambda in GF(q)* and the cyclic shift by t map (a, b) to
    (lambda a gamma^(h t), lambda b gamma^((h+1) t)) and keep the weight.
    On a they generate the subgroup of index g = gcd((q^m-1)/(q-1), e h)
    of GF(q^m)*, so a = alpha^r, r < g, represents the g orbits, each of
    (q^m-1)/g elements.  For one representative, coordinate i of c_(a,b)
    is zero exactly when b lies on the hyperplane
    B_i = (K - a gamma^(h i)) gamma^(-(h+1) i), K = ker Tr.  Counting for
    every b the hyperplanes through it gives the weights of all q^m words
    c_(a,b) from n (q^(m-1) - 1) Zech lookups, one per nonzero k in K.
    """
    order = big.q - 1
    e = order // n
    eh = e * h % order
    orbits = gcd(order // (q - 1), eh)
    neg_one = 0 if big.p == 2 else order // 2  # log(-1)
    kernel_logs = trace_kernel_logs(big, q)
    i = np.arange(n, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    for r in range(orbits):
        # log(-a gamma^(h i)) and log(-a gamma^(-i)), the k = 0 point of B_i
        shift = (r + neg_one + eh * i) % order
        line0 = (r + neg_one - e * i) % order
        # k = alpha^l: k - a gamma^(h i) = alpha^shift (1 + alpha^(l - shift))
        z = big.zech[(kernel_logs[None, :] - shift[:, None]) % order]
        logs = np.where(z < 0, -1, (line0[:, None] + z) % order)  # -1: b = 0
        zeros = np.bincount(logs.ravel() + 1, minlength=order + 1)
        zeros += np.bincount(line0 + 1, minlength=order + 1)
        hist += np.bincount(n - zeros, minlength=n + 1)
    return hist * (order // orbits)


def scan_supports(H: np.ndarray, combos: np.ndarray, field2) -> tuple[np.ndarray, np.ndarray]:
    """Classify null(H[:, combo]) for each combo.

    Returns (flags, nulls).  Flag meanings: 0 trivial nullspace, 1 unique
    projective nullvector with all entries nonzero (nulls row holds it,
    normalised to leading coefficient 1), 2 unique nullvector with a zero
    entry, 3 nullspace dimension >= 2.
    """
    H = np.ascontiguousarray(H, dtype=np.int32)
    combos = np.ascontiguousarray(combos, dtype=np.int64)
    N, s = combos.shape
    flags = np.zeros(N, dtype=np.int8)
    nulls = np.zeros((N, s), dtype=np.int32)
    if N == 0:
        return flags, nulls
    mul_tab = np.ascontiguousarray(field2.mul_table(), dtype=np.int32)
    add_tab = np.ascontiguousarray(field2.add_table(), dtype=np.int32)
    inv_tab = np.ascontiguousarray(field2.inv_table(), dtype=np.int32)
    neg_tab = np.ascontiguousarray(field2.neg_table(), dtype=np.int32)
    if use_numba():
        _scan_supports_nb(H, combos, mul_tab, add_tab, inv_tab, neg_tab, flags, nulls)
    else:
        npk.scan_supports_np(H, combos, mul_tab, add_tab, neg_tab, flags, nulls)
    # normalise flagged nullvectors to leading coefficient 1
    hit = flags == 1
    if hit.any():
        lead = nulls[hit, 0].astype(np.int64)
        scale = inv_tab[lead].astype(np.int64)
        nulls[hit] = mul_tab[nulls[hit], scale[:, None]]
    return flags, nulls


def check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} items exceeds budget {budget}")
