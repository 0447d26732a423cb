"""Pure-numpy fallbacks for the hot kernels.

Same contracts as the jitted versions in ``_kernels``; selected by setting
``WORKBENCH_BACKEND=numpy``.  Weight counting folds message digits into
chunked codeword blocks and gathers through the dense add table; the
support scan classifies nullspaces through vectorised adjugate minors
instead of per-subset elimination.
"""
from __future__ import annotations

from itertools import product

import numpy as np

_CHUNK_ELEMS = 1 << 22


def weight_counts_np(scaled: np.ndarray, add_tab: np.ndarray, q: int, n: int) -> np.ndarray:
    """Projective weight counts for the span of rows scaled[:, 1, :]."""
    k = scaled.shape[0]
    proj = np.zeros(n + 1, dtype=np.int64)
    for lead in range(k):
        base = scaled[lead, 1]
        free = scaled[lead + 1 :]
        kk = free.shape[0]
        t = 0
        while t < kk and (q ** (t + 1)) * n <= _CHUNK_ELEMS:
            t += 1
        block = base[None, :]
        for u in range(t):
            block = add_tab[block[:, None, :], free[u][None, :, :]].reshape(-1, n)
        rest = free[t:]
        if rest.shape[0] == 0:
            w = np.count_nonzero(block, axis=1)
            proj += np.bincount(w, minlength=n + 1)
            continue
        for combo in product(range(q), repeat=rest.shape[0]):
            vec = np.zeros(n, dtype=np.int32)
            for c, row in zip(combo, rest):
                vec = add_tab[vec, row[c]]
            w = np.count_nonzero(add_tab[block, vec[None, :]], axis=1)
            proj += np.bincount(w, minlength=n + 1)
    return proj


def _det(A, rows, cols, mul_tab, add_tab, neg_tab, memo):
    """Vectorised determinant of A[:, rows][:, :, cols] by Laplace expansion.

    Minors are cached in memo by (rows, cols), so every minor is computed
    once however many expansions share it."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        return A[:, rows[0], cols[0]]
    r0 = rows[0]
    acc = None
    for j, c in enumerate(cols):
        sub = _det(A, rows[1:], cols[:j] + cols[j + 1 :], mul_tab, add_tab, neg_tab, memo)
        term = mul_tab[A[:, r0, c], sub]
        if j % 2 == 1:
            term = neg_tab[term]
        acc = term if acc is None else add_tab[acc, term]
    memo[key] = acc
    return acc


def scan_supports_np(H, combos, mul_tab, add_tab, neg_tab, flags, nulls) -> None:
    N, s = combos.shape
    A = H[:, combos].transpose(1, 0, 2)  # (N, 4, s)
    rows4 = (0, 1, 2, 3)
    memo: dict = {}
    if s == 4:
        det4 = _det(A, rows4, (0, 1, 2, 3), mul_tab, add_tab, neg_tab, memo)
        flags[det4 != 0] = 0
        sing = det4 == 0
        # adjugate: cofactor vectors along each row are nullvectors
        best = np.zeros((N, 4), dtype=np.int32)
        have = np.zeros(N, dtype=bool)
        any_cof = np.zeros(N, dtype=bool)
        for i0 in (0, 1, 2, 3):
            rows3 = tuple(r for r in rows4 if r != i0)
            v = np.empty((N, 4), dtype=np.int32)
            for j in range(4):
                cols3 = tuple(c for c in range(4) if c != j)
                minor = _det(A, rows3, cols3, mul_tab, add_tab, neg_tab, memo)
                v[:, j] = neg_tab[minor] if (i0 + j) % 2 == 1 else minor
            nz = (v != 0).any(axis=1)
            any_cof |= nz
            take = sing & nz & ~have
            best[take] = v[take]
            have |= take
        flags[sing & ~any_cof] = 3
        good = sing & any_cof
        full = good & (best != 0).all(axis=1)
        flags[full] = 1
        flags[good & ~full] = 2
        nulls[full] = best[full]
    elif s == 5:
        minors = np.empty((N, 5), dtype=np.int32)
        for j in range(5):
            cols4 = tuple(c for c in range(5) if c != j)
            m = _det(A, rows4, cols4, mul_tab, add_tab, neg_tab, memo)
            minors[:, j] = neg_tab[m] if j % 2 == 1 else m
        rank4 = (minors != 0).any(axis=1)
        flags[~rank4] = 3
        full = rank4 & (minors != 0).all(axis=1)
        flags[full] = 1
        flags[rank4 & ~full] = 2
        nulls[full] = minors[full]
    else:  # pragma: no cover
        raise ValueError("scan_supports_np handles 4 or 5 columns")
