"""Hot enumeration kernels, in numpy.

Three kernels dominate every long run:

* ``weight_counts`` — exact weight distribution of the row span of a
  generator matrix, enumerating one representative per projective message
  (scalar multiples share a weight) and scaling counts by q-1.  Message
  digits fold into chunked codeword blocks that gather through the dense
  add table.
* ``trace_orbit_counts`` — exact weight distribution of the two-term
  trace code words c_(a,b) with a != 0 over GF(q^m), one orbit
  representative of a per class of the weight-preserving scalar/shift
  group, on log/Zech arrays and the logs of ker Tr, with no dense table.
* ``scan_supports`` — for 4- or 5-column submatrices of a 4-row parity
  matrix over GF(q^2), classify the nullspace and extract the unique
  projective nullvector where it exists, through vectorised adjugate
  minors instead of per-subset elimination.

The tests check each kernel against an independent oracle: brute-force
enumeration, per-subset ``codes.nullspace``, and the closed-form
enumerator with the trace emission.
"""
from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np

from .errors import BudgetExceeded
from .galois import trace_kernel_logs

_CHUNK_ELEMS = 1 << 22


def projective_count(q: int, k: int) -> int:
    """Number of projective messages: (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


def weight_counts(gen_matrix: np.ndarray, field) -> np.ndarray:
    """Exact counts (A_0..A_n) of the row span; rows must be GF(q)-independent."""
    G = np.ascontiguousarray(gen_matrix, dtype=np.int32)
    k, n = G.shape
    q = field.q
    add_tab = np.ascontiguousarray(field.add_table(), dtype=np.int32)
    scaled = np.empty((k, q, n), dtype=np.int32)
    for j in range(k):
        scaled[j] = field.mul_arr(np.arange(q, dtype=np.int64)[:, None], G[j][None, :])
    # projective messages: the first nonzero digit (row `lead`) is 1
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
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    counts[1:] += (q - 1) * proj[1:]
    return counts


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
        raise ValueError("scan_supports handles 4 or 5 columns")
    # normalise flagged nullvectors to leading coefficient 1
    hit = flags == 1
    if hit.any():
        lead = nulls[hit, 0].astype(np.int64)
        scale = inv_tab[lead].astype(np.int64)
        nulls[hit] = mul_tab[nulls[hit], scale[:, None]]
    return flags, nulls


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


def check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} items exceeds budget {budget}")
