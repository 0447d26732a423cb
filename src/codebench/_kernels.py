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
  minors instead of per-subset elimination.  The minors are computed on
  logs through two arrays of 4(q^2-1)+1 entries built from the log/Zech
  arrays, in chunks of subsets, with no dense table, so it runs over
  GF(q^2) for every q (GF(6561) at q = 81).

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


class _Logs:
    """GF(Q) elements as logs of alpha, with zero as z = 2(Q-1), for
    products, negatives and sums that are one integer add and one or two
    gathers each, through two arrays of 4(Q-1)+1 entries built from the
    field's log/Zech arrays (no dense Q x Q table):

    * ``red`` reduces a sum of two logs: r mod (Q-1) below z, else z;
    * ``zt``, indexed by d + z with d = log b - log a, is the Zech array
      extended so that a + b = red[log a + zt[d + z]] also when a or b is
      zero: d < -(Q-1) (a = 0) gives log b, d > Q-1 (b = 0) gives log a,
      and a vanishing sum lands in [z, 4(Q-1)], which ``red`` maps to z.
    """

    def __init__(self, field):
        o = field.q - 1
        self.o, self.z = o, 2 * o
        self.field = field
        r = np.arange(4 * o + 1, dtype=np.int64)
        self.red = np.where(r < self.z, r % o, self.z)
        d = r - self.z  # log b - log a
        zt = np.where(d < 0, d, 0)  # a = 0: log a + zt = log b; b = 0: log a
        both = np.abs(d) < o
        zech = field.zech[d[both] % o]
        zt[both] = np.where(zech < 0, self.z, zech)
        self.zt = zt
        self.neg_off = 0 if field.p == 2 else o // 2

    def of(self, reps) -> np.ndarray:
        reps = np.asarray(reps, dtype=np.int64)
        return np.where(reps == 0, self.z, self.field.log[reps])

    def mul(self, a, b):
        return self.red[a + b]

    def add(self, a, b):
        return self.red[a + self.zt[b - a + self.z]]

    def neg(self, a):
        return self.red[a + self.neg_off] if self.neg_off else a


def scan_supports(H: np.ndarray, combos: np.ndarray, field2) -> tuple[np.ndarray, np.ndarray]:
    """Classify null(H[:, combo]) for each combo.

    Returns (flags, nulls).  Flag meanings: 0 trivial nullspace, 1 unique
    projective nullvector with all entries nonzero (nulls row holds it,
    normalised to leading coefficient 1), 2 unique nullvector with a zero
    entry, 3 nullspace dimension >= 2.  The minors are computed on logs
    (see ``_Logs``), in chunks of combos.
    """
    combos = np.ascontiguousarray(combos, dtype=np.int64)
    N, s = combos.shape
    if s not in (4, 5):
        raise ValueError("scan_supports handles 4 or 5 columns")
    flags = np.zeros(N, dtype=np.int8)
    nulls = np.zeros((N, s), dtype=np.int32)
    logs = _Logs(field2)
    LH = logs.of(H)
    step = max(1, _CHUNK_ELEMS // 64)
    for lo in range(0, N, step):
        A = LH[:, combos[lo : lo + step]].transpose(1, 0, 2)  # (chunk, 4, s)
        flags[lo : lo + step], nulls[lo : lo + step] = _classify(A, logs)
    return flags, nulls


def _classify(A: np.ndarray, logs: _Logs) -> tuple[np.ndarray, np.ndarray]:
    """(flags, nulls) of ``scan_supports`` for one chunk of 4 x s log matrices."""
    N, _, s = A.shape
    z = logs.z
    flags = np.zeros(N, dtype=np.int8)
    rows4 = (0, 1, 2, 3)
    memo: dict = {}
    if s == 4:
        sing = _det(A, rows4, rows4, logs, memo) == z
        # adjugate: cofactor vectors along each row are nullvectors
        best = np.full((N, 4), z, dtype=np.int64)
        have = np.zeros(N, dtype=bool)
        for i0 in rows4:
            rows3 = tuple(r for r in rows4 if r != i0)
            v = np.empty((N, 4), dtype=np.int64)
            for j in range(4):
                minor = _det(A, rows3, tuple(c for c in rows4 if c != j), logs, memo)
                v[:, j] = logs.neg(minor) if (i0 + j) % 2 == 1 else minor
            take = sing & (v != z).any(axis=1) & ~have
            best[take] = v[take]
            have |= take
        flags[sing & ~have] = 3
        vec = best
    else:
        vec = np.empty((N, 5), dtype=np.int64)
        for j in range(5):
            m = _det(A, rows4, tuple(c for c in range(5) if c != j), logs, memo)
            vec[:, j] = logs.neg(m) if j % 2 == 1 else m
        have = (vec != z).any(axis=1)  # rank 4
        flags[~have] = 3
    full = have & (vec != z).all(axis=1)
    flags[full] = 1
    flags[have & ~full] = 2
    # nullvectors normalised to leading coefficient 1
    nulls = np.zeros((N, s), dtype=np.int32)
    nulls[full] = logs.field.exp[(vec[full] - vec[full, :1]) % logs.o]
    return flags, nulls


def _det(A, rows, cols, logs, memo):
    """Vectorised determinant (as a log) of A[:, rows][:, :, cols] by
    Laplace expansion.

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
        sub = _det(A, rows[1:], cols[:j] + cols[j + 1 :], logs, memo)
        term = logs.mul(A[:, r0, c], sub)
        if j % 2 == 1:
            term = logs.neg(term)
        acc = term if acc is None else logs.add(acc, term)
    memo[key] = acc
    return acc


def check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} items exceeds budget {budget}")
