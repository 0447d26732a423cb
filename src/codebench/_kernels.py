"""Hot enumeration kernels, in numpy.

Three kernels dominate every long run:

* ``weight_counts`` — exact weight distribution of the row span of a
  generator matrix, enumerating one representative per projective message
  (scalar multiples share a weight) and scaling counts by q-1.  Message
  digits fold into chunked codeword blocks of words packed into uint64
  lanes (``galois.Lanes``), added and weighed a lane at a time.
* ``trace_orbit_counts`` — exact weight distribution of the two-term
  trace code words c_(a,b) with a != 0 over GF(q^m), one orbit
  representative of a per class of the weight-preserving scalar/shift
  group, on the field's log/Zech arrays and the logs of ker Tr, with no
  dense table.  The Frobenius x -> x^p permutes those representatives
  and keeps the weights, so only the least of each of its classes
  (``frobenius_classes``) is counted, weighted by the class size.
* ``scan_supports`` — for 2- to 5-column submatrices of a 4-row parity
  matrix over GF(q^2), or of each matrix of a stack of them, classify the
  nullspace and extract the unique projective nullvector where it exists,
  through vectorised minors instead of per-subset elimination.  A
  submatrix is singular when all its s x s minors vanish, each computed
  only where the ones before it vanished, and its nullvector is a
  cofactor vector.  The minors (``_det``, also the cofactors of
  ``designs.weight4_blocks_det``) are computed on logs with the field's
  log-domain ops, in chunks of (matrix, subset) pairs, with no dense
  table, so it runs over GF(q^2) for every q (GF(6561) at q = 81).  The
  design routes hand it one subset through 0 per orbit of the
  Frobenius-twisted multiplier i -> p i, which the proved shift implies
  (``designs._orbit_least``), about 1/(2s) of the C(n-1, k-1) they are
  charged for, a chunk at a time.  ``weights.distance_is_three`` hands it
  the stacked parity rows of every undecided code of ``thm3.5`` with the
  pairs through 0, then with chunks of one triple per orbit of the
  rotations and multipliers (``designs._triple_orbit_least``, a filter
  over the triples of ``designs._orbit_least``).

Every kernel indexes the one set of log/antilog/Zech arrays that
``galois.Field`` holds.  The tests check each kernel against an
independent oracle: brute-force enumeration, per-subset
``codes.nullspace``, and the closed-form enumerator with the trace
emission.
"""
from __future__ import annotations

from itertools import combinations, product
from math import gcd

import numpy as np

from .config import DEFAULT_BUDGET
from .cyclotomic import coset_leaders
from .errors import BudgetExceeded, count_text
from .galois import trace_kernel_logs

_CHUNK_ELEMS = 1 << 22


def projective_count(q: int, k: int) -> int:
    """Number of projective messages: (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


def weight_counts(gen_matrix: np.ndarray, field) -> np.ndarray:
    """Exact counts (A_0..A_n) of the row span; rows must be GF(q)-independent."""
    G = np.asarray(gen_matrix)
    k, n = G.shape
    q = field.q
    lanes = field.lanes(n)
    # scaled[j] holds the packed multiples c G[j], c in GF(q); the first
    # row is only ever a leading row, with c = 1
    step = max(1, _CHUNK_ELEMS // max(n, 1))
    scaled = np.zeros((k, lanes.count, q), dtype=np.uint64)
    for j in range(k):
        scalars = np.arange(q if j else 2, dtype=np.int64)
        for lo in range(0, len(scalars), step):
            c = scalars[lo : lo + step, None]
            scaled[j, :, lo : lo + len(c)] = lanes.pack(field.mul_arr(c, G[j][None, :]))
    # projective messages: the first nonzero digit (row `lead`) is 1
    proj = np.zeros(n + 1, dtype=np.int64)
    for lead in range(k):
        block = scaled[lead, :, 1:2]
        free = scaled[lead + 1 :]
        kk = free.shape[0]
        t = 0
        while t < kk and (q ** (t + 1)) * lanes.count <= _CHUNK_ELEMS:
            t += 1
        for u in range(t):
            block = lanes.add(block[:, :, None], free[u][:, None, :]).reshape(lanes.count, -1)
        rest = free[t:]
        if rest.shape[0] == 0:
            proj += np.bincount(lanes.weights(block), minlength=n + 1)
            continue
        for combo in product(range(q), repeat=rest.shape[0]):
            vec = rest[0][:, combo[0]]
            for c, row in zip(combo[1:], rest[1:]):
                vec = lanes.add(vec, row[:, c])
            proj += np.bincount(lanes.weights(lanes.add(block, vec[:, None])), minlength=n + 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    counts[1:] += (q - 1) * proj[1:]
    return counts


def trace_orbits(qm: int, q: int, n: int, t: int) -> int:
    """g = gcd((q^m-1)/(q-1), e t), e = (q^m-1)/n, qm = q^m: the orbits of
    the scalar/shift group on the words c_(a,b), a != 0, of the trace code
    at offset t (see ``trace_orbit_counts``).  At t = h+1 it counts the
    orbits on b != 0 at offset h."""
    order = qm - 1
    return gcd(order // (q - 1), order // n * t % order)


def frobenius_classes(g: int, p: int) -> list[tuple[int, int]]:
    """(least r, size) of each orbit of r -> p r mod g, by increasing r:
    the p-cyclotomic cosets mod g (p is prime to g, a divisor of q^m - 1).
    These are the classes of the representatives a = alpha^r, r < g, of
    ``trace_orbit_counts``."""
    return [(c.leader, c.size) for c in coset_leaders(g, p)]


def trace_orbit_counts(big, q: int, n: int, h: int) -> np.ndarray:
    """Exact counts (A_0..A_n) over the words c_(a,b), a != 0, of the trace
    code c_(a,b)[i] = Tr(a gamma^(h i) + b gamma^((h+1) i)), i < n, where
    big = GF(q^m), Tr is the trace onto GF(q) and gamma = alpha^e,
    e = (q^m-1)/n, has order n.

    Scalars lambda in GF(q)* and the cyclic shift by t map (a, b) to
    (lambda a gamma^(h t), lambda b gamma^((h+1) t)) and keep the weight.
    On a they generate the subgroup of index g = gcd((q^m-1)/(q-1), e h)
    of GF(q^m)*, so a = alpha^r, r < g, represents the g orbits, each of
    (q^m-1)/g elements.  The Frobenius x -> x^p commutes with Tr, so it
    maps c_(a,b) onto c_(a^p,b^p) with the coordinates permuted by
    i -> p i: r and p r mod g have one histogram over b, and only the least
    r of each class of ``frobenius_classes`` is counted, weighted by the
    class size.  For one representative, coordinate i of c_(a,b) is zero
    exactly when b lies on the hyperplane
    B_i = (K - a gamma^(h i)) gamma^(-(h+1) i), K = ker Tr.  Counting for
    every b the hyperplanes through it gives the weights of all q^m words
    c_(a,b) from n (q^(m-1) - 1) Zech lookups, one per nonzero k in K.
    """
    order = big.q - 1
    e = order // n
    eh = e * h % order
    orbits = trace_orbits(big.q, q, n, h)
    kernel_logs = trace_kernel_logs(big, q)
    i = np.arange(n, dtype=np.int64)
    # a few coordinates i at a time, so no n x |K| array is held
    rows = max(1, _CHUNK_ELEMS // max(len(kernel_logs), 1))
    hist = np.zeros(n + 1, dtype=np.int64)
    for r, size in frobenius_classes(orbits, big.p):
        # log(-a gamma^(h i)) and log(-a gamma^(-i)), the k = 0 point of B_i
        shift = (r + big.log_neg_one + eh * i) % order
        line0 = (r + big.log_neg_one - e * i) % order
        # zeros[log b] counts the hyperplanes through b (at most n); order: b = 0
        zeros = np.bincount(line0, minlength=order + 1)
        zeros = zeros.astype(np.int16 if n < 1 << 15 else np.int32)
        for lo in range(0, n, rows):
            # k = alpha^l: k - a gamma^(h i) = alpha^shift (1 + alpha^(l - shift))
            one_plus = big.zech.take(kernel_logs - shift[lo : lo + rows, None] + big.log_zero)
            logs = big.mul_logs(line0[lo : lo + rows, None], one_plus)
            del one_plus  # before the (q^m)-entry bincount
            zeros += np.bincount(np.minimum(logs, order, out=logs).ravel(), minlength=order + 1)
        hist += size * np.bincount(np.subtract(n, zeros, out=zeros), minlength=n + 1)
    return hist * (order // orbits)


def scan_supports(H: np.ndarray, combos: np.ndarray, field2) -> tuple[np.ndarray, np.ndarray]:
    """Classify null(H[:, combo]) for each combo of 2 to 5 columns.

    H is one r x n matrix or a stack (c, r, n) of them; the results then
    run over the (matrix, combo) pairs, matrix-major, one flat row each.
    Returns (flags, nulls).  Flag meanings: 0 trivial nullspace, 1 unique
    projective nullvector with all entries nonzero (nulls row holds it,
    normalised to leading coefficient 1), 2 unique nullvector with a zero
    entry, 3 nullspace dimension >= 2.  The minors are computed on logs
    (see ``galois.Field``), in chunks of pairs.
    """
    combos = np.ascontiguousarray(combos, dtype=np.int64)
    N, s = combos.shape
    if not 2 <= s <= 5:
        raise ValueError("scan_supports handles 2 to 5 columns")
    H = np.asarray(H)
    H = H[None] if H.ndim == 2 else H
    c, r, _ = H.shape
    flags = np.zeros(c * N, dtype=np.int8)
    nulls = np.zeros((c * N, s), dtype=np.int32)
    step = max(1, _CHUNK_ELEMS // (64 * c))
    for lo in range(0, N, step):
        part = combos[lo : lo + step]
        # X[i, j] holds the logs of entry (i, j) of every (matrix, combo)
        # pair of this chunk, matrix-major, so each entry is one contiguous row
        X = np.empty((r, s, c * len(part)), dtype=field2.log.dtype)
        for i in range(r):
            for j in range(s):
                field2.log.take(H[:, i, part[:, j]], out=X[i, j].reshape(c, -1))
        at = (np.arange(c)[:, None] * N + np.arange(lo, lo + len(part))).ravel()
        flags[at], nulls[at] = _classify(X.transpose(2, 0, 1), field2)
    return flags, nulls


def _classify(A: np.ndarray, field) -> tuple[np.ndarray, np.ndarray]:
    """(flags, nulls) of ``scan_supports`` for one chunk of r x s log matrices.

    A matrix is singular when all its s x s minors vanish; each is computed
    only where the ones before it vanished (``_singular``).  The
    cofactors along s-1 rows, where not all zero, are a nullvector of those
    rows, which then span the row space of a rank s-1 matrix: so they are
    its nullvector, and a singular matrix with none has nullity >= 2."""
    N, r, s = A.shape
    z = field.log_zero
    flags = np.zeros(N, dtype=np.int8)
    nulls = np.zeros((N, s), dtype=np.int32)
    sing = _singular(A, field)
    B = A if len(sing) == N else A[sing]
    cols = tuple(range(s))
    vec = np.full((len(B), s), z, dtype=np.int64)
    have = np.zeros(len(B), dtype=bool)
    memo: dict = {}
    for rows in combinations(range(r), s - 1):
        if have.all():
            break
        v = np.empty((len(B), s), dtype=np.int64)
        for j in cols:
            minor = _det(B, rows, cols[:j] + cols[j + 1 :], field, memo)
            v[:, j] = field.neg_logs(minor) if j % 2 == 1 else minor
        take = ~have & (v != z).any(axis=1)
        vec[take] = v[take]
        have |= take
    flags[sing[~have]] = 3
    full = have & (vec != z).all(axis=1)
    flags[sing[full]] = 1
    flags[sing[have & ~full]] = 2
    # nullvectors normalised to leading coefficient 1
    nulls[sing[full]] = field.exp[(vec[full] - vec[full, :1]) % (field.q - 1)]
    return flags, nulls


def _singular(A: np.ndarray, field) -> np.ndarray:
    """The indices of the stacked r x s log matrices whose s x s minors all
    vanish (rank < s; every matrix when s > r), each minor computed only
    where the ones before it vanished."""
    N, r, s = A.shape
    live = np.arange(N)
    cols = tuple(range(s))
    for rows in combinations(range(r), s):
        if not len(live):
            break
        sub = A if len(live) == N else A[live]
        live = live[_det(sub, rows, cols, field, {}) == field.log_zero]
    return live


def _det(A, rows, cols, field, memo):
    """Vectorised determinant (as a log) of A[:, rows][:, :, cols], a stack
    of matrices of logs over the field, by Laplace expansion.

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
        sub = _det(A, rows[1:], cols[:j] + cols[j + 1 :], field, memo)
        term = field.mul_logs(A[:, r0, c], sub)
        if j % 2 == 1:
            term = field.neg_logs(term)
        acc = term if acc is None else field.add_logs(acc, term)
    memo[key] = acc
    return acc


def check_budget(count: int, budget: int | None = None) -> None:
    """Raise BudgetExceeded when count exceeds budget (None: the default)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count_text(count)} items exceeds budget {budget}")
