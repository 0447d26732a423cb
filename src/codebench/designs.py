"""Support designs: extraction from codewords, t-design verification by
direct counting, and the determinant/rank constructions for the weight-4
and weight-5 blocks of the length-(q+1) family codes.

Verification never leans on sufficiency theorems: every t-subset through
point 0 is counted against every block, and block multiplicities are
checked to be exactly q-1 before dividing (simplicity is a conclusion,
not an input).  The codes and the determinant rows are proved cyclic
before that is used: every route then keeps the blocks through point 0
and returns them as ``CyclicBlocks``, whose t-subset counts through 0
settle every count.  Rows over GF(p^m) closed under the shift are also
closed under the multiplier i -> p i twisted by the Frobenius x -> x^p
(``_rank_supports`` gives the argument), an automorphism of order
ord_(q+1)(p) = 2s; so the rank and determinant routes evaluate only the
subsets through 0 that are least in their multiplier orbit, and expand the
hits back into the orbits.  Each route is still charged every subset
through 0 (C(n-1, k-1) subsets, or C(n-1, 2) n (triple, w) pairs).  The
one words route, for a code and for a trace dual alike, meets the
q^(dim-1) words with c[0] = 1 in two tables of about their square root
each and is charged those words.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import _kernels as kernels
from .codes import (
    LinearCode,
    TraceDualSpec,
    orthogonal,
    require_cyclic,
    rref,
    trace_dual,
)
from .config import DEFAULT_BUDGET
from .cyclotomic import multiplicative_order
from .errors import (
    BudgetExceeded,
    InvalidParameters,
    MultiplicityNotQMinus1,
    NotRegular,
    count_text,
)
from .galois import unit_circle

_CHUNK_ELEMS = 1 << 20  # (triple, w) pairs or t-subset ranks per batch


def ksubsets(n: int, k: int, first: int = 0, stop: int | None = None) -> np.ndarray:
    """The k-subsets of range(n) whose least point lies in [first, stop)
    (every k-subset by default) as sorted rows, in lexicographic order
    (those that contain 0 are the first C(n-1, k-1)).

    Each round appends to every row every value that still leaves room
    for the points after it, so rows stay in lexicographic order."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    stop = n if stop is None else stop
    rows = np.arange(first, min(stop, n - k + 1), dtype=np.int64)[:, None]
    for j in range(1, k):
        lo = rows[:, -1] + 1
        cnt = n - k + j - lo + 1
        starts = np.cumsum(cnt) - cnt
        nxt = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(starts - lo, cnt)
        rows = np.column_stack([np.repeat(rows, cnt, axis=0), nxt])
    return rows


class CyclicBlocks(Sequence):
    """A block set closed under the rotation i -> i+1 mod n, held as its
    blocks through point 0 (``hits``: distinct sorted rows starting with
    0, in lexicographic order).

    Every block B is H + c for exactly one hit H = B - min B and
    c = min B <= n-1-max H, so b = sum over hits of (n - max H); as every
    point lies in as many blocks as 0 does, b k = hits n as well, and the
    constructor checks both.  As a sequence the blocks come in
    lexicographic order (least point c first, then the hits that fit), and
    it compares equal to any sequence of the same blocks in that order.
    """

    def __init__(self, hits: np.ndarray, n: int):
        hits = np.asarray(hits, dtype=np.int64)
        rows = max(1, _CHUNK_ELEMS // max(1, hits.shape[-1]))
        for lo in range(0, len(hits), rows):  # chunks overlap by one row pair
            part = hits[max(lo - 1, 0) : lo + rows]
            step = np.diff(part, axis=0)  # the first nonzero step of each row pair must be > 0
            if ((part[:, 0] != 0).any() or (np.diff(part, axis=1) <= 0).any()
                    or part[:, -1].max() >= n
                    or (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any()):
                raise InvalidParameters(
                    "hits must be distinct increasing rows in range(n) that start at 0, "
                    "in lexicographic order"
                )
        self.hits, self.n, self.k = hits, n, hits.shape[1]
        self._b = int((n - hits[:, -1]).sum()) if len(hits) else 0
        if self._b * self.k != len(hits) * n:
            raise InvalidParameters(
                f"{len(hits)} blocks through 0 of size {self.k} rotate to {self._b} "
                f"blocks, not {len(hits)} * {n} / {self.k}: the set is not rotation-closed"
            )

    def __len__(self) -> int:
        return self._b

    def __iter__(self):
        top = self.hits[:, -1]
        for c in range(self.n):
            yield from map(tuple, (self.hits[top < self.n - c] + c).tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):  # as tuple(self)[i], iterating only over the span
            picks = range(self._b)[i]
            if not picks:
                return ()
            lo, hi = min(picks[0], picks[-1]), max(picks[0], picks[-1])
            span = tuple(islice(self, lo, hi + 1))
            return tuple(span[j - lo] for j in picks)
        i = range(self._b)[i]
        top = self.hits[:, -1]
        for c in range(self.n):
            fit = np.flatnonzero(top < self.n - c)
            if i < len(fit):
                return tuple((self.hits[fit[i]] + c).tolist())
            i -= len(fit)

    def __eq__(self, other):
        if isinstance(other, CyclicBlocks):
            return self.n == other.n and np.array_equal(self.hits, other.hits)
        if isinstance(other, Sequence):
            return len(self) == len(other) and list(self) == [tuple(blk) for blk in other]
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class Design:
    """A verified t-(n, k, lambda) simple design."""

    n_points: int
    k: int
    blocks: CyclicBlocks
    t: int
    lam: int
    b: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_points,
            "k": self.k,
            "t": self.t,
            "lambda": self.lam,
            "b": self.b,
            "steiner": steiner_check(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_block_file(self) -> str:
        lines = [f"{self.n_points} {self.k} {self.b}"]
        lines += [" ".join(map(str, blk)) for blk in self.blocks]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SupportCount:
    """Weight-k supports of a code, each carried by exactly q-1 codewords
    (the routes raise otherwise), as rotation-closed blocks."""

    blocks: CyclicBlocks

    @property
    def b(self) -> int:
        return len(self.blocks)


def supports_of_weight(
    source: LinearCode | TraceDualSpec, k: int, budget: int | None = None
) -> SupportCount:
    """Weight-k codeword supports, each checked to be carried by exactly
    q-1 codewords, reduced to blocks, by the route that ``support_route``
    chooses and charges.

    The words route compares the words with c[0] = 1 of the source's
    generator rows (``_supports_through_zero``).  The rank route takes the
    weight-4 and weight-5 supports of C_(q,q+1,3,h) from the
    parity-submatrix rank scan of the k-subsets through point 0, one per
    multiplier orbit.  Both routes first prove that the code is cyclic,
    and both return ``CyclicBlocks``.
    """
    if support_route(source, k, budget) == "words":
        return SupportCount(_supports_through_zero(source, k, budget))
    return SupportCount(_rank_supports(trace_dual(source.q, source.spec.h), k, check_code=source))


def support_route(source: LinearCode | TraceDualSpec, k: int, budget: int | None = None) -> str:
    """The route of ``supports_of_weight`` for (source, k), after checking
    its charge against the budget: "words" when the q^(dim-1) words with
    c[0] = 1 fit it, dim = 2m for a trace dual; else, for a code, "rank"
    for k in {4, 5} on C_(q,q+1,3,h), charged all C(n-1, k-1) subsets
    through 0.  Raises InvalidParameters for a block size outside
    [1, n], and BudgetExceeded when no route fits, so a suite can price
    its phases before it runs the first."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if not 1 <= k <= source.n:
        raise InvalidParameters(f"need a block size 1 <= k <= {source.n}, got k={k}")
    if isinstance(source, TraceDualSpec):
        kernels.check_budget(source.q ** (2 * source.m - 1), budget)
        return "words"
    charge = source.q ** max(source.k - 1, 0)
    if charge <= budget:
        return "words"
    spec = source.spec
    if k in (4, 5) and spec is not None and spec.delta == 3 and spec.n == source.q + 1:
        kernels.check_budget(comb(source.n - 1, k - 1), budget)
        return "rank"
    raise BudgetExceeded(
        f"{count_text(charge)} codewords with c[0] = 1 exceed budget {budget} and no "
        f"structural construction applies for k={k}"
    )


def _supports_through_zero(
    source: LinearCode | TraceDualSpec, k: int, budget: int | None = None
) -> CyclicBlocks:
    """Weight-k supports of a cyclic code from its words with c[0] = 1.

    A support through 0 is carried by q-1 words, the scalar multiples of
    one; exactly one of them has c[0] = 1.  So each support through 0 must
    come from exactly one of these words, and the rotations of those
    supports are all the supports once the generator rows G are proved
    cyclic.  With R = rref(G) pivoting on column 0, the words with
    c[0] = 1 are R[0] + span(R[1:]), met in two tables: left[x] in
    R[0] + span(R[1:1+a]) and right[y] in -span(R[1+a:]), which is the
    set span(R[1+a:]), a = (rank G - 1) // 2.  Coordinate i of
    left[x] - right[y] is zero exactly when left[x, i] == right[y, i], so
    the tables are compared a few rows of left at a time and the rows with
    k unequal coordinates kept, each packed into bytes as the complement
    of its support: byte order is then lexicographic order of the
    supports, and repeats are adjacent."""
    G = source.gen_matrix if isinstance(source, LinearCode) else source.basis_matrix()
    field, n, q = source.field, source.n, source.q
    require_cyclic(G, field)
    R, pivots = rref(G, field)
    packed = [np.zeros((0, (n + 7) // 8), dtype=np.uint8)]
    if pivots[:1] == [0]:
        a = (len(R) - 1) // 2
        small = np.min_scalar_type(q - 1)
        span = LinearCode(field, n, R[1 : 1 + a]).codewords(budget)
        left = field.add_arr(span, R[0]).astype(small)
        right = LinearCode(field, n, R[1 + a :]).codewords(budget).astype(small)
        step = max(1, (1 << 22) // right.size)
        for lo in range(0, len(left), step):
            nz = (left[lo : lo + step, None, :] != right[None, :, :]).reshape(-1, n)
            packed.append(np.packbits(~nz[np.count_nonzero(nz, axis=1) == k], axis=1))
    packed = np.concatenate(packed)
    keys = np.sort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    off = np.unpackbits(keys.view(np.uint8).reshape(packed.shape), axis=1, count=n)
    same = keys[1:] == keys[:-1]
    if same.any():
        j = int(same.argmax())
        run = 1 + int(np.append(same[j:], False).argmin())
        raise MultiplicityNotQMinus1(
            f"support {tuple(np.flatnonzero(off[j] == 0).tolist())} carried by "
            f"{(q - 1) * run} codewords, expected q-1 = {q - 1}"
        )
    points = np.flatnonzero(off == 0)
    points %= n
    return CyclicBlocks(points.reshape(-1, k), n)


def _rank_supports(td: TraceDualSpec, k: int, check_code: LinearCode | None = None) -> CyclicBlocks:
    """Weight-k supports (k in {4, 5}) of C_(q,q+1,3,h) from nullspaces of
    4 x k submatrices of its parity-check matrix ``td.parity_rows()``.

    A support is accepted when the nullspace is one-dimensional with an
    everywhere-nonzero vector.  ``require_cyclic`` proves the row space R
    of the parity-check matrix closed under the shift; that also closes it
    under the multiplier i -> p i twisted by the Frobenius, with no second
    proof.  R is then an ideal of GF(p^m)[x]/(x^n - 1), so with every row
    r(x) it holds r(x)^p = sum r_i^p x^(p i mod n), the image psi(r) of r
    (p is prime to n, so i -> p i permutes the columns).  psi is injective,
    so it maps the finite R onto itself, and for every nullvector c,
    psi(r) . psi(c) = (r . c)^p = 0: psi maps the nullspace onto itself
    too, the support of psi(c) being p supp(c).  So the subsets S, S + 1 and
    p S have nullspaces of one dimension and the same kind, and only the
    subsets through 0 that are least in their multiplier orbit are scanned:
    the hits through 0 are their orbits, and the other blocks are
    rotations.  When the code is supplied, the reconstructed codeword of
    every scanned hit is checked against its check matrix; the other hits
    through 0 carry the images of those words under psi.
    """
    n, field2 = td.n, td.big
    H = td.parity_rows()
    require_cyclic(H, field2)
    mults = _multipliers(n, field2.p)
    supports, nulls = [np.zeros((0, k), dtype=np.int64)], [np.zeros((0, k), dtype=np.int32)]
    for combos in _orbit_least(n, k, mults):
        flags, chunk_nulls = kernels.scan_supports(H, combos, field2)
        if (flags == 3).any():
            raise InvalidParameters(
                f"parity submatrix with nullity >= 2: the code has weight < {k} words"
            )
        hit = flags == 1
        supports.append(combos[hit])
        nulls.append(chunk_nulls[hit])
    supports = np.concatenate(supports)
    if check_code is not None and len(supports):
        field = check_code.field
        words = np.zeros((len(supports), n), dtype=np.int64)
        vals = td.embedding.project_arr(np.concatenate(nulls))
        np.put_along_axis(words, supports, vals, axis=1)
        H = check_code.check_matrix
        if not orthogonal(words, H, field):
            bad = next(j for j in range(len(words)) if not orthogonal(words[j : j + 1], H, field))
            raise InvalidParameters(
                f"reconstructed weight-{k} word on {tuple(supports[bad].tolist())} "
                "is not in the code"
            )
    return CyclicBlocks(_orbit_union(supports, n, mults), n)


# ---------------------------------------------------------------------------
# multiplier orbits of the subsets through 0

# compare-exchange pairs that sort the two to four points after 0 (k = 3..5)
_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


def _multipliers(n: int, p: int) -> list[int]:
    """p^j mod n for j < ord_n(p): the multiplier group generated by p."""
    return [pow(p, j, n) for j in range(multiplicative_order(p, n))]


def _image_keys(rows: np.ndarray, n: int, mults: list[int]) -> np.ndarray:
    """keys[j, i], the key of sorted(mults[j] S mod n) for the row S = rows[i]
    through 0: its points after 0 as the digits of a base-n integer, so
    that key order is lexicographic order.  r 0 = 0, and a sorting network
    on the columns orders the rest."""
    small = np.int32 if n * n < 1 << 31 else np.int64  # r x < n^2 before the mod
    tails = np.ascontiguousarray(rows[:, 1:].T, dtype=small)
    cols = list(tails[:, None, :] * np.array(mults, dtype=small)[None, :, None] % n)
    for a, b in _NETWORKS[len(cols)]:
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    keys = cols[0].astype(np.int64)
    for c in cols[1:]:
        keys = keys * n + c
    return keys


def _orbit_least(n: int, k: int, mults: list[int]):
    """The k-subsets of range(n) through 0 whose key is least in their orbit
    under the multipliers (mults[0] = 1), one per orbit, as sorted rows in
    lexicographic order, yielded in chunks.

    The first digit of an image's key is its least point after 0.  So a
    subset is least only if its first point a after 0 is least in its own
    point orbit and no other point x has an image r x below a; only the
    subsets of such points are listed, in runs of their tails
    (``_tail_runs``), and their keys compared.  A chunk is the least rows
    of at most max(_CHUNK_ELEMS / (k |mults|), C(n-3, k-3)) candidates."""
    low = _point_least(n, mults)
    points = np.flatnonzero(low == np.arange(n))[1:]
    step = max(1, _CHUNK_ELEMS // (k * len(mults)))
    parts, size = [], 0
    for a in points:
        rest = np.flatnonzero(low >= a)
        rest = rest[rest > a]
        for lo, hi in _tail_runs(len(rest), k - 2, step):
            tails = rest[ksubsets(len(rest), k - 2, lo, hi)]
            if size + len(tails) > step and size:
                yield _least_rows(np.concatenate(parts), n, mults, step)
                parts, size = [], 0
            parts.append(np.column_stack([np.zeros(len(tails), dtype=np.int64),
                                          np.full(len(tails), a), tails]))
            size += len(tails)
    if parts:
        yield _least_rows(np.concatenate(parts), n, mults, step)


def _point_least(n: int, mults: list[int]) -> np.ndarray:
    """low[i], the least image r i mod n of each point i under the multipliers."""
    return np.min([np.arange(n) * r % n for r in mults], axis=0)


def _tail_runs(r: int, t: int, step: int) -> list[tuple[int, int]]:
    """Runs [lo, hi) of first points that split the t-subsets of range(r)
    into lexicographic runs of at most step subsets, or of the C(r-1-j, t-1)
    subsets that one first point j leads when those alone are more."""
    if comb(r, t) <= step:
        return [(0, r)]
    runs, lo, size = [], 0, 0
    for j in range(r - t + 1):
        lead = comb(r - 1 - j, t - 1)
        if size + lead > step and size:
            runs.append((lo, j))
            lo, size = j, 0
        size += lead
    runs.append((lo, r))
    return runs


def _least_rows(rows: np.ndarray, n: int, mults: list[int], step: int) -> np.ndarray:
    """The rows whose key is least among their multiplier images, their
    keys computed step rows at a time."""
    keep = np.zeros(len(rows), dtype=bool)
    for lo in range(0, len(rows), step):
        keys = _image_keys(rows[lo : lo + step], n, mults)
        keep[lo : lo + step] = keys[0] == keys.min(axis=0)
    return rows[keep]


def _triple_orbit_least(n: int, mults: list[int]):
    """The triples {0, x, y}, x < y, whose key x n + y is least over their
    images r (T - t) mod n, t in T and r in mults (mults[0] = 1): one
    triple per orbit of the group of the maps i -> r i + c, as sorted rows
    in lexicographic order, yielded in chunks.

    Every orbit holds triples through 0, each an image r (T - t) of any
    other, so exactly one of them holds the least key.  That triple is
    least among its images r T, so it is a row of ``_orbit_least(n, 3,
    mults)``; each chunk of those rows is filtered to the ones whose key is
    also no more than every multiplier image of their other two rotations
    through 0, {0, y - x, n - x} and {0, n - y, n - y + x}.  The first
    digit of an image's key is its least point after 0, so a row with some
    r (y - x) below x is dropped before its keys are computed."""
    low = _point_least(n, mults)
    for rows in _orbit_least(n, 3, mults):
        rows = rows[low[rows[:, 2] - rows[:, 1]] >= rows[:, 1]]
        _, x, y = rows.T
        keep = np.ones(len(rows), dtype=bool)
        for turned in ((y - x, n - x), (n - y, n - y + x)):
            turned = np.column_stack([np.zeros_like(x), *turned])
            keep &= x * n + y <= _image_keys(turned, n, mults).min(axis=0)
        yield rows[keep]


def _orbit_union(rows: np.ndarray, n: int, mults: list[int]) -> np.ndarray:
    """Every image r S mod n of the rows S through 0 under the multipliers,
    as distinct sorted rows in lexicographic order."""
    keys = np.sort(_image_keys(rows, n, mults), axis=None)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    out = np.zeros((len(keys), rows.shape[1]), dtype=np.int64)
    for j in range(rows.shape[1] - 1, 0, -1):
        keys, out[:, j] = np.divmod(keys, n)
    return out


def _lex_rank(points: np.ndarray, cidx: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank among the t-subsets of range(n) of each subset
    points[r, cidx[i]], as an array [r, i]; rows of points increase within
    [0, n).  The rank of c_0 < ... < c_(t-1) is
    C(n,t) - 1 - sum_j C(n-1-c_j, t-j)."""
    t = cidx.shape[1]
    binom = np.array([[comb(a, j) for j in range(t + 1)] for a in range(n)], dtype=np.int64)
    ranks = np.full((len(points), len(cidx)), comb(n, t) - 1, dtype=np.int64)
    for j in range(t):
        ranks -= binom[n - 1 - points, t - j][:, cidx[:, j]]
    return ranks


def _counts_through_zero(blocks: CyclicBlocks, t: int) -> np.ndarray:
    """How many blocks hold each t-subset through 0, indexed by its
    lexicographic rank among all t-subsets of range(n) (those through 0
    are the first C(n-1, t-1)).

    The blocks through 0 are the hits, so T = {0} + S lies in as many
    blocks as there are hits whose tail holds S, S a (t-1)-subset of the
    points 1..n-1.  Each hit's tail ranks C(k-1, t-1) subsets, its
    complement the C(n-k, j) subsets of each size j < t; the count ranks
    whichever side ranks fewer (``_tail_counts``, ``_complement_counts``).
    """
    n, k = blocks.n, blocks.k
    if sum(comb(n - k, j) for j in range(1, t)) < comb(k - 1, t - 1):
        return _complement_counts(blocks, t)
    return _tail_counts(blocks, t)


def _tail_counts(blocks: CyclicBlocks, t: int) -> np.ndarray:
    """``_counts_through_zero`` by ranking every (t-1)-subset of every
    hit's tail as a (t-1)-subset of the points 1..n-1."""
    n = blocks.n
    tails = blocks.hits[:, 1:] - 1
    cidx = ksubsets(blocks.k - 1, t - 1)
    counts = np.zeros(comb(n - 1, t - 1), dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // len(cidx))
    for lo in range(0, len(tails), step):
        ranks = _lex_rank(tails[lo : lo + step], cidx, n - 1)
        counts += np.bincount(ranks.ravel(), minlength=len(counts))
    return counts


def _complement_counts(blocks: CyclicBlocks, t: int) -> np.ndarray:
    """``_counts_through_zero`` by inclusion-exclusion over the hits'
    complements in the points 1..n-1.

    A hit's tail holds S exactly when its complement misses S, so the count
    of S is sum over U in S of (-1)^|U| r(U), r(U) the number of hits whose
    complement holds U (r of the empty set is the number of hits); for
    t = 3 that is H - r(x) - r(y) + r(x, y).  r is counted by ranking the
    j-subsets of every complement, j < t."""
    n, k, hits = blocks.n, blocks.k, blocks.hits
    cidx = [ksubsets(n - k, j) for j in range(t)]
    r = [np.zeros(comb(n - 1, j), dtype=np.int64) for j in range(t)]
    step = max(1, _CHUNK_ELEMS // max(n, *map(len, cidx)))
    for lo in range(0, len(hits), step):
        chunk = hits[lo : lo + step]
        missing = np.ones((len(chunk), n), dtype=bool)
        np.put_along_axis(missing, chunk, False, axis=1)
        comps = np.nonzero(missing[:, 1:])[1].reshape(len(chunk), n - k)
        for j in range(t):
            r[j] += np.bincount(_lex_rank(comps, cidx[j], n - 1).ravel(), minlength=len(r[j]))
    subsets = ksubsets(n - 1, t - 1)
    counts = np.zeros(len(subsets), dtype=np.int64)
    for j in range(t):
        counts += (-1) ** j * r[j][_lex_rank(subsets, ksubsets(t - 1, j), n - 1)].sum(axis=1)
    return counts


def verify_design(blocks: CyclicBlocks, n_points: int, t: int) -> tuple[int, int]:
    """Direct exhaustive t-subset counting; returns (lambda, b).

    The set is rotation-closed, so lambda(T) = lambda(T - min T), and
    T - min T, which holds 0, comes no later than T in lexicographic
    order: every t-subset through 0 of every hit is ranked and the ranks
    are counted, which settles all C(n, t) counts exactly.  Raises
    NotRegular with the lexicographically first t-subset covered a
    different number of times than (0, ..., t-1).  Also asserts the
    integer identity C(n, t) * lambda = b * C(k, t), a cross-check of the
    through-0 count against the block count.
    """
    if t < 1:
        raise InvalidParameters(f"design strength t must be >= 1, got {t}")
    k = blocks.k
    if not t < k < n_points:
        raise InvalidParameters(f"need t < k < n, got t={t}, k={k}, n={n_points}")
    if blocks.n != n_points:
        raise InvalidParameters(f"blocks rotate on {blocks.n} points, not {n_points}")
    b = len(blocks)
    if b == 0:
        return 0, 0
    counts = _counts_through_zero(blocks, t)
    lam = int(counts[0])
    off = np.flatnonzero(counts != lam)
    if len(off):
        witness = next(islice(combinations(range(n_points), t), int(off[0]), None))
        raise NotRegular(witness, int(counts[off[0]]), lam)
    if comb(n_points, t) * lam != b * comb(k, t):
        raise NotRegular((), comb(n_points, t) * lam, b * comb(k, t))
    return lam, b


def design_from_blocks(blocks: CyclicBlocks, n_points: int, t: int) -> Design:
    lam, b = verify_design(blocks, n_points, t)
    return Design(n_points=n_points, k=blocks.k, blocks=blocks, t=t, lam=lam, b=b)


def steiner_check(design: Design) -> bool:
    return design.lam == 1 and design.t >= 2


# ---------------------------------------------------------------------------
# the determinant construction on the unit circle


def weight4_blocks_det(q: int, h: int, budget: int | None = None) -> CyclicBlocks:
    """4-subsets {x,y,z,w} of U_(q+1) with singular matrix of rows
    (1, u, u^(p^i), u^(p^i+1)), as coordinate indices via u = beta^index.

    The shift u -> beta u multiplies each row by a constant, and
    ``require_cyclic`` proves the rows closed under it; as in
    ``_rank_supports``, that also closes their nullspace under the
    multiplier i -> p i twisted by the Frobenius.  A 4-subset is singular
    when a nonzero nullvector has its support inside it, so the singular
    4-subsets are closed under rotation and under S -> p S.  Each singular 4-subset
    through 0 comes out of its three triples that hold 0, and one of its
    multiplier images out of a triple least in its multiplier orbit.  So
    only those triples are evaluated: the four 3 x 3 cofactors of each are
    computed at once, on logs by ``kernels._det``, and the
    cofactor-expanded quartic f(w) is evaluated on logs for every w on the
    circle; the multiplier images of the zeros, as a set, are the blocks
    through 0.  Charged the C(n-1,2) n (triple, w) pairs of every triple
    through 0, as when each was evaluated.
    """
    td = trace_dual(q, h)  # validates dimension
    pi = td.p_i  # refuses a non-family h
    n = q + 1
    kernels.check_budget(comb(n - 1, 2) * n, budget)
    f2 = td.big
    u = unit_circle(f2)
    u_pi = f2.pow_arr(u, pi)
    u_pi1 = f2.mul_arr(u_pi, u)
    rows = np.vstack([np.ones(n, dtype=np.int64), u, u_pi, u_pi1])
    require_cyclic(rows, f2)
    mults = _multipliers(n, f2.p)
    step = max(1, _CHUNK_ELEMS // n)
    quads = [np.zeros((0, 4), dtype=np.int64)]
    for triples in _orbit_least(n, 3, mults):
        quads += [_quartic_zero_blocks(f2, rows, triples[lo : lo + step])
                  for lo in range(0, len(triples), step)]
    return CyclicBlocks(_orbit_union(np.concatenate(quads), n, mults), n)


def _quartic_zero_blocks(f2, rows: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Sorted 4-subsets {x, y, z, w}, one row per triple (x, y, z) and zero
    w outside it of the quartic f(w) = det[rows at x, y, z, w]."""
    L = f2.log[rows]
    A = L[:, triples].transpose(1, 0, 2)  # (triples, 4, 3) logs
    memo: dict = {}
    # f(w) = sum_j D_j w^(e_j) for every triple (rows) and w (columns), by
    # cofactor expansion along the w column: +d3*w^(pi+1) -d2*w^pi +d1*w -d0
    d0, d1, d2, d3 = (
        kernels._det(A, tuple(r for r in range(4) if r != j), (0, 1, 2), f2, memo)[:, None]
        for j in range(4)
    )
    _, u, u_pi, u_pi1 = L
    mul, add, neg = f2.mul_logs, f2.add_logs, f2.neg_logs
    vals = add(add(mul(d3, u_pi1), neg(mul(d2, u_pi))), add(mul(d1, u), neg(d0)))
    t_idx, w = np.nonzero(vals == f2.log_zero)
    x, y, z = triples.T
    new = (w != x[t_idx]) & (w != y[t_idx]) & (w != z[t_idx])
    return np.sort(np.column_stack([triples[t_idx[new]], w[new]]), axis=1)


def weight5_blocks_rank(q: int, h: int, budget: int | None = None) -> CyclicBlocks:
    """5-subsets supporting weight-5 codewords of C_(q,q+1,3,h), via the
    4 x 5 parity submatrix: rank 4 with an everywhere-nonzero nullvector.

    Valid in the p=3, gcd(i,s)=1 family, where the rank is provably 4 for
    every 5-subset; a lower rank aborts instead of guessing.
    """
    td = trace_dual(q, h)
    if td.i is None or td.p_m != 3:
        raise InvalidParameters("weight-5 construction needs the p=3, m=1 family")
    kernels.check_budget(comb(td.n - 1, 4), budget)
    return _rank_supports(td, 5)
