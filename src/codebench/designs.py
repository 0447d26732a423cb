"""Support designs: extraction from codewords, t-design verification by
direct counting, and the determinant/rank constructions for the weight-4
and weight-5 blocks of the length-(q+1) family codes.

Verification never leans on sufficiency theorems: every t-subset is
counted against every block, and block multiplicities are checked to be
exactly q-1 before dividing (simplicity is a conclusion, not an input).
The codes are cyclic, which is proved before it is used: their supports
then come from the subsets or words through point 0 and are held as
``CyclicBlocks``, whose t-subset counts through 0 settle every count.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, gcd

import numpy as np

from . import _kernels as kernels
from .codes import (
    LinearCode,
    TraceDualSpec,
    group_rows,
    orthogonal,
    parity_check_rows,
    require_cyclic,
    row_keys,
    trace_dual,
)
from .config import default_budget
from .errors import (
    BudgetExceeded,
    InvalidParameters,
    MultiplicityNotQMinus1,
    NotRegular,
)
from .galois import field_for_order, prime_power, subfield_embedding, unit_circle

_CHUNK_ELEMS = 1 << 20  # (triple, w) pairs or t-subset ranks per batch


def ksubsets(n: int, k: int, through0: bool = False) -> np.ndarray:
    """The k-subsets of range(n) as sorted rows, in lexicographic order;
    with through0, only those that contain 0 (the first C(n-1, k-1)).

    Each round appends to every row every value that still leaves room
    for the points after it, so rows stay in lexicographic order."""
    if k == 0:
        return np.zeros((0 if through0 else 1, 0), dtype=np.int64)
    rows = np.arange(min(1, n - k + 1) if through0 else n - k + 1, dtype=np.int64)[:, None]
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
        step = np.diff(hits, axis=0)  # the first nonzero step of each row pair must be > 0
        if len(hits) and ((hits[:, 0] != 0).any() or (np.diff(hits, axis=1) <= 0).any()
                          or hits[:, -1].max() >= n
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

    def __getitem__(self, i: int) -> tuple[int, ...]:
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
    blocks: Sequence[tuple[int, ...]]
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
    (the routes raise otherwise), as sorted blocks."""

    q: int
    k: int
    n_points: int
    blocks: Sequence[tuple[int, ...]]

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def multiset(self) -> dict[tuple[int, ...], int]:
        return {blk: self.q - 1 for blk in self.blocks}


def supports_of_weight(
    source: LinearCode | TraceDualSpec | np.ndarray,
    k: int,
    budget: int | None = None,
    n_points: int | None = None,
    q: int | None = None,
) -> SupportCount:
    """Weight-k codeword supports, each checked to be carried by exactly
    q-1 codewords, reduced to blocks.

    Codes whose q^k codewords fit the budget are enumerated.  Otherwise
    the weight-4 and weight-5 supports of C_(q,q+1,3,h) come from the
    parity-submatrix rank scan of the k-subsets through point 0, charged
    C(n-1, k-1).  The trace dual's supports come from its q^(2m-1) words
    with c_(a,b)[0] = 1, charged q^(2m-1).  Both of these routes first
    prove that the code is cyclic and return ``CyclicBlocks``.
    """
    budget = default_budget() if budget is None else budget
    if isinstance(source, np.ndarray):
        if n_points is None or q is None:
            raise InvalidParameters("raw codeword arrays need n_points and q")
        return _supports_from_words(source, k, q, n_points)
    if isinstance(source, TraceDualSpec):
        return _trace_supports(source, k, budget)
    code = source
    if code.codeword_count() <= budget:
        words = code.codewords(budget=budget)
        return _supports_from_words(words, k, code.q, code.n)
    spec = code.spec
    if k in (4, 5) and spec is not None and spec.delta == 3 and spec.n == code.q + 1:
        kernels.check_budget(comb(code.n - 1, k - 1), budget)
        blocks = _rank_supports(code.q, spec.h, k, check_code=code)
        return SupportCount(q=code.q, k=k, n_points=code.n, blocks=blocks)
    raise BudgetExceeded(
        f"{code.codeword_count()} codewords exceed budget {budget} and no "
        f"structural construction applies for k={k}"
    )


def _group_supports(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(supports, mults): the distinct rows of a boolean array of weight-k
    rows, as sorted point rows in order of first appearance, and how many
    rows share each."""
    # one key column is the support bitmask itself while n <= 63
    order, starts = group_rows(row_keys(rows, 2))
    first = order[starts]  # the sort is stable: each support's first row
    mults = np.diff(starts, append=len(order))
    seen = np.argsort(first)
    return np.nonzero(rows[first[seen]])[1].reshape(len(seen), k), mults[seen]


def _supports_from_words(words: np.ndarray, k: int, q: int, n_points: int) -> SupportCount:
    supports, mults = _group_supports(words[np.count_nonzero(words, axis=1) == k] != 0, k)
    bad = np.flatnonzero(mults != q - 1)
    if len(bad):
        raise MultiplicityNotQMinus1(
            f"support {tuple(supports[bad[0]].tolist())} carried by {mults[bad[0]]} "
            f"codewords, expected q-1 = {q - 1}"
        )
    blocks = tuple(sorted(map(tuple, supports.tolist())))
    return SupportCount(q=q, k=k, n_points=n_points, blocks=blocks)


def _trace_supports(td: TraceDualSpec, k: int, budget: int) -> SupportCount:
    """Weight-k supports of the trace dual from its words with c[0] = 1.

    A support through 0 is carried by q-1 words, the scalar multiples of
    one; exactly one of them has c[0] = 1.  So each support through 0 must
    come from exactly one of these words, and the rotations of those
    supports are all the supports, the code being cyclic."""
    kernels.check_budget(td.big.q**2 // td.q, budget)
    require_cyclic(td.basis_matrix(), td.field)
    supports, mults = _group_supports(td.through_zero_supports(k), k)
    bad = np.flatnonzero(mults != 1)
    if len(bad):
        raise MultiplicityNotQMinus1(
            f"support {tuple(supports[bad[0]].tolist())} carried by "
            f"{(td.q - 1) * mults[bad[0]]} codewords, expected q-1 = {td.q - 1}"
        )
    hits = supports[np.lexsort(supports.T[::-1])]
    return SupportCount(q=td.q, k=k, n_points=td.n, blocks=CyclicBlocks(hits, td.n))


def _rank_supports(q: int, h: int, k: int, check_code: LinearCode | None = None) -> CyclicBlocks:
    """Weight-k supports (k in {4, 5}) of C_(q,q+1,3,h) from nullspaces of
    4 x k submatrices of the parity-check matrix.

    A support is accepted when the nullspace is one-dimensional with an
    everywhere-nonzero vector.  Once the parity-check matrix is proved to
    span a rotation-closed row space, the nullspaces of H[:, S] and
    H[:, S + 1] agree up to the shift, so only the C(n-1, k-1) subsets
    through 0 are scanned and the rest are their rotations.  When the
    code is supplied, every reconstructed codeword through 0 is checked
    against its check matrix.
    """
    n = q + 1
    H, field2 = parity_check_rows(q, h)
    require_cyclic(H, field2)
    combos = ksubsets(n, k, through0=True)
    flags, nulls = kernels.scan_supports(H, combos, field2)
    if (flags == 3).any():
        raise InvalidParameters(
            "parity submatrix with nullity >= 2: the code has weight < 4 words"
        )
    hit_idx = np.flatnonzero(flags == 1)
    supports = combos[hit_idx]
    if check_code is not None and len(hit_idx):
        field = check_code.field
        words = np.zeros((len(hit_idx), n), dtype=np.int64)
        vals = subfield_embedding(field2, field).project_arr(nulls[hit_idx])
        np.put_along_axis(words, supports, vals, axis=1)
        H = check_code.check_matrix
        if not orthogonal(words, H, field):
            bad = next(j for j in range(len(words)) if not orthogonal(words[j : j + 1], H, field))
            raise InvalidParameters(
                f"reconstructed weight-{k} word on {tuple(supports[bad].tolist())} "
                "is not in the code"
            )
    return CyclicBlocks(supports, n)


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
    blocks as there are hits whose tail holds S; the tails are ranked
    as (t-1)-subsets of the points 1..n-1."""
    n = blocks.n
    tails = blocks.hits[:, 1:] - 1
    cidx = ksubsets(blocks.k - 1, t - 1)
    counts = np.zeros(comb(n - 1, t - 1), dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // len(cidx))
    for lo in range(0, len(tails), step):
        ranks = _lex_rank(tails[lo : lo + step], cidx, n - 1)
        counts += np.bincount(ranks.ravel(), minlength=len(counts))
    return counts


def _counts_all(blocks, n_points: int, t: int) -> np.ndarray:
    """How many blocks hold each t-subset of range(n), by lexicographic rank."""
    k = len(blocks[0])

    def proper(a):  # rows of distinct points in range(n), rows sorted
        return (a[:, 0] >= 0) & (a[:, -1] < n_points) & (np.diff(a, axis=1) > 0).all(axis=1)

    rows = np.sort(np.asarray(blocks, dtype=np.int64), axis=1)
    cidx = ksubsets(k, t)
    simple = proper(rows)
    # of a block with a point outside range(n) or a repeated point, only
    # the t-subsets of t distinct points in range(n) are counted
    subs = rows[~simple][:, cidx].reshape(-1, t)
    ranks = np.concatenate([
        _lex_rank(rows[simple], cidx, n_points).ravel(),
        _lex_rank(subs[proper(subs)], np.arange(t)[None, :], n_points).ravel(),
    ])
    return np.bincount(ranks, minlength=comb(n_points, t))


def verify_design(blocks, n_points: int, t: int) -> tuple[int, int]:
    """Direct exhaustive t-subset counting; returns (lambda, b).

    Every t-subset of every block is ranked in lexicographic order and the
    ranks are counted, so all C(n, t) counts are exact.  For ``CyclicBlocks``
    only the t-subsets through 0 are counted, over the hits: the set is
    rotation-closed, so lambda(T) = lambda(T - min T), and T - min T,
    which holds 0, comes no later than T in lexicographic order.  Raises
    NotRegular with the lexicographically first t-subset covered a
    different number of times than (0, ..., t-1).  Also asserts the
    integer identity C(n, t) * lambda = b * C(k, t), which fails when the
    counts are regular but a block holds a point outside range(n) or a
    repeated point.
    """
    b = len(blocks)
    if b == 0:
        return 0, 0
    cyclic = isinstance(blocks, CyclicBlocks)
    k = blocks.k if cyclic else len(blocks[0])
    if not cyclic and any(len(blk) != k for blk in blocks):
        raise InvalidParameters("blocks of mixed sizes")
    if not t < k < n_points:
        raise InvalidParameters("need t < k < n_points")
    if cyclic and blocks.n != n_points:
        raise InvalidParameters(f"blocks rotate on {blocks.n} points, not {n_points}")
    counts = _counts_through_zero(blocks, t) if cyclic else _counts_all(blocks, n_points, t)
    lam = int(counts[0])
    off = np.flatnonzero(counts != lam)
    if len(off):
        witness = next(islice(combinations(range(n_points), t), int(off[0]), None))
        raise NotRegular(witness, int(counts[off[0]]), lam)
    if comb(n_points, t) * lam != b * comb(k, t):
        raise NotRegular((), comb(n_points, t) * lam, b * comb(k, t))
    return lam, b


def design_from_blocks(blocks, n_points: int, t: int) -> Design:
    lam, b = verify_design(blocks, n_points, t)
    if not isinstance(blocks, CyclicBlocks):  # those are sorted already
        blocks = tuple(sorted(tuple(sorted(blk)) for blk in blocks))
    k = len(blocks[0]) if blocks else 0
    return Design(n_points=n_points, k=k, blocks=blocks, t=t, lam=lam, b=b)


def steiner_check(design: Design) -> bool:
    return design.lam == 1 and design.t >= 2


# ---------------------------------------------------------------------------
# the determinant construction on the unit circle


def weight4_blocks_det(q: int, h: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """4-subsets {x,y,z,w} of U_(q+1) with singular matrix of rows
    (1, u, u^(p^i), u^(p^i+1)), as coordinate indices via u = beta^index.

    The four 3 x 3 cofactors of every 3-subset are computed at once, and
    the cofactor-expanded quartic f(w) is evaluated for every 3-subset
    and every w on the circle, so every block surfaces from each of its
    triples; the dedup to a set is exact.
    """
    budget = default_budget() if budget is None else budget
    td = trace_dual(q, h)  # validates dimension; supplies family and i
    if td.i is None:
        raise InvalidParameters(f"h={h} is in neither family for q={q}")
    n = q + 1
    if comb(n, 4) > budget:
        raise BudgetExceeded(f"C({n},4) exceeds budget {budget}")
    p, s = prime_power(q)
    pi = p**td.i
    f2 = field_for_order(q * q)
    circle = unit_circle(f2)
    u = np.array(circle.elements, dtype=np.int64)
    u_pi = f2.pow_arr(u, pi)
    u_pi1 = f2.mul_arr(u_pi, u)
    rows = np.vstack([np.ones(n, dtype=np.int64), u, u_pi, u_pi1])
    triples = ksubsets(n, 3)
    step = max(1, _CHUNK_ELEMS // n)
    quads = [_quartic_zero_blocks(f2, rows, triples[lo : lo + step])
             for lo in range(0, len(triples), step)]
    return list(map(tuple, np.unique(np.concatenate(quads), axis=0).tolist()))


def _quartic_zero_blocks(f2, rows: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Sorted 4-subsets {x, y, z, w}, one row per triple (x, y, z) and zero
    w outside it of the quartic f(w) = det[rows at x, y, z, w]."""
    x, y, z = triples.T
    mul, add = f2.mul_arr, f2.add_arr

    def det3(r0, r1, r2):
        # minor of rows r0, r1, r2 at the columns x, y, z of every triple
        a, b, c = rows[r0], rows[r1], rows[r2]
        pos = add(add(mul(mul(a[x], b[y]), c[z]), mul(mul(a[y], b[z]), c[x])),
                  mul(mul(a[z], b[x]), c[y]))
        neg = add(add(mul(mul(a[z], b[y]), c[x]), mul(mul(a[x], b[z]), c[y])),
                  mul(mul(a[y], b[x]), c[z]))
        return f2.sub_arr(pos, neg)[:, None]

    # f(w) = sum_j D_j w^(e_j) for every triple (rows) and w (columns), by
    # cofactor expansion along the w column: +d3*w^(pi+1) -d2*w^pi +d1*w -d0
    d0, d1, d2, d3 = det3(1, 2, 3), det3(0, 2, 3), det3(0, 1, 3), det3(0, 1, 2)
    _, u, u_pi, u_pi1 = rows
    vals = add(
        add(mul(d3, u_pi1), f2.neg_arr(mul(d2, u_pi))),
        add(mul(d1, u), f2.neg_arr(d0)),
    )
    t_idx, w = np.nonzero(vals == 0)
    new = (w != x[t_idx]) & (w != y[t_idx]) & (w != z[t_idx])
    return np.sort(np.column_stack([triples[t_idx[new]], w[new]]), axis=1)


def weight5_blocks_rank(q: int, h: int, budget: int | None = None) -> CyclicBlocks:
    """5-subsets supporting weight-5 codewords of C_(q,q+1,3,h), via the
    4 x 5 parity submatrix: rank 4 with an everywhere-nonzero nullvector.

    Valid in the p=3, gcd(i,s)=1 family, where the rank is provably 4 for
    every 5-subset; a lower rank aborts instead of guessing.
    """
    budget = default_budget() if budget is None else budget
    td = trace_dual(q, h)
    p, s = prime_power(q)
    if td.i is None or p != 3 or gcd(td.i, s) != 1:
        raise InvalidParameters("weight-5 construction needs the p=3, m=1 family")
    n = q + 1
    if comb(n - 1, 4) > budget:
        raise BudgetExceeded(f"C({n - 1},4) exceeds budget {budget}")
    return _rank_supports(q, h, 5)
