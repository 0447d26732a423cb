"""Support designs: extraction from codewords, t-design verification by
direct counting, and the determinant/rank constructions for the weight-4
and weight-5 blocks of the length-(q+1) family codes.

Verification never leans on sufficiency theorems: every t-subset is
counted against every block, and block multiplicities are checked to be
exactly q-1 before dividing (simplicity is a conclusion, not an input).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

import numpy as np

from . import _kernels as kernels
from .codes import (
    LinearCode,
    TraceDualSpec,
    parity_check_rows,
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


@dataclass(frozen=True)
class Design:
    """A verified t-(n, k, lambda) simple design."""

    n_points: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
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
    """Weight-k supports of a code: raw multiset plus the reduced blocks."""

    q: int
    k: int
    n_points: int
    multiset: dict[tuple[int, ...], int]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def b(self) -> int:
        return len(self.blocks)


def _blocks_from_multiset(multiset: dict, q: int, k: int, n_points: int) -> SupportCount:
    for supp, mult in multiset.items():
        if mult != q - 1:
            raise MultiplicityNotQMinus1(
                f"support {supp} carried by {mult} codewords, expected q-1 = {q - 1}"
            )
    blocks = tuple(sorted(multiset))
    return SupportCount(q=q, k=k, n_points=n_points, multiset=dict(multiset), blocks=blocks)


def supports_of_weight(
    source: LinearCode | TraceDualSpec | np.ndarray,
    k: int,
    budget: int | None = None,
    n_points: int | None = None,
    q: int | None = None,
) -> SupportCount:
    """Multiset of weight-k codeword supports, reduced to blocks.

    Enumerates the codewords when that fits the budget; for the family BCH
    codes whose q^k message spaces are out of reach, weight-4 and weight-5
    supports come from the parity-submatrix rank construction instead
    (each hit certifies exactly q-1 codewords on that support).
    """
    budget = default_budget() if budget is None else budget
    if isinstance(source, np.ndarray):
        if n_points is None or q is None:
            raise InvalidParameters("raw codeword arrays need n_points and q")
        return _supports_from_words(source, k, q, n_points)
    if isinstance(source, TraceDualSpec):
        words = source.codewords(budget=budget)
        return _supports_from_words(words, k, source.q, source.n)
    code = source
    if code.codeword_count() <= budget:
        words = code.codewords(budget=budget)
        return _supports_from_words(words, k, code.q, code.n)
    if k in (4, 5) and code.spec is not None and code.spec.n == code.q + 1:
        blocks = _rank_supports(code.q, code.spec.h, k, check_code=code)
        multiset = {blk: code.q - 1 for blk in blocks}
        return SupportCount(
            q=code.q, k=k, n_points=code.n, multiset=multiset, blocks=tuple(sorted(blocks))
        )
    raise BudgetExceeded(
        f"{code.codeword_count()} codewords exceed budget {budget} and no "
        f"structural construction applies for k={k}"
    )


def _supports_from_words(words: np.ndarray, k: int, q: int, n_points: int) -> SupportCount:
    weights = np.count_nonzero(words, axis=1)
    hits = words[weights == k]
    multiset: dict[tuple[int, ...], int] = {}
    for row in hits:
        supp = tuple(np.flatnonzero(row).tolist())
        multiset[supp] = multiset.get(supp, 0) + 1
    return _blocks_from_multiset(multiset, q, k, n_points)


def _rank_supports(q: int, h: int, k: int, check_code: LinearCode | None = None) -> list[tuple[int, ...]]:
    """Weight-k supports (k in {4, 5}) of C_(q,q+1,3,h) from nullspaces of
    4 x k submatrices of the parity-check matrix.

    A support is accepted when the nullspace is one-dimensional with an
    everywhere-nonzero vector; the reconstructed codeword is verified
    against the generator polynomial when the code is supplied.
    """
    n = q + 1
    H, field2 = parity_check_rows(q, h)
    combos = np.array(list(combinations(range(n), k)), dtype=np.int64)
    flags, nulls = kernels.scan_supports(H, combos, field2)
    if (flags == 3).any():
        raise InvalidParameters(
            "parity submatrix with nullity >= 2: the code has weight < 4 words"
        )
    hit_idx = np.flatnonzero(flags == 1)
    blocks = [tuple(combos[i].tolist()) for i in hit_idx]
    if check_code is not None and len(blocks):
        field = check_code.field
        emb = subfield_embedding(field2, field)
        sample = hit_idx if len(hit_idx) <= 64 else hit_idx[:: max(1, len(hit_idx) // 64)]
        for i in sample:
            word = np.zeros(n, dtype=np.int64)
            vals = emb.project_arr(nulls[i].astype(np.int64))
            word[combos[i]] = vals
            if not check_code.contains(word):
                raise InvalidParameters(
                    f"reconstructed weight-{k} word on {tuple(combos[i])} is not in the code"
                )
    return blocks


def verify_design(blocks, n_points: int, t: int) -> tuple[int, int]:
    """Direct exhaustive t-subset counting; returns (lambda, b).

    Raises NotRegular with a witness subset when any t-subset is covered a
    different number of times.  Also asserts the integer identity
    C(n, t) * lambda = b * C(k, t).
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    b = len(blocks)
    if b == 0:
        return 0, 0
    k = len(blocks[0])
    if any(len(blk) != k for blk in blocks):
        raise InvalidParameters("blocks of mixed sizes")
    if not t < k < n_points:
        raise InvalidParameters("need t < k < n_points")
    counts: dict[tuple[int, ...], int] = {}
    for blk in blocks:
        for sub in combinations(blk, t):
            counts[sub] = counts.get(sub, 0) + 1
    lam = None
    for sub in combinations(range(n_points), t):
        c = counts.get(sub, 0)
        if lam is None:
            lam = c
        elif c != lam:
            raise NotRegular(sub, c, lam)
    assert lam is not None
    if comb(n_points, t) * lam != b * comb(k, t):
        raise NotRegular((), comb(n_points, t) * lam, b * comb(k, t))
    return lam, b


def design_from_blocks(blocks, n_points: int, t: int) -> Design:
    lam, b = verify_design(blocks, n_points, t)
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

    For each 3-subset the zero set of the cofactor-expanded quartic f(w) is
    scanned over the whole circle, so every block surfaces from each of its
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

    def det3(c0, c1, c2, r):
        # minor of rows `r` (3-tuple) at columns c0, c1, c2
        a, b, c = rows[r[0]], rows[r[1]], rows[r[2]]
        t1 = f2.mul(f2.mul(a[c0], b[c1]), c[c2])
        t2 = f2.mul(f2.mul(a[c1], b[c2]), c[c0])
        t3 = f2.mul(f2.mul(a[c2], b[c0]), c[c1])
        t4 = f2.mul(f2.mul(a[c2], b[c1]), c[c0])
        t5 = f2.mul(f2.mul(a[c0], b[c2]), c[c1])
        t6 = f2.mul(f2.mul(a[c1], b[c0]), c[c2])
        pos = f2.add(f2.add(t1, t2), t3)
        neg = f2.add(f2.add(t4, t5), t6)
        return f2.sub(pos, neg)

    blocks: set[tuple[int, ...]] = set()
    idx = np.arange(n)
    for x, y, z in combinations(range(n), 3):
        # f(w) = sum_j D_j w^(e_j): cofactors of the w column
        d0 = det3(x, y, z, (1, 2, 3))
        d1 = det3(x, y, z, (0, 2, 3))
        d2 = det3(x, y, z, (0, 1, 3))
        d3 = det3(x, y, z, (0, 1, 2))
        # cofactor expansion along the w column: +d3*w^(pi+1) -d2*w^pi +d1*w -d0
        vals = f2.add_arr(
            f2.add_arr(f2.mul_arr(d3, u_pi1), f2.neg_arr(f2.mul_arr(d2, u_pi))),
            f2.add_arr(f2.mul_arr(d1, u), np.full(n, f2.neg(d0), dtype=np.int64)),
        )
        zeros = idx[vals == 0]
        for w in zeros:
            if w != x and w != y and w != z:
                blocks.add(tuple(sorted((x, y, z, int(w)))))
    return sorted(blocks)


def weight5_blocks_rank(q: int, h: int, budget: int | None = None) -> list[tuple[int, ...]]:
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
    if comb(n, 5) > budget:
        raise BudgetExceeded(f"C({n},5) exceeds budget {budget}")
    return _rank_supports(q, h, 5)
