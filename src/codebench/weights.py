"""Weight distributions, the MacWilliams transform, and Singleton classes.

All counting is exact big-integer arithmetic, counts as Python ints.  The
MacWilliams transform sums Krawtchouk values over the nonzero counts, so
its cost grows with n times the number of nonzero weights, and it doubles
as a consistency check: a dual count that is not a non-negative integer
raises immediately rather than rounding.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .codes import LinearCode, orthogonal, rank, require_cyclic, root_powers, trace_dual
from .config import DEFAULT_BUDGET
from .cyclotomic import coset, splitting_field
from .designs import _multipliers, _triple_orbit_least
from .errors import (
    BudgetExceeded,
    DegenerateDimension,
    FourWeightViolation,
    InvalidParameters,
    NonIntegerResult,
    count_text,
)
from .galois import prime_power

_CHUNK_PAIRS = 1 << 18  # (code, triple) pairs per scan of the weight-3 route


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    q: int
    k: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise InvalidParameters("need exactly n+1 counts")
        if self.counts[0] != 1:
            raise InvalidParameters("A_0 must be 1")
        if any(c < 0 for c in self.counts):
            raise InvalidParameters("counts must be non-negative")
        if sum(self.counts) != self.q**self.k:
            raise InvalidParameters(
                f"counts sum to {sum(self.counts)}, expected q^k = {self.q**self.k}"
            )

    def d(self) -> int | None:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        return None

    def nonzero(self) -> dict[int, int]:
        return {i: c for i, c in enumerate(self.counts) if c}

    def support(self) -> set[int]:
        return {i for i in range(1, self.n + 1) if self.counts[i]}

    def to_csv(self) -> str:
        lines = ["i,A_i"] + [f"{i},{c}" for i, c in enumerate(self.counts) if c]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "q": self.q, "k": self.k, "counts": list(self.counts)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _enumerate(code: LinearCode, budget: int | None) -> tuple[WeightDistribution, bool]:
    """Count the cheapest affordable route; returns (counts, dual side?).

    The one place that picks a route, and the one caller of
    ``TraceDualSpec.weight_distribution``.  Routes, in units charged
    against the budget:
      * direct — the projective messages of the code;
      * dual — the projective messages of the dual;
      * trace orbit — for delta = 3 codes whose cosets C_h, C_(h+1) are
        distinct of size m, the trace code's (g+1) q^m orbit words; taken
        only once its 2m x n basis B is proven to span the dual
        (G B^T = 0 and rank B = n - k), else the next route is tried.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    costs = {
        "direct": code.enumeration_cost(),
        "dual": kernels.projective_count(code.q, code.n - code.k) + 1,
    }
    spec = code.spec
    if spec is not None and spec.delta == 3 and (spec.q, spec.n) == (code.q, code.n):
        try:
            td = trace_dual(spec.q, spec.h, spec.n)
            costs["trace orbit"] = td.enumeration_cost()
        except DegenerateDimension:
            pass
    for route in sorted(costs, key=costs.get):
        if costs[route] > budget:
            break
        if route == "trace orbit":
            B = td.basis_matrix()
            in_dual = orthogonal(code.gen_matrix, B, code.field)
            if in_dual and rank(B, code.field) == code.n - code.k:
                return td.weight_distribution(budget=budget), True
            continue
        counted = code if route == "direct" else code.dual()
        counts = kernels.weight_counts(counted.gen_matrix, counted.field)
        wd = WeightDistribution(code.n, code.q, counted.k, tuple(int(c) for c in counts))
        return wd, route == "dual"
    listed = ", ".join(f"{route}={count_text(cost)}" for route, cost in costs.items())
    raise BudgetExceeded(f"min({listed}) exceeds budget {budget}")


def distance_is_three(q: int, budget: int | None = None) -> list[bool]:
    """Whether d(C_(q,q+1,3,h)) = 3, for h = 0..q, from rank scans of the
    parity rows, every distinct code at once.

    The code of h has the zeros gamma^t, t in Z = C_h u C_(h+1), and one
    code per distinct Z is scanned (C_h and C_(q-h) share theirs).  Its
    parity rows gamma^(t i), t = h, h+1, qh, q(h+1), run over Z, so their
    nullspace over GF(q^2) is the code's extension, and Z, closed under
    t -> q t, makes that extension have a basis over GF(q) (Galois
    descent): the code has a word supported on a set S exactly when the
    columns S of its rows are dependent.  The rows are proved cyclic, which
    also closes the dependent sets under i -> p i (see
    ``designs._rank_supports``), so one triple per orbit of the maps
    i -> r i + c settles every triple, and the pairs through 0 every pair;
    ``designs._triple_orbit_least`` takes those triples from the ones that
    ``designs._orbit_least`` lists for the multipliers alone.  d = 3
    exactly when no pair has rank <= 1 and some triple has rank <= 2.  The
    triples are scanned in chunks, and a code drops out at its first
    dependent triple.

    Charged codes ((n-1) + triple representatives) subset scans, before
    GF(q^2) is built."""
    p, _ = prime_power(q)
    n = q + 1
    zeros = [tuple(sorted({*coset(n, q, h).members, *coset(n, q, h + 1).members}))
             for h in range(n)]
    first = {}  # each distinct zero set, with its least h
    for h, key in enumerate(zeros):
        first.setdefault(key, h)
    if n in map(len, first):
        raise InvalidParameters("zero code has no minimum distance")
    triples = np.concatenate(list(_triple_orbit_least(n, _multipliers(n, p))))
    kernels.check_budget(len(first) * (n - 1 + len(triples)), budget)
    big, _ = splitting_field(q, n)
    H = root_powers(big, n, [(h, h + 1, q * h, q * (h + 1)) for h in first.values()])
    for rows in H:
        require_cyclic(rows, big)
    pairs = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    light = (kernels.scan_supports(H, pairs, big)[0].reshape(len(H), -1) != 0).any(axis=1)
    three = np.zeros(len(H), dtype=bool)
    live = np.flatnonzero(~light)
    H, lo = H[live], 0
    while len(live) and lo < len(triples):
        chunk = triples[lo : lo + max(1, _CHUNK_PAIRS // len(live))]
        lo += len(chunk)
        flags = kernels.scan_supports(H, chunk, big)[0].reshape(len(live), -1)
        if (flags >= 2).any():
            j, at = np.argwhere(flags >= 2)[0]
            raise InvalidParameters(
                f"zeros {list(first)[live[j]]}: columns {tuple(chunk[at].tolist())} have a "
                "nullvector with a zero entry or nullity >= 2, though no pair is dependent"
            )
        hit = (flags == 1).any(axis=1)
        if hit.any():
            three[live[hit]] = True
            live, H = live[~hit], H[~hit]
    decided = dict(zip(first, three.tolist()))
    return [decided[key] for key in zeros]


def weight_distribution(code: LinearCode, budget: int | None = None) -> WeightDistribution:
    """Exact weight distribution from the cheapest affordable enumeration
    (see ``_enumerate``), transformed back when the dual side was counted."""
    counted, dual_side = _enumerate(code, budget)
    return macwilliams(counted) if dual_side else counted


def dual_distribution(code: LinearCode, budget: int | None = None) -> WeightDistribution:
    """Exact weight distribution of the dual of code, from the same
    enumeration; a counted dual is returned as it is, not transformed twice."""
    counted, dual_side = _enumerate(code, budget)
    return counted if dual_side else macwilliams(counted)


def distribution_pair(
    code: LinearCode, budget: int | None = None
) -> tuple[WeightDistribution, WeightDistribution]:
    """(code, dual) distributions from one enumeration and one transform."""
    counted, dual_side = _enumerate(code, budget)
    other = macwilliams(counted)
    return (other, counted) if dual_side else (counted, other)


def macwilliams(wd: WeightDistribution) -> WeightDistribution:
    """Weight distribution of the dual code, A*_j = q^-k sum_i A_i K_j(i).

    The Krawtchouk values come from the three-term recurrence
    (j+1) K_(j+1)(i) = ((n-j)(q-1) + j - q i) K_j(i) - (q-1)(n-j+1) K_(j-1)(i)
    over the nonzero A_i only.
    """
    n, k, q = wd.n, wd.k, wd.q
    terms = [(i, c) for i, c in enumerate(wd.counts) if c]
    size = q**k
    prev, cur = [0] * len(terms), [1] * len(terms)
    out: list[int] = []
    for j in range(n + 1):
        s = sum(c * kj for (_, c), kj in zip(terms, cur))
        if s % size:
            raise NonIntegerResult(f"A*_{j} is not an integer")
        if s < 0:
            raise NonIntegerResult(f"A*_{j} = {s // size} is negative")
        out.append(s // size)
        prev, cur = cur, [
            (((n - j) * (q - 1) + j - q * i) * kj - (q - 1) * (n - j + 1) * kp) // (j + 1)
            for (i, _), kj, kp in zip(terms, cur, prev)
        ]
    return WeightDistribution(n=n, q=q, k=n - k, counts=tuple(out))


@dataclass(frozen=True)
class Classification:
    label: str  # MDS | NMDS | AMDS-not-NMDS | ordinary
    d: int
    d_dual: int
    singleton_defect: int

    def to_json_dict(self) -> dict:
        return {"label": self.label, "d": self.d, "d_dual": self.d_dual}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def classify(code: LinearCode, budget: int | None = None) -> Classification:
    """Singleton classification from exact d and d_dual, both read off
    ``distribution_pair``: one enumeration serves both distances."""
    if code.k == 0 or code.k == code.n:
        raise InvalidParameters("classification needs 0 < k < n")
    wd, dual_wd = distribution_pair(code, budget=budget)
    d, ddual = wd.d(), dual_wd.d()
    defect = code.n - code.k + 1 - d
    dual_defect = code.k + 1 - ddual
    if defect == 0:
        label = "MDS"
    elif defect == 1 and dual_defect == 1:
        label = "NMDS"
    elif defect == 1:
        label = "AMDS-not-NMDS"
    else:
        label = "ordinary"
    return Classification(label=label, d=d, d_dual=ddual, singleton_defect=defect)


def enumerator_formula(q: int, p_m: int) -> WeightDistribution:
    """Closed-form five-term weight distribution of the 4-dimensional dual
    for the two h-families (valid whenever p^m >= 3)."""
    if p_m < 3:
        raise InvalidParameters("closed form requires p^m >= 3")
    p, s = prime_power(q)
    pm_p, m = prime_power(p_m)
    if pm_p != p or s % m != 0 or m >= s:
        raise InvalidParameters(f"p^m={p_m} is not a proper subfield order of q={q}")
    n = q + 1
    counts = [0] * (n + 1)
    counts[0] = 1
    pairs = [
        (q - p_m, (q - 1) ** 2 * q * (q + 1), (p_m**2 - 1) * p_m),
        (q - 1, (q**2 - 1) * q * ((q + 1) * (p_m - 1) - (q - 1)), 2 * (p_m - 1)),
        (q, (q**2 - 1) * (q**2 - q + p_m), p_m),
        (q + 1, p_m * (q - 1) ** 2 * q * (q + 1), 2 * (p_m + 1)),
    ]
    for w, num, den in pairs:
        if num % den:
            raise NonIntegerResult(f"A_{w} is not an integer")
        counts[w] = num // den
    return WeightDistribution(n=n, q=q, k=4, counts=tuple(counts))


def verify_four_weight(code: LinearCode, budget: int | None = None) -> dict:
    """Check the dual of code = C_(q,q+1,3,h) is four-weight with support
    {q-p^m, q-1, q, q+1}; returns the counts and the formula comparison."""
    spec = code.spec
    if spec is None or (spec.n, spec.delta) != (spec.q + 1, 3):
        raise InvalidParameters("the four-weight check needs a built C_(q,q+1,3,h)")
    q, h = spec.q, spec.h
    td = trace_dual(q, h)  # raises DegenerateDimension when the dual is not 4-dim
    p_m = td.p_m
    wd = dual_distribution(code, budget=budget)
    expected = {q - p_m, q - 1, q, q + 1}
    if wd.support() != expected:
        raise FourWeightViolation(
            f"support {sorted(wd.support())} != expected {sorted(expected)}"
        )
    if wd.d() != q - p_m:
        raise FourWeightViolation(f"min distance {wd.d()} != {q - p_m}")
    report = {
        "q": q,
        "h": h,
        "family": td.family,
        "i": td.i,
        "p_m": p_m,
        "weights": sorted(wd.support()),
        "counts": {w: wd.counts[w] for w in sorted(wd.support())},
        "formula_match": None,
    }
    if p_m >= 3:
        report["formula_match"] = enumerator_formula(q, p_m).counts == wd.counts
        if not report["formula_match"]:
            raise FourWeightViolation("distribution differs from the closed form")
    return report
