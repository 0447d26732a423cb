"""Batch verification suites, one per published claim.

Each suite computes both the closed-form prediction and an independent
enumeration, records every comparison as an Assertion, and never trusts a
formula alone.  The CLI's ``verify`` subcommand and the acceptance tests
both run these.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from math import gcd

import numpy as np

from . import _kernels as kernels
from . import designs as designs_mod
from . import diophantine as dio
from . import subfield as subfield_mod
from .codes import (
    FAMILY_PI_MINUS_1,
    FAMILY_Q_MINUS_PI,
    CodeSpec,
    LinearCode,
    bch_build,
    family_offset,
    rref,
    trace_dual,
)
from .errors import BudgetExceeded, InvalidParameters, WorkbenchError
from .galois import field_new, prime_power
from .weights import (
    WeightDistribution,
    classify,
    distance_is_three,
    distribution_pair,
    enumerator_formula,
    macwilliams,
    verify_four_weight,
    weight_distribution,
)


@dataclass
class Assertion:
    name: str
    passed: bool
    expected: object = None
    actual: object = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
        }


def _plain(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (tuple, set, frozenset)):
        return sorted(x) if isinstance(x, (set, frozenset)) else list(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


@dataclass
class VerificationResult:
    theorem: str
    instance: dict
    assertions: list[Assertion] = dc_field(default_factory=list)

    def check(self, name: str, expected, actual) -> None:
        self.assertions.append(
            Assertion(name=name, passed=(expected == actual), expected=expected, actual=actual)
        )

    def record(self, name: str, passed: bool, detail=None) -> None:
        self.assertions.append(Assertion(name=name, passed=passed, actual=detail))

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failures(self) -> list[Assertion]:
        return [a for a in self.assertions if not a.passed]

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": _plain(self.instance),
            "ok": self.ok,
            "assertions": [a.to_json_dict() for a in self.assertions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# parameters of the duals


def _field_degree(s: int) -> int:
    """s of a suite over GF(p^s), checked before q = p**s is formed."""
    if s < 1:
        raise InvalidParameters(f"need s >= 1, got s={s}")
    return s


def verify_cor31(s: int, i: int, budget=None) -> VerificationResult:
    """MDS family over GF(2^s): [q+1, q-3, 5] with dual [q+1, 4, q-2]."""
    q = 2 ** _field_degree(s)
    res = VerificationResult("cor3.1", {"s": s, "i": i, "q": q})
    if gcd(i, s) != 1:
        res.record("gcd(i,s)=1 precondition", False, f"gcd={gcd(i, s)}")
        return res
    h = family_offset(q, i, FAMILY_Q_MINUS_PI)
    code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    res.check("dimension", q - 3, code.k)
    cls = classify(code, budget=budget)
    res.check("label", "MDS", cls.label)
    res.check("d", 5, cls.d)
    res.check("d_dual", q - 2, cls.d_dual)
    return res


_CHUNK_ELEMS = 1 << 18  # word entries per chunk of the trace image checks


def _trace_image_checks(code: LinearCode, counts: np.ndarray, budget) -> tuple[int, bool, bool]:
    """(size of the trace image, whether it equals the algebraic dual of
    code = C_(q,q+1,3,h), whether wt(c_(a,b)) = q+1 - N(a,b) for all
    (a, b)) over the q^4 trace words, generated and checked a few values
    of a at a time (about 2^18 word entries), packed into lanes
    (``Field.lanes``).

    With the dual's generator matrix in RREF as R, pivot columns P, a trace
    word's digits m at P name the one dual word it can equal: word
    m_0 q + m_1 of the q^2 words of R[:2] plus word m_2 q + m_3 of those of
    R[2:].  Each name is marked in one q^4-entry boolean ``seen``, so the
    image size is the number of marks.  Exactly q^4 names are marked, so
    they are a permutation of range(q^4) exactly when every entry is
    marked; the image then has q^4 words, and equals the dual when every
    word also equals its twin."""
    q, td, dual = code.q, trace_dual(code.q, code.spec.h), code.dual()
    field, n, q2 = dual.field, dual.n, q * q
    lanes = field.lanes(n)
    R, pivots = rref(dual.gen_matrix, field)
    top_words, bottom_words = (
        lanes.pack(LinearCode(field, n, rows).codewords(budget=budget)) for rows in (R[:2], R[2:])
    )
    seen = np.zeros(q2 * q2, dtype=bool)
    equal = weights_ok = True
    step = max(1, _CHUNK_ELEMS // (q2 * n))
    for lo in range(0, q2, step):
        words = td.packed_block(lo, lo + step)
        rows = slice(lo * q2, lo * q2 + words.shape[1])
        m0, m1, m2, m3 = (lanes.column(words, j) for j in pivots)
        top = m0 * np.int64(q) + m1
        bottom = m2 * np.int64(q) + m3
        seen[top * np.int64(q2) + bottom] = True
        twins = lanes.add(top_words.take(top, axis=1), bottom_words.take(bottom, axis=1))
        equal = equal and np.array_equal(twins, words)
        weights_ok = weights_ok and np.array_equal(lanes.weights(words), (q + 1) - counts[rows])
    size = int(np.count_nonzero(seen))
    return size, size == len(seen) and equal, weights_ok


def _four_weight_suite(theorem: str, q: int, i: int, family: str, budget) -> VerificationResult:
    h = family_offset(q, i, family)
    res = VerificationResult(theorem, {"q": q, "i": i, "family": family, "h": h})
    try:
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        if q <= 32:
            kernels.check_budget(q**4, budget)  # the cross-check enumerates every trace word
        report = verify_four_weight(code, budget=budget)
    except BudgetExceeded:
        raise  # a refused enumeration has falsified nothing
    except WorkbenchError as exc:
        res.record("four-weight support and closed form", False, str(exc))
        return res
    p_m = report["p_m"]
    res.check("weights", sorted({q - p_m, q - 1, q, q + 1}), report["weights"])
    if p_m >= 3:
        res.check("enumerator matches closed form", True, report["formula_match"])
    if q > 32:
        return res
    counts = dio.unit_solution_counts(q, h)
    size, equal, weights_ok = _trace_image_checks(code, counts, budget)
    res.check("trace image size", q**4, size)
    res.record("trace image equals algebraic dual", equal)
    res.record("wt(c_(a,b)) = q+1 - N(a,b) for all (a,b)", weights_ok)
    allowed = {0, 1, 2, p_m + 1}
    seen = set(np.flatnonzero(np.bincount(counts[1:])).tolist())  # (a, b) = (0, 0) left out
    res.record("N value set within {0,1,2,p^m+1}", seen <= allowed, sorted(seen))
    return res


def verify_thm31(q: int, i: int, budget=None) -> VerificationResult:
    return _four_weight_suite("thm3.1", q, i, FAMILY_Q_MINUS_PI, budget)


def verify_thm34(q: int, i: int, budget=None) -> VerificationResult:
    return _four_weight_suite("thm3.4", q, i, FAMILY_PI_MINUS_1, budget)


def verify_thm35(q: int, budget=None) -> VerificationResult:
    """d(C_(q,q+1,3,h)) = 3 iff gcd(2h+1, q+1) > 1, for every 0 <= h <= q.

    Whether d = 3 comes from ``weights.distance_is_three``: one weight-3
    rank scan for each distinct code, over the triple representatives of
    its proved symmetry group, with no code built and no distribution
    counted."""
    res = VerificationResult("thm3.5", {"q": q})
    for h, three in enumerate(distance_is_three(q, budget=budget)):
        res.check(f"h={h}: d==3 iff gcd>1", gcd(2 * h + 1, q + 1) > 1, three)
    return res


def verify_thm36(q: int, i: int, family: str, budget=None) -> VerificationResult:
    """AMDS family: [q+1, q-3, 4] with dual [q+1, 4, q-p^m], p^m >= 3."""
    h = family_offset(q, i, family)
    p_m = trace_dual(q, h).p_m
    res = VerificationResult("thm3.6", {"q": q, "i": i, "family": family, "h": h})
    if p_m < 3:
        res.record("p^m >= 3 precondition", False, p_m)
        return res
    code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    res.check("dimension", q - 3, code.k)
    cls = classify(code, budget=budget)
    res.check("d", 4, cls.d)
    res.check("d_dual", q - p_m, cls.d_dual)
    res.check("singleton defect", 1, cls.singleton_defect)
    res.check("label", "NMDS" if p_m == 3 else "AMDS-not-NMDS", cls.label)
    return res


def verify_cor32(s: int, i: int, family: str, budget=None) -> VerificationResult:
    """NMDS family over GF(3^s), gcd(i, s) = 1."""
    q = 3 ** _field_degree(s)
    res = VerificationResult("cor3.2", {"s": s, "i": i, "family": family, "q": q})
    if gcd(i, s) != 1:
        res.record("gcd(i,s)=1 precondition", False, gcd(i, s))
        return res
    h = family_offset(q, i, family)
    code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    cls = classify(code, budget=budget)
    res.check("label", "NMDS", cls.label)
    res.check("d", 4, cls.d)
    res.check("d_dual", q - 3, cls.d_dual)
    res.check("dual params", (q + 1, 4, q - 3), (code.n, code.n - code.k, cls.d_dual))
    return res


def verify_cor33(s: int, budget=None) -> VerificationResult:
    """The resolved conjecture: C_(3^s, 3^s+1, 3, 4) is NMDS for odd s."""
    q = 3 ** _field_degree(s)
    res = VerificationResult("cor3.3", {"s": s, "q": q, "h": 4})
    if s % 2 == 0:
        res.record("s odd precondition", False, s)
        return res
    inner = verify_cor32(s, 2, FAMILY_PI_MINUS_1, budget=budget)
    res.check("h = 4 is the (3^2-1)/2 offset", 4, family_offset(q, 2, FAMILY_PI_MINUS_1))
    res.assertions.extend(inner.assertions)
    return res


# ---------------------------------------------------------------------------
# support designs


def verify_thm41(q: int, i: int, family: str, budget=None) -> VerificationResult:
    """Weight-4 words support a 3-(q+1, 4, p^m - 2) design; dual minimum
    words support a 3-(q+1, q-p^m, lambda) design; enumerator closed form."""
    h = family_offset(q, i, family)
    td = trace_dual(q, h)
    p_m = td.p_m
    res = VerificationResult("thm4.1", {"q": q, "i": i, "family": family, "h": h})
    if p_m < 3:
        res.record("p^m >= 3 precondition", False, p_m)
        return res
    n = q + 1
    code = bch_build(CodeSpec(q=q, n=n, delta=3, h=h))
    # enumerator and A_4 from one enumeration
    primal_wd, dual_wd = distribution_pair(code, budget=budget)
    # price both support phases, in phase order, before either runs
    dmin = q - p_m
    designs_mod.support_route(code, 4, budget)
    designs_mod.support_route(td, dmin, budget)
    res.check("dual enumerator", enumerator_formula(q, p_m).counts, dual_wd.counts)
    a4 = primal_wd.counts[4]
    res.check("A_4 closed form", (p_m - 2) * (q - 1) ** 2 * q * (q + 1) // 24, a4)
    # weight-4 support design
    sup = designs_mod.supports_of_weight(code, 4, budget=budget)
    res.check("b = A_4 / (q-1)", a4 // (q - 1), sup.b)
    design = designs_mod.design_from_blocks(sup.blocks, n, 3)
    res.check("weight-4 design lambda", p_m - 2, design.lam)
    # dual minimum-weight design
    dsup = designs_mod.supports_of_weight(td, dmin, budget=budget)
    res.check("dual b = A_(q-p^m) / (q-1)", dual_wd.counts[dmin] // (q - 1), dsup.b)
    ddesign = designs_mod.design_from_blocks(dsup.blocks, n, 3)
    lam = (q - p_m) * (q - p_m - 1) * (q - p_m - 2) // ((p_m**2 - 1) * p_m)
    res.check("dual design lambda", lam, ddesign.lam)
    return res


def verify_thm42(q: int, i: int, family: str, budget=None) -> VerificationResult:
    """p=3, m=1: Steiner quadruple system from weight-4 words and the
    3-(q+1, 5, (q-3)(q-7)/2) design from weight-5 words."""
    p, s = prime_power(q)
    h = family_offset(q, i, family)
    res = VerificationResult("thm4.2", {"q": q, "i": i, "family": family, "h": h})
    if p != 3 or gcd(i, s) != 1:
        res.record("p=3, gcd(i,s)=1 precondition", False, (p, gcd(i, s)))
        return res
    n = q + 1
    code = bch_build(CodeSpec(q=q, n=n, delta=3, h=h))
    # price the weight-4 and weight-5 scans, in phase order, before either runs
    designs_mod.support_route(code, 4, budget)
    route5 = designs_mod.support_route(code, 5, budget)
    sup4 = designs_mod.supports_of_weight(code, 4, budget=budget)
    d4 = designs_mod.design_from_blocks(sup4.blocks, n, 3)
    res.check("S(3,4,q+1): lambda", 1, d4.lam)
    res.check("steiner", True, designs_mod.steiner_check(d4))
    res.check("b", (q - 1) ** 2 * q * (q + 1) // 24 // (q - 1), d4.b)
    # weight-5 blocks from the rank construction
    blocks5 = designs_mod.weight5_blocks_rank(q, h, budget=budget)
    d5 = designs_mod.design_from_blocks(blocks5, n, 3)
    res.check("weight-5 lambda", (q - 3) * (q - 7) // 2, d5.lam)
    a5 = (q - 7) * (q - 3) * (q - 1) ** 2 * q * (q + 1) // 120
    res.check("b = A_5 / (q-1)", a5 // (q - 1), d5.b)
    # cross-check the A_5 closed form against the enumerated distribution
    res.check("A_5 from transform", a5, weight_distribution(code, budget=budget).counts[5])
    if route5 == "words":
        sup5 = designs_mod.supports_of_weight(code, 5, budget=budget)
        res.check("enumerated weight-5 blocks", tuple(blocks5), tuple(sup5.blocks))
    return res


def verify_thm43(q: int, i: int, family: str, budget=None) -> VerificationResult:
    """Determinant-defined blocks equal the code-support blocks exactly."""
    h = family_offset(q, i, family)
    p_m = trace_dual(q, h).p_m
    res = VerificationResult("thm4.3", {"q": q, "i": i, "family": family, "h": h})
    n = q + 1
    det_blocks = designs_mod.weight4_blocks_det(q, h, budget=budget)
    code = bch_build(CodeSpec(q=q, n=n, delta=3, h=h))
    sup = designs_mod.supports_of_weight(code, 4, budget=budget)
    res.record(
        "determinant blocks equal code-support blocks",
        det_blocks == sup.blocks,
        {"det": len(det_blocks), "code": sup.b},
    )
    if det_blocks:
        design = designs_mod.design_from_blocks(det_blocks, n, 3)
        res.check("design lambda", p_m - 2, design.lam)
    else:
        res.check("empty exactly when p^m = 2", 2, p_m)
    return res


# ---------------------------------------------------------------------------
# subfield subcode tables


def _verify_table_rows(theorem: str, label: str, budget, s_filter=None) -> VerificationResult:
    res = VerificationResult(theorem, {"family": label, "s": s_filter})
    rows = [
        row
        for row in subfield_mod.table_rows()
        if row[0] == label and (s_filter is None or row[1] == s_filter)
    ]
    if not rows:
        published = sorted(row[1] for row in subfield_mod.table_rows() if row[0] == label)
        raise WorkbenchError(f"{theorem} has no published {label} row for s={s_filter}; "
                             f"published s: {', '.join(map(str, published))}")
    reports = subfield_mod.report_tables(rows, budget=budget)
    for (_label, s, t, parent_q, h, params, dual_params, _note), report in zip(rows, reports):
        dim = subfield_mod.dimension_by_cosets(parent_q, h, t)
        res.check(f"s={s}: coset dimension", params[1], dim)
        if report.skipped:
            res.record(f"s={s}: row skipped", False, report.skipped)
            continue
        res.check(f"s={s}: params", params, report.params)
        if dual_params is not None:
            res.check(f"s={s}: dual params", dual_params, report.dual_params)
        res.check(f"s={s}: generic construction matches", True, report.generic_match)
    return res


def verify_thm51(s: int, budget=None) -> VerificationResult:
    return _verify_table_rows("thm5.1", "binary", budget, s_filter=s)


def verify_thm52(s: int, budget=None) -> VerificationResult:
    return _verify_table_rows("thm5.2", "quaternary", budget, s_filter=s)


def verify_thm53(s: int, budget=None) -> VerificationResult:
    return _verify_table_rows("thm5.3", "ternary", budget, s_filter=s)


# ---------------------------------------------------------------------------
# lemma property suites


def _random_code(rng, field, n: int, kmax: int):
    raw = rng.integers(0, field.q, size=(kmax, n))
    R, _ = rref(raw, field)
    if R.shape[0] == 0:
        return None
    return LinearCode(field, n, R)


def verify_lemmas(seed: int = 0, budget=None) -> VerificationResult:
    res = VerificationResult("lemmas", {"seed": seed})
    # gcd closed forms against euclidean gcd, exhaustively
    ok_pp = ok_mp = True
    for p in (2, 3, 5, 7):
        for i in range(1, 13):
            for s in range(1, 13):
                if dio.gcd_plus_plus(p, i, s) != gcd(p**i + 1, p**s + 1):
                    ok_pp = False
                if dio.gcd_minus_plus(p, i, s) != gcd(p**i - 1, p**s + 1):
                    ok_mp = False
    res.record("gcd(p^i+1, p^s+1) closed form (p<=7, i,s<=12)", ok_pp)
    res.record("gcd(p^i-1, p^s+1) closed form (p<=7, i,s<=12)", ok_mp)
    # value set of N_a for P_a(X) = X^(p^k+1) + X + a
    for q in (4, 8, 9, 16, 27, 64, 81):
        p, n = prime_power(q)
        ok = True
        try:
            for k in range(1, n + 1):
                for a in range(1, q):
                    dio.count_zeros_Pa(p, n, k, a)
        except WorkbenchError as exc:
            ok = False
            res.record(f"P_a value set violated, p^n={q}", False, str(exc))
        res.record(f"P_a zero counts within value set, p^n={q}", ok)
    # constructed zero sets equal brute-force root sets on full-count cases,
    # sampled at random (full cases are sparse)
    rng = np.random.default_rng(seed)
    sizes = (4, 8, 9, 16, 27, 64, 81, 243, 729)
    picked = []
    attempts = 0
    while len(picked) < 20 and attempts < 200_000:
        attempts += 1
        q = int(sizes[rng.integers(len(sizes))])
        p, n = prime_power(q)
        k = int(rng.integers(1, n + 1))
        a = int(rng.integers(1, q))
        e = gcd(n, k)
        if dio.count_zeros_Pa(p, n, k, a) == p**e + 1:
            picked.append((p, n, k, a))
    ok = len(picked) == 20
    for p, n, k, a in picked:
        roots = dio.zeros_Pa_brute(p, n, k, a)
        constructed = dio.all_zeros_Pa(p, n, k, a, roots[0])
        if constructed != sorted(roots):
            ok = False
    res.record(f"all_zeros_Pa equals brute force on {len(picked)} full cases", ok)
    # MacWilliams involution on random small codes; both sides enumerated
    # directly so the transform comparison stays independent
    rng = np.random.default_rng(seed + 1)
    checked = 0
    ok_inv = ok_dual = True
    while checked < 50:
        q = int(rng.choice([2, 3, 4, 5, 7, 8, 9]))
        field = field_new(*prime_power(q))
        n = int(rng.integers(3, 11))
        kmax = int(rng.integers(1, min(n, 6) + 1))
        code = _random_code(rng, field, n, kmax)
        if code is None or code.k == n:
            continue
        counts = kernels.weight_counts(code.gen_matrix, field)
        wd = WeightDistribution(n, q, code.k, tuple(int(c) for c in counts))
        if macwilliams(macwilliams(wd)).counts != wd.counts:
            ok_inv = False
        dcode = code.dual()
        dcounts = kernels.weight_counts(dcode.gen_matrix, field)
        dwd = WeightDistribution(n, q, dcode.k, tuple(int(c) for c in dcounts))
        if macwilliams(wd).counts != dwd.counts:
            ok_dual = False
        checked += 1
    res.record("MacWilliams involution on 50 random codes", ok_inv)
    res.record("MacWilliams transform matches dual enumeration", ok_dual)
    return res


# ---------------------------------------------------------------------------
# dispatch table for the CLI

SUITES = {
    "cor3.1": (verify_cor31, ("s", "i")),
    "thm3.1": (verify_thm31, ("q", "i")),
    "thm3.4": (verify_thm34, ("q", "i")),
    "thm3.5": (verify_thm35, ("q",)),
    "thm3.6": (verify_thm36, ("q", "i", "family")),
    "cor3.2": (verify_cor32, ("s", "i", "family")),
    "cor3.3": (verify_cor33, ("s",)),
    "thm4.1": (verify_thm41, ("q", "i", "family")),
    "thm4.2": (verify_thm42, ("q", "i", "family")),
    "thm4.3": (verify_thm43, ("q", "i", "family")),
    "thm5.1": (verify_thm51, ("s",)),
    "thm5.2": (verify_thm52, ("s",)),
    "thm5.3": (verify_thm53, ("s",)),
    "lemmas": (verify_lemmas, ("seed",)),
}


def run_suite(theorem: str, budget=None, **params) -> VerificationResult:
    if theorem not in SUITES:
        raise WorkbenchError(f"unknown theorem id {theorem!r}")
    fn, needed = SUITES[theorem]
    kwargs = {k: params[k] for k in needed if params.get(k) is not None}
    missing = [k for k in needed if k not in kwargs]
    if missing:
        raise WorkbenchError(f"{theorem} needs arguments: {', '.join(missing)}")
    return fn(budget=budget, **kwargs)
