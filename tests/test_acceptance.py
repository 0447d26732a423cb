"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; every
tolerance is exact integer equality.
"""
from math import gcd

import numpy as np
import pytest

from codebench import designs as designs_mod
from codebench import diophantine as dio
from codebench import subfield as subfield_mod
from codebench import verify as verify_mod
from codebench.codes import CodeSpec, bch_build, trace_dual, valid_instances
from codebench.weights import classify, enumerator_formula, weight_distribution


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_mds_family():
    cases = [(3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)]
    bad = []
    for s, i in cases:
        q = 2**s
        h = (q - 2**i) // 2
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        cls = classify(code)
        if not (code.k == q - 3 and cls.label == "MDS" and cls.d == 5
                and cls.d_dual == q - 2):
            bad.append((s, i, cls))
    report(1, not bad,
           f"MDS family [q+1,q-3,5] with dual [q+1,4,q-2] for (s,i) in {cases}"
           + (f" FAILURES {bad}" if bad else ""))


def _four_weight_instances():
    out = []
    for q, fams in [(9, None), (16, None), (25, None), (27, None)]:
        out.extend((q, fam, i) for fam, i, _h in valid_instances(q))
    return out


def test_criterion_02_four_weight_duals():
    bad = []
    for q, family, i in _four_weight_instances():
        suite = (verify_mod.verify_thm31 if family == "q-minus-pi"
                 else verify_mod.verify_thm34)
        res = suite(q, i)
        if not res.ok:
            bad.append((q, family, i, [a.name for a in res.failures()]))
    # spot-check the two distributions called out explicitly
    ok9 = enumerator_formula(9, 3).nonzero() == {0: 1, 6: 240, 8: 2160, 9: 2000, 10: 2160}
    ok16 = enumerator_formula(16, 4).nonzero() == {0: 1, 12: 1020, 15: 24480,
                                                   16: 15555, 17: 24480}
    report(2, not bad and ok9 and ok16,
           "four-weight support and closed-form enumerator for q in {9,16,25,27}, "
           "all valid i, both families" + (f" FAILURES {bad}" if bad else ""))


def test_criterion_03_conjecture_resolution():
    bad = []
    for s in (3, 5):
        q = 3**s
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=4))
        cls = classify(code)
        if not (cls.label == "NMDS" and cls.d == 4 and cls.d_dual == q - 3
                and code.n - code.k == 4):
            bad.append((s, cls))
    report(3, not bad,
           "C_(3^s,3^s+1,3,4) is NMDS with dual [3^s+1,4,3^s-3] for s in {3,5}"
           + (f" FAILURES {bad}" if bad else ""))


def test_criterion_04_designs_thm41_q16():
    code = bch_build(CodeSpec(q=16, n=17, delta=3, h=6))
    sup4 = designs_mod.supports_of_weight(code, 4)
    d4 = designs_mod.design_from_blocks(sup4.blocks, 17, 3)
    dual_sup = designs_mod.supports_of_weight(trace_dual(16, 6), 12)
    d12 = designs_mod.design_from_blocks(dual_sup.blocks, 17, 3)
    ok = (d4.lam, d4.b) == (2, 340) and (d12.lam, d12.b) == (22, 68)
    report(4, ok,
           f"q=16,i=2: weight-4 3-(17,4,{d4.lam}) b={d4.b} (want 2,340); "
           f"dual weight-12 3-(17,12,{d12.lam}) b={d12.b} (want 22,68)")


def test_criterion_05_designs_thm42():
    expected = {9: (30, 72, 6), 27: (819, 78624, 240)}
    bad = []
    for q in (9, 27):
        b4_want, b5_want, lam5_want = expected[q]
        for family, i, h in valid_instances(q):
            n = q + 1
            code = bch_build(CodeSpec(q=q, n=n, delta=3, h=h))
            sup4 = designs_mod.supports_of_weight(code, 4)
            d4 = designs_mod.design_from_blocks(sup4.blocks, n, 3)
            blocks5 = designs_mod.weight5_blocks_rank(q, h)
            d5 = designs_mod.design_from_blocks(blocks5, n, 3)
            if not (d4.lam == 1 and d4.b == b4_want and designs_mod.steiner_check(d4)
                    and d5.lam == lam5_want and d5.b == b5_want):
                bad.append((q, h, d4.lam, d4.b, d5.lam, d5.b))
    report(5, not bad,
           "S(3,4,10) b=30 / S(3,4,28) b=819 and weight-5 3-(10,5,6) b=72 / "
           "3-(28,5,240) b=78624, both families"
           + (f" FAILURES {bad}" if bad else ""))


def test_criterion_06_block_set_identity():
    instances = [(9, 3), (9, 1), (16, 6), (27, 12), (27, 4)]
    bad = []
    for q, h in instances:
        det_blocks = designs_mod.weight4_blocks_det(q, h)
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        sup = designs_mod.supports_of_weight(code, 4)
        if det_blocks != sup.blocks:
            bad.append((q, h, len(det_blocks), sup.b))
    report(6, not bad,
           f"determinant blocks equal code-support blocks at {instances}"
           + (f" FAILURES {bad}" if bad else ""))


@pytest.mark.slow
def test_criterion_07_min_distance_criterion():
    bad = []
    for q in (4, 8, 9, 16, 25, 27):
        for h in range(q + 1):
            code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
            d = weight_distribution(code).d()
            if (d == 3) != (gcd(2 * h + 1, q + 1) > 1):
                bad.append((q, h, d))
    report(7, not bad,
           "d = 3 iff gcd(2h+1, q+1) > 1 for q in {4,8,9,16,25,27}, all h"
           + (f" FAILURES {bad}" if bad else ""))


@pytest.mark.slow
def test_criterion_08_subfield_tables():
    want = {
        (32, 1): ((33, 13, 10), (33, 20, 6)),
        (64, 1): ((65, 41, 5), (65, 24, 16)),
        (16, 2): ((17, 9, 7), (17, 8, 8)),
        (64, 2): ((65, 53, 5), (65, 12, 32)),
        (9, 1): ((10, 2, 5), (10, 8, 2)),
        (27, 1): ((28, 16, 4), (28, 12, 8)),
        (81, 1): ((82, 66, 6), (82, 16, 36)),
    }
    reports = subfield_mod.report_tables(subfield_mod.table_rows())
    got = {(r.parent.q, r.t): (r.params, r.dual_params, r.generic_match)
           for r in reports if not r.skipped}
    bad = []
    for key, (params, dual_params) in want.items():
        if key not in got:
            bad.append((key, "missing/skipped"))
            continue
        gp, gd, gm = got[key]
        if (gp, gd) != (params, dual_params) or gm is False:
            bad.append((key, gp, gd, gm))
    report(8, not bad,
           "all published subfield rows reproduced exactly, both constructions"
           + (f" FAILURES {bad}" if bad else ""))


def test_criterion_09_lemma_suites():
    res = verify_mod.verify_lemmas(seed=0)
    report(9, res.ok,
           "gcd closed forms, P_a value sets, all_zeros_Pa vs brute force"
           + ("" if res.ok else f" FAILURES {[a.name for a in res.failures()]}"))


def test_criterion_10_cross_representation():
    bad = []
    # weight identity and N value sets, exhaustive over (a, b)
    for q, h in [(9, 3), (16, 6), (27, 12)]:
        td = trace_dual(q, h)
        words = td.codewords()
        wts = np.count_nonzero(words, axis=1)
        counts = dio.unit_solution_counts(q, h)
        if not np.array_equal(wts, (q + 1) - counts):
            bad.append(("wt identity", q, h))
    # trace image equals the algebraic dual
    for q, h in [(8, 3), (8, 2), (9, 3), (9, 1), (16, 6), (25, 10), (25, 2), (27, 12)]:
        td = trace_dual(q, h)
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        wt = np.unique(td.codewords(), axis=0)
        wa = np.unique(code.dual().codewords(), axis=0)
        if not np.array_equal(wt, wa):
            bad.append(("trace=dual", q, h))
    # MacWilliams involution on 50 random small codes (inside the lemma suite)
    res = verify_mod.verify_lemmas(seed=1)
    if not res.ok:
        bad.append(("macwilliams involution", [a.name for a in res.failures()]))
    report(10, not bad,
           "wt(c_(a,b)) = q+1-N(a,b); trace image = algebraic dual "
           "(q in {8,9,16,25,27}); MacWilliams involution x50"
           + (f" FAILURES {bad}" if bad else ""))
