from math import gcd

import numpy as np
import pytest

from codebench.diophantine import (
    all_zeros_Pa,
    congruence_solutions,
    count_unit_solutions,
    count_zeros_Pa,
    gcd_minus_plus,
    gcd_plus_plus,
    predict_case12,
    unit_solution_counts,
    zeros_Pa_brute,
)
from codebench.errors import InvalidParameters, NotApplicable, NotFullCase
from codebench.galois import field_new, prime_power


def test_congruence_examples():
    assert congruence_solutions(4, 5, 10) == []
    assert congruence_solutions(2, 4, 10) == [2, 7]
    assert congruence_solutions(1, 13, 10) == [3]


def test_congruence_by_substitution():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(1, 60))
        a = int(rng.integers(0, 60))
        b = int(rng.integers(0, 60))
        sols = congruence_solutions(a, b, m)
        brute = [x for x in range(m) if (a * x - b) % m == 0]
        assert sols == brute
        if sols:
            assert len(sols) == gcd(a % m, m) or m == 1


@pytest.mark.parametrize(
    "p,i,s,expected",
    [(3, 1, 3, 4), (3, 2, 3, 2), (2, 2, 4, 1), (3, 2, 1, 4), (2, 3, 3, 1), (5, 1, 2, 2)],
)
def test_gcd_lemma_examples(p, i, s, expected):
    if expected == gcd(p**i + 1, p**s + 1):
        assert gcd_plus_plus(p, i, s) == expected
    if expected == gcd(p**i - 1, p**s + 1):
        assert gcd_minus_plus(p, i, s) == expected


def test_gcd_lemmas_exhaustive():
    for p in (2, 3, 5, 7):
        for i in range(1, 13):
            for s in range(1, 13):
                assert gcd_plus_plus(p, i, s) == gcd(p**i + 1, p**s + 1)
                assert gcd_minus_plus(p, i, s) == gcd(p**i - 1, p**s + 1)


def test_count_zeros_examples():
    assert count_zeros_Pa(2, 2, 1, 1) == 0
    with pytest.raises(InvalidParameters):
        count_zeros_Pa(2, 2, 1, 0)


def test_count_zeros_value_sets():
    for q in (4, 8, 9, 16, 27, 64, 81):
        p, n = prime_power(q)
        for k in range(1, n + 1):
            for a in range(1, q):
                count_zeros_Pa(p, n, k, a)  # raises on a value-set violation


def test_count_zeros_double_counting_identity():
    # each x solves P_a(x) = 0 for exactly one a; a != 0 iff x^(p^k+1)+x != 0
    for q, k in [(9, 1), (8, 1), (27, 2)]:
        p, n = prime_power(q)
        f = field_new(p, n)
        total = sum(count_zeros_Pa(p, n, k, a) for a in range(1, q))
        reps = np.arange(q, dtype=np.int64)
        vanishing = int((f.add_arr(f.pow_arr(reps, p**k + 1), reps) == 0).sum())
        assert total == q - vanishing


def test_all_zeros_matches_brute_force():
    rng = np.random.default_rng(5)
    sizes = (4, 8, 9, 16, 27, 64, 81, 243, 729)
    found = 0
    while found < 20:
        q = int(sizes[rng.integers(len(sizes))])
        p, n = prime_power(q)
        k = int(rng.integers(1, n + 1))
        a = int(rng.integers(1, q))
        e = gcd(n, k)
        if count_zeros_Pa(p, n, k, a) != p**e + 1:
            continue
        roots = zeros_Pa_brute(p, n, k, a)
        out = all_zeros_Pa(p, n, k, a, roots[0])
        assert out == sorted(roots)
        assert roots[0] in out
        assert len(set(out)) == p**e + 1
        found += 1


def test_all_zeros_not_full_case():
    # find an a with roots but fewer than p^e + 1 of them
    p, n, k = 3, 2, 1
    for a in range(1, 9):
        roots = zeros_Pa_brute(p, n, k, a)
        if 0 < len(roots) < 3 + 1:
            with pytest.raises(NotFullCase):
                all_zeros_Pa(p, n, k, a, roots[0])
            return
    pytest.fail("no partial case found")


def test_count_unit_solutions_examples():
    assert count_unit_solutions(9, 3, 1, 0) == 0
    alpha = field_new(3, 4).alpha_pow(1)
    assert count_unit_solutions(9, 3, 0, alpha) == 2
    with pytest.raises(InvalidParameters):
        count_unit_solutions(9, 3, 0, 0)
    with pytest.raises(InvalidParameters):
        count_unit_solutions(9, 2, 1, 0)  # h in neither family


def test_unit_solution_value_sets_exhaustive():
    for q, h in [(8, 3), (9, 3), (9, 1)]:
        p, s = prime_power(q)
        counts = unit_solution_counts(q, h)
        from codebench.codes import classify_h

        _, i = classify_h(q, h)
        allowed = {0, 1, 2, p ** gcd(i, s) + 1}
        seen = set(np.unique(counts[1:]).tolist())
        assert seen <= allowed, (q, h, seen)
        assert counts[0] == q + 1  # (0,0) is solved by the whole circle


def test_predict_matches_brute_force_singles():
    # exhaustive over single-nonzero pairs; includes the even-characteristic
    # branch where the count drops to zero (q=8)
    for q, h in [(8, 3), (8, 2), (9, 3), (9, 1), (16, 6), (16, 7), (16, 4)]:
        q2 = q * q
        for r in range(q2 - 1):
            a = field_new(*prime_power(q2)).alpha_pow(r)
            assert predict_case12(q, h, a, 0) == count_unit_solutions(q, h, a, 0)
            assert predict_case12(q, h, 0, a) == count_unit_solutions(q, h, 0, a)


def test_predict_case12_q8_zero_branch():
    # gcd(2^1+1, 9) = 3 with 3 not dividing -r gives zero solutions
    f = field_new(2, 6)
    hits = {predict_case12(8, 3, f.alpha_pow(r), 0) for r in range(9)}
    assert hits == {0, 3}


def test_predict_not_applicable():
    with pytest.raises(NotApplicable):
        predict_case12(9, 3, 1, 1)
    with pytest.raises(NotApplicable):
        predict_case12(9, 3, 0, 0)


def test_unit_solution_value_sets_q8_both_i():
    for h, i in [(3, 1), (2, 2)]:
        counts = unit_solution_counts(8, h)
        m = gcd(i, 3)
        allowed = {0, 1, 2, 2**m + 1}
        assert set(np.unique(counts[1:]).tolist()) <= allowed


@pytest.mark.parametrize("q,h", [(8, 3), (8, 2), (9, 3), (9, 1)])
def test_unit_solution_counts_equal_brute_force_every_pair(q, h):
    # q-minus-pi at q = 8 (h = 3, 2) and q = 9 (h = 3); pi-minus-1 at q = 9 (h = 1)
    counts = unit_solution_counts(q, h)
    q2 = q * q
    for a in range(q2):
        for b in range(q2):
            if a or b:
                assert counts[a * q2 + b] == count_unit_solutions(q, h, a, b), (a, b)
    assert counts[0] == q + 1
