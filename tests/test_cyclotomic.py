import itertools
from math import gcd

import numpy as np
import pytest

from codebench.codes import trace_dual
from codebench.cyclotomic import (
    Poly,
    coset,
    coset_leaders,
    minimal_poly,
    multiplicative_order,
    poly_gcd,
    poly_lcm,
    splitting_field,
)
from codebench.errors import (
    DegenerateDimension,
    DivisionByZero,
    NotCoprime,
    NotPrimitiveRoot,
    SpecMismatch,
)
from codebench.galois import field_new, prime_power


def test_coset_examples():
    assert coset(33, 2, 1).members == (1, 2, 4, 8, 16, 17, 25, 29, 31, 32)
    assert coset(33, 2, 1).size == 10
    assert coset(10, 9, 0).members == (0,)
    assert coset(10, 9, 3).members == (3, 7)


def test_coset_not_coprime():
    with pytest.raises(NotCoprime):
        coset(10, 2, 1)
    with pytest.raises(NotCoprime):
        coset_leaders(9, 3)


def test_coset_leaders_small():
    cs = coset_leaders(3, 2)
    assert [c.leader for c in cs] == [0, 1]
    assert sorted(c.size for c in cs) == [1, 2]


def test_coset_partition_and_divisibility():
    rng = np.random.default_rng(0)
    cases = [(33, 2), (10, 9), (17, 4), (28, 27)]
    while len(cases) < 24:
        n = int(rng.integers(2, 10_000))
        q = int(rng.integers(2, 64))
        if gcd(n, q) == 1 and q > 1:
            cases.append((n, q))
    for n, q in cases:
        cs = coset_leaders(n, q)
        union = list(itertools.chain.from_iterable(c.members for c in cs))
        assert sorted(union) == list(range(n)), (n, q)
        assert [c.leader for c in cs] == sorted(c.leader for c in cs)
        size1 = coset(n, q, 1).size
        assert all(size1 % c.size == 0 for c in cs), (n, q)


def test_coset_serialization():
    c = coset(10, 9, 3)
    assert c.to_json_dict() == {"n": 10, "q": 9, "leader": 3, "members": [3, 7]}


def test_minimal_poly_gf2_n3():
    big, beta = splitting_field(2, 3)
    m = minimal_poly(big, beta, coset(3, 2, 1))
    assert m.coeffs == (1, 1, 1)  # x^2 + x + 1
    m0 = minimal_poly(big, beta, coset(3, 2, 0))
    assert m0.coeffs == (1, 1)  # x + 1


def test_minimal_poly_product_is_xn_minus_1():
    for q, n in [(2, 33), (9, 10), (4, 17)]:
        big, beta = splitting_field(q, n)
        base = field_new(*prime_power(q))
        prod = Poly.one(base)
        for c in coset_leaders(n, q):
            prod = prod * minimal_poly(big, beta, c)
        assert prod.coeffs == Poly.x_pow_n_minus_1(base, n).coeffs


def test_minimal_polys_irreducible_and_coprime():
    big, beta = splitting_field(2, 33)
    base = field_new(2, 1)
    polys = [minimal_poly(big, beta, c) for c in coset_leaders(33, 2)]
    for m in polys:
        if m.degree >= 2:
            assert all(m.eval(x) != 0 for x in range(2))
    for a, b in itertools.combinations(polys, 2):
        assert poly_gcd(a, b).coeffs == (1,)


def test_minimal_poly_rejects_non_primitive_root():
    big, beta = splitting_field(2, 33)
    bad = big.pow(beta, 3)  # order 11, not 33
    with pytest.raises(NotPrimitiveRoot):
        minimal_poly(big, bad, coset(33, 2, 1))


def test_poly_ring_ops():
    f = field_new(3, 2)
    one = Poly.one(f)
    p1 = Poly.make(f, [1, 5, 0, 2])
    assert (p1 * one).coeffs == p1.coeffs
    q_, r_ = divmod(p1, Poly.make(f, [1, 1]))
    assert (q_ * Poly.make(f, [1, 1]) + r_).coeffs == p1.coeffs
    assert r_.degree < 1
    with pytest.raises(DivisionByZero):
        divmod(p1, Poly.zero(f))
    with pytest.raises(SpecMismatch):
        p1 * Poly.one(field_new(2, 2))


def test_generator_divides_xn_minus_1():
    big, beta = splitting_field(9, 10)
    m3 = minimal_poly(big, beta, coset(10, 9, 3))
    m4 = minimal_poly(big, beta, coset(10, 9, 4))
    base = field_new(3, 2)
    xn1 = Poly.x_pow_n_minus_1(base, 10)
    assert (xn1 % m3).is_zero
    g = poly_lcm([m3, m4])
    assert g.degree == 4
    assert (xn1 % g).is_zero


def test_poly_lcm_dedups_equal_factors():
    f = field_new(2, 1)
    m = Poly.make(f, [1, 1, 1])
    assert poly_lcm([m, m]).coeffs == m.coeffs


def test_multiplicative_order():
    assert multiplicative_order(9, 10) == 2
    assert multiplicative_order(2, 33) == 10
    assert multiplicative_order(2, 1) == 1
    # so length 1 reaches the coset check: modulo 1, C_0 = C_1 = {0}
    with pytest.raises(DegenerateDimension):
        trace_dual(4, 0, 1)
