import itertools

import numpy as np
import pytest

from codebench import galois
from codebench.errors import (
    BudgetExceeded,
    DivisionByZero,
    NotInSubfield,
    NotPrime,
    NotPrimitiveRoot,
    NotSquareField,
    ResourceCap,
    SpecMismatch,
)
from codebench.galois import (
    _build_exp_chain,
    _candidate_chunks,
    _gf2_is_primitive,
    _primitive_rows,
    factorize,
    field_new,
    is_prime,
    lex_smallest_primitive_modulus,
    prime_power,
    rel_trace,
    smallest_primitive_root,
    subfield_embedding,
    subfield_members,
    trace_arr,
    trace_kernel_logs,
    unit_circle,
)


# independent oracle: naive polynomial arithmetic over GF(p), order of x checked
# by generating the full power sequence


def _naive_mulmod(a, b, mod, p):
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            res[i + j] = (res[i + j] + ca * cb) % p
    for i in range(len(res) - 1, m - 1, -1):
        c = res[i]
        if c:
            for j in range(m + 1):
                res[i - m + j] = (res[i - m + j] - c * mod[j]) % p
    return res[:m] + [0] * (m - len(res[:m]))


def _naive_x_order_is_group(mod, p):
    m = len(mod) - 1
    q = p**m
    x = [0, 1] + [0] * (m - 2) if m >= 2 else [1]
    if m == 1:
        return False  # not used for degree 1
    seen = set()
    cur = [1] + [0] * (m - 1)
    for _ in range(q - 1):
        t = tuple(cur)
        if t in seen:
            return False
        seen.add(t)
        cur = _naive_mulmod(cur, x, mod, p)
    return len(seen) == q - 1 and cur == [1] + [0] * (m - 1)


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (2, 1, (1, 1)),
        (3, 1, (1, 1)),
        (5, 1, (3, 1)),
        (7, 1, (4, 1)),
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (3, 2, (2, 1, 1)),
        (3, 3, (1, 2, 0, 1)),
        (3, 4, (2, 1, 0, 0, 1)),
        (5, 2, (2, 1, 1)),
    ],
)
def test_canonical_modulus(p, m, expected):
    assert field_new(p, m).modulus == expected


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4)])
def test_modulus_is_lex_smallest_primitive(p, m):
    # enumerate monic candidates low-degree-first as base-p digits; the first
    # one whose x-powers run through the whole multiplicative group must be
    # the canonical modulus
    for c in range(p**m):
        digits, t = [], c
        for _ in range(m):
            digits.append(t % p)
            t //= p
        mod = digits + [1]
        if mod[0] != 0 and _naive_x_order_is_group(mod, p):
            assert tuple(mod) == field_new(p, m).modulus
            return
    pytest.fail("no primitive candidate found")


def _exp_chain_per_element(p, m, q, modulus):
    # independent oracle: multiply the digit list by x once per power,
    # reducing the leading digit with the modulus
    exp = []
    digits = [1] + [0] * (m - 1)
    for _ in range(q - 1):
        exp.append(sum(d * p**i for i, d in enumerate(digits)))
        lead = digits[m - 1]
        digits = [0] + digits[:-1]
        if lead:
            digits = [(d - lead * c) % p for d, c in zip(digits, modulus[:m])]
    return exp


ODD_EXTENSIONS = [
    (p, m) for p in range(3, 82) if is_prime(p) for m in range(2, 9) if p**m <= 3**8
]


@pytest.mark.parametrize("p,m", ODD_EXTENSIONS)
def test_exp_chain_matches_per_element_loop(p, m):
    q = p**m
    modulus = lex_smallest_primitive_modulus(p, m)
    want = _exp_chain_per_element(p, m, q, modulus)
    assert _build_exp_chain(p, m, q, modulus).tolist() == want


# the scalar modulus search and the p = 2 bit loop that the batched search
# and the doubling chain replaced, kept as their oracles


def _x_pow_mod(e, mod, p):
    m = len(mod) - 1
    result = [1] + [0] * (m - 1)
    base = _naive_mulmod([0, 1], [1], mod, p)
    while e:
        if e & 1:
            result = _naive_mulmod(result, base, mod, p)
        base = _naive_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_primitive_modulus(mod, p):
    if mod[0] == 0:
        return False
    m = len(mod) - 1
    group = p**m - 1
    one = [1] + [0] * (m - 1)
    if _x_pow_mod(group, mod, p) != one:
        return False
    return all(_x_pow_mod(group // f, mod, p) != one for f in factorize(group))


def _candidates(p, m):
    # monic degree-m polynomials, low-degree-first digits, lexicographic
    for c in range(p**m):
        yield [c // p**i % p for i in range(m)] + [1]


def _scalar_modulus(p, m):
    if m == 1:
        return ((-smallest_primitive_root(p)) % p, 1)
    return tuple(next(mod for mod in _candidates(p, m) if _is_primitive_modulus(mod, p)))


def _gf2_bit_loop(m, q, modulus):
    mod_int = sum(c << i for i, c in enumerate(modulus)) & (q - 1)
    exp, x = [], 1
    for _ in range(q - 1):
        exp.append(x)
        x <<= 1
        if x & q:
            x = (x ^ mod_int) & (q - 1)
    return exp


SMALL_FIELDS = [(p, m) for p in range(2, 3**8 + 1) if is_prime(p)
                for m in range(1, 14) if p**m <= 3**8]


def test_batched_search_matches_scalar_search_small_fields():
    assert len(SMALL_FIELDS) == 893
    for p, m in SMALL_FIELDS:
        assert lex_smallest_primitive_modulus(p, m) == _scalar_modulus(p, m), (p, m)


@pytest.mark.parametrize("m", range(2, 25))
def test_binary_search_matches_scalar_search(m):
    assert lex_smallest_primitive_modulus(2, m) == _scalar_modulus(2, m)


# the odd-characteristic fields above GF(3^8) that the CLI tests build
@pytest.mark.parametrize("p,m", [(3, 12), (3, 14)])
def test_search_matches_scalar_search_on_cli_fields(p, m):
    assert lex_smallest_primitive_modulus(p, m) == _scalar_modulus(p, m)


PREFILTER_FIELDS = [(p, m) for p in range(2, 28) if is_prime(p)
                    for m in range(2, 10) if p**m <= 3**6]


@pytest.mark.parametrize("p,m", PREFILTER_FIELDS)
def test_prefilters_match_brute_force(p, m):
    # candidates survive exactly when (-1)^m f(0) has order p - 1 and f has
    # no root in GF(p); every primitive modulus survives
    roots = {g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1}
    want, primitive = [], []
    for mod in _candidates(p, m):
        norm_ok = (-1) ** m * mod[0] % p in roots
        no_root = all(sum(c * x**i for i, c in enumerate(mod)) % p for x in range(p))
        if norm_ok and no_root:
            want.append(mod[:m])
        if _is_primitive_modulus(mod, p):
            primitive.append(mod[:m])
    got = np.concatenate(list(_candidate_chunks(p, m))).tolist()
    assert got == want
    assert set(map(tuple, primitive)) <= set(map(tuple, got))


@pytest.mark.parametrize("p,m", PREFILTER_FIELDS)
def test_batched_test_matches_scalar_test_on_every_survivor(p, m):
    group = p**m - 1
    exps = [group] + [group // r for r in factorize(group)]
    rows = np.concatenate(list(_candidate_chunks(p, m)))
    want = [_is_primitive_modulus(row.tolist() + [1], p) for row in rows]
    if p == 2:
        got = [_gf2_is_primitive(int(row @ (1 << np.arange(m))) | 1 << m, m, exps) for row in rows]
    else:
        got = _primitive_rows(rows, p, exps).tolist()
    assert got == want
    assert any(want)


@pytest.mark.parametrize("m", list(range(2, 21)) + [
    pytest.param(22, marks=pytest.mark.slow),
    pytest.param(24, marks=pytest.mark.slow),
])
def test_doubling_chain_matches_bit_loop(m):
    q = 2**m
    modulus = lex_smallest_primitive_modulus(2, m)
    assert _build_exp_chain(2, m, q, modulus).tolist() == _gf2_bit_loop(m, q, modulus)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, (0, 0, 1)),  # x^2: x is nilpotent, the chain reaches 0
    (2, 4, (1, 1, 1, 1, 1)),  # irreducible, x of order 5
    (2, 6, (1, 1, 1, 0, 1, 0, 1)),  # irreducible, x of order 21
    (3, 2, (1, 0, 1)),  # irreducible, x of order 4
    (3, 2, (0, 0, 1)),  # x^2
    (5, 3, (1, 1, 1, 1)),  # (x + 1)(x^2 + 1)
])
def test_field_refuses_non_primitive_modulus(p, m, modulus, monkeypatch):
    monkeypatch.setattr(galois, "_FIELD_CACHE", {})
    monkeypatch.setattr(galois, "lex_smallest_primitive_modulus", lambda p, m: modulus)
    with pytest.raises(NotPrimitiveRoot, match="not primitive"):
        field_new(p, m)
    assert not galois._FIELD_CACHE


def test_prime_field_uses_smallest_primitive_root():
    # GF(5): primitive roots are 2 and 3; alpha must be 2
    f = field_new(5, 1)
    assert f.alpha_pow(1) == 2
    seen = {f.alpha_pow(j) for j in range(4)}
    assert seen == {1, 2, 3, 4}


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 4)])
def test_field_axioms_exhaustive(p, m):
    f = field_new(p, m)
    r = np.arange(f.q, dtype=np.int64)
    a = r[:, None, None]
    b = r[None, :, None]
    c = r[None, None, :]
    assert np.array_equal(f.add_arr(a, b), f.add_arr(b, a))
    assert np.array_equal(f.mul_arr(a, b), f.mul_arr(b, a))
    assert np.array_equal(f.add_arr(f.add_arr(a, b), c), f.add_arr(a, f.add_arr(b, c)))
    assert np.array_equal(f.mul_arr(f.mul_arr(a, b), c), f.mul_arr(a, f.mul_arr(b, c)))
    assert np.array_equal(
        f.mul_arr(a, f.add_arr(b, c)), f.add_arr(f.mul_arr(a, b), f.mul_arr(a, c))
    )


def test_field_axioms_random_triples_gf243():
    f = field_new(3, 5)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, f.q, size=(3, 100_000))
    assert np.array_equal(f.add_arr(f.add_arr(a, b), c), f.add_arr(a, f.add_arr(b, c)))
    assert np.array_equal(f.mul_arr(f.mul_arr(a, b), c), f.mul_arr(a, f.mul_arr(b, c)))
    assert np.array_equal(
        f.mul_arr(a, f.add_arr(b, c)), f.add_arr(f.mul_arr(a, b), f.mul_arr(a, c))
    )


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (3, 4)])
def test_frobenius_additive(p, m):
    f = field_new(p, m)
    r = np.arange(f.q, dtype=np.int64)
    x, y = r[:, None], r[None, :]
    lhs = f.pow_arr(f.add_arr(x, y), p)
    rhs = f.add_arr(f.pow_arr(x, p), f.pow_arr(y, p))
    assert np.array_equal(lhs, rhs)


def test_inverses_gf9():
    f = field_new(3, 2)
    for x in range(f.q):
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)


def test_alpha_order_gf16():
    f = field_new(2, 4)
    x = 1
    for k in range(1, 15):
        x = f.mul(x, f.alpha_pow(1))
        assert x != 1, f"alpha^{k} == 1"
    assert f.mul(x, f.alpha_pow(1)) == 1


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_subfield_copy_size(q):
    big = field_new(*prime_power(q * q))
    assert len(subfield_members(big, q)) == q


def test_unit_circle_gf4():
    circle = unit_circle(field_new(2, 2))
    assert len(circle.elements) == 3
    assert circle.elements[0] == 1


def test_unit_circle_gf81():
    f = field_new(3, 4)
    circle = unit_circle(f)
    assert len(circle.elements) == 10
    for u in circle.elements:
        assert f.pow(u, 10) == 1
        assert f.mul(f.pow(u, 9), u) == 1  # u^q = u^-1
    # exactly the roots of X^(q+1) - 1
    reps = np.arange(f.q, dtype=np.int64)
    assert int((f.pow_arr(reps, 10) == 1).sum()) == 10


def test_unit_circle_requires_square_field():
    with pytest.raises(NotSquareField):
        unit_circle(field_new(2, 3))


def test_rel_trace_basics():
    f = field_new(3, 4)
    assert rel_trace(f, 0) == 0
    # subfield-fixed x traces to 2x
    for x in subfield_members(f, 9):
        assert rel_trace(f, int(x)) == f.mul(2, int(x))
    f2 = field_new(2, 4)
    for x in subfield_members(f2, 4):
        assert rel_trace(f2, int(x)) == 0


def test_rel_trace_additive_exhaustive():
    f = field_new(3, 4)
    r = np.arange(f.q, dtype=np.int64)
    x, y = r[:, None], r[None, :]
    q = 9
    tr = lambda a: f.add_arr(a, f.pow_arr(a, q))
    assert np.array_equal(tr(f.add_arr(x, y)), f.add_arr(tr(x), tr(y)))


@pytest.mark.parametrize("p,m,t", [
    (2, 6, 1), (2, 6, 2), (2, 6, 3), (3, 4, 1), (3, 4, 2), (5, 2, 1),
])
def test_trace_sums_conjugates(p, m, t):
    f = field_new(p, m)
    q = p**t
    r = np.arange(f.q, dtype=np.int64)
    want = np.zeros(f.q, dtype=np.int64)
    for j in range(m // t):
        want = f.add_arr(want, f.pow_arr(r, q**j))
    table = trace_arr(f, r, q)
    assert np.array_equal(table, want)
    # onto the copy of GF(q), each value hit q^(m/t - 1) times
    values, counts = np.unique(table, return_counts=True)
    assert set(values.tolist()) == set(subfield_members(f, q).tolist())
    assert set(counts.tolist()) == {f.q // q}
    # the kernel logs are exactly the zeros of the full table
    zeros = np.flatnonzero(table[f.exp[: f.q - 1]] == 0)
    assert trace_kernel_logs(f, q).tolist() == zeros.tolist()


def test_trace_of_square_field_is_relative_trace():
    f = field_new(3, 4)
    r = np.arange(f.q, dtype=np.int64)
    assert trace_arr(f, r, 9).tolist() == [rel_trace(f, x) for x in range(f.q)]
    with pytest.raises(NotInSubfield):
        trace_arr(f, r, 27)


def test_subfield_embedding_gf81_gf9():
    big, small = field_new(3, 4), field_new(3, 2)
    emb = subfield_embedding(big, small)
    assert emb.embed(0) == 0
    assert emb.embed(1) == 1
    # ring homomorphism, exhaustively over GF(9) pairs
    for a, b in itertools.product(range(9), repeat=2):
        assert emb.embed(small.add(a, b)) == big.add(emb.embed(a), emb.embed(b))
        assert emb.embed(small.mul(a, b)) == big.mul(emb.embed(a), emb.embed(b))
    # trace composed with projection is GF(9)-linear on GF(81)
    def T(x):
        return emb.project(rel_trace(big, x))

    for x, y in itertools.product(range(0, 81, 5), range(81)):
        assert T(big.add(x, y)) == small.add(T(x), T(y))
    for c in range(9):
        for x in range(81):
            assert T(big.mul(emb.embed(c), x)) == small.mul(c, T(x))


def test_subfield_embedding_discrete_log_correspondence():
    # alpha_81^10 is a root of GF(9)'s modulus, so the dlog candidate is used
    big, small = field_new(3, 4), field_new(3, 2)
    emb = subfield_embedding(big, small)
    assert emb.gamma == big.alpha_pow(10)
    for k in range(8):
        assert emb.embed(small.alpha_pow(k)) == big.alpha_pow(10 * k)


def test_embedding_towers_commute():
    for p, chain in [(2, (2, 6, 12)), (3, (1, 4, 8)), (2, (2, 4, 8))]:
        k, f, e = (field_new(p, m) for m in chain)
        lo = subfield_embedding(f, k)
        hi = subfield_embedding(e, f)
        direct = subfield_embedding(e, k)
        for r in range(k.q):
            assert hi.embed(lo.embed(r)) == direct.embed(r)


def test_project_outside_subfield():
    big, small = field_new(3, 4), field_new(3, 2)
    emb = subfield_embedding(big, small)
    outside = next(x for x in range(81) if big.pow(x, 9) != x)
    with pytest.raises(NotInSubfield):
        emb.project(outside)


def test_element_ops_and_spec_mismatch():
    f9, f16 = field_new(3, 2), field_new(2, 4)
    a = f9.element(5)
    b = f9.element(7)
    assert int(a + b) == f9.add(5, 7)
    assert int(a * b) == f9.mul(5, 7)
    assert int(a - a) == 0
    assert int(a / a) == 1
    with pytest.raises(SpecMismatch):
        _ = a + f16.element(3)


def test_construction_errors():
    with pytest.raises(NotPrime):
        field_new(4, 1)
    with pytest.raises(BudgetExceeded):
        field_new(2, 25)


def test_field_size_cap_is_resource_cap():
    with pytest.raises(ResourceCap, match="field of order 33554432 exceeds"):
        field_new(2, 25)


def test_serialization_roundtrip():
    f = field_new(3, 2)
    assert f.to_json_dict() == {"p": 3, "m": 2, "modulus": [2, 1, 1]}


def test_pow_negative_exponents():
    f = field_new(3, 2)
    for x in range(1, 9):
        assert f.pow(x, -1) == f.inv(x)
        assert f.pow(x, -3) == f.inv(f.pow(x, 3))
        assert f.pow(x, 8) == 1
