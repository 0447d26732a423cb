"""Field arithmetic and ``codes.rref`` against the masked array ops and the
per-row elimination they replaced, kept here unchanged as oracles.

``MaskedField`` rebuilds the arrays those ops ran on from the exp chain,
independently of ``Field``: a doubled antilog table of 2(q-1) entries, log
with -1 at zero, and Zech logs with -1 where 1 + alpha^k = 0.  Every op
branched on zero through masks."""
import numpy as np
import pytest

from codebench.codes import nullspace, rank, rref
from codebench.errors import DivisionByZero
from codebench.galois import (
    _build_exp_chain,
    factorize,
    field_new,
    lex_smallest_primitive_modulus,
    prime_power,
)


class MaskedField:
    def __init__(self, p, m):
        q = p**m
        base = _build_exp_chain(p, m, q, lex_smallest_primitive_modulus(p, m))
        self.p, self.m, self.q = p, m, q
        self.exp = np.concatenate([base, base])
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[base] = np.arange(q - 1, dtype=np.int64)
        d0 = base % p
        self.zech = self.log[base - d0 + (d0 + 1) % p]
        self._neg_offset = 0 if p == 2 else (q - 1) // 2

    def add(self, x, y):
        if x == 0:
            return int(y)
        if y == 0:
            return int(x)
        i = self.log[x]
        d = self.log[y] - i
        if d < 0:
            d += self.q - 1
        z = self.zech[d]
        if z < 0:
            return 0
        return int(self.exp[i + z])

    def neg(self, x):
        if x == 0 or self.p == 2:
            return int(x)
        return int(self.exp[self.log[x] + self._neg_offset])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        return int(self.exp[self.log[x] + self.log[y]])

    def inv(self, x):
        if x == 0:
            raise DivisionByZero("inverse of zero")
        lg = self.log[x]
        return int(self.exp[(self.q - 1 - lg) % (self.q - 1)])

    def pow(self, x, e):
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        e %= self.q - 1
        return int(self.exp[(self.log[x] * e) % (self.q - 1)])

    def add_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.where(a == 0, b, a).copy()
        mask = (a != 0) & (b != 0)
        if mask.any():
            i = self.log[a[mask]]
            d = self.log[b[mask]] - i
            d[d < 0] += self.q - 1
            z = self.zech[d]
            out[mask] = np.where(z < 0, 0, self.exp[i + np.maximum(z, 0)])
        return out

    def neg_arr(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        out = a.copy()
        mask = a != 0
        out[mask] = self.exp[self.log[a[mask]] + self._neg_offset]
        return out

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(np.asarray(b, dtype=np.int64)))

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        if mask.any():
            out[mask] = self.exp[self.log[a[mask]] + self.log[b[mask]]]
        return out

    def pow_arr(self, a, e):
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        mask = a != 0
        if e == 0:
            out[:] = 1
            return out
        e %= self.q - 1
        out[mask] = self.exp[(self.log[a[mask]] * e) % (self.q - 1)] if e else 1
        return out


def masked_rref(mat, field):
    R = np.array(mat, dtype=np.int64)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if R[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = field.mul_arr(R[r], field.inv(int(R[r, c])))
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i] = field.add_arr(R[i], field.neg_arr(field.mul_arr(R[r], int(R[i, c]))))
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def masked_nullspace(mat, field):
    R, pivots = masked_rref(mat, field)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, fcol in enumerate(free):
        basis[idx, fcol] = 1
        for r, pcol in enumerate(pivots):
            basis[idx, pcol] = field.neg(int(R[r, fcol]))
    return basis


ORDERS = [q for q in range(2, 65) if len(factorize(q)) == 1]  # the prime powers


def fields(q):
    p, m = prime_power(q)
    return field_new(p, m), MaskedField(p, m)


def exponents(q):
    p, _ = prime_power(q)
    return sorted({0, 1, 2, 3, p, q - 2, q - 1, q, q + 1, 2 * q - 1, 10**12 + 1,
                   -1, -2, -p, -(q - 1), -q, -(10**12 + 1)})


def test_orders_are_the_prime_powers_up_to_64():
    assert len(ORDERS) == 27 and ORDERS[:6] == [2, 3, 4, 5, 7, 8] and ORDERS[-3:] == [59, 61, 64]


@pytest.mark.parametrize("q", ORDERS)
def test_array_ops_match_masked_ops_on_all_pairs(q):
    f, o = fields(q)
    r = np.arange(q)
    a, b = r[:, None], r[None, :]
    for op in ("add_arr", "sub_arr", "mul_arr"):
        assert np.array_equal(getattr(f, op)(a, b), getattr(o, op)(a, b)), op
    assert np.array_equal(f.neg_arr(r), o.neg_arr(r))
    for e in exponents(q):
        x = r if e >= 0 else r[1:]
        assert np.array_equal(f.pow_arr(x, e), o.pow_arr(x, e)), e


@pytest.mark.parametrize("q", ORDERS)
def test_scalar_ops_match_masked_ops_on_all_pairs(q):
    f, o = fields(q)
    for x in range(q):
        assert f.neg(x) == o.neg(x)
        for y in range(q):
            assert (f.add(x, y), f.sub(x, y), f.mul(x, y)) == (o.add(x, y), o.sub(x, y), o.mul(x, y))
        for e in exponents(q):
            if x or e >= 0:
                assert f.pow(x, e) == o.pow(x, e), (x, e)
        if x:
            assert f.inv(x) == o.inv(x)


@pytest.mark.parametrize("q", ORDERS)
def test_log_ops_match_array_ops_on_all_pairs(q):
    f, _ = fields(q)
    r = np.arange(q)
    a, b = r[:, None], r[None, :]
    la, lb = f.log[a], f.log[b]
    assert np.array_equal(f.log[f.add_arr(a, b)], f.add_logs(la, lb))
    assert np.array_equal(f.log[f.mul_arr(a, b)], f.mul_logs(la, lb))
    assert np.array_equal(f.log[f.neg_arr(r)], f.neg_logs(f.log[r]))
    # zero is the one log at or above z, and exp undoes log everywhere
    assert f.log[0] == f.log_zero == 2 * (q - 1) and (f.log[1:] < q - 1).all()
    assert np.array_equal(f.exp[f.log], r)


@pytest.mark.parametrize("q", [2, 9, 16, 25])
@pytest.mark.parametrize("shapes", [((), (7,)), ((7,), ()), ((0,), (1,)), ((3, 0), (1,)),
                                    ((4, 1), (1, 5)), ((), ()), ((2, 3, 1), (3, 4))])
def test_array_ops_broadcast_like_masked_ops(q, shapes):
    f, o = fields(q)
    rng = np.random.default_rng(q)
    a, b = (rng.integers(0, q, size=s) for s in shapes)
    for op in ("add_arr", "sub_arr", "mul_arr"):
        got, want = np.asarray(getattr(f, op)(a, b)), getattr(o, op)(a, b)
        assert got.shape == want.shape and np.array_equal(got, want), op
    for e in (0, 3, q) if np.ndim(a) else ():  # the masked pow_arr fails on 0-d input
        got = np.asarray(f.pow_arr(a, e))
        assert got.shape == np.shape(a) and np.array_equal(got, o.pow_arr(a, e))


@pytest.mark.parametrize("p,m", [(3, 8), (2, 16)])
def test_ops_match_masked_ops_on_seeded_pairs(p, m):
    f, o = field_new(p, m), MaskedField(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a, b = rng.integers(0, f.q, size=(2, 100_000))
    a[rng.random(a.size) < 0.01] = 0
    b[rng.random(b.size) < 0.01] = 0
    b[:1000] = a[:1000]  # x + x, and x - x = 0
    b[1000:2000] = o.neg_arr(a[1000:2000])  # vanishing sums
    for op in ("add_arr", "sub_arr", "mul_arr"):
        assert np.array_equal(getattr(f, op)(a, b), getattr(o, op)(a, b)), op
    assert np.array_equal(f.neg_arr(a), o.neg_arr(a))
    for e in (0, 1, p, f.q - 2, 12345, 10**15 + 7):
        assert np.array_equal(f.pow_arr(a, e), o.pow_arr(a, e)), e
    assert np.array_equal(f.pow_arr(a[a != 0], -5), o.pow_arr(a[a != 0], -5))
    for x, y in zip(a[:300].tolist(), b[:300].tolist()):
        assert (f.add(x, y), f.mul(x, y), f.sub(x, y)) == (o.add(x, y), o.mul(x, y), o.sub(x, y))


def test_negative_power_of_zero_raises_in_array_op():
    f = field_new(3, 2)
    with pytest.raises(DivisionByZero):
        f.pow_arr([0, 1], -1)
    with pytest.raises(DivisionByZero):
        f.pow_arr(np.zeros((2, 2), dtype=np.int64), -3)
    assert f.pow_arr([0, 1, 5], 0).tolist() == [1, 1, 1]
    assert f.pow_arr([1, 5], -1).tolist() == [1, f.inv(5)]


def seeded_matrices(q, rng):
    """Matrices over GF(q): square, wide, tall, with zero rows and columns,
    rank-deficient (a product through a narrow middle), empty and zero."""
    _, o = fields(q)
    out = [rng.integers(0, q, size=s) for s in ((4, 4), (3, 8), (8, 3), (1, 5), (5, 1))]
    m = rng.integers(0, q, size=(6, 7))
    m[[1, 4]] = 0
    m[:, 2] = 0
    out.append(m)
    for rows, mid, cols in ((6, 2, 7), (5, 3, 4), (7, 1, 7)):
        left = rng.integers(0, q, size=(rows, mid))
        right = rng.integers(0, q, size=(mid, cols))
        acc = np.zeros((rows, cols), dtype=np.int64)
        for k in range(mid):
            acc = o.add_arr(acc, o.mul_arr(left[:, k : k + 1], right[k][None, :]))
        out.append(acc)
    out += [np.zeros((3, 5), dtype=np.int64), np.zeros((0, 4), dtype=np.int64)]
    return out


@pytest.mark.parametrize("q", ORDERS)
def test_rref_rank_nullspace_match_per_row_elimination(q):
    f, o = fields(q)
    rng = np.random.default_rng(1000 + q)
    for mat in seeded_matrices(q, rng):
        R, piv = rref(mat, f)
        R0, piv0 = masked_rref(mat, o)
        assert piv == piv0 and R.shape == R0.shape and np.array_equal(R, R0)
        assert rank(mat, f) == len(piv0)
        assert np.array_equal(nullspace(mat, f), masked_nullspace(mat, o))
