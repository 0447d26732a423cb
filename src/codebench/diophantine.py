"""Counting lemmas and the unit-circle solution counter N(a,b).

Brute force is the authoritative method everywhere; the closed forms
(linear congruence counts, the two gcd identities, and the single-nonzero
case predictions) are predictors under test.  The case predictions are a
straight composition of the congruence lemma with the gcd identities:
the count is gcd(coeff, q+1) when that gcd divides the discrete-log
target, and 0 otherwise.
"""
from __future__ import annotations

from math import gcd

import numpy as np

from .codes import FAMILY_Q_MINUS_PI, trace_dual
from .errors import (
    InvalidParameters,
    NoDelta,
    NotApplicable,
    NotFullCase,
    ValueSetViolation,
)
from .galois import field_new, subfield_members, unit_circle


def congruence_solutions(a: int, b: int, m: int) -> list[int]:
    """All x in [0, m) with a*x = b (mod m): empty unless gcd(a, m) | b,
    else exactly gcd(a, m) solutions spaced m/gcd apart."""
    if m < 1:
        raise InvalidParameters("modulus must be >= 1")
    a %= m
    b %= m
    if m == 1:
        return [0]
    e = gcd(a, m)
    if b % e:
        return []
    mm = m // e
    x0 = (b // e) * pow(a // e, -1, mm) % mm
    return [x0 + j * mm for j in range(e)]


def gcd_plus_plus(p: int, i: int, s: int) -> int:
    """gcd(p^i + 1, p^s + 1): p^m + 1 when i/m and s/m are both odd
    (m = gcd(i, s)); otherwise 1 for even p, 2 for odd p."""
    if min(p, i, s) < 1:
        raise InvalidParameters("p, i, s must be positive")
    m = gcd(i, s)
    if (i // m) % 2 == 1 and (s // m) % 2 == 1:
        return p**m + 1
    return 1 if p % 2 == 0 else 2


def gcd_minus_plus(p: int, i: int, s: int) -> int:
    """gcd(p^i - 1, p^s + 1): p^m + 1 when i/m is even; else 1 or 2 by parity of p."""
    if min(p, i, s) < 1:
        raise InvalidParameters("p, i, s must be positive")
    m = gcd(i, s)
    if (i // m) % 2 == 0:
        return p**m + 1
    return 1 if p % 2 == 0 else 2


# ---------------------------------------------------------------------------
# zeros of P_a(X) = X^(p^k + 1) + X + a


def count_zeros_Pa(p: int, n: int, k: int, a: int) -> int:
    """Brute-force root count of P_a over GF(p^n); must land in
    {0, 1, 2, p^e + 1}, e = gcd(n, k)."""
    if a == 0:
        raise InvalidParameters("a must be nonzero")
    count = len(zeros_Pa_brute(p, n, k, a))
    e = gcd(n, k)
    if count not in {0, 1, 2, p**e + 1}:
        raise ValueSetViolation(f"N_a = {count} outside {{0, 1, 2, {p**e + 1}}}")
    return count


def zeros_Pa_brute(p: int, n: int, k: int, a: int) -> list[int]:
    field = field_new(p, n)
    reps = np.arange(field.q, dtype=np.int64)
    vals = field.add_arr(field.add_arr(field.pow_arr(reps, p**k + 1), reps), a)
    return [int(r) for r in reps[vals == 0]]


def all_zeros_Pa(p: int, n: int, k: int, a: int, x0: int) -> list[int]:
    """Construct all p^e + 1 zeros of P_a from one known zero x0, via the
    auxiliary delta and w0 equations of the full-count case."""
    field = field_new(p, n)
    e = gcd(n, k)
    pe = p**e
    if field.add(field.add(field.pow(x0, p**k + 1), x0), a) != 0:
        raise InvalidParameters("x0 is not a zero of P_a")
    if count_zeros_Pa(p, n, k, a) != pe + 1:
        raise NotFullCase("P_a does not have p^e + 1 zeros")
    # delta with delta^(p^k - 1) = x0^2 / a
    rhs = field.div(field.mul(x0, x0), a)
    logs = congruence_solutions(p**k - 1, field.log_of(rhs), field.q - 1)
    if not logs:
        raise NoDelta("x0^2 / a is not a (p^k - 1)-th power")
    delta = field.alpha_pow(logs[0])
    # w0: a root of the linearized equation w^(p^k) - w + 1/(delta x0) = 0,
    # whose solution set is a coset of the copy of GF(p^e)
    c = field.inv(field.mul(delta, x0))
    reps = np.arange(field.q, dtype=np.int64)
    vals = field.add_arr(
        field.sub_arr(field.pow_arr(reps, p**k), reps), c
    )
    wroots = reps[vals == 0]
    if len(wroots) != pe:
        raise ValueSetViolation(
            f"auxiliary equation has {len(wroots)} roots, expected p^e = {pe}"
        )
    w0 = int(wroots[0])
    zeros = {x0}
    for gamma in subfield_members(field, pe):
        t = field.add(w0, int(gamma))
        z = field.mul(field.pow(t, p**k - 1), x0)
        zeros.add(z)
    if len(zeros) != pe + 1:
        raise ValueSetViolation(f"constructed {len(zeros)} zeros, expected {pe + 1}")
    for z in zeros:
        if field.add(field.add(field.pow(z, p**k + 1), z), a) != 0:
            raise ValueSetViolation(f"constructed value {z} is not a zero")
    return sorted(zeros)


# ---------------------------------------------------------------------------
# N(a, b) over the unit circle


def count_unit_solutions(q: int, h: int, a: int, b: int) -> int:
    """Brute-force count of unit-circle solutions of the family equation;
    value must lie in {0, 1, 2, p^m + 1}, m = gcd(i, s)."""
    if a == 0 and b == 0:
        raise InvalidParameters("(a, b) must be nonzero")
    td = trace_dual(q, h)
    pi, p_m, f2 = td.p_i, td.p_m, td.big
    aq = f2.pow(a, q)
    bq = f2.pow(b, q)
    count = 0
    for u in unit_circle(f2).tolist():
        upi = f2.pow(u, pi)
        upi1 = f2.mul(upi, u)
        if td.family == FAMILY_Q_MINUS_PI:
            v = f2.add(f2.add(a, f2.mul(b, u)), f2.add(f2.mul(bq, upi), f2.mul(aq, upi1)))
        else:
            v = f2.add(f2.add(bq, f2.mul(aq, u)), f2.add(f2.mul(a, upi), f2.mul(b, upi1)))
        if v == 0:
            count += 1
    if count not in {0, 1, 2, p_m + 1}:
        raise ValueSetViolation(f"N(a,b) = {count} outside {{0, 1, 2, {p_m + 1}}}")
    return count


def unit_solution_counts(q: int, h: int) -> np.ndarray:
    """Vectorised N(a, b) over all q^4 pairs; index is a_rep * q^2 + b_rep.

    For each unit u the family equation splits as A_u(a) + B_u(b) = 0, so
    the u-column of every pair is one comparison A_u(a) = -B_u(b) of a
    q^2 x q^2 grid.  Entry for (0, 0) is q + 1 (every unit solves the zero
    equation)."""
    td = trace_dual(q, h)
    f2 = td.big
    u = unit_circle(f2)[:, None]
    upi = f2.pow_arr(u, td.p_i)
    upi1 = f2.mul_arr(upi, u)
    reps = np.arange(f2.q, dtype=np.int64)[None, :]
    rq = f2.pow_arr(reps, q)
    # rows indexed by u: A_u(a) and -B_u(b)
    if td.family == FAMILY_Q_MINUS_PI:
        lhs = f2.add_arr(reps, f2.mul_arr(rq, upi1))
        rhs = f2.neg_arr(f2.add_arr(f2.mul_arr(reps, u), f2.mul_arr(rq, upi)))
    else:
        lhs = f2.add_arr(f2.mul_arr(rq, u), f2.mul_arr(reps, upi))
        rhs = f2.neg_arr(f2.add_arr(rq, f2.mul_arr(reps, upi1)))
    # field reps fit the narrowest unsigned type, and the compares dominate
    rep = np.min_scalar_type(f2.q - 1)
    lhs, rhs = lhs.astype(rep), rhs.astype(rep)
    counts = np.zeros((f2.q, f2.q), dtype=np.min_scalar_type(q + 1))  # N <= q + 1
    hit = np.empty((f2.q, f2.q), dtype=bool)
    for a_vals, b_vals in zip(lhs, rhs):
        counts += np.equal(a_vals[:, None], b_vals[None, :], out=hit)
    return counts.ravel()


def predict_case12(q: int, h: int, a: int, b: int) -> int:
    """Closed-form N(a, b) when exactly one of a, b is nonzero.

    Composes the congruence-count lemma with the gcd identities: reduce the
    equation to u^c = alpha^target over the circle, count t-solutions of
    c*t = target (mod q+1).  Must agree with count_unit_solutions.
    """
    if (a == 0) == (b == 0):
        raise NotApplicable("exactly one of a, b must be zero")
    td = trace_dual(q, h)
    pi, p, i, s, f2 = td.p_i, td.p, td.i, td.s, td.big
    nz = a if b == 0 else b
    r = f2.log_of(nz)
    # which exponent the equation collapses to:
    #   family 1: b=0 -> p^i + 1;  a=0 -> p^i - 1
    #   family 2: b=0 -> p^i - 1;  a=0 -> p^i + 1
    plus_case = (b == 0) == (td.family == FAMILY_Q_MINUS_PI)
    coeff = pi + 1 if plus_case else pi - 1
    e = gcd_plus_plus(p, i, s) if plus_case else gcd_minus_plus(p, i, s)
    assert e == gcd(coeff, q + 1)
    if p == 2:
        target = (-r) % (q + 1)
    elif td.family == FAMILY_Q_MINUS_PI:
        target = ((q + 1) // 2 - r) % (q + 1)
    else:
        target = ((q + 1) // 2 + r) % (q + 1)
    return e if target % e == 0 else 0
