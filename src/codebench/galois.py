"""Finite fields GF(p^m) with a canonical, reproducible representation.

An element is an integer in ``[0, q)`` whose base-p digits are its
polynomial-basis coordinates, low degree first.  The modulus is always the
lexicographically smallest primitive monic polynomial of degree m over
GF(p) (coefficients compared low-degree-first as base-p digits), so alpha,
the residue class of x, is a primitive element and every golden value
downstream is reproducible.  For prime fields the modulus is ``x - a`` with
``a`` the smallest primitive root mod p, so alpha is that root.

The search (``lex_smallest_primitive_modulus``) takes the candidates in
lexicographic chunks, drops those that fail the norm or the no-root
condition, and tests the rest at once: a batched square-and-multiply in
numpy for odd p, carry-less arithmetic on Python ints for p = 2.  The
antilog chain doubles a block of powers per step: by a matrix over GF(p)
for odd p, by one table lookup per byte for p = 2.  ``Field`` checks that
the chain runs through every nonzero element once.

All arithmetic runs on one set of arrays per field: log, antilog and Zech
logarithms, each defined on every input with zero as a sentinel log (see
``Field``).  Scalar ops, array ops on representations, ops on logs (for
``codes.rref`` and the kernels) and the cached dense tables are each an
expression over them, with no branch on zero.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import (
    DivisionByZero,
    NotInSubfield,
    NotPrime,
    NotPrimitiveRoot,
    NotSquareField,
    ResourceCap,
    SpecMismatch,
)

TABLE_BUDGET = 1 << 24  # largest field size we will build tables for
_SMALL_TABLE_MAX = 2048  # largest q for cached dense q x q op tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n <= 2^48 scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise NotPrime."""
    fs = factorize(q)
    if len(fs) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, m),) = fs.items()
    return p, m


# ---------------------------------------------------------------------------
# canonical modulus search
#
# x is primitive modulo a monic f of degree m exactly when x^E = 1 for
# E = p^m - 1 and x^(E/r) != 1 for every prime r | E (Lidl & Niederreiter,
# Thm 3.16); that order forces irreducibility.  Two necessary conditions
# are cheap and drop most candidates first: the norm (-1)^m f(0) of a
# primitive root is a primitive root of GF(p) (Thm 3.18), and an
# irreducible f of degree m >= 2 has no root in GF(p).


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factorize(p - 1)):
            return g
    raise AssertionError("no primitive root found")  # pragma: no cover


def _candidate_chunks(p: int, m: int):
    """Digit rows (f_0..f_(m-1), low degree first) of the monic degree-m
    candidates that pass both cheap filters, in lexicographic order, in
    chunks of candidates that double from 16; only one chunk is held."""
    g = smallest_primitive_root(p)
    is_root = np.zeros(p, dtype=bool)  # primitive roots of GF(p)
    is_root[[pow(g, k, p) for k in range(1, p) if gcd(k, p - 1) == 1]] = True
    x = np.arange(1, p, dtype=np.int64)
    powers = np.ones((m + 1, p - 1), dtype=np.int64)  # x^i mod p, i <= m
    for i in range(1, m + 1):
        powers[i] = powers[i - 1] * x % p
    weights = p ** np.arange(m, dtype=np.int64)
    cap = max(16, (1 << 20) // p)  # bounds the (chunk, p) evaluation
    lo, size, total = 0, 16, p**m
    while lo < total:
        c = np.arange(lo, min(lo + size, total), dtype=np.int64)
        digits = c[:, None] // weights % p
        digits = digits[is_root[(-1) ** m * digits[:, 0] % p]]
        values = (digits @ powers[:m] + powers[m]) % p  # f(x), x != 0
        yield digits[values.all(axis=1)]
        lo += len(c)
        size = min(2 * size, cap)


def _primitive_rows(digits: np.ndarray, p: int, exps: list[int]) -> np.ndarray:
    """For each candidate row f (digits of f_0..f_(m-1)), whether x^e = 1
    modulo f for the first exponent in exps and for none of the others:
    one batched square-and-multiply over every (candidate, exponent) pair,
    each following its own exponent's bits, most significant first."""
    s, m = digits.shape
    nbits = max(exps).bit_length()
    bits = np.array([[e >> k & 1 for k in range(nbits - 1, -1, -1)] for e in exps], dtype=bool)
    # red[c, k] holds the digits of x^k mod f_c for k <= 2m - 2
    red = np.zeros((s, 2 * m - 1, m), dtype=np.int64)
    red[:, np.arange(m), np.arange(m)] = 1
    red[:, m] = -digits % p
    for k in range(m + 1, 2 * m - 1):
        red[:, k, 1:] = red[:, k - 1, :-1]
        red[:, k] = (red[:, k] + red[:, k - 1, -1:] * red[:, m]) % p
    conv = np.zeros((m, m, 2 * m - 1), dtype=np.int64)  # i + j = k
    conv[np.arange(m)[:, None], np.arange(m), np.arange(m)[:, None] + np.arange(m)] = 1
    conv = conv.reshape(m * m, 2 * m - 1)
    n_exp = len(exps)
    r = np.zeros((s, n_exp, m), dtype=np.int64)
    r[..., 0] = 1
    for step in bits.T:
        sq = (r[..., :, None] * r[..., None, :]).reshape(s, n_exp, m * m) @ conv % p
        r = sq @ red % p
        shifted = np.zeros_like(r)
        shifted[..., 1:] = r[..., :-1]
        xr = (shifted + r[..., -1:] * red[:, None, m]) % p
        r = np.where(step[None, :, None], xr, r)
    is_one = (r[..., 0] == 1) & ~r[..., 1:].any(axis=-1)
    return is_one[:, 0] & ~is_one[:, 1:].any(axis=1)


def _gf2_is_primitive(f: int, m: int, exps: list[int]) -> bool:
    """The same test for one f over GF(2), on Python ints: f has bit k set
    for the coefficient of x^k (x^m included); squaring is carry-less."""
    for k, e in enumerate(exps):
        r = 1
        for bit in bin(e)[2:]:
            r = int("0".join(bin(r)[2:]), 2)  # r^2 spreads the bits
            if bit == "1":
                r <<= 1
            while r.bit_length() > m:
                r ^= f << (r.bit_length() - 1 - m)
        if (r == 1) != (k == 0):
            return False
    return True


def lex_smallest_primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return ((-smallest_primitive_root(p)) % p, 1)
    group = p**m - 1
    exps = [group] + [group // r for r in factorize(group)]
    for digits in _candidate_chunks(p, m):
        if p == 2:
            for row in digits:
                f = int(row @ (1 << np.arange(m))) | 1 << m
                if _gf2_is_primitive(f, m, exps):
                    return tuple(int(c) for c in row) + (1,)
        elif len(digits):
            hits = np.flatnonzero(_primitive_rows(digits, p, exps))
            if len(hits):
                return tuple(int(c) for c in digits[hits[0]]) + (1,)
    raise AssertionError("no primitive polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------
# field construction


def _gf2_exp_chain(m: int, q: int, modulus: tuple[int, ...]) -> np.ndarray:
    """exp for p = 2 by doubling: exp[L:2L] = exp[:L] alpha^L.  That product
    is GF(2)-linear in the bits of exp[:L], so it is the xor of one lookup
    per byte j of each power, in the 256-entry table T_j[v] = v x^(8j) alpha^L
    (the table-driven CRC idiom)."""
    mod = sum(c << i for i, c in enumerate(modulus))
    exp = np.empty(q - 1, dtype="<i4")  # little-endian, so byte j is column j
    exp[0] = 1
    L = 1
    while L < q - 1:
        cnt = min(L, q - 1 - L)
        digits = exp[:cnt].view(np.uint8).reshape(cnt, 4)
        seg = exp[L : L + cnt]
        seg[:] = 0
        v = int(exp[L - 1])
        for j in range((m + 7) // 8):
            table = np.zeros(256, dtype="<i4")
            for b in range(8):
                v <<= 1  # v = x^(8j+b) alpha^L
                if v >> m:
                    v ^= mod
                table[1 << b : 2 << b] = table[: 1 << b] ^ v
            seg ^= table.take(digits[:, j])
        L += cnt
    return exp


def _build_exp_chain(p: int, m: int, q: int, modulus: tuple[int, ...]) -> np.ndarray:
    """exp[i] = representation of alpha^i for 0 <= i < q - 1.

    For odd p and m > 1 the base-p digit vectors of the powers are rows:
    multiplying by alpha^L is the m x m matrix A_L whose row d holds the
    digits of x^d alpha^L (mod the modulus), so a block of L consecutive
    powers times A_L mod p is the next block.  Blocks double up to about
    sqrt(q), then step through the rest of the group.  For p = 2 see
    ``_gf2_exp_chain``.
    """
    if m == 1:
        a = smallest_primitive_root(p)
        exp = np.empty(q - 1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            x = x * a % p
        return exp
    if p == 2:
        return _gf2_exp_chain(m, q, modulus)
    exp = np.empty(q - 1, dtype=np.int64)
    A = np.zeros((m, m), dtype=np.int64)
    A[np.arange(m - 1), np.arange(1, m)] = 1
    A[m - 1] = [(-c) % p for c in modulus[:m]]  # x^m reduced mod the modulus
    block = np.zeros((1, m), dtype=np.int64)
    block[0, 0] = 1
    while len(block) * len(block) < q - 1:
        block = np.vstack([block, block @ A % p])
        A = A @ A % p
    weights = p ** np.arange(m, dtype=np.int64)
    L = len(block)
    for start in range(0, q - 1, L):
        exp[start : start + L] = (block @ weights)[: q - 1 - start]
        block = block @ A % p
    return exp


class Field:
    """A concrete GF(p^m); immutable once constructed, shareable freely.

    All arithmetic runs on three int32 arrays that are total, so zero takes
    no branch.  With o = q - 1 and the zero sentinel z = 2o:

    * ``log[x]`` is the discrete log of x to base alpha, and z for x = 0;
    * ``exp[i]`` is alpha^(i mod o) for i < z and 0 for z <= i <= 4o, so a
      product is ``exp[log a + log b]`` even when a or b is zero;
    * ``zech[log b - log a + z]`` is log(1 + b/a) for a, b != 0, with a
      vanishing sum at z, so that log a + zech[...] lands at or above z;
      it is log b - log a below index o (a = 0) and 0 above index 3o
      (b = 0), so a + b = ``exp[log a + zech[log b - log a + z]]`` for all
      a and b.

    A log domain value is a log in [0, o) or z; ``log[exp[i]]`` reduces
    any index 0 <= i <= 4o to one, which the ``*_logs`` ops use.
    """

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "generator_index",
        "exp",
        "log",
        "zech",
        "log_zero",
        "log_neg_one",
        "_tables",
    )

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise NotPrime(p)
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > TABLE_BUDGET:
            raise ResourceCap(f"field of order {q} exceeds {TABLE_BUDGET}")
        self.p, self.m, self.q = p, m, q
        self.generator_index = 1
        self.modulus = lex_smallest_primitive_modulus(p, m)
        base = _build_exp_chain(p, m, q, self.modulus).astype(np.int32, copy=False)
        o = q - 1
        z = self.log_zero = 2 * o  # q <= TABLE_BUDGET keeps 4o below 2^31
        self.log_neg_one = 0 if p == 2 else o // 2
        self.exp = np.zeros(4 * o + 1, dtype=np.int32)
        self.exp[:o] = self.exp[o:z] = base
        self.log = np.empty(q, dtype=np.int32)
        self.log[0] = z
        powers = np.arange(o, dtype=np.int32)
        np.put(self.log, base, powers)
        # the chain must run through every nonzero element once: a repeat
        # leaves its earlier power unread, a zero overwrites log[0]
        if self.log[0] != z or not np.array_equal(self.log.take(base), powers):
            raise NotPrimitiveRoot(f"x is not primitive modulo {self.modulus} over GF({p})")
        del powers
        # log(1 + alpha^k) for k < o: add 1 to the constant digit
        if p == 2:
            base ^= 1
        else:
            d0 = base % p
            base += (d0 + 1) % p - d0
        self.zech = np.zeros(4 * o + 1, dtype=np.int32)
        self.zech[:o] = np.arange(-z, -o, dtype=np.int32)
        self.log.take(base, out=self.zech[z : 3 * o])
        self.zech[o + 1 : z] = self.zech[z + 1 : 3 * o]
        self._tables: dict[str, np.ndarray] = {}

    # -- scalar arithmetic on integer representations ----------------------

    def add(self, x: int, y: int) -> int:
        lx = self.log[x]
        return int(self.exp[lx + self.zech[self.log[y] - lx + self.log_zero]])

    def neg(self, x: int) -> int:
        return int(self.exp[self.log[x] + self.log_neg_one])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        return int(self.exp[self.log[x] + self.log[y]])

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return int(self.exp[self.q - 1 - self.log[x]])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        return int(self.pow_arr(x, e))

    def alpha_pow(self, e: int) -> int:
        return int(self.exp[e % (self.q - 1)])

    def log_of(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("log of zero")
        return int(self.log[x])

    # -- vectorised arithmetic on arrays of representations ----------------
    # (ndarray.take gathers through int32 indices faster than a[idx] does)

    def add_arr(self, a, b) -> np.ndarray:
        la, lb = self.log.take(a), self.log.take(b)
        return self.exp.take(la + self.zech.take(lb - la + self.log_zero))

    def neg_arr(self, a) -> np.ndarray:
        return self.exp.take(self.log.take(a) + self.log_neg_one)

    def sub_arr(self, a, b) -> np.ndarray:
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b) -> np.ndarray:
        return self.exp.take(self.log.take(a) + self.log.take(b))

    def pow_arr(self, a, e: int) -> np.ndarray:
        """a^e elementwise; 0^0 = 1, and a negative power of 0 raises."""
        la = self.log.take(a).astype(np.int64)
        if e < 0 and (la == self.log_zero).any():
            raise DivisionByZero("negative power of zero")
        if e == 0:
            return np.ones(np.shape(la), dtype=np.int32)
        o = self.q - 1
        # e reduced into [1, o] keeps x^e = 1 at x != 0; z maps to z
        return self.exp.take(la * ((e - 1) % o + 1) % o + la // o * o)

    # -- the same ops on log domain values (see the class docstring) ---------

    def mul_logs(self, la, lb) -> np.ndarray:
        return self.log.take(self.exp.take(la + lb))

    def add_logs(self, la, lb) -> np.ndarray:
        return self.log.take(self.exp.take(la + self.zech.take(lb - la + self.log_zero)))

    def neg_logs(self, la) -> np.ndarray:
        return self.log.take(self.exp.take(la + self.log_neg_one))

    # -- cached dense tables for kernel use ---------------------------------

    def _dense(self, name: str, build) -> np.ndarray:
        if name not in self._tables:
            if self.q > _SMALL_TABLE_MAX:
                raise ResourceCap(
                    f"dense {name} table for q={self.q} exceeds {_SMALL_TABLE_MAX}"
                )
            self._tables[name] = build()
        return self._tables[name]

    def add_table(self) -> np.ndarray:
        def build():
            r = np.arange(self.q)
            return self.add_arr(r[:, None], r[None, :])

        return self._dense("add", build)

    def mul_table(self) -> np.ndarray:
        def build():
            r = np.arange(self.q)
            return self.mul_arr(r[:, None], r[None, :])

        return self._dense("mul", build)

    def neg_table(self) -> np.ndarray:
        return self._dense("neg", lambda: self.neg_arr(np.arange(self.q)))

    def inv_table(self) -> np.ndarray:
        def build():
            t = np.zeros(self.q, dtype=np.int32)
            t[1:] = self.exp[self.q - 1 - self.log[1:]]
            return t

        return self._dense("inv", build)

    # -- misc ----------------------------------------------------------------

    def element(self, rep: int) -> "FieldElement":
        return FieldElement(self, int(rep) % self.q)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def alpha(self) -> "FieldElement":
        return FieldElement(self, int(self.exp[1 % (self.q - 1)]) if self.q > 2 else 1)

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_new(p: int, m: int) -> Field:
    """Construct (or fetch the cached) canonical GF(p^m)."""
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m)
    return _FIELD_CACHE[key]


def field_for_order(q: int) -> Field:
    return field_new(*prime_power(q))


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class FieldElement:
    """Thin wrapper over an integer representation; ops check field identity."""

    field: Field
    rep: int

    def _peer(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise SpecMismatch("elements of different fields")
            return other.rep
        if isinstance(other, int):
            return other % self.field.p  # prime-subfield constant
        raise TypeError(f"cannot combine FieldElement with {type(other)!r}")

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.rep, self._peer(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.rep, self._peer(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.rep))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.rep, self._peer(other)))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.rep, self._peer(other)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.rep, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.rep))

    def __int__(self):
        return self.rep

    def __bool__(self):
        return self.rep != 0

    def __repr__(self):
        return f"{self.field!r}({self.rep})"


# ---------------------------------------------------------------------------
# relative trace, unit circle, subfield embedding


def rel_trace(field: Field, x: int) -> int:
    """Trace x + x^q of GF(q^2) onto its index-2 subfield copy."""
    q = isqrt(field.q)
    if q * q != field.q:
        raise NotSquareField(field.q)
    return field.add(x, field.pow(x, q))


def trace_arr(field: Field, a, q: int) -> np.ndarray:
    """Tr(x) = x + x^q + ... + x^(q^(d-1)) onto the copy of GF(q), for each
    representation x in a, where this field is GF(q^d)."""
    p, t = prime_power(q)
    if p != field.p or field.m % t:
        raise NotInSubfield(f"GF({q}) is not a subfield of {field!r}")
    conj = total = np.asarray(a, dtype=np.int64)
    for _ in range(field.m // t - 1):
        conj = field.pow_arr(conj, q)
        total = field.add_arr(total, conj)
    return total


def trace_kernel_logs(field: Field, q: int) -> np.ndarray:
    """Ascending logs of the nonzero x with Tr(x) = 0 onto GF(q).

    The kernel is a GF(q)-subspace, so it is a union of cosets of
    GF(q)* = <alpha^u>, u = (|field|-1)/(q-1): tracing alpha^l for l < u
    finds the residues f, and the logs are f + u k in ascending order."""
    u = (field.q - 1) // (q - 1)
    first = np.flatnonzero(trace_arr(field, field.exp[:u], q) == 0)
    return (u * np.arange(q - 1, dtype=np.int64)[:, None] + first).ravel()


@dataclass(frozen=True)
class UnitCircle:
    """The q+1 roots of X^(q+1) - 1 in GF(q^2), as powers of beta = alpha^(q-1)."""

    field: Field
    q: int
    beta: int
    elements: tuple[int, ...]

    def __len__(self):
        return len(self.elements)


def unit_circle(field: Field) -> UnitCircle:
    q = isqrt(field.q)
    if q * q != field.q:
        raise NotSquareField(field.q)
    beta = field.alpha_pow(q - 1)
    elems = tuple(field.alpha_pow((q - 1) * j) for j in range(q + 1))
    assert len(set(elems)) == q + 1
    return UnitCircle(field=field, q=q, beta=beta, elements=elems)


class SubfieldEmbedding:
    """Field embedding of the canonical GF(p^t) into GF(p^s), t | s.

    The image of alpha_small is a root gamma of the small field's modulus
    inside the big field, which makes the map a ring isomorphism onto the
    subfield copy {x : x^(p^t) = x}.  Edges with a proper intermediate
    subfield are composed through the largest one, so towers built from
    these embeddings commute; on direct edges the discrete-log candidate
    alpha_big^((p^s-1)/(p^t-1)) is preferred when it is a root, with the
    smallest-representation root as fallback.
    """

    __slots__ = ("big", "small", "ratio", "gamma", "_embed", "_project")

    def __init__(self, big: Field, small: Field):
        if big.p != small.p or big.m % small.m != 0:
            raise NotInSubfield(f"{small!r} does not embed in {big!r}")
        self.big, self.small = big, small
        self.ratio = (big.q - 1) // (small.q - 1)
        mid_m = self._largest_intermediate()
        if mid_m is not None:
            mid = field_new(big.p, mid_m)
            upper = subfield_embedding(big, mid)
            lower = subfield_embedding(mid, small)
            embed = upper._embed[lower._embed]
            self.gamma = int(embed[small.alpha.rep]) if small.q > 2 else 1
        else:
            self.gamma = self._find_gamma()
            gpow = [1]
            for _ in range(small.m - 1):
                gpow.append(big.mul(gpow[-1], self.gamma))
            embed = np.zeros(small.q, dtype=np.int64)
            for r in range(1, small.q):
                acc, t = 0, r
                for g in gpow:
                    d = t % small.p
                    t //= small.p
                    if d:
                        acc = big.add(acc, big.mul(d, g))
                embed[r] = acc
        self._embed = embed
        project = np.full(big.q, -1, dtype=np.int64)
        project[embed] = np.arange(small.q, dtype=np.int64)
        self._project = project

    def _largest_intermediate(self) -> int | None:
        """Largest proper divisor of big.m that small.m properly divides."""
        best = None
        for d in range(self.small.m + 1, self.big.m):
            if self.big.m % d == 0 and d % self.small.m == 0:
                best = d
        return best

    def _find_gamma(self) -> int:
        big, small = self.big, self.small
        if big is small:
            return int(big.exp[1 % (big.q - 1)]) if big.q > 2 else 1
        candidates = [int(big.exp[(j * self.ratio) % (big.q - 1)]) for j in range(small.q - 1)]
        roots = []
        for c in candidates:
            acc = 0
            for coeff in reversed(small.modulus):
                acc = big.add(big.mul(acc, c), coeff)
            if acc == 0:
                roots.append(c)
        assert roots, "small modulus must split in the big field"
        preferred = int(big.exp[self.ratio % (big.q - 1)])
        return preferred if preferred in roots else min(roots)

    def embed(self, x: int) -> int:
        return int(self._embed[x])

    def project(self, x: int) -> int:
        r = int(self._project[x])
        if r < 0:
            raise NotInSubfield(f"rep {x} is outside the subfield copy")
        return r

    def embed_arr(self, a) -> np.ndarray:
        return self._embed[np.asarray(a, dtype=np.int64)]

    def project_arr(self, a) -> np.ndarray:
        out = self._project[np.asarray(a, dtype=np.int64)]
        if (out < 0).any():
            raise NotInSubfield("some representations are outside the subfield copy")
        return out

    def project_table(self) -> np.ndarray:
        return self._project


_EMBED_CACHE: dict[tuple[int, int, int], SubfieldEmbedding] = {}


def subfield_embedding(big: Field, small: Field) -> SubfieldEmbedding:
    key = (big.p, big.m, small.m)
    if key not in _EMBED_CACHE:
        _EMBED_CACHE[key] = SubfieldEmbedding(big, small)
    return _EMBED_CACHE[key]


def subfield_members(field: Field, q: int) -> np.ndarray:
    """All reps of the copy of GF(q) inside this field (x with x^q = x)."""
    reps = np.arange(field.q, dtype=np.int64)
    return reps[field.pow_arr(reps, q) == reps]
