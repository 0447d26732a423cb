"""q-cyclotomic cosets modulo n, minimal polynomials, polynomial arithmetic.

Residues are normalised into [0, n); a coset is the orbit of s under
multiplication by q mod n.  Minimal polynomials are expanded in the
splitting field and their coefficients projected onto the canonical base
field through the subfield embedding.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .errors import (
    DivisionByZero,
    InvalidParameters,
    NotCoprime,
    NotPrimitiveRoot,
    SpecMismatch,
)
from .galois import (
    Field,
    factorize,
    field_for_order,
    field_new,
    prime_power,
    subfield_embedding,
)


def multiplicative_order(q: int, n: int) -> int:
    if gcd(q, n) != 1:
        raise NotCoprime(n, q)
    m, x = 1, q % n
    while x != 1 % n:
        x = x * q % n
        m += 1
    return m


@dataclass(frozen=True)
class CyclotomicCoset:
    n: int
    q: int
    leader: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "q": self.q, "leader": self.leader, "members": list(self.members)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _require_modulus(n: int, q: int) -> None:
    if gcd(n, q) != 1:
        raise NotCoprime(n, q)
    if n < 1:
        raise InvalidParameters(f"need a modulus n >= 1, got n={n}")


def coset(n: int, q: int, s: int) -> CyclotomicCoset:
    """Orbit of s under multiplication by q modulo n."""
    _require_modulus(n, q)
    s %= n
    members = {s}
    x = s * q % n
    while x != s:
        members.add(x)
        x = x * q % n
    ordered = tuple(sorted(members))
    return CyclotomicCoset(n=n, q=q, leader=ordered[0], members=ordered)


def coset_leaders(n: int, q: int) -> list[CyclotomicCoset]:
    """All distinct cosets, by increasing leader; they partition Z_n."""
    _require_modulus(n, q)
    seen: set[int] = set()
    out = []
    for s in range(n):
        if s in seen:
            continue
        c = coset(n, q, s)
        seen.update(c.members)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# dense polynomials over a field


@dataclass(frozen=True)
class Poly:
    """Dense polynomial; coeffs low-to-high with no trailing zeros."""

    field: Field
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, field: Field, coeffs) -> "Poly":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field=field, coeffs=tuple(cs))

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field=field, coeffs=())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field=field, coeffs=(1,))

    @classmethod
    def x_pow_n_minus_1(cls, field: Field, n: int) -> "Poly":
        coeffs = [field.neg(1)] + [0] * (n - 1) + [1]
        return cls.make(field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "Poly"):
        if other.field is not self.field:
            raise SpecMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly.make(f, [f.add(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(field=f, coeffs=tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        f = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    if cb:
                        out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return Poly.make(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly.make(f, [f.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = f.inv(other.leading)
        quo = [0] * max(0, len(rem) - db)
        for da in range(len(rem) - 1, db - 1, -1):
            c = rem[da]
            if c == 0:
                continue
            c = f.mul(c, inv_lead)
            quo[da - db] = c
            for j, cb in enumerate(other.coeffs):
                rem[da - db + j] = f.sub(rem[da - db + j], f.mul(c, cb))
        return Poly.make(f, quo), Poly.make(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        out = Poly.one(self.field)
        for _ in range(e):
            out = out * self
        return out

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def eval(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def reciprocal(self) -> "Poly":
        return Poly.make(self.field, tuple(reversed(self.coeffs)))

    def to_json(self) -> str:
        return json.dumps(list(self.coeffs))

    def __repr__(self):
        return f"Poly({self.field!r}, {list(self.coeffs)})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero:
        f, g = g, f % g
    return f.monic() if not f.is_zero else f


def poly_lcm(polys: list[Poly], dedup: bool = True) -> Poly:
    """lcm of polynomials; with dedup=True identical inputs are collapsed
    first (minimal polynomials of the same coset are literally equal)."""
    if not polys:
        raise ValueError("need at least one polynomial")
    items = list(dict.fromkeys(polys)) if dedup else list(polys)
    out = items[0]
    for g in items[1:]:
        d = poly_gcd(out, g)
        out = (out * g) // d
    return out.monic()


# ---------------------------------------------------------------------------
# minimal polynomials


def minimal_poly(big: Field, beta: int, cs: CyclotomicCoset) -> Poly:
    """M(x) = prod over i in the coset of (x - beta^i), over canonical GF(q).

    beta must be a primitive n-th root of unity in the (splitting) field big.
    """
    n, q = cs.n, cs.q
    if (big.q - 1) % n != 0:
        raise NotPrimitiveRoot(f"no n-th roots of unity in {big!r}")
    if big.pow(beta, n) != 1:
        raise NotPrimitiveRoot("beta^n != 1")
    for f in {n // p for p in factorize(n)}:
        if big.pow(beta, f) == 1:
            raise NotPrimitiveRoot("beta has order smaller than n")
    base = field_for_order(q)
    emb = subfield_embedding(big, base)
    # expand the product in the big field
    coeffs = [1]
    for i in cs.members:
        root = big.pow(beta, i)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] = big.add(nxt[d + 1], c)
            nxt[d] = big.add(nxt[d], big.neg(big.mul(c, root)))
        coeffs = nxt
    return Poly.make(base, [emb.project(c) for c in coeffs])


def splitting_field(q: int, n: int) -> tuple[Field, int]:
    """Canonical GF(q^m) with m = ord_n(q), plus a primitive n-th root beta."""
    p, t = prime_power(q)
    m = multiplicative_order(q, n)
    big = field_new(p, t * m)
    return big, big.alpha_pow((big.q - 1) // n)
