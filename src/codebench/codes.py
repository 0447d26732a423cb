"""BCH codes C_(q,n,delta,h), duals, and their trace representation.

The builder expands minimal polynomials in the splitting field GF(q^m),
m = ord_n(q), takes their lcm as the generator polynomial, and realises
generator/check matrices as cyclic shift staircases.  For delta = 3 and
two distinct cosets C_h, C_(h+1) of size m, the dual is also available as
the two-term trace code {c_(a,b)} (for n = q + 1, over the unit circle),
which is the representation all weight/design verifications cross-check
against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import _kernels as kernels
from .config import default_budget
from .cyclotomic import Poly, coset, minimal_poly, multiplicative_order, splitting_field
from .errors import (
    BudgetExceeded,
    DegenerateDimension,
    InvalidParameters,
    NotCoprime,
)
from .galois import (
    Field,
    field_for_order,
    prime_power,
    subfield_embedding,
    trace_arr,
    unit_circle,
)

FAMILY_Q_MINUS_PI = "q-minus-pi"
FAMILY_PI_MINUS_1 = "pi-minus-1"
FAMILY_GENERIC = "generic"


@dataclass(frozen=True)
class CodeSpec:
    q: int
    n: int
    delta: int
    h: int

    def __post_init__(self):
        if gcd(self.n, self.q) != 1:
            raise NotCoprime((self.n, self.q))
        if not 2 <= self.delta <= self.n:
            raise InvalidParameters("need 2 <= delta <= n")
        if self.h < 0:
            raise InvalidParameters("h must be >= 0")

    def to_json_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "delta": self.delta, "h": self.h}


def classify_h(q: int, h: int) -> tuple[str, int | None]:
    """Detect which h-family (if either) the offset belongs to.

    Family 1: h = (q - p^i)/2 for 0 < i < s, any p.
    Family 2: h = (p^i - 1)/2 for 0 < i < s, odd p.
    """
    p, s = prime_power(q)
    t = q - 2 * h
    if t > 1:
        i = 0
        while t % p == 0:
            t //= p
            i += 1
        if t == 1 and 0 < i < s:
            return FAMILY_Q_MINUS_PI, i
    if p != 2:
        t = 2 * h + 1
        i = 0
        while t % p == 0:
            t //= p
            i += 1
        if t == 1 and 0 < i < s:
            return FAMILY_PI_MINUS_1, i
    return FAMILY_GENERIC, None


# ---------------------------------------------------------------------------
# linear algebra over a field (small matrices)


def rref(mat: np.ndarray, field: Field) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = np.array(mat, dtype=np.int64)
    rows, cols = R.shape
    pivots: list[int] = []
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


def rank(mat: np.ndarray, field: Field) -> int:
    return rref(mat, field)[0].shape[0]


def nullspace(mat: np.ndarray, field: Field) -> np.ndarray:
    """Basis of the right nullspace, one vector per row."""
    R, pivots = rref(mat, field)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, fcol in enumerate(free):
        basis[idx, fcol] = 1
        for r, pcol in enumerate(pivots):
            basis[idx, pcol] = field.neg(int(R[r, fcol]))
    return basis


def orthogonal(a: np.ndarray, b: np.ndarray, field: Field) -> bool:
    """Whether a b^T = 0, i.e. every row of a is orthogonal to every row of b.

    Field addition adds base-p digits mod p, so each inner product is
    summed digit by digit over the nonzero entries of a only.
    """
    rows, cols = np.nonzero(a)
    prods = field.mul_arr(a[rows, cols][:, None], b[:, cols].T)
    for d in range(field.m):
        sums = np.zeros((a.shape[0], len(b)), dtype=np.int64)
        np.add.at(sums, rows, prods // field.p**d % field.p)
        if (sums % field.p).any():
            return False
    return True


def row_keys(words: np.ndarray, q: int) -> np.ndarray:
    """Rows of base-q digits packed into int64 keys, d digits per key for the
    largest d with q^d <= 2^63: an exact injective encoding, not a hash.

    The most significant digit comes first, so key rows compare
    lexicographically exactly as the digit rows do."""
    d = 1
    while q ** (d + 1) <= 2**63:
        d += 1
    rows, n = words.shape
    keys = np.empty((-(-n // d), rows), dtype=np.int64)
    for c, lo in enumerate(range(0, n, d)):
        block = words[:, lo : lo + d]
        weights = q ** np.arange(block.shape[1] - 1, -1, -1, dtype=np.int64)
        keys[c] = np.einsum("ij,j->i", block, weights)
    return keys.T


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): a stable lexicographic sort of the key rows and the
    positions in it where each run of equal rows begins.

    Rows are sorted by their leading key; only the runs that share one
    are ordered again by whole rows with ``np.lexsort``."""
    order = np.argsort(keys[:, 0], kind="stable")
    if keys.shape[1] > 1:
        lead = keys[order, 0]
        same = lead[1:] == lead[:-1]
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] |= same
        tied[:-1] |= same
        pos = np.flatnonzero(tied)
        sub = order[pos]
        order[pos] = sub[np.lexsort(keys[sub].T[::-1])]
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(new)


def distinct_row_keys(words: np.ndarray, q: int) -> np.ndarray:
    """The distinct rows of words, as sorted packed keys (see ``row_keys``);
    two arrays hold the same set of rows iff these are equal."""
    keys = row_keys(words, q)
    order, starts = group_rows(keys)
    return keys[order[starts]]


def same_row_space(a: np.ndarray, b: np.ndarray, field: Field) -> bool:
    ra = rank(a, field)
    rb = rank(b, field)
    if ra != rb:
        return False
    stacked = np.vstack([a, b])
    return rank(stacked, field) == ra


def require_cyclic(mat: np.ndarray, field: Field) -> None:
    """Prove that the row space of mat is closed under the cyclic shift
    i -> i+1 mod n of its columns (so is its nullspace, and with it the
    supports of the code that mat generates or checks); raise
    InvalidParameters if it is not."""
    if not same_row_space(np.roll(mat, 1, axis=1), mat, field):
        raise InvalidParameters("the row space is not closed under the cyclic shift")


# ---------------------------------------------------------------------------
# linear codes


class LinearCode:
    """An [n, k] linear code over GF(q), with optional cyclic structure."""

    def __init__(
        self,
        field: Field,
        n: int,
        gen_matrix: np.ndarray,
        gen_poly: Poly | None = None,
        family: str = FAMILY_GENERIC,
        spec: CodeSpec | None = None,
    ):
        self.field = field
        self.n = n
        self.gen_matrix = np.ascontiguousarray(gen_matrix, dtype=np.int64)
        self.k = self.gen_matrix.shape[0]
        if self.gen_matrix.shape != (self.k, n):
            raise InvalidParameters("generator matrix shape mismatch")
        self.gen_poly = gen_poly
        self.family = family
        self.spec = spec
        self._check_matrix: np.ndarray | None = None
        self._dual: LinearCode | None = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def check_matrix(self) -> np.ndarray:
        if self._check_matrix is None:
            self._check_matrix = self.dual().gen_matrix
        return self._check_matrix

    def dual(self) -> "LinearCode":
        if self._dual is None:
            if self.gen_poly is not None and not self.gen_poly.is_zero:
                # parity-check polynomial reciprocal, made monic
                xn1 = Poly.x_pow_n_minus_1(self.field, self.n)
                hpoly, rem = divmod(xn1, self.gen_poly)
                assert rem.is_zero
                gdual = hpoly.reciprocal().monic()
                dual = cyclic_code(self.field, self.n, gdual, family=self.family)
            else:
                basis = nullspace(self.gen_matrix, self.field)
                dual = LinearCode(self.field, self.n, basis)
            dual._dual = self
            self._dual = dual
        return self._dual

    def codeword_count(self) -> int:
        return self.q**self.k

    def enumeration_cost(self) -> int:
        """Projective message count (scalar classes enumerated once)."""
        return kernels.projective_count(self.q, self.k) + 1

    def codewords(self, budget: int | None = None) -> np.ndarray:
        """Materialise all q^k codewords as an array (small codes only)."""
        budget = default_budget() if budget is None else budget
        if self.codeword_count() > budget:
            raise BudgetExceeded(
                f"{self.codeword_count()} codewords exceed budget {budget}"
            )
        add_tab = self.field.add_table()
        out = np.zeros((1, self.n), dtype=np.int32)
        for j in range(self.k):
            mults = self.field.mul_arr(
                np.arange(self.q, dtype=np.int64)[:, None], self.gen_matrix[j][None, :]
            ).astype(np.int32)
            out = add_tab[out[:, None, :], mults[None, :, :]].reshape(-1, self.n)
        return out

    def min_distance(self, budget: int | None = None) -> int:
        return min_distance(self, budget=budget)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "gen_poly": list(self.gen_poly.coeffs) if self.gen_poly else None,
            "family": self.family,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"


def cyclic_code(
    field: Field, n: int, gen_poly: Poly, family: str = FAMILY_GENERIC, spec=None
) -> LinearCode:
    k = n - gen_poly.degree
    G = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        G[i, i : i + gen_poly.degree + 1] = gen_poly.coeffs
    return LinearCode(field, n, G, gen_poly=gen_poly, family=family, spec=spec)


def bch_build(spec: CodeSpec | None = None, *, q=None, n=None, delta=None, h=None) -> LinearCode:
    """Build C_(q,n,delta,h): the cyclic code whose generator is the lcm of
    the minimal polynomials of beta^h .. beta^(h+delta-2)."""
    if spec is None:
        spec = CodeSpec(q=q, n=n, delta=delta, h=h)
    q, n, delta, h = spec.q, spec.n, spec.delta, spec.h
    base = field_for_order(q)
    big, beta = splitting_field(q, n)
    polys = []
    seen: set[int] = set()
    for j in range(h, h + delta - 1):
        cs = coset(n, q, j % n)
        if cs.leader in seen:
            continue
        seen.add(cs.leader)
        polys.append(minimal_poly(beta, cs))
    gen = polys[0]
    for pp in polys[1:]:
        gen = gen * pp  # distinct cosets => coprime minimal polynomials
    family, _ = classify_h(q, h) if n == q + 1 else (FAMILY_GENERIC, None)
    return cyclic_code(base, n, gen.monic(), family=family, spec=spec)


def dual(code: LinearCode) -> LinearCode:
    return code.dual()


def dump_codewords(code: LinearCode, budget: int | None = None) -> str:
    """One codeword per line, space-separated integer representations."""
    words = code.codewords(budget=budget)
    return "\n".join(" ".join(map(str, row)) for row in words) + "\n"


def min_distance(code: LinearCode, budget: int | None = None) -> int:
    """Exact minimum distance via the cheaper of direct or dual-side
    enumeration (dual side goes through the MacWilliams transform)."""
    from .weights import weight_distribution

    wd = weight_distribution(code, budget=budget)
    d = wd.d()
    if d is None:
        raise InvalidParameters("zero code has no minimum distance")
    return d


# ---------------------------------------------------------------------------
# trace representation of the dual of a two-coset BCH code


def _family_row_exponents(q: int, h: int, family: str) -> list[int]:
    n = q + 1
    if family == FAMILY_PI_MINUS_1:
        return [(-(h + 1)) % n, (-h) % n, h % n, (h + 1) % n]
    return [h % n, (h + 1) % n, (q - h) % n, (q - h + 1) % n]


def parity_check_rows(q: int, h: int) -> tuple[np.ndarray, Field]:
    """The 4 x (q+1) parity-check matrix over GF(q^2) for C_(q,q+1,3,h).

    Rows are beta-power evaluations at the generator's four roots; the row
    order follows the h-family convention.  Requires the dual dimension to
    be exactly 4.
    """
    n = q + 1
    ch, ch1 = coset(n, q, h % n), coset(n, q, (h + 1) % n)
    if ch.leader == ch1.leader or ch.size != 2 or ch1.size != 2:
        raise DegenerateDimension(
            f"dual of C_({q},{n},3,{h}) has dimension {len(set(ch.members) | set(ch1.members))}"
        )
    p, t = prime_power(q)
    field2 = field_for_order(q * q)
    circle = unit_circle(field2)
    family, _ = classify_h(q, h)
    exps = _family_row_exponents(q, h, family)
    H = np.empty((4, n), dtype=np.int64)
    for r, e in enumerate(exps):
        for i in range(n):
            H[r, i] = circle.elements[(e * i) % n]
    return H, field2


class TraceDualSpec:
    """Generator of the dual codewords c_(a,b) of C_(q,n,3,h) via the trace.

    c_(a,b)[i] = Tr(a gamma^(h i) + b gamma^((h+1) i)) for i < n and a, b
    in GF(q^m), m = ord_n(q), where gamma = alpha^((q^m-1)/n) is the
    primitive n-th root of unity of the BCH construction and Tr is the
    trace onto GF(q); the values are carried back to the canonical GF(q)
    through the subfield embedding.  The map (a, b) -> c_(a,b) is
    GF(q)-linear and lands in the dual (Delsarte); it is injective exactly
    when the cosets C_h and C_(h+1) are distinct and both of size m, which
    the constructor requires.  n defaults to q + 1, where m = 2.
    """

    def __init__(self, q: int, h: int, n: int | None = None):
        n = q + 1 if n is None else n
        m = multiplicative_order(q, n)
        ch, ch1 = coset(n, q, h), coset(n, q, h + 1)
        if ch.leader == ch1.leader or ch.size != m or ch1.size != m:
            dim = len(set(ch.members) | set(ch1.members))
            raise DegenerateDimension(f"dual dimension is {dim}, not {2 * m}")
        self.q, self.h, self.n, self.m = q, h, n, m
        self.family, self.i = classify_h(q, h) if n == q + 1 else (FAMILY_GENERIC, None)
        self.field = field_for_order(q)
        self.big, _ = splitting_field(q, n)
        self.embedding = subfield_embedding(self.big, self.field)
        order = self.big.q - 1
        e = order // n
        i = np.arange(n, dtype=np.int64)
        self._bh = self.big.exp[(e * h % order) * i % order]
        self._bh1 = self.big.exp[(e * (h + 1) % order) * i % order]

    def _words(self, a, b) -> np.ndarray:
        """Rows c_(a[j], b[j]), coordinates in canonical GF(q)."""
        big = self.big
        a = np.asarray(a, dtype=np.int64)[:, None]
        b = np.asarray(b, dtype=np.int64)[:, None]
        vals = big.add_arr(big.mul_arr(a, self._bh), big.mul_arr(b, self._bh1))
        return self.embedding.project_arr(trace_arr(big, vals, self.q))

    def codeword(self, a: int, b: int) -> np.ndarray:
        """Single dual codeword, coordinates in canonical GF(q)."""
        return self._words([a], [b])[0]

    def basis_matrix(self) -> np.ndarray:
        """2m x n generator matrix of the trace code over GF(q): rows
        c_(alpha^j, 0), then c_(0, alpha^j), for j < m."""
        powers = self.big.exp[: self.m]
        zeros = np.zeros(self.m, dtype=np.int64)
        return self._words(np.concatenate([powers, zeros]), np.concatenate([zeros, powers]))

    def orbit_count(self) -> int:
        """g = gcd((q^m-1)/(q-1), e h), the number of orbits of the
        scalar/shift group on a != 0 (see ``kernels.trace_orbit_counts``)."""
        order = self.big.q - 1
        return gcd(order // (self.q - 1), order // self.n * self.h % order)

    def enumeration_cost(self) -> int:
        """(g+1) q^m: q^m words per orbit representative plus at most q^m
        for the slice a = 0."""
        return (self.orbit_count() + 1) * self.big.q

    def through_zero_supports(self, k: int) -> np.ndarray:
        """Support rows (booleans, one per word, repeats kept) of the
        weight-k words among the q^(2m-1) words with c_(a,b)[0] = 1.

        c_(a,b)[0] = Tr(a + b), so these are the words with u = a + b in
        Tr^-1(1) and any b.  Tr is GF(q)-linear, so c_(a,b)[i] =
        Tr(u gamma^(h i)) - Tr(b d_i) with d_i = gamma^(h i) - gamma^((h+1) i),
        and coordinate i is zero exactly when Tr(u gamma^(h i)) = Tr(b d_i).
        Both sides are traces of log/Zech products over (elements x n)
        arrays; the words are compared a few values of u at a time."""
        big, n = self.big, self.n
        reps = np.arange(big.q, dtype=np.int64)
        tr = trace_arr(big, reps, self.q)
        left = tr[big.mul_arr(np.flatnonzero(tr == 1)[:, None], self._bh)]
        right = tr[big.mul_arr(reps[:, None], big.sub_arr(self._bh, self._bh1))]
        step = max(1, (1 << 22) // right.size)
        out = [np.zeros((0, n), dtype=bool)]
        for lo in range(0, len(left), step):
            nz = (left[lo : lo + step, None, :] != right[None, :, :]).reshape(-1, n)
            out.append(nz[np.count_nonzero(nz, axis=1) == k])
        return np.concatenate(out)

    def codewords(self, budget: int | None = None) -> np.ndarray:
        """All q^(2m) dual codewords, row a * q^m + b holding c_(a,b).

        With T[x, y] = Tr(x + y) in canonical GF(q), coordinate i of c_(a,b)
        is T[a gamma^(h i), b gamma^((h+1) i)], so column i, read as a
        q^m x q^m array over (a, b), is T with its rows and columns permuted
        by multiplication with gamma^(h i) and gamma^((h+1) i)."""
        budget = default_budget() if budget is None else budget
        big, n = self.big, self.n
        kernels.check_budget(big.q**2, budget)
        mul_tab = big.mul_table()
        reps = np.arange(big.q, dtype=np.int64)
        tr = self.embedding.project_table()[trace_arr(big, reps, self.q)]
        table = tr.astype(np.int32)[big.add_table()]
        cols = np.empty((n, big.q, big.q), dtype=np.int32)
        for i in range(n):
            np.take(table[mul_tab[self._bh[i]]], mul_tab[self._bh1[i]], axis=1, out=cols[i])
        return np.ascontiguousarray(cols.reshape(n, -1).T)

    def weight_distribution(self, budget: int | None = None):
        """Exact distribution in two parts: the m-dimensional slice
        {c_(0,b)} through ``kernels.weight_counts``, and every a != 0
        through the g orbit representatives of ``kernels.trace_orbit_counts``.
        Charged ``enumeration_cost()`` = (g+1) q^m against the budget."""
        from .weights import WeightDistribution

        budget = default_budget() if budget is None else budget
        kernels.check_budget(self.enumeration_cost(), budget)
        slice_rows = self.basis_matrix()[self.m :]
        counts = kernels.weight_counts(slice_rows, self.field)
        counts += kernels.trace_orbit_counts(self.big, self.q, self.n, self.h)
        return WeightDistribution(
            n=self.n, q=self.q, k=2 * self.m, counts=tuple(int(c) for c in counts)
        )


def trace_dual(q: int, h: int, n: int | None = None) -> TraceDualSpec:
    return TraceDualSpec(q, h, n)
