"""BCH codes C_(q,n,delta,h), duals, and their trace representation.

The builder expands minimal polynomials in the splitting field GF(q^m),
m = ord_n(q), takes their lcm as the generator polynomial, and realises
generator/check matrices as cyclic shift staircases.  For delta = 3 and
two distinct cosets C_h, C_(h+1) of size m, the dual is also available as
the two-term trace code {c_(a,b)} (for n = q + 1, over the unit circle),
which is the representation all weight/design verifications cross-check
against.  The two offset families of the paper, h = (q - p^i)/2 and
h = (p^i - 1)/2 for 0 < i < s, live here too: ``family_offset`` and
``valid_instances`` map (family, i) to h, and ``classify_h`` looks h up
among them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from . import _kernels as kernels
from .config import DEFAULT_BUDGET
from .cyclotomic import Poly, coset, minimal_poly, multiplicative_order, splitting_field
from .errors import (
    BudgetExceeded,
    DegenerateDimension,
    InvalidParameters,
    NotCoprime,
    WorkbenchError,
    count_text,
)
from .galois import (
    Field,
    SubfieldEmbedding,
    field_for_order,
    prime_power,
    subfield_embedding,
    trace_arr,
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
        prime_power(self.q)
        if gcd(self.n, self.q) != 1:
            raise NotCoprime(self.n, self.q)
        if not 2 <= self.delta <= self.n:
            raise InvalidParameters("need 2 <= delta <= n")
        if self.h < 0:
            raise InvalidParameters("h must be >= 0")

    def to_json_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "delta": self.delta, "h": self.h}


def family_offset(q: int, i: int, family: str) -> int:
    """The offset h = (q - p^i)/2 (q-minus-pi) or (p^i - 1)/2 (pi-minus-1,
    odd p only) for q = p^s and 0 < i < s; q - p^i = p^i (p^(s-i) - 1) is
    even for every p."""
    p, s = prime_power(q)
    if not 0 < i < s:
        raise WorkbenchError(f"need 0 < i < s, got i={i}, s={s}")
    if family == FAMILY_Q_MINUS_PI:
        return (q - p**i) // 2
    if family == FAMILY_PI_MINUS_1:
        if p == 2:
            raise WorkbenchError("family pi-minus-1 needs odd p")
        return (p**i - 1) // 2
    raise WorkbenchError(f"unknown family {family}")


def valid_instances(q: int) -> list[tuple[str, int, int]]:
    """All (family, i, h) with a 4-dimensional dual for this q."""
    p, s = prime_power(q)
    out = []
    for i in range(1, s):
        out.append((FAMILY_Q_MINUS_PI, i, (q - p**i) // 2))
        if p != 2:
            out.append((FAMILY_PI_MINUS_1, i, (p**i - 1) // 2))
    return out


def classify_h(q: int, h: int) -> tuple[str, int | None]:
    """(family, i) of the offset h among ``valid_instances(q)``, or
    (generic, None) when h is in neither family."""
    return next(((f, i) for f, i, offset in valid_instances(q) if offset == h),
                (FAMILY_GENERIC, None))


# ---------------------------------------------------------------------------
# linear algebra over a field (small matrices)


def rref(mat: np.ndarray, field: Field) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list).

    The matrix is converted to logs once and eliminated on logs (see
    ``Field``): each pivot clears its column in every other row with one
    ``mul_logs`` and one ``add_logs``, a few integer adds and gathers."""
    L = field.log[np.asarray(mat, dtype=np.int64)]
    rows, cols = L.shape
    z, o = field.log_zero, field.q - 1
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(L[r:, c] != z)
        if len(nz) == 0:
            continue
        if nz[0]:
            L[[r, r + nz[0]]] = L[[r + nz[0], r]]
        L[r] = field.mul_logs(L[r], -L[r, c] % o)
        rest = np.flatnonzero(L[:, c] != z)
        rest = rest[rest != r]
        # every row i in rest at once: row i -= L[i, c] * row r
        factors = (L[rest, c : c + 1] + field.log_neg_one) % o
        L[rest] = field.add_logs(L[rest], field.mul_logs(L[r], factors))
        pivots.append(c)
        r += 1
    return field.exp[L[:r]], pivots


def rank(mat: np.ndarray, field: Field) -> int:
    return rref(mat, field)[0].shape[0]


def nullspace(mat: np.ndarray, field: Field) -> np.ndarray:
    """Basis of the right nullspace, one vector per row."""
    R, pivots = rref(mat, field)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.neg_arr(R[:, free].T)
    return basis


def orthogonal(a: np.ndarray, b: np.ndarray, field: Field) -> bool:
    """Whether a b^T = 0, i.e. every row of a is orthogonal to every row of b.

    Field addition adds base-p digits mod p, so each inner product is
    summed digit by digit over the nonzero entries of a only: one
    ``np.add.reduceat`` over the runs of each row's entries, every base-p
    digit at once.
    """
    rows, cols = np.nonzero(a)
    if len(rows) == 0:
        return True
    prods = field.mul_arr(a[rows, cols][:, None], b[:, cols].T)
    digits = prods[:, :, None] // field.p ** np.arange(field.m) % field.p
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return not (np.add.reduceat(digits, starts) % field.p).any()


def same_row_space(a: np.ndarray, b: np.ndarray, field: Field) -> bool:
    """Whether a and b span one row space: the RREF of a row space is
    canonical, so the two reduced matrices are equal."""
    return np.array_equal(rref(a, field)[0], rref(b, field)[0])


def require_cyclic(mat: np.ndarray, field: Field) -> None:
    """Prove that the row space of mat is closed under the cyclic shift
    i -> i+1 mod n of its columns (so is its nullspace, and with it the
    supports of the code that mat generates or checks); raise
    InvalidParameters if it is not.

    Rows of evaluations gamma^(t i), such as parity rows, are eigenvectors
    of the shift, which maps each to a multiple of itself: that is proved
    on logs in O(rows n) (``_shift_eigenrows``).  Any other matrix gets the
    rank comparison."""
    # a column permutation keeps the rank r, so the two row spaces agree
    # exactly when the stack has rank r
    if not _shift_eigenrows(mat, field) and (
        rank(np.vstack([np.roll(mat, 1, axis=1), mat]), field) != rank(mat, field)
    ):
        raise InvalidParameters("the row space is not closed under the cyclic shift")


def _shift_eigenrows(mat: np.ndarray, field: Field) -> bool:
    """Whether every row of mat is zero, or has no zero entry and one log
    step between every two cyclically adjacent columns; then the shift
    maps the row r to c r, c = r[n-1] / r[0], and the row space to itself."""
    L = field.log[np.asarray(mat, dtype=np.int64)]
    zero = L == field.log_zero
    some = zero.any(axis=1)
    if (some & ~zero.all(axis=1)).any():
        return False
    live = L[~some]
    step = (np.roll(live, -1, axis=1) - live) % (field.q - 1)
    return bool((step == step[:, :1]).all())


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
        self._dual: LinearCode | None = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def check_matrix(self) -> np.ndarray:
        return self.dual().gen_matrix

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
        budget = DEFAULT_BUDGET if budget is None else budget
        if self.codeword_count() > budget:
            raise BudgetExceeded(
                f"{count_text(self.codeword_count())} codewords exceed budget {budget}"
            )
        lanes = self.field.lanes(self.n)
        scalars = np.arange(self.q, dtype=np.int64)[:, None]
        out = np.zeros((lanes.count, 1), dtype=np.uint64)
        for row in self.gen_matrix:
            mults = lanes.pack(self.field.mul_arr(scalars, row[None, :]))
            out = lanes.add(out[:, :, None], mults[:, None, :]).reshape(lanes.count, -1)
        return lanes.unpack(out)

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


def bch_build(spec: CodeSpec) -> LinearCode:
    """Build C_(q,n,delta,h): the cyclic code whose generator is the lcm of
    the minimal polynomials of beta^h .. beta^(h+delta-2)."""
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
        polys.append(minimal_poly(big, beta, cs))
    gen = polys[0]
    for pp in polys[1:]:
        gen = gen * pp  # distinct cosets => coprime minimal polynomials
    family, _ = classify_h(q, h) if n == q + 1 else (FAMILY_GENERIC, None)
    return cyclic_code(base, n, gen.monic(), family=family, spec=spec)


def dump_codewords(code: LinearCode, budget: int | None = None) -> str:
    """One codeword per line, space-separated integer representations."""
    words = code.codewords(budget=budget)
    return "\n".join(" ".join(map(str, row)) for row in words) + "\n"


# ---------------------------------------------------------------------------
# trace representation of the dual of a two-coset BCH code


def root_powers(big: Field, n: int, ts) -> np.ndarray:
    """The rows gamma^(t i), i < n, over big, one for each t of the array
    ts (one row for a scalar t), where gamma = alpha^((|big| - 1)/n) is the
    primitive n-th root of unity of the BCH construction."""
    order = big.q - 1
    e = np.asarray(ts, dtype=np.int64) % n * (order // n)
    return big.exp[e[..., None] * np.arange(n) % order]


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

    For n = q + 1 the instance also owns the family parameters that the
    paper reads off h: ``family`` and ``i`` (``classify_h``), q = p^s, and
    ``p_i`` and ``p_m`` = p^gcd(i, s), which refuse a non-family h.
    """

    def __init__(self, q: int, h: int, n: int | None = None):
        prime_power(q)
        n = q + 1 if n is None else n
        m = multiplicative_order(q, n)
        ch, ch1 = coset(n, q, h), coset(n, q, h + 1)
        if ch.leader == ch1.leader or ch.size != m or ch1.size != m:
            dim = len(set(ch.members) | set(ch1.members))
            raise DegenerateDimension(f"dual dimension is {dim}, not {2 * m}")
        self.q, self.h, self.n, self.m = q, h, n, m
        self.family, self.i = classify_h(q, h) if n == q + 1 else (FAMILY_GENERIC, None)
        self.field = field_for_order(q)
        self.p, self.s = self.field.p, self.field.m

    @cached_property
    def big(self) -> Field:
        """GF(q^m), built on first use: the family parameters need only q."""
        return splitting_field(self.q, self.n)[0]

    @cached_property
    def embedding(self) -> SubfieldEmbedding:
        return subfield_embedding(self.big, self.field)

    @cached_property
    def _bh(self) -> np.ndarray:
        return root_powers(self.big, self.n, self.h)

    @cached_property
    def _bh1(self) -> np.ndarray:
        return root_powers(self.big, self.n, self.h + 1)

    def _family_i(self) -> int:
        if self.i is None:
            raise InvalidParameters(f"h={self.h} is in neither family for q={self.q}")
        return self.i

    @property
    def p_i(self) -> int:
        """p^i of the offset h = (q - p^i)/2 or (p^i - 1)/2."""
        return self.p ** self._family_i()

    @property
    def p_m(self) -> int:
        """p^m, m = gcd(i, s): the subfield order that fixes the dual's
        weights, the designs and the value set of N(a, b)."""
        return self.p ** gcd(self._family_i(), self.s)

    def parity_rows(self) -> np.ndarray:
        """2m x n parity-check matrix of C_(q,n,3,h) over ``big``: the rows
        gamma^(h q^j i) and gamma^((h+1) q^j i), the evaluations at the
        generator's roots, in the order (h, h+1, qh, q(h+1), ...) for j < m.
        For n = q + 1 these are the cosets {h, -h} and {h+1, -(h+1)} on
        the unit circle."""
        return root_powers(self.big, self.n, [t * self.q**j for j in range(self.m)
                                              for t in (self.h, self.h + 1)])

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

    def orbit_counts(self) -> tuple[int, int]:
        """(g_a, g_b): g_a = gcd((q^m-1)/(q-1), e h) orbits of the
        scalar/shift group on a != 0 (see ``kernels.trace_orbits``), and
        g_b = gcd((q^m-1)/(q-1), e (h+1)) on b != 0."""
        return tuple(kernels.trace_orbits(self.q**self.m, self.q, self.n, t)
                     for t in (self.h, self.h + 1))

    def orbit_count(self) -> int:
        """g = min(g_a, g_b), the orbits of the side that the count reduces."""
        return min(self.orbit_counts())

    def enumeration_cost(self) -> int:
        """(g+1) q^m: q^m words per orbit representative of the reduced
        side plus at most q^m for the slice where that side is 0."""
        return (self.orbit_count() + 1) * self.q**self.m

    @cached_property
    def _packed_tables(self) -> tuple[np.ndarray, np.ndarray]:
        reps = np.arange(self.big.q, dtype=np.int64)
        zeros = np.zeros_like(reps)
        lanes = self.field.lanes(self.n)
        return lanes.pack(self._words(reps, zeros)), lanes.pack(self._words(zeros, reps))

    def packed_block(self, lo: int, hi: int) -> np.ndarray:
        """The words c_(a,b) for lo <= a < hi and every b, packed into lanes
        (``Field.lanes``), word (a - lo) q^m + b holding c_(a,b).

        Tr is additive, so c_(a,b) = TA[a] + TB[b] over GF(q), where
        TA[a, i] = Tr(a gamma^(h i)) and TB[b, i] = Tr(b gamma^((h+1) i)) are
        two q^m x n tables, packed once per instance."""
        ta, tb = self._packed_tables
        lanes = self.field.lanes(self.n)
        return lanes.add(ta[:, lo:hi, None], tb[:, None, :]).reshape(lanes.count, -1)

    def codewords(self, budget: int | None = None) -> np.ndarray:
        """All q^(2m) dual codewords over canonical GF(q), row a * q^m + b
        holding c_(a,b) (``packed_block`` over every a, unpacked)."""
        kernels.check_budget(self.big.q**2, budget)
        return self.field.lanes(self.n).unpack(self.packed_block(0, self.big.q))

    def weight_distribution(self, budget: int | None = None):
        """Exact distribution in two parts, reducing the side with fewer
        orbits.  On a: the m-dimensional slice {c_(0,b)} through
        ``kernels.weight_counts``, and every a != 0 through the g_a orbit
        representatives of ``kernels.trace_orbit_counts``.  On b, when
        g_b < g_a: the slice {c_(a,0)}, and every b != 0 through the kernel
        at n-1-h, since the reversal i -> -i maps c_(a,b) for h onto
        c_(b,a) for n-1-h (gamma^(n-1-h) = gamma^-(h+1)) and keeps the
        weight.  Charged ``enumeration_cost()`` = (min(g_a, g_b)+1) q^m
        against the budget.

        This counts the trace code, which is the dual of C_(q,n,3,h) only
        once its basis is proved to span it; ``weights._enumerate`` makes
        that proof and is the one caller."""
        from .weights import WeightDistribution

        kernels.check_budget(self.enumeration_cost(), budget)
        g_a, g_b = self.orbit_counts()
        m, rows = self.m, self.basis_matrix()
        if g_b < g_a:
            slice_rows, t = rows[:m], self.n - 1 - self.h
        else:
            slice_rows, t = rows[m:], self.h
        counts = kernels.weight_counts(slice_rows, self.field)
        counts += kernels.trace_orbit_counts(self.big, self.q, self.n, t)
        return WeightDistribution(
            n=self.n, q=self.q, k=2 * m, counts=tuple(int(c) for c in counts)
        )


def trace_dual(q: int, h: int, n: int | None = None) -> TraceDualSpec:
    return TraceDualSpec(q, h, n)
