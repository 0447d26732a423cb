"""Subfield subcodes of the length-(q+1) family codes, two ways.

The generic route solves H c^T = 0 for c over GF(p^t), H a basis of the
parent's dual, as one GF(p)-linear system A: the unknowns are the base-p
digits of the coordinates of c, the equations the base-p digits of the
entries of H c^T.  The structural route builds the small-field BCH code
of the same length and offset directly.  The two must produce the same
row space.  The table report decides that from A without solving it
(``generic_subcode_matches``: membership of the structural rows plus
one GF(p) rank); ``subfield_subcode_generic`` still builds the generic
basis, as public API and as the tests' oracle.  The structural code is
checked against the published parameter tables.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, LinearCode, bch_build, nullspace, rank, rref
from .cyclotomic import coset
from .errors import BudgetExceeded, InvalidParameters
from .galois import Field, field_new, prime_power, subfield_embedding
from .weights import distribution_pair


@dataclass(frozen=True)
class SubcodeReport:
    parent: CodeSpec
    t: int
    params: tuple[int, int, int] | None
    dual_params: tuple[int, int, int] | None
    best_known_note: str
    generic_match: bool
    skipped: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "parent": self.parent.to_json_dict(),
            "t": self.t,
            "params": list(self.params) if self.params else None,
            "dual_params": list(self.dual_params) if self.dual_params else None,
            "note": self.best_known_note,
            "generic_match": self.generic_match,
            "skipped": self.skipped,
        }


def _check_degree(t: int, s: int) -> None:
    """GF(p^t) is a subfield of GF(p^s) exactly when t >= 1 divides s."""
    if t < 1:
        raise InvalidParameters(f"subfield degree t must be >= 1, got {t}")
    if s % t != 0:
        raise InvalidParameters(f"t={t} does not divide s={s}")


def _generic_system(code: LinearCode, K: Field) -> np.ndarray:
    """The GF(p) system whose solutions are the base-p digits of the
    codewords of `code` with every coordinate in its subfield K.

    With H = ``code.check_matrix``, a basis of the dual, these are the c in
    K^n with H c^T = 0.  The unknowns are the t base-p digits of each c_i
    (column i t + e holds digit e of c_i, the coefficient of K's e-th
    power basis element); the equations are the s base-p digits of each
    entry of H c^T, which are GF(p)-linear in the unknowns: an
    (n-k)s x nt matrix over GF(p)."""
    F = code.field
    p, s, t = F.p, F.m, K.m
    # beta[e]: the image in F of the e-th power basis element of K
    beta = subfield_embedding(F, K).embed_arr(p ** np.arange(t, dtype=np.int64))
    # digits[r, i, e, d]: base-p digit d of H[r, i] * beta[e]
    digits = F.mul_arr(code.check_matrix[:, :, None], beta)[..., None] // p ** np.arange(s) % p
    # rows (r, d) are the equations, columns (i, e) the unknowns
    return digits.transpose(0, 3, 1, 2).reshape(-1, code.n * t)


def subfield_subcode_generic(code: LinearCode, t: int) -> LinearCode:
    """Codewords of `code` with every coordinate in the subfield of order
    p^t, as a code over the canonical GF(p^t), with its basis in RREF: the
    nullspace of ``_generic_system`` over GF(p), read back as words."""
    F = code.field
    _check_degree(t, F.m)
    K = field_new(F.p, t)
    if t == F.m:
        return LinearCode(K, code.n, rref(code.gen_matrix, K)[0], gen_poly=code.gen_poly,
                          family=code.family, spec=code.spec)
    null = nullspace(_generic_system(code, K), field_new(F.p, 1))
    words = null.reshape(-1, code.n, t) @ F.p ** np.arange(t, dtype=np.int64)
    return LinearCode(K, code.n, rref(words, K)[0])


def generic_subcode_matches(code: LinearCode, sub: LinearCode) -> bool:
    """Whether `sub`, a code over the canonical GF(p^t), spans the same
    rows as ``subfield_subcode_generic(code, t)``, without building them.

    The solutions of ``_generic_system`` form a GF(p^t)-linear space of
    GF(p)-dimension n t - rank A.  So it equals the span of `sub` exactly
    when every row of `sub` solves A (its base-p digits d give A d^T = 0)
    and that dimension is t k: `sub`'s generator is a basis, as every
    ``LinearCode``'s is (a cyclic code's shifted-g staircase has rank k)."""
    K, G = sub.field, sub.gen_matrix
    p, t = K.p, K.m
    _check_degree(t, code.field.m)
    A = _generic_system(code, K)
    digits = (G[..., None] // p ** np.arange(t) % p).reshape(sub.k, -1)
    if (A @ digits.T % p).any():
        return False
    return code.n * t - rank(A, field_new(p, 1)) == t * sub.k


def subfield_subcode_bch(spec: CodeSpec, t: int) -> LinearCode:
    """The structural identity: the subcode of C_(q,q+1,3,h) over GF(p^t)
    is the BCH code C_(p^t, q+1, 3, h)."""
    p, s = prime_power(spec.q)
    _check_degree(t, s)
    return bch_build(CodeSpec(q=p**t, n=spec.n, delta=spec.delta, h=spec.h))


def dimension_by_cosets(q: int, h: int, t: int) -> int:
    """q+1 - |C_h union C_(h+1)| in p^t-cyclotomic cosets mod q+1."""
    p, s = prime_power(q)
    _check_degree(t, s)
    n = q + 1
    base = p**t
    members = set(coset(n, base, h % n).members) | set(coset(n, base, (h + 1) % n).members)
    return n - len(members)


# ---------------------------------------------------------------------------
# the published table rows

_ROWS = [
    # (label, s, t, parent_q, h, expected params, expected dual params, note)
    ("binary", 4, 1, 16, 4, (17, 1, 17), None, "trivial MDS row: dimension 1"),
    ("binary", 5, 1, 32, 8, (33, 13, 10), (33, 20, 6), "both best known"),
    ("binary", 6, 1, 64, 16, (65, 41, 5), (65, 24, 16),
     "best known are [65,41,8] and [65,24,17]"),
    ("quaternary", 2, 2, 4, 1, (5, 1, 5), None, "trivial MDS row: dimension 1"),
    ("quaternary", 4, 2, 16, 4, (17, 9, 7), (17, 8, 8), "both best known"),
    ("quaternary", 6, 2, 64, 16, (65, 53, 5), (65, 12, 32),
     "best known is [65,53,6]; dual best known"),
    ("ternary", 2, 1, 9, 3, (10, 2, 5), (10, 8, 2),
     "best known cyclic; dual also best known"),
    ("ternary", 3, 1, 27, 12, (28, 16, 4), (28, 12, 8), "best known cyclic"),
    ("ternary", 4, 1, 81, 39, (82, 66, 6), (82, 16, 36), ""),
]


def table_rows():
    return list(_ROWS)


def report_tables(rows, budget: int | None = None) -> list[SubcodeReport]:
    """One report per row of ``table_rows()`` given, in their order: the
    (subcode, dual) parameters, and whether the generic subcode system
    spans the same rows as the BCH construction, decided by
    ``generic_subcode_matches`` (one GF(p) rank, no generic basis).

    Rows whose enumerations exceed the budget are marked skipped, never
    fabricated.
    """
    out = []
    for _label, _s, t, parent_q, h, _params, _dual, note in rows:
        parent_spec = CodeSpec(q=parent_q, n=parent_q + 1, delta=3, h=h)
        sub = subfield_subcode_bch(parent_spec, t)
        generic_match = generic_subcode_matches(bch_build(parent_spec), sub)
        try:
            wd, dual_wd = distribution_pair(sub, budget=budget)
            params = (sub.n, sub.k, wd.d())
            dual_params = (sub.n, sub.n - sub.k, dual_wd.d())
        except BudgetExceeded as exc:
            out.append(
                SubcodeReport(parent=parent_spec, t=t, params=None, dual_params=None,
                              best_known_note=note, generic_match=generic_match,
                              skipped=str(exc))
            )
            continue
        out.append(
            SubcodeReport(parent=parent_spec, t=t, params=params, dual_params=dual_params,
                          best_known_note=note, generic_match=generic_match)
        )
    return out


def report_csv(reports: list[SubcodeReport]) -> str:
    lines = ["parent_q,h,t,n,k,d,dual_n,dual_k,dual_d,generic_match,note,skipped"]
    for r in reports:
        p_ = r.params or ("", "", "")
        d_ = r.dual_params or ("", "", "")
        lines.append(
            f"{r.parent.q},{r.parent.h},{r.t},{p_[0]},{p_[1]},{p_[2]},"
            f"{d_[0]},{d_[1]},{d_[2]},{r.generic_match},{r.best_known_note},"
            f"{r.skipped or ''}"
        )
    return "\n".join(lines) + "\n"


def report_text(reports: list[SubcodeReport]) -> str:
    lines = [f"{'parent':>16} {'t':>2} {'code':>14} {'dual':>14}  note"]
    for r in reports:
        parent = f"C_({r.parent.q},{r.parent.n},3,{r.parent.h})"
        if r.skipped:
            lines.append(f"{parent:>16} {r.t:>2} {'skipped':>14} {'skipped':>14}  {r.skipped}")
            continue
        params = "[" + ",".join(map(str, r.params)) + "]"
        dual = "[" + ",".join(map(str, r.dual_params)) + "]"
        flag = "" if r.generic_match else "  GENERIC-MISMATCH"
        lines.append(f"{parent:>16} {r.t:>2} {params:>14} {dual:>14}  {r.best_known_note}{flag}")
    return "\n".join(lines) + "\n"


def reports_json(reports: list[SubcodeReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
