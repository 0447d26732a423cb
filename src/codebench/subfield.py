"""Subfield subcodes of the length-(q+1) family codes, two ways.

The generic route intersects the parent code with the subfield copy by
solving a GF(p)-linear system (each coordinate contributes the digit
equations of Frobenius^t(x) - x = 0); the structural route builds the
small-field BCH code of the same length and offset directly.  The two
must produce the same row space, and both are checked against the
published parameter tables.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, LinearCode, bch_build, rref, same_row_space
from .config import default_budget
from .cyclotomic import coset
from .errors import BudgetExceeded, InvalidParameters
from .galois import field_new, prime_power, subfield_embedding
from .weights import distribution_pair


@dataclass(frozen=True)
class SubcodeReport:
    parent: CodeSpec
    t: int
    params: tuple[int, int, int] | None
    dual_params: tuple[int, int, int] | None
    best_known_note: str
    generic_match: bool | None = None
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


def _digits_of(reps: np.ndarray, p: int, s: int) -> np.ndarray:
    """Base-p digit matrix, one column per digit, low digit first."""
    reps = np.asarray(reps, dtype=np.int64)
    out = np.empty(reps.shape + (s,), dtype=np.int64)
    t = reps.copy()
    for d in range(s):
        out[..., d] = t % p
        t //= p
    return out


def _nullspace_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Right-nullspace basis of A over the prime field, one vector per row."""
    A = A % p
    rows, cols = A.shape
    A = A.copy()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.flatnonzero(A[r:, c])
        if hit.size == 0:
            continue
        pr = r + hit[0]
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        other = np.flatnonzero(A[:, c])
        for i in other:
            if i != r:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, fcol in enumerate(free):
        basis[idx, fcol] = 1
        for rr, pcol in enumerate(pivots):
            basis[idx, pcol] = (-A[rr, fcol]) % p
    return basis


def subfield_subcode_generic(code: LinearCode, t: int) -> LinearCode:
    """Codewords of `code` with every coordinate in the subfield of order
    p^t, as a code over the canonical GF(p^t)."""
    F = code.field
    p, s = F.p, F.m
    if s % t != 0:
        raise InvalidParameters(f"t={t} does not divide s={s}")
    K = field_new(p, t)
    if t == s:
        return LinearCode(K, code.n, code.gen_matrix, gen_poly=code.gen_poly,
                          family=code.family, spec=code.spec)
    emb = subfield_embedding(F, K)
    k, n = code.k, code.n
    # unknowns: digits of the k message symbols; constraints: digits of
    # frob^t(c_i) - c_i per coordinate
    A = np.zeros((n * s, k * s), dtype=np.int64)
    basis_elems = [F.alpha_pow(d) if d else 1 for d in range(s)]
    pt = p**t
    for j in range(k):
        for d in range(s):
            e = basis_elems[d] if d else 1
            col = j * s + d
            contrib = F.mul_arr(e, code.gen_matrix[j])
            diff = F.sub_arr(F.pow_arr(contrib, pt), contrib)
            A[:, col] = _digits_of(diff, p, s).reshape(-1)
    null = _nullspace_mod_p(A, p)
    rows = []
    powers = p ** np.arange(s, dtype=np.int64)
    for vec in null:
        msg = (vec.reshape(k, s) * powers).sum(axis=1)
        word = np.zeros(n, dtype=np.int64)
        for j in range(k):
            if msg[j]:
                word = F.add_arr(word, F.mul_arr(int(msg[j]), code.gen_matrix[j]))
        rows.append(emb.project_arr(word))
    if not rows:
        return LinearCode(K, n, np.zeros((0, n), dtype=np.int64))
    R, pivots = rref(np.array(rows, dtype=np.int64), K)
    return LinearCode(K, n, R)


def subfield_subcode_bch(spec: CodeSpec, t: int) -> LinearCode:
    """The structural identity: the subcode of C_(q,q+1,3,h) over GF(p^t)
    is the BCH code C_(p^t, q+1, 3, h)."""
    p, s = prime_power(spec.q)
    if s % t != 0:
        raise InvalidParameters(f"t={t} does not divide s={s}")
    return bch_build(CodeSpec(q=p**t, n=spec.n, delta=spec.delta, h=spec.h))


def dimension_by_cosets(q: int, h: int, t: int) -> int:
    """q+1 - |C_h union C_(h+1)| in p^t-cyclotomic cosets mod q+1."""
    p, s = prime_power(q)
    if s % t != 0:
        raise InvalidParameters(f"t={t} does not divide s={s}")
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


def report_tables(
    budget: int | None = None,
    labels: tuple[str, ...] | None = None,
    s_values: tuple[int, ...] | None = None,
    check_generic: bool = True,
) -> list[SubcodeReport]:
    """Compute every published (subcode, dual) parameter pair.

    Rows whose enumerations exceed the budget are marked skipped, never
    fabricated.  check_generic additionally solves the generic subcode
    system and verifies row-space equality with the BCH construction.
    """
    budget = default_budget() if budget is None else budget
    out = []
    for label, s, t, parent_q, h, _params, _dual, note in _ROWS:
        if labels is not None and label not in labels:
            continue
        if s_values is not None and s not in s_values:
            continue
        parent_spec = CodeSpec(q=parent_q, n=parent_q + 1, delta=3, h=h)
        sub = subfield_subcode_bch(parent_spec, t)
        generic_match = None
        if check_generic:
            parent = bch_build(parent_spec)
            generic = subfield_subcode_generic(parent, t)
            generic_match = same_row_space(generic.gen_matrix, sub.gen_matrix, sub.field)
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
        flag = "" if r.generic_match in (True, None) else "  GENERIC-MISMATCH"
        lines.append(f"{parent:>16} {r.t:>2} {params:>14} {dual:>14}  {r.best_known_note}{flag}")
    return "\n".join(lines) + "\n"


def reports_json(reports: list[SubcodeReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
