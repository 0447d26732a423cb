import numpy as np
import pytest

from codebench.codes import (
    CodeSpec,
    LinearCode,
    bch_build,
    nullspace,
    rank,
    rref,
    same_row_space,
)
from codebench.errors import InvalidParameters
from codebench.galois import (
    field_for_order,
    field_new,
    prime_power,
    subfield_embedding,
    subfield_members,
)
from codebench import codes as codes_mod
from codebench import subfield as subfield_mod
from codebench.cli import main
from codebench.subfield import (
    dimension_by_cosets,
    generic_subcode_matches,
    report_csv,
    report_tables,
    report_text,
    reports_json,
    subfield_subcode_bch,
    subfield_subcode_generic,
    table_rows,
)
from codebench.weights import macwilliams, weight_distribution


# ---------------------------------------------------------------------------
# reference implementations: an elimination of its own over GF(p), and the
# subcode as the messages whose codewords are fixed by Frobenius^t


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


def _subcode_by_frobenius(code: LinearCode, t: int) -> LinearCode:
    F = code.field
    p, s = F.p, F.m
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


def _prime_field_matrices(p: int, seed: int):
    rng = np.random.default_rng(seed)
    yield np.zeros((4, 7), dtype=np.int64)
    for rows, cols in [(5, 9), (9, 5), (6, 6), (3, 12), (12, 3)]:
        A = rng.integers(0, p, size=(rows, cols))
        yield A
        # rank-deficient: every row a combination of the first two
        mix = rng.integers(0, p, size=(rows, 2))
        yield mix @ A[:2] % p
        # zero rows scattered through
        Z = A.copy()
        Z[rng.random(rows) < 0.4] = 0
        yield Z


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_nullspace_matches_reference(p):
    Fp = field_new(p, 1)
    for A in _prime_field_matrices(p, seed=p):
        got = nullspace(A, Fp)
        assert np.array_equal(got, _nullspace_mod_p(A, p)), A
        assert not (A @ got.T % p).any()


def _random_code(F, t: int, n: int, k: int, rng) -> LinearCode:
    """A full-rank [n, k] code over F, not cyclic, whose first k // 2 rows
    lie in the subfield of order p^t."""
    sub = subfield_members(F, F.p**t)
    while True:
        G = rng.integers(0, F.q, size=(k, n))
        G[: k // 2] = rng.choice(sub, size=(k // 2, n))
        if rank(G, F) == k:
            return LinearCode(F, n, G)


_PROPER = [(q, t) for q in (4, 8, 16, 64, 9, 27, 25)
           for t in range(1, prime_power(q)[1]) if prime_power(q)[1] % t == 0]


@pytest.mark.parametrize("q,t", _PROPER)
def test_generic_subcode_matches_frobenius_reference(q, t):
    F = field_for_order(q)
    rng = np.random.default_rng(q * 10 + t)
    codes = [LinearCode(F, 6, np.zeros((0, 6), dtype=np.int64)),
             _random_code(F, t, 7, 7, rng)]
    for n, k in [(8, 4), (9, 6), (10, 5), (7, 2)]:
        codes.append(_random_code(F, t, n, k, rng))
    for code in codes:
        got = subfield_subcode_generic(code, t)
        ref = _subcode_by_frobenius(code, t)
        assert got.field is ref.field
        assert np.array_equal(got.gen_matrix, ref.gen_matrix), (code.n, code.k)
        assert got.k >= code.k // 2  # the subfield rows stay
    assert codes[0].k == 0 and subfield_subcode_generic(codes[0], t).k == 0
    assert subfield_subcode_generic(codes[1], t).k == 7


_PARENTS = sorted({(q, h) for _, _, _, q, h, *_ in table_rows()})


@pytest.mark.parametrize("q,h", _PARENTS)
def test_generic_subcode_matches_frobenius_reference_on_table_parents(q, h):
    parent = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    s = prime_power(q)[1]
    for t in range(1, s):
        if s % t == 0:
            got = subfield_subcode_generic(parent, t)
            ref = _subcode_by_frobenius(parent, t)
            assert np.array_equal(got.gen_matrix, ref.gen_matrix), t


def test_identity_subcode():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sub = subfield_subcode_generic(code, 2)
    assert sub.k == code.k
    assert same_row_space(sub.gen_matrix, code.gen_matrix, code.field)


@pytest.mark.parametrize("q,h,t", [(9, 3, 2), (9, 3, 1), (4, 1, 2), (16, 4, 2), (16, 4, 4)])
def test_generic_subcode_basis_is_in_rref(q, h, t):
    # every branch, t = s included, returns its basis reduced, so the
    # oracle below compares it with the structural basis after one RREF
    parent = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    sub = subfield_subcode_generic(parent, t)
    assert np.array_equal(sub.gen_matrix, rref(sub.gen_matrix, sub.field)[0])
    assert same_row_space(sub.gen_matrix, subfield_subcode_bch(parent.spec, t).gen_matrix,
                          sub.field)


def test_generic_subcode_dimensions():
    parent = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sub = subfield_subcode_generic(parent, 1)
    assert (sub.n, sub.k) == (10, 2)
    assert 10 - 2 * (10 - parent.k) <= sub.k <= parent.k  # Delsarte bounds
    parent16 = bch_build(CodeSpec(q=16, n=17, delta=3, h=4))
    sub16 = subfield_subcode_generic(parent16, 2)
    assert (sub16.n, sub16.k) == (17, 9)


def test_bch_subcode_identity_small_rows():
    rows = [
        (32, 8, 1, (33, 13)),
        (16, 4, 2, (17, 9)),
        (27, 12, 1, (28, 16)),
        (9, 3, 1, (10, 2)),
    ]
    for q, h, t, (n, k) in rows:
        spec = CodeSpec(q=q, n=q + 1, delta=3, h=h)
        sub = subfield_subcode_bch(spec, t)
        assert (sub.n, sub.k) == (n, k), (q, t)
        generic = subfield_subcode_generic(bch_build(spec), t)
        assert generic.k == k
        assert same_row_space(generic.gen_matrix, sub.gen_matrix, sub.field), (q, t)


def test_dimension_by_cosets():
    assert dimension_by_cosets(32, 8, 1) == 13
    assert dimension_by_cosets(16, 4, 2) == 9
    assert dimension_by_cosets(9, 3, 1) == 2
    assert dimension_by_cosets(64, 16, 1) == 41
    assert dimension_by_cosets(64, 16, 2) == 53
    assert dimension_by_cosets(81, 39, 1) == 66


def test_t_must_divide_s():
    with pytest.raises(InvalidParameters):
        subfield_subcode_bch(CodeSpec(q=16, n=17, delta=3, h=4), 3)


def test_subcode_distance_dominates_parent():
    for q, h, t, d_parent in [(9, 3, 1, 4), (16, 4, 2, 5)]:
        spec = CodeSpec(q=q, n=q + 1, delta=3, h=h)
        sub = subfield_subcode_bch(spec, t)
        d_sub = weight_distribution(sub).d()
        assert d_sub >= d_parent


def test_degenerate_binary_s4():
    sub = subfield_subcode_bch(CodeSpec(q=16, n=17, delta=3, h=4), 1)
    wd = weight_distribution(sub)
    assert (sub.n, sub.k, wd.d()) == (17, 1, 17)
    assert macwilliams(wd).d() == 2


def _rows(labels, s_values):
    return [row for row in table_rows() if row[0] in labels and row[1] in s_values]


def test_report_rows_small():
    reports = report_tables(_rows(("ternary",), (2, 3)))
    by_q = {r.parent.q: r for r in reports}
    assert by_q[9].params == (10, 2, 5) and by_q[9].dual_params == (10, 8, 2)
    assert by_q[27].params == (28, 16, 4) and by_q[27].dual_params == (28, 12, 8)
    assert all(r.generic_match for r in reports)


def test_report_skip_on_budget():
    reports = report_tables(_rows(("ternary",), (2, 4)), budget=100)
    by_q = {r.parent.q: r for r in reports}
    assert by_q[9].params == (10, 2, 5)  # small row still fits
    assert by_q[81].skipped is not None
    assert by_q[81].params is None


def test_report_emitters():
    reports = report_tables(_rows(("ternary",), (2,)))
    csv = report_csv(reports)
    assert csv.splitlines()[0].startswith("parent_q,h,t,")
    assert "9,3,1,10,2,5,10,8,2" in csv
    text = report_text(reports)
    assert "[10,2,5]" in text and "[10,8,2]" in text
    assert '"params": [' in reports_json(reports).replace("\n", "")


def test_delsarte_bounds_and_distance_dominance():
    reports = report_tables(_rows(("ternary", "quaternary"), (2, 3, 4)))
    for r in reports:
        if r.skipped or r.t == 0:
            continue
        parent = bch_build(r.parent)
        from codebench.galois import prime_power

        _, s = prime_power(r.parent.q)
        t = r.t
        n, k_sub, d_sub = r.params
        assert n - (s // t) * (n - parent.k) <= k_sub <= parent.k
        if parent.codeword_count() <= 1 << 26:
            d_parent = weight_distribution(parent).d()
        else:
            d_parent = macwilliams(weight_distribution(parent.dual())).d()
        assert d_sub >= d_parent


# ---------------------------------------------------------------------------
# the report's generic check: membership and dimension, against the
# construct-and-compare oracle


def _parent(q, h):
    return bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))


def _structural(q, h, t):
    return subfield_subcode_bch(CodeSpec(q=q, n=q + 1, delta=3, h=h), t)


def _oracle_match(parent: LinearCode, sub: LinearCode) -> bool:
    generic = subfield_subcode_generic(parent, sub.field.m)
    return np.array_equal(generic.gen_matrix, rref(sub.gen_matrix, sub.field)[0])


@pytest.mark.parametrize("row", table_rows(), ids=lambda row: f"{row[0]}-s{row[1]}")
def test_generic_check_agrees_with_oracle_on_published_rows(row):
    _label, _s, t, q, h, *_ = row
    parent, sub = _parent(q, h), _structural(q, h, t)
    assert generic_subcode_matches(parent, sub) is True
    assert _oracle_match(parent, sub)


def test_generic_check_agrees_with_oracle_on_every_parent_offset():
    # each row's structural subcode against the parents of every offset
    # h <= 40: 233 cases, most of them mismatches
    verdicts = []
    for _label, _s, t, q, h_row, *_ in table_rows():
        sub = _structural(q, h_row, t)
        for h in range(min(40, q) + 1):
            parent = _parent(q, h)
            got = generic_subcode_matches(parent, sub)
            assert got == _oracle_match(parent, sub), (q, t, h)
            verdicts.append(got)
    assert (len(verdicts), verdicts.count(False)) == (233, 189)


@pytest.mark.parametrize("q,t", [(4, 2), (8, 3), (9, 2), (16, 4), (27, 3)])
def test_generic_check_agrees_with_oracle_when_t_equals_s(q, t):
    # the check has no t == s branch; the subcode is then the parent itself
    verdicts = []
    for h in range(q + 1):
        parent = _parent(q, h)
        for h_sub in (h, (h + 1) % (q + 1)):
            sub = _structural(q, h_sub, t)
            got = generic_subcode_matches(parent, sub)
            assert got == _oracle_match(parent, sub), (h, h_sub)
            verdicts.append(got)
    assert all(verdicts[::2]) and not all(verdicts)


def _changed_row(sub: LinearCode) -> LinearCode:
    """`sub` with one entry past the leading one of its middle row
    changed: the staircase shape and the row count stay."""
    G = sub.gen_matrix.copy()
    r = len(G) // 2
    G[r, r + 1] = sub.field.add(int(G[r, r + 1]), 1)
    return LinearCode(sub.field, sub.n, G)


# the s = 5 binary row: C_(32,33,3,8) over GF(2), and a wrong structural code
_FAULTS = {
    "other-offset": lambda: _structural(32, 9, 1),
    "changed-row": lambda: _changed_row(_structural(32, 8, 1)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_generic_check_rejects_a_wrong_structural_code(fault, monkeypatch, capsys):
    wrong = _FAULTS[fault]()
    assert wrong.k > 0
    assert generic_subcode_matches(_parent(32, 8), wrong) is False
    assert not _oracle_match(_parent(32, 8), wrong)

    real = subfield_mod.subfield_subcode_bch
    monkeypatch.setattr(subfield_mod, "subfield_subcode_bch",
                        lambda spec, t: wrong if spec.q == 32 else real(spec, t))
    reports = report_tables(_rows(("binary",), (5,)))
    assert [r.generic_match for r in reports] == [False]
    assert main(["subfield", "--tables", "--label", "binary"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("GENERIC-MISMATCH") for line in lines[1:]] == [False, True, False]
    assert main(["verify", "thm5.1", "--s", "5"]) == 1
    assert "[FAIL] s=5: generic construction matches" in capsys.readouterr().out


def test_generic_check_needs_the_full_dimension():
    # every row of a proper subcode solves the system; only the dimension
    # count tells it apart
    parent, sub = _parent(32, 8), _structural(32, 8, 1)
    short = LinearCode(sub.field, sub.n, sub.gen_matrix[:-1])
    assert generic_subcode_matches(parent, short) is False
    # any basis of the subcode matches, not only the staircase
    mixed = sub.gen_matrix[::-1].copy()
    mixed[0] = sub.field.add_arr(mixed[0], mixed[-1])
    assert generic_subcode_matches(parent, LinearCode(sub.field, sub.n, mixed)) is True


def test_report_tables_builds_no_generic_basis(monkeypatch):
    # one GF(p) rank per row decides the match: no nullspace, no generic
    # basis, and no elimination over a larger field
    def refuse(*args):
        raise AssertionError("the report built the generic basis")

    fields = []
    real_rref = codes_mod.rref

    def recording_rref(mat, field):
        fields.append(field.q)
        return real_rref(mat, field)

    monkeypatch.setattr(subfield_mod, "subfield_subcode_generic", refuse)
    monkeypatch.setattr(subfield_mod, "nullspace", refuse)
    monkeypatch.setattr(codes_mod, "nullspace", refuse)
    monkeypatch.setattr(subfield_mod, "rref", recording_rref)
    monkeypatch.setattr(codes_mod, "rref", recording_rref)
    rows = table_rows()
    # a budget of 1 skips every enumeration, so only the check eliminates
    reports = report_tables(rows, budget=1)
    assert all(r.skipped and r.generic_match for r in reports)
    assert fields == [prime_power(q)[0] for _l, _s, _t, q, *_ in rows]
    # with the enumerations run, the rows still build no generic basis
    assert all(r.generic_match for r in report_tables(rows))
