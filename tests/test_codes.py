import itertools
import json
from math import gcd

import numpy as np
import pytest

from codebench import codes
from codebench.codes import (
    CodeSpec,
    LinearCode,
    bch_build,
    classify_h,
    dump_codewords,
    nullspace,
    orthogonal,
    require_cyclic,
    rref,
    same_row_space,
    trace_dual,
    valid_instances,
)
from codebench.cyclotomic import coset, splitting_field
from codebench.designs import weight4_blocks_det
from codebench.diophantine import count_unit_solutions
from codebench.errors import BudgetExceeded, DegenerateDimension, InvalidParameters, NotCoprime
from codebench.galois import (
    factorize,
    field_for_order,
    field_new,
    prime_power,
    subfield_embedding,
    trace_arr,
    unit_circle,
)
from codebench.weights import verify_four_weight, weight_distribution


def test_bch_dimensions():
    assert bch_build(CodeSpec(q=9, n=10, delta=3, h=3)).k == 6
    assert bch_build(CodeSpec(q=8, n=9, delta=3, h=3)).k == 5
    assert bch_build(CodeSpec(q=2, n=33, delta=3, h=8)).k == 13


def test_codespec_validation():
    with pytest.raises(NotCoprime):
        CodeSpec(q=2, n=10, delta=3, h=1)


def test_family_detection():
    assert classify_h(9, 3) == ("q-minus-pi", 1)
    assert classify_h(9, 1) == ("pi-minus-1", 1)
    assert classify_h(16, 6) == ("q-minus-pi", 2)
    assert classify_h(16, 4) == ("q-minus-pi", 3)
    assert classify_h(9, 2) == ("generic", None)
    assert classify_h(16, 0) == ("generic", None)


def classify_h_by_digits(q, h):
    """The family of h read off the base-p digits of q - 2h and 2h + 1, as
    codes.classify_h did before it became a lookup."""
    p, s = prime_power(q)
    t = q - 2 * h
    if t > 1:
        i = 0
        while t % p == 0:
            t //= p
            i += 1
        if t == 1 and 0 < i < s:
            return "q-minus-pi", i
    if p != 2:
        t = 2 * h + 1
        i = 0
        while t % p == 0:
            t //= p
            i += 1
        if t == 1 and 0 < i < s:
            return "pi-minus-1", i
    return "generic", None


def test_family_lookup_matches_digit_oracle():
    # every h <= 2q+2 at every prime power q <= 1024
    qs = [q for q in range(2, 1025) if len(factorize(q)) == 1]
    assert len(qs) == 198
    for q in qs:
        for h in range(2 * q + 3):
            assert classify_h(q, h) == classify_h_by_digits(q, h), (q, h)


def test_generator_matrix_annihilates_check_matrix():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    f = code.field
    prod = np.zeros((code.k, code.n - code.k), dtype=np.int64)
    for i, grow in enumerate(code.gen_matrix):
        for j, hrow in enumerate(code.check_matrix):
            acc = 0
            for a, b in zip(grow, hrow):
                acc = f.add(acc, f.mul(int(a), int(b)))
            prod[i, j] = acc
    assert not prod.any()


def test_cyclic_dual_matches_nullspace_dual():
    for spec in [CodeSpec(9, 10, 3, 3), CodeSpec(8, 9, 3, 3), CodeSpec(3, 10, 3, 3)]:
        code = bch_build(spec)
        cyc = code.dual().gen_matrix
        generic = nullspace(code.gen_matrix, code.field)
        assert same_row_space(cyc, generic, code.field)


def test_dual_involution_and_dimensions():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    dd = code.dual().dual()
    assert dd.k == code.k
    assert same_row_space(dd.gen_matrix, code.gen_matrix, code.field)
    assert code.dual().k == 4


def test_dual_of_full_space_is_zero_code():
    f = field_new(3, 1)
    full = LinearCode(f, 4, np.eye(4, dtype=np.int64))
    z = full.dual()
    assert z.k == 0
    words = z.codewords()
    assert words.shape == (1, 4) and not words.any()


def test_min_distances():
    assert weight_distribution(bch_build(CodeSpec(8, 9, 3, 3))).d() == 5
    assert weight_distribution(bch_build(CodeSpec(9, 10, 3, 3))).d() == 4
    assert weight_distribution(bch_build(CodeSpec(2, 33, 3, 8))).d() == 10


def test_bch_bound_holds():
    for spec in [CodeSpec(4, 5, 3, 1), CodeSpec(9, 10, 3, 3), CodeSpec(8, 9, 3, 2),
                 CodeSpec(2, 33, 3, 8), CodeSpec(3, 28, 3, 12)]:
        assert weight_distribution(bch_build(spec)).d() >= spec.delta


def test_min_distance_criterion_q4():
    # gcd(2h+1, q+1) > 1 exactly characterises distance 3 (smallest case)
    q = 4
    for h in range(q + 1):
        d = weight_distribution(bch_build(CodeSpec(q, q + 1, 3, h))).d()
        assert (d == 3) == (gcd(2 * h + 1, q + 1) > 1), h


def test_codewords_distinct_and_heavy():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3)).dual()
    words = code.codewords()
    assert words.shape == (9**4, 10)
    assert len(np.unique(words, axis=0)) == 9**4
    d = weight_distribution(code).d()
    weights = (words != 0).sum(axis=1)
    assert (weights[weights > 0] >= d).all() and (weights == 0).sum() == 1


@pytest.mark.parametrize("q", [2, 4, 7, 9])
def test_codewords_are_the_messages_in_order(q):
    # row m_0 q^(k-1) + ... + m_(k-1) holds sum m_j G_j, from the array ops
    field = field_for_order(q)
    G = np.random.default_rng(q).integers(0, q, size=(3, 11))
    words = LinearCode(field, 11, G).codewords()
    assert words.shape == (q**3, 11)
    for row, msg in zip(words, itertools.product(range(q), repeat=3)):
        want = np.zeros(11, dtype=np.int64)
        for c, g in zip(msg, G):
            want = field.add_arr(want, field.mul_arr(c, g))
        assert np.array_equal(row, want), msg


def test_codeword_budget():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    with pytest.raises(BudgetExceeded):
        code.codewords(budget=100)
    with pytest.raises(BudgetExceeded):
        weight_distribution(code, budget=3)


def test_trace_dual_zero_pair_and_injectivity():
    td = trace_dual(9, 3)
    assert not td.codeword(0, 0).any()
    words = td.codewords()
    assert len(np.unique(words, axis=0)) == 9**4


def test_trace_dual_degenerate():
    with pytest.raises(DegenerateDimension):
        trace_dual(9, 4)
    with pytest.raises(DegenerateDimension):
        trace_dual(16, 8)  # h = q/2: the two cosets merge


def test_trace_dual_weight_identity_sample():
    td = trace_dual(9, 3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = (int(x) for x in rng.integers(0, 81, size=2))
        if a == 0 and b == 0:
            continue
        wt = int((td.codeword(a, b) != 0).sum())
        assert wt == 10 - count_unit_solutions(9, 3, a, b)


def test_trace_dual_matches_algebraic_dual_q8_q9():
    for q, h in [(8, 3), (9, 3), (9, 1)]:
        td = trace_dual(q, h)
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        wt = np.unique(td.codewords(), axis=0)
        wa = np.unique(code.dual().codewords(), axis=0)
        assert np.array_equal(wt, wa), (q, h)


def parity_check_rows_oracle(q, h):
    """The 4 x (q+1) parity-check matrix over GF(q^2) of C_(q,q+1,3,h),
    built from the cosets on the unit circle: rows at beta^h, beta^(h+1),
    beta^(-h) and beta^(-(h+1)).  Kept as an independent check of
    ``TraceDualSpec.parity_rows``."""
    n = q + 1
    ch, ch1 = coset(n, q, h % n), coset(n, q, (h + 1) % n)
    if ch.leader == ch1.leader or ch.size != 2 or ch1.size != 2:
        raise DegenerateDimension(
            f"dual of C_({q},{n},3,{h}) has dimension {len(set(ch.members) | set(ch1.members))}"
        )
    field2 = field_for_order(q * q)
    circle = unit_circle(field2)
    exps = np.array([h, h + 1, -h, -(h + 1)])[:, None]
    return circle[exps * np.arange(n) % n], field2


def test_parity_check_rows():
    td = trace_dual(9, 3)
    H, f2 = td.parity_rows(), td.big
    assert H.shape == (4, 10)
    assert (H[:, 0] == 1).all()
    # rank 4 over GF(81)
    assert rref(H, f2)[0].shape[0] == 4
    # every generator row of the code annihilates every row of H
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    emb = subfield_embedding(f2, code.field)
    for grow in code.gen_matrix:
        lifted = emb.embed_arr(grow)
        for hrow in H:
            acc = 0
            for a, b in zip(lifted, hrow):
                acc = f2.add(acc, f2.mul(int(a), int(b)))
            assert acc == 0


def test_parity_check_rows_degenerate():
    for build in (parity_check_rows_oracle, trace_dual):
        with pytest.raises(DegenerateDimension):
            build(9, 4)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_parity_rows_match_coset_oracle(q):
    for _family, _i, h in valid_instances(q):
        td = trace_dual(q, h)
        H, f2 = parity_check_rows_oracle(q, h)
        assert td.big is f2
        assert np.array_equal(td.parity_rows(), H), (q, h)


def test_family_parameters():
    td = trace_dual(27, 9)  # (27 - 3^2)/2: i = 2, m = gcd(2, 3) = 1
    assert (td.family, td.p, td.s, td.i, td.p_i, td.p_m) == ("q-minus-pi", 3, 3, 2, 9, 3)
    td = trace_dual(64, 28)  # (64 - 2^3)/2: i = 3, m = gcd(3, 6) = 3
    assert (td.i, td.p_i, td.p_m) == (3, 8, 8)
    td = trace_dual(81, 4)  # (3^2 - 1)/2: i = 2, m = gcd(2, 4) = 2
    assert (td.family, td.p_i, td.p_m) == ("pi-minus-1", 9, 9)


def test_non_family_offset_is_refused_alike():
    # (9, 2) has a 4-dimensional dual but lies in neither family
    calls = (
        lambda: verify_four_weight(bch_build(CodeSpec(9, 10, 3, 2))),
        lambda: weight4_blocks_det(9, 2),
        lambda: count_unit_solutions(9, 2, 1, 0),
        lambda: trace_dual(9, 2).p_m,
    )
    texts = set()
    for call in calls:
        with pytest.raises(InvalidParameters) as exc:
            call()
        texts.add(str(exc.value))
    assert texts == {"h=2 is in neither family for q=9"}


def test_trace_basis_matrix_spans_dual():
    td = trace_dual(9, 3)
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    assert same_row_space(td.basis_matrix(), code.dual().gen_matrix, code.field)


def _rank_spy(monkeypatch):
    """Record each call of codes.rank made by require_cyclic."""
    calls = []
    real = codes.rank
    monkeypatch.setattr(codes, "rank", lambda mat, field: calls.append(len(mat)) or real(mat, field))
    return calls


@pytest.mark.parametrize("q,h", [(9, 3), (27, 0), (16, 8), (49, 12)])
def test_require_cyclic_proves_eigenvector_rows_without_ranks(q, h, monkeypatch):
    # parity rows gamma^(t i), degenerate keys included, and a zero row:
    # each row is a shift eigenvector, proved on logs with no rank taken
    calls = _rank_spy(monkeypatch)
    n, big = q + 1, splitting_field(q, q + 1)[0]
    e = (big.q - 1) // n
    rows = np.stack([big.exp[e * t * np.arange(n) % (big.q - 1)]
                     for t in (h, h + 1, q * h, q * (h + 1))] + [np.zeros(n, dtype=np.int32)])
    require_cyclic(rows, big)
    assert calls == []


def test_require_cyclic_takes_the_rank_comparison_for_other_rows(monkeypatch):
    calls = _rank_spy(monkeypatch)
    # the trace basis spans a cyclic code, but its rows are no eigenvectors
    td = trace_dual(9, 3)
    require_cyclic(td.basis_matrix(), td.field)
    assert calls == [8, 4]
    # ones and gamma^i - 1 span the cyclic <1, gamma^i>, with a zero entry
    calls.clear()
    big = td.big
    gamma = unit_circle(big)
    rows = np.stack([np.ones(10, dtype=np.int64), big.sub_arr(gamma, 1)])
    require_cyclic(rows, big)
    assert calls == [4, 2]
    # the same rows with two points swapped: the rank comparison refuses them
    swapped = [0, 2, 1, *range(3, 10)]
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        require_cyclic(rows[:, swapped], big)
    # a permuted unit circle has no constant log step and no shifted span
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        require_cyclic(np.stack([np.ones(10, dtype=np.int64), gamma[swapped]]), big)


def test_code_json_and_dump():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    payload = json.loads(code.to_json())
    assert payload["q"] == 9 and payload["n"] == 10 and payload["k"] == 6
    assert payload["family"] == "q-minus-pi"
    assert payload["gen_poly"] == list(code.gen_poly.coeffs)
    dump = dump_codewords(code.dual())  # the [10,4] dual
    lines = dump.strip().split("\n")
    assert len(lines) == 9**4
    assert all(len(line.split()) == 10 for line in lines[:20])


def test_parity_check_rows_order():
    # both families use the row order (h, h+1, -h, -(h+1)) on the circle
    for q, h in [(9, 1), (9, 3), (16, 6)]:
        td = trace_dual(q, h)
        H, f2 = td.parity_rows(), td.big
        circle = unit_circle(f2)
        n = q + 1
        exps = [h, h + 1, (-h) % n, (-(h + 1)) % n]
        for r, e in enumerate(exps):
            expected = [circle[(e * i) % n] for i in range(n)]
            assert H[r].tolist() == expected


def test_generator_matrices_have_full_rank():
    for spec in [CodeSpec(9, 10, 3, 3), CodeSpec(2, 33, 3, 8), CodeSpec(16, 17, 3, 6)]:
        code = bch_build(spec)
        assert rref(code.gen_matrix, code.field)[0].shape[0] == code.k
        d = code.dual()
        assert rref(d.gen_matrix, d.field)[0].shape[0] == d.k


@pytest.mark.parametrize("q,h", [(4, 1), (8, 3), (8, 2), (9, 3), (9, 1)])
def test_trace_codewords_equal_stacked_codeword(q, h):
    td = trace_dual(q, h)
    q2 = q * q
    pairs = [(a, b) for a in range(q2) for b in range(q2)]
    stacked = np.array([td.codeword(a, b) for a, b in pairs])
    assert np.array_equal(td.codewords(), stacked)


def test_trace_codewords_equal_codeword_sampled_q27():
    td = trace_dual(27, 4)
    words = td.codewords()
    rng = np.random.default_rng(6)
    for a, b in rng.integers(0, 729, size=(500, 2)).tolist():
        assert np.array_equal(words[a * 729 + b], td.codeword(a, b)), (a, b)


def _big_table_codewords(td):
    """The dense-table builder: with T[x, y] = Tr(x + y) in canonical GF(q),
    column i of the words, read as a q^m x q^m array over (a, b), is T with
    its rows and columns permuted by gamma^(h i) and gamma^((h+1) i)."""
    big, n = td.big, td.n
    mul_tab = big.mul_table()
    reps = np.arange(big.q, dtype=np.int64)
    tr = td.embedding.project_table()[trace_arr(big, reps, td.q)]
    table = tr.astype(np.int32)[big.add_table()]
    cols = np.empty((n, big.q, big.q), dtype=np.int32)
    for i in range(n):
        np.take(table[mul_tab[td._bh[i]]], mul_tab[td._bh1[i]], axis=1, out=cols[i])
    return np.ascontiguousarray(cols.reshape(n, -1).T)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_trace_codewords_equal_big_table_builder(q):
    for _family, _i, h in valid_instances(q):
        td = trace_dual(q, h)
        assert np.array_equal(td.codewords(), _big_table_codewords(td)), (q, h)


def _orthogonal_by_digit(a, b, field):
    """Oracle: the digit-by-digit ``orthogonal``, one ``np.add.at`` per
    base-p digit of the products."""
    rows, cols = np.nonzero(a)
    prods = field.mul_arr(a[rows, cols][:, None], b[:, cols].T)
    for d in range(field.m):
        sums = np.zeros((a.shape[0], len(b)), dtype=np.int64)
        np.add.at(sums, rows, prods // field.p**d % field.p)
        if (sums % field.p).any():
            return False
    return True


@pytest.mark.parametrize("q", [q for q in range(2, 65) if len(factorize(q)) == 1] + [128])
def test_orthogonal_matches_digit_oracle(q):
    field = field_for_order(q)
    rng = np.random.default_rng(q)
    n = 9
    for trial in range(8):
        a = rng.integers(0, q, size=(int(rng.integers(1, n)), n))
        b = nullspace(a, field)
        # zero rows anywhere in a leave it orthogonal to b
        a = np.insert(a, rng.integers(0, len(a) + 1, size=trial % 3), 0, axis=0)
        assert orthogonal(a, b, field) and _orthogonal_by_digit(a, b, field)
        # a one-entry change of a in a column where b has a nonzero entry
        # moves that row's inner product with such a row of b off zero
        r = rng.integers(len(a))
        c = rng.choice(np.flatnonzero(b.any(axis=0)))
        bad = a.copy()
        bad[r, c] = field.add(int(bad[r, c]), int(rng.integers(1, q)))
        assert not orthogonal(bad, b, field) and not _orthogonal_by_digit(bad, b, field)
        # unrelated random matrices
        c = rng.integers(0, q, size=(int(rng.integers(1, 4)), n))
        assert orthogonal(a, c, field) == _orthogonal_by_digit(a, c, field)
    b = rng.integers(0, q, size=(3, n))
    for a in (np.zeros((4, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64)):
        assert orthogonal(a, b, field) and _orthogonal_by_digit(a, b, field)
