import itertools

import numpy as np
import pytest

from codebench import _kernels as kernels
from codebench.codes import CodeSpec, bch_build, nullspace, rref, trace_dual, valid_instances
from codebench.galois import Field, field_new, prime_power, trace_kernel_logs
from codebench.subfield import table_rows
from codebench.weights import enumerator_formula

def brute_counts(G, field, n):
    counts = np.zeros(n + 1, dtype=np.int64)
    for msg in itertools.product(range(field.q), repeat=G.shape[0]):
        word = np.zeros(n, dtype=np.int64)
        for c, row in zip(msg, G):
            if c:
                word = field.add_arr(word, field.mul_arr(c, row))
        counts[int((word != 0).sum())] += 1
    return counts


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81, 243])
def test_trace_zero_mask_matches_closed_form_at_m2(q):
    # the orbit kernel's K = ker Tr; over GF(q^2), Tr(alpha^l) = 0 iff
    # l = c0 (mod q+1), c0 = 0 for even q and (q+1)/2 for odd q
    big = field_new(*prime_power(q * q))
    logs = trace_kernel_logs(big, q)
    n = q + 1
    c0 = 0 if q % 2 == 0 else n // 2
    assert logs.tolist() == (c0 + n * np.arange(q - 1)).tolist()


def test_projective_count():
    assert kernels.projective_count(3, 4) == 40
    assert kernels.projective_count(2, 5) == 31
    assert kernels.projective_count(9, 0) == 0


def test_weight_counts_matches_brute():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4, 9):
        f = field_new(*prime_power(q))
        for _ in range(3):
            n = int(rng.integers(3, 8))
            raw = rng.integers(0, q, size=(3, n))
            R, _ = rref(raw, f)
            if R.shape[0] == 0:
                continue
            got = kernels.weight_counts(R, f)
            assert np.array_equal(got, brute_counts(R, f, n)), q


def test_weight_counts_zero_rows():
    f = field_new(2, 1)
    got = kernels.weight_counts(np.zeros((0, 5), dtype=np.int64), f)
    assert got.tolist() == [1, 0, 0, 0, 0, 0]


def test_weight_counts_matches_closed_form_on_family_code():
    # dual of C_(16,17,3,6): h = (16 - 4)/2, so p^m = 4 in the closed form
    code = bch_build(CodeSpec(q=16, n=17, delta=3, h=6)).dual()
    closed = np.array(enumerator_formula(16, 4).counts, dtype=np.int64)
    emitted = np.bincount((trace_dual(16, 6).codewords() != 0).sum(axis=1), minlength=18)
    assert np.array_equal(closed, emitted)
    assert np.array_equal(kernels.weight_counts(code.gen_matrix, code.field), closed)


def table_weight_counts(gen_matrix, field):
    """The dense-add-table kernel that the lane kernel replaced, kept as its
    oracle: message digits fold into blocks of int32 words that gather
    through the q x q add table."""
    G = np.ascontiguousarray(gen_matrix, dtype=np.int32)
    k, n = G.shape
    q = field.q
    r = np.arange(q)
    add_tab = field.add_arr(r[:, None], r[None, :]).astype(np.int32)
    scaled = np.empty((k, q, n), dtype=np.int32)
    for j in range(k):
        scaled[j] = field.mul_arr(np.arange(q, dtype=np.int64)[:, None], G[j][None, :])
    proj = np.zeros(n + 1, dtype=np.int64)
    for lead in range(k):
        base = scaled[lead, 1]
        free = scaled[lead + 1 :]
        kk = free.shape[0]
        t = 0
        while t < kk and (q ** (t + 1)) * n <= 1 << 22:
            t += 1
        block = base[None, :]
        for u in range(t):
            block = add_tab[block[:, None, :], free[u][None, :, :]].reshape(-1, n)
        rest = free[t:]
        if rest.shape[0] == 0:
            w = np.count_nonzero(block, axis=1)
            proj += np.bincount(w, minlength=n + 1)
            continue
        for combo in itertools.product(range(q), repeat=rest.shape[0]):
            vec = np.zeros(n, dtype=np.int32)
            for c, row in zip(combo, rest):
                vec = add_tab[vec, row[c]]
            w = np.count_nonzero(add_tab[block, vec[None, :]], axis=1)
            proj += np.bincount(w, minlength=n + 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    counts[1:] += (q - 1) * proj[1:]
    return counts


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49,
                               pytest.param(64, marks=pytest.mark.slow),
                               pytest.param(81, marks=pytest.mark.slow)])
def test_lane_kernel_matches_table_kernel_on_family_duals(q):
    # both sides of every family instance: the trace basis and the
    # algebraic dual's generator matrix; at q = 81 the last free row runs
    # through the per-message loop
    for family, i, h in valid_instances(q):
        td = trace_dual(q, h)
        dual = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)).dual()
        for G in (td.basis_matrix(), dual.gen_matrix):
            want = table_weight_counts(G, td.field)
            assert np.array_equal(kernels.weight_counts(G, td.field), want), (family, i, h)


@pytest.mark.parametrize("q", [2, 7, 8, 9])
def test_lane_kernel_matches_table_kernel_with_every_row_in_the_loop(q, monkeypatch):
    # a one-entry chunk: each scaled row is packed one scalar at a time and
    # every free row goes through the per-message loop
    rng = np.random.default_rng(q)
    f = field_new(*prime_power(q))
    R, _ = rref(rng.integers(0, q, size=(4, 13)), f)
    want = table_weight_counts(R, f)
    monkeypatch.setattr(kernels, "_CHUNK_ELEMS", 1)
    assert np.array_equal(kernels.weight_counts(R, f), want)


def all_representatives_counts(big, q, n, h):
    """The orbit kernel before the Frobenius classes, kept as its oracle:
    every representative a = alpha^r, r < g, counted on its own."""
    order = big.q - 1
    e = order // n
    orbits = kernels.trace_orbits(big.q, q, n, h)
    kernel_logs = trace_kernel_logs(big, q)
    i = np.arange(n, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    for r in range(orbits):
        shift = (r + big.log_neg_one + e * h * i) % order
        line0 = (r + big.log_neg_one - e * i) % order
        zeros = np.bincount(line0, minlength=order + 1)
        one_plus = big.zech.take(kernel_logs - shift[:, None] + big.log_zero)
        logs = big.mul_logs(line0[:, None], one_plus)
        zeros += np.bincount(np.minimum(logs, order).ravel(), minlength=order + 1)
        hist += np.bincount(n - zeros, minlength=n + 1)
    return hist * (order // orbits)


def orbit_kernel_instances():
    """(q, n, h) of the 407 small trace duals and of the subcodes of the
    nine subfield table rows."""
    from test_weights import small_trace_duals

    small = [(td.q, td.n, td.h) for td in small_trace_duals()]
    assert len(small) == 407
    rows = [(prime_power(parent_q)[0] ** t, parent_q + 1, h)
            for _label, _s, t, parent_q, h, *_ in table_rows()]
    return small + rows


def test_frobenius_classes_of_the_orbit_kernel():
    # the p-cyclotomic cosets mod g: 21 representatives fall into 6 classes
    # over GF(4^6), 63 into 13 over GF(2^12) and 80 into 23 over GF(3^8)
    assert kernels.frobenius_classes(21, 2) == [(0, 1), (1, 6), (3, 3), (5, 6), (7, 2), (9, 3)]
    for g, p, classes in ((63, 2, 13), (80, 3, 23), (1, 5, 1)):
        got = kernels.frobenius_classes(g, p)
        assert len(got) == classes and sum(size for _, size in got) == g


def test_orbit_kernel_matches_every_representative():
    # the Frobenius maps c_(a,b) onto c_(a^p,b^p) with coordinates permuted
    # by i -> p i, so one representative per class gives every histogram;
    # both offsets that the trace dual route counts, h and n-1-h
    for q, n, h in orbit_kernel_instances():
        big = trace_dual(q, h, n).big
        for t in (h, n - 1 - h):
            want = all_representatives_counts(big, q, n, t)
            assert np.array_equal(kernels.trace_orbit_counts(big, q, n, t), want), (q, n, t)


@pytest.mark.parametrize("q,h,n,evaluated,g", [(4, 16, 65, 6, 21), (2, 16, 65, 13, 63)])
def test_orbit_kernel_evaluates_one_representative_per_class(q, h, n, evaluated, g, monkeypatch):
    # the subfield table rows quaternary and binary s = 6: each counted
    # representative r shows as the first log -a gamma^0 of its mul_logs
    big = trace_dual(q, h, n).big
    seen = []
    mul_logs = Field.mul_logs
    monkeypatch.setattr(Field, "mul_logs", lambda f, la, lb: seen.append(
        (int(la.flat[0]) - f.log_neg_one) % (f.q - 1)) or mul_logs(f, la, lb))
    kernels.trace_orbit_counts(big, q, n, h)
    assert kernels.trace_orbits(big.q, q, n, h) == g
    assert seen == [r for r, _ in kernels.frobenius_classes(g, prime_power(q)[0])]
    assert len(seen) == evaluated


def test_orbit_kernel_oracle_catches_a_wrong_class_map(monkeypatch):
    # r -> (p+1) r mod g in place of r -> p r: a partition of r < g with the
    # same total, whose classes do not share one histogram
    def wrong_classes(g, p):
        seen, out = set(), []
        for r in range(g):
            x, size = r, 0
            while x not in seen:
                seen.add(x)
                size += 1
                x = x * (p + 1) % g
            if size:
                out.append((r, size))
        return out

    monkeypatch.setattr(kernels, "frobenius_classes", wrong_classes)
    caught = 0
    for q, n, h in orbit_kernel_instances():
        big = trace_dual(q, h, n).big
        got = kernels.trace_orbit_counts(big, q, n, h)
        want = all_representatives_counts(big, q, n, h)
        assert got.sum() == want.sum()
        caught += not np.array_equal(got, want)
    assert caught


def nullspace_oracle(H, combos, f2):
    """Per-subset (flags, nulls) from codes.nullspace, in scan_supports' convention."""
    flags = np.zeros(len(combos), dtype=np.int8)
    nulls = np.zeros(combos.shape, dtype=np.int64)
    for idx, cols in enumerate(combos):
        basis = nullspace(H[:, cols], f2)
        if len(basis) == 0:
            continue
        if len(basis) >= 2:
            flags[idx] = 3
            continue
        v = basis[0]
        if np.all(v != 0):
            flags[idx] = 1
            nulls[idx] = f2.mul_arr(f2.inv(int(v[0])), v)
        else:
            flags[idx] = 2
    return flags, nulls


@pytest.mark.parametrize("s", [4, 5])
def test_scan_supports_matches_nullspace(s):
    td = trace_dual(9, 3)
    H, f2 = td.parity_rows(), td.big
    combos = np.array(list(itertools.combinations(range(10), s)), dtype=np.int64)
    want_flags, want_nulls = nullspace_oracle(H, combos, f2)
    assert int((want_flags == 1).sum()) == {4: 30, 5: 72}[s]  # blocks of S(3,4,10) / weight-5 supports
    flags, nulls = kernels.scan_supports(H, combos, f2)
    assert np.array_equal(flags, want_flags)
    hit = flags == 1
    assert np.array_equal(nulls[hit], want_nulls[hit])  # both normalised


def parity_stack(q, hs):
    """The rows gamma^(t i), t = h, h+1, qh, q(h+1), of every h, over
    GF(q^2), as a (len(hs), 4, q+1) stack: two rows coincide at h = 0."""
    n = q + 1
    f2 = field_new(*prime_power(q * q))
    e = (f2.q - 1) // n
    ts = np.array([[h, h + 1, q * h, q * (h + 1)] for h in hs])
    return f2.exp[(e * ts % (f2.q - 1))[:, :, None] * np.arange(n) % (f2.q - 1)], f2


@pytest.mark.parametrize("q,h3", [(9, 2), (16, 8), (27, 3)])
def test_scan_supports_three_columns_match_nullspace(q, h3):
    # every triple of the stacked rows of three codes: h = 0 has two equal
    # rows, h3 has d = 3 (at q = 16 it has two pairs of equal rows); the
    # flags run over (code, triple) pairs, code-major
    H, f2 = parity_stack(q, (0, 1, h3))
    combos = np.array(list(itertools.combinations(range(q + 1), 3)), dtype=np.int64)
    flags, nulls = kernels.scan_supports(H, combos, f2)
    assert flags.shape == (3 * len(combos),) and nulls.shape == (3 * len(combos), 3)
    seen = set()
    for j, rows in enumerate(H):
        want_flags, want_nulls = nullspace_oracle(rows, combos, f2)
        got = slice(j * len(combos), (j + 1) * len(combos))
        assert np.array_equal(flags[got], want_flags), (q, j)
        hit = want_flags == 1
        assert np.array_equal(nulls[got][hit], want_nulls[hit]), (q, j)
        assert np.array_equal(kernels.scan_supports(rows, combos, f2)[0], want_flags)
        seen |= set(want_flags.tolist())
    assert {0, 1} <= seen


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_scan_supports_flag2_hand_built(s):
    # columns c, lam*c, e1, e2, e3, w, mu*c over GF(9): a subset holding two
    # multiples of c beside columns independent of c has a one-dimensional
    # nullspace supported on those two, so with a zero entry (flag 2); three
    # multiples of c give flag 3, and {c, e1, e2, e3, w} flag 1; two
    # multiples of c alone give flag 1
    f2 = field_new(3, 2)
    a = f2.alpha_pow
    c = np.array([1, a(1), a(2), a(3)], dtype=np.int64)
    e = np.eye(4, dtype=np.int64)
    w = np.array([1, a(5), a(6), a(7)], dtype=np.int64)
    cols = [c, f2.mul_arr(a(2), c), e[1], e[2], e[3], w, f2.mul_arr(a(5), c)]
    H = np.stack(cols, axis=1)
    combos = np.array(list(itertools.combinations(range(H.shape[1]), s)), dtype=np.int64)
    want_flags, want_nulls = nullspace_oracle(H, combos, f2)
    assert set(want_flags.tolist()) == {2: {0, 1}, 3: {0, 2, 3}, 4: {0, 2, 3}, 5: {1, 2, 3}}[s]
    flags, nulls = kernels.scan_supports(H, combos, f2)
    assert np.array_equal(flags, want_flags)
    hit = flags == 1
    assert np.array_equal(nulls[hit], want_nulls[hit])


def test_scan_supports_nullvectors_annihilate():
    td = trace_dual(9, 3)
    H, f2 = td.parity_rows(), td.big
    combos = np.array(list(itertools.combinations(range(10), 4)), dtype=np.int64)
    flags, nulls = kernels.scan_supports(H, combos, f2)
    assert int((flags == 1).sum()) == 30
    hit = np.flatnonzero(flags == 1)
    for idx in hit[:10]:
        cols = combos[idx]
        v = nulls[idx]
        for r in range(4):
            acc = 0
            for c, vv in zip(cols, v):
                acc = f2.add(acc, f2.mul(int(H[r, c]), int(vv)))
            assert acc == 0
