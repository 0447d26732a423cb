import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from codebench import designs
from codebench.codes import CodeSpec, LinearCode, bch_build, trace_dual
from codebench import _kernels as kernels
from codebench.codes import parity_check_rows
from codebench.designs import (
    CyclicBlocks,
    design_from_blocks,
    ksubsets,
    steiner_check,
    supports_of_weight,
    verify_design,
    weight4_blocks_det,
    weight5_blocks_rank,
)
from codebench.errors import (
    BudgetExceeded,
    InvalidParameters,
    MultiplicityNotQMinus1,
    NotRegular,
)
from codebench.galois import field_for_order, field_new, prime_power, subfield_embedding, unit_circle
from codebench.verify import valid_instances


def scalar_weight4_blocks(q, h):
    """Oracle for weight4_blocks_det: one triple at a time, with each 3 x 3
    cofactor expanded in scalar field arithmetic."""
    p, _ = prime_power(q)
    pi = p ** trace_dual(q, h).i
    n = q + 1
    f2 = field_for_order(q * q)
    u = np.array(unit_circle(f2).elements, dtype=np.int64)
    u_pi = f2.pow_arr(u, pi)
    u_pi1 = f2.mul_arr(u_pi, u)
    rows = np.vstack([np.ones(n, dtype=np.int64), u, u_pi, u_pi1])

    def det3(c0, c1, c2, r):
        a, b, c = rows[r[0]], rows[r[1]], rows[r[2]]
        t1 = f2.mul(f2.mul(a[c0], b[c1]), c[c2])
        t2 = f2.mul(f2.mul(a[c1], b[c2]), c[c0])
        t3 = f2.mul(f2.mul(a[c2], b[c0]), c[c1])
        t4 = f2.mul(f2.mul(a[c2], b[c1]), c[c0])
        t5 = f2.mul(f2.mul(a[c0], b[c2]), c[c1])
        t6 = f2.mul(f2.mul(a[c1], b[c0]), c[c2])
        return f2.sub(f2.add(f2.add(t1, t2), t3), f2.add(f2.add(t4, t5), t6))

    blocks = set()
    idx = np.arange(n)
    for x, y, z in combinations(range(n), 3):
        d0 = det3(x, y, z, (1, 2, 3))
        d1 = det3(x, y, z, (0, 2, 3))
        d2 = det3(x, y, z, (0, 1, 3))
        d3 = det3(x, y, z, (0, 1, 2))
        vals = f2.add_arr(
            f2.add_arr(f2.mul_arr(d3, u_pi1), f2.neg_arr(f2.mul_arr(d2, u_pi))),
            f2.add_arr(f2.mul_arr(d1, u), np.full(n, f2.neg(d0), dtype=np.int64)),
        )
        for w in idx[vals == 0]:
            if w not in (x, y, z):
                blocks.add(tuple(sorted((x, y, z, int(w)))))
    return sorted(blocks)


def dict_design_counts(blocks, n_points, t):
    """Oracle for verify_design: a dict counter over the t-subsets of every
    block, scanned in lexicographic order; same returns and raises."""
    blocks = [tuple(sorted(b)) for b in blocks]
    b = len(blocks)
    if b == 0:
        return 0, 0
    k = len(blocks[0])
    counts = {}
    for blk in blocks:
        for sub in combinations(blk, t):
            counts[sub] = counts.get(sub, 0) + 1
    lam = None
    for sub in combinations(range(n_points), t):
        c = counts.get(sub, 0)
        if lam is None:
            lam = c
        elif c != lam:
            raise NotRegular(sub, c, lam)
    if comb(n_points, t) * lam != b * comb(k, t):
        raise NotRegular((), comb(n_points, t) * lam, b * comb(k, t))
    return lam, b


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotRegular as exc:
        return ("NotRegular", exc.subset, exc.count, exc.expected)


def test_supports_below_distance_empty():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 3)
    assert sup.b == 0 and sup.multiset == {}


def test_supports_of_dual_q9():
    sup = supports_of_weight(trace_dual(9, 3), 6)
    assert sup.b == 240 // 8 == 30
    assert all(mult == 8 for mult in sup.multiset.values())


def test_supports_of_primal_q9():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 4)
    assert sup.b == 30
    lam, b = verify_design(sup.blocks, 10, 3)
    assert (lam, b) == (1, 30)


def test_supports_multiplicity_violation():
    # the full space [2,2] over GF(3) has four weight-2 words on one support
    f = field_new(3, 1)
    full = LinearCode(f, 2, np.eye(2, dtype=np.int64))
    with pytest.raises(MultiplicityNotQMinus1):
        supports_of_weight(full, 2)


def test_verify_design_complete():
    blocks = list(combinations(range(5), 4))
    lam, b = verify_design(blocks, 5, 3)
    assert (lam, b) == (2, 5)


def test_verify_design_not_regular_witness():
    with pytest.raises(NotRegular) as exc:
        verify_design([(0, 1, 2, 3)], 6, 3)
    assert len(exc.value.subset) == 3


def test_verify_design_empty():
    assert verify_design([], 10, 3) == (0, 0)


def test_design_object_and_block_file():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 4)
    d = design_from_blocks(sup.blocks, 10, 3)
    assert (d.t, d.lam, d.b, d.k) == (3, 1, 30, 4)
    assert steiner_check(d)
    assert d.to_json_dict() == {"n": 10, "k": 4, "t": 3, "lambda": 1, "b": 30, "steiner": True}
    text = d.to_block_file()
    lines = text.strip().split("\n")
    assert lines[0] == "10 4 30"
    assert len(lines) == 31
    assert lines[1:] == sorted(lines[1:])


def test_steiner_check_false_cases():
    blocks = list(combinations(range(5), 4))
    d = design_from_blocks(blocks, 5, 3)
    assert not steiner_check(d)  # lambda = 2


def test_weight4_blocks_det_q9_matches_supports():
    det_blocks = weight4_blocks_det(9, 3)
    assert len(det_blocks) == 30
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 4)
    assert tuple(sorted(det_blocks)) == sup.blocks


def test_weight4_blocks_det_q16():
    blocks = weight4_blocks_det(16, 6)
    d = design_from_blocks(blocks, 17, 3)
    assert (d.lam, d.b) == (2, 340)
    assert comb(17, 3) * d.lam == d.b * comb(4, 3)


def test_weight4_blocks_det_empty_for_mds():
    assert weight4_blocks_det(8, 3) == []


def test_weight5_blocks_q9():
    blocks = weight5_blocks_rank(9, 3)
    d = design_from_blocks(blocks, 10, 3)
    assert (d.lam, d.b) == (6, 72)


def test_weight5_requires_ternary_family():
    with pytest.raises(InvalidParameters):
        weight5_blocks_rank(16, 6)


def test_structural_supports_match_enumeration_q9():
    # force the structural route by shrinking the budget below 9^6 and
    # compare with direct enumeration
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup_enum = supports_of_weight(code, 4)
    sup_rank = supports_of_weight(code, 4, budget=10_000)
    assert sup_enum.blocks == sup_rank.blocks
    sup5_enum = supports_of_weight(code, 5)
    assert sup5_enum.blocks == tuple(sorted(weight5_blocks_rank(9, 3)))


def test_budget_errors():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    with pytest.raises(BudgetExceeded):
        supports_of_weight(code, 6, budget=10_000)  # no structural route for k=6
    with pytest.raises(BudgetExceeded):
        weight4_blocks_det(9, 3, budget=10)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_weight4_blocks_det_matches_scalar_oracle(q):
    for _family, _i, h in valid_instances(q):
        assert weight4_blocks_det(q, h) == scalar_weight4_blocks(q, h), (q, h)


def test_weight4_blocks_det_batches_agree(monkeypatch):
    # batches of a few triples give the same blocks as one batch
    whole = weight4_blocks_det(16, 6)
    monkeypatch.setattr(designs, "_CHUNK_ELEMS", 17 * 5)
    assert weight4_blocks_det(16, 6) == whole


def test_verify_design_matches_dict_counter_on_random_blocks():
    rng = np.random.default_rng(7)
    raised = regular = 0
    for _ in range(300):
        n = int(rng.integers(5, 12))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(t + 1, n))
        if rng.random() < 0.3:
            # a union of copies of the complete design is regular
            blocks = list(combinations(range(n), k)) * int(rng.integers(1, 3))
            rng.shuffle(blocks)
        else:
            b = int(rng.integers(1, 40))
            blocks = [tuple(rng.permutation(n)[:k].tolist()) for _ in range(b)]
        got = outcome(verify_design, blocks, n, t)
        assert got == outcome(dict_design_counts, blocks, n, t), (n, t, k)
        raised += isinstance(got[0], str)
        regular += not isinstance(got[0], str)
    assert raised > 50 and regular > 50


def test_verify_design_matches_dict_counter_on_code_designs():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    for weight in (4, 5):
        blocks = supports_of_weight(code, weight).blocks
        for t in (1, 2, 3, 4):
            if t < weight:
                got = outcome(verify_design, blocks, 10, t)
                assert got == outcome(dict_design_counts, blocks, 10, t), (weight, t)
    # the weight-5 blocks are a 3-design and not a 4-design
    assert outcome(verify_design, supports_of_weight(code, 5).blocks, 10, 4) == (
        "NotRegular", (0, 1, 2, 6), 0, 2)


def test_verify_design_points_outside_range_fail_identity():
    # every in-range 2-subset is covered equally often, but one block has
    # points outside range(4) or a repeated point
    for extra in ((4, 5, 6), (5, 5, 6), (4, 4, 4)):
        bad = list(combinations(range(4), 3)) + [extra]
        got = outcome(verify_design, bad, 4, 2)
        assert got == outcome(dict_design_counts, bad, 4, 2) == ("NotRegular", (), 12, 15)


def test_verify_design_mixed_sizes():
    with pytest.raises(InvalidParameters):
        verify_design([(0, 1, 2), (0, 1, 2, 3)], 6, 2)


def test_rank_supports_checks_every_reconstructed_word(monkeypatch):
    # 340 weight-4 blocks at q=16: the old check sampled every 5th word,
    # so a corrupt nullvector at hit 1 went unseen
    code = bch_build(CodeSpec(q=16, n=17, delta=3, h=6))
    real = designs.kernels.scan_supports
    corrupted = []

    def scan_with_one_bad_nullvector(H, combos, field2):
        flags, nulls = real(H, combos, field2)
        i = np.flatnonzero(flags == 1)[1]
        emb = subfield_embedding(field2, code.field)
        old = int(nulls[i, 1])
        nulls[i, 1] = next(v for v in (emb.embed(2), emb.embed(3)) if v != old)
        corrupted.append(tuple(combos[i].tolist()))
        return flags, nulls

    assert supports_of_weight(code, 4, budget=10_000).b == 340
    monkeypatch.setattr(designs.kernels, "scan_supports", scan_with_one_bad_nullvector)
    with pytest.raises(InvalidParameters) as exc:
        supports_of_weight(code, 4, budget=10_000)
    assert str(exc.value) == f"reconstructed weight-4 word on {corrupted[0]} is not in the code"


def test_supports_from_words_first_seen_order_and_multiplicity():
    # raw words: support (1, 2) twice, then (0, 3) once
    words = np.array([[0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1], [1, 1, 1, 1]])
    with pytest.raises(MultiplicityNotQMinus1) as exc:
        supports_of_weight(words, 2, n_points=4, q=3)
    assert "support (0, 3) carried by 1 codewords" in str(exc.value)
    sup = supports_of_weight(words[:2], 2, n_points=4, q=3)
    assert sup.multiset == {(1, 2): 2} and sup.blocks == ((1, 2),)


@pytest.mark.parametrize("through0", [False, True])
def test_ksubsets_matches_itertools(through0):
    for n in range(13):
        for k in range(n + 2):
            want = [c for c in combinations(range(n), k) if not through0 or 0 in c]
            got = ksubsets(n, k, through0=through0)
            assert got.shape == (len(want), k), (n, k)
            assert list(map(tuple, got.tolist())) == want, (n, k)


def test_rank_route_needs_delta_3():
    # delta = 4 codes of length q+1 used to reach the rank route, which
    # assumes the 4-row parity matrix of a delta = 3 code
    for h in range(10):
        code = bch_build(q=9, n=10, delta=4, h=h)
        for k in (4, 5):
            with pytest.raises(BudgetExceeded, match="no structural construction applies"):
                supports_of_weight(code, k, budget=100)


def rotations(hits, n):
    """Every block H + c mod n of a set of hits, as sorted tuples."""
    return sorted({tuple(sorted((x + c) % n for x in h)) for h in hits for c in range(n)})


def full_scan_supports(q, h, k):
    """Oracle for the through-0 rank route: every k-subset scanned."""
    H, f2 = parity_check_rows(q, h)
    combos = ksubsets(q + 1, k)
    flags, _ = kernels.scan_supports(H, combos, f2)
    if (flags == 3).any():
        return "nullity >= 2"
    return tuple(map(tuple, combos[flags == 1].tolist()))


def rank_outcome(q, h, k):
    try:
        return designs._rank_supports(q, h, k)
    except InvalidParameters as exc:
        assert "nullity >= 2" in str(exc)
        return "nullity >= 2"


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_rotated_rank_supports_equal_full_scan(q):
    for _family, _i, h in valid_instances(q):
        for k in (4, 5):
            full = full_scan_supports(q, h, k)
            got = rank_outcome(q, h, k)
            assert got == full, (q, h, k)
            if isinstance(got, CyclicBlocks):
                assert list(got) == list(full) and len(got) * k == len(got.hits) * (q + 1)
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        assert supports_of_weight(code, 4, budget=comb(q, 3)).blocks == full_scan_supports(q, h, 4)


def test_rank_route_charges_subsets_through_zero():
    code = bch_build(CodeSpec(q=16, n=17, delta=3, h=6))
    with pytest.raises(BudgetExceeded):
        supports_of_weight(code, 4, budget=comb(16, 3) - 1)
    assert supports_of_weight(code, 4, budget=comb(16, 3)).b == 340
    with pytest.raises(BudgetExceeded):
        weight5_blocks_rank(27, 12, budget=comb(27, 4) - 1)
    assert len(weight5_blocks_rank(27, 12, budget=comb(27, 4))) == 78624


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_trace_supports_equal_word_supports(q):
    for _family, _i, h in valid_instances(q):
        td = trace_dual(q, h)
        words = td.codewords()
        for k in np.unique(np.count_nonzero(words, axis=1)):
            if k == 0:
                continue
            try:
                want = designs._supports_from_words(words, int(k), q, q + 1).blocks
            except MultiplicityNotQMinus1:
                # the through-0 route names a support and its full multiplicity
                with pytest.raises(MultiplicityNotQMinus1) as exc:
                    supports_of_weight(td, int(k))
                supp, mult = re.match(r"support \((.*)\) carried by (\d+) ", str(exc.value)).groups()
                supp = [int(x) for x in supp.split(",")]
                nonzero = words != 0
                on = (nonzero.sum(axis=1) == k) & nonzero[:, supp].all(axis=1)
                assert int(mult) == int(on.sum()) != q - 1, (q, h, k)
                continue
            got = supports_of_weight(td, int(k))
            assert isinstance(got.blocks, CyclicBlocks)
            assert got.blocks == want and list(got.blocks) == list(want), (q, h, k)


def test_trace_route_charges_words_through_zero():
    td = trace_dual(9, 3)
    with pytest.raises(BudgetExceeded):
        supports_of_weight(td, 6, budget=9**3 - 1)
    assert supports_of_weight(td, 6, budget=9**3).b == 30


def test_rank_route_needs_cyclic_parity_matrix(monkeypatch):
    # swapping two columns of the parity matrix breaks the shift symmetry
    H, f2 = parity_check_rows(9, 3)
    swapped = H[:, [0, 2, 1, *range(3, 10)]]
    monkeypatch.setattr(designs, "parity_check_rows", lambda q, h: (swapped, f2))
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        supports_of_weight(code, 4, budget=10_000)
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        weight5_blocks_rank(9, 3)


def test_trace_route_needs_cyclic_code(monkeypatch):
    # the trace code with two coordinates swapped is not cyclic: without
    # the proof the rotated supports would differ from its actual ones
    td = trace_dual(9, 3)
    perm = [0, 2, 1, *range(3, 10)]
    td._bh, td._bh1 = td._bh[perm], td._bh1[perm]
    want = designs._supports_from_words(td.codewords(), 6, 9, 10).blocks
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        supports_of_weight(td, 6)
    monkeypatch.setattr(designs, "require_cyclic", lambda mat, field: None)
    assert supports_of_weight(td, 6).blocks != want


def test_cyclic_blocks_sequence():
    hits = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    blocks = CyclicBlocks(hits, 4)
    want = rotations(hits.tolist(), 4)
    assert len(blocks) == len(want) == 4 and list(blocks) == want
    assert [blocks[i] for i in range(-4, 4)] == want + want
    assert blocks == tuple(want) and tuple(want) == blocks and blocks != want[:3]
    with pytest.raises(IndexError):
        blocks[4]
    assert CyclicBlocks(np.zeros((0, 3), dtype=np.int64), 7) == ()
    # {0, 1} alone rotates to three blocks of Z_4 under c <= n-1-max H,
    # but 1 * 4 / 2 = 2 pass through 0: the set is not rotation-closed
    with pytest.raises(InvalidParameters, match="not rotation-closed"):
        CyclicBlocks(np.array([[0, 1]]), 4)
    # hits must start at 0, increase, lie in range(n), and be distinct rows
    # in lexicographic order (the last two satisfy b k = hits n)
    for bad in ([[1, 2]], [[0, 2, 1]], [[0, 4]], [[0, 3], [0, 1]], [[0, 2], [0, 2]]):
        with pytest.raises(InvalidParameters, match="lexicographic order"):
            CyclicBlocks(np.array(bad), 4)


def test_verify_design_through_zero_matches_full_count_on_random_sets():
    rng = np.random.default_rng(11)
    raised = regular = 0
    for _ in range(300):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, n))
        t = int(rng.integers(1, k))
        through0 = ksubsets(n, k, through0=True)
        picked = through0[rng.random(len(through0)) < rng.choice([0.05, 0.3, 1.0])]
        full = rotations(picked.tolist(), n)
        hits = np.array([blk for blk in full if blk[0] == 0], dtype=np.int64).reshape(-1, k)
        blocks = CyclicBlocks(hits, n)
        assert list(blocks) == full
        got = outcome(verify_design, blocks, n, t)
        assert got == outcome(verify_design, full, n, t) == outcome(dict_design_counts, full, n, t)
        raised += isinstance(got[0], str)
        regular += not isinstance(got[0], str) and got != (0, 0)
    assert raised > 40 and regular > 40


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_verify_design_through_zero_matches_full_count_on_code_designs(q):
    p, _ = prime_power(q)
    for _family, _i, h in valid_instances(q):
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        td = trace_dual(q, h)
        dmin = int(np.flatnonzero(td.weight_distribution().counts[1:])[0]) + 1
        sets = [designs._rank_supports(q, h, 4, check_code=code), supports_of_weight(td, dmin).blocks]
        if p == 3:
            sets.append(weight5_blocks_rank(q, h))
        for blocks in sets:
            assert isinstance(blocks, CyclicBlocks)
            full = list(blocks)
            for t in range(1, min(blocks.k, 5)):
                got = outcome(verify_design, blocks, q + 1, t)
                assert got == outcome(verify_design, full, q + 1, t), (q, h, blocks.k, t)
