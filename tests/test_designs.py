from itertools import combinations
from math import comb

import numpy as np
import pytest

from codebench import designs
from codebench.codes import CodeSpec, LinearCode, bch_build, trace_dual
from codebench.designs import (
    design_from_blocks,
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
