from collections import Counter
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest

from codebench import designs
from codebench.codes import (
    CodeSpec,
    LinearCode,
    TraceDualSpec,
    bch_build,
    require_cyclic,
    trace_dual,
    valid_instances,
)
from codebench import _kernels as kernels
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
from codebench.galois import (
    factorize,
    field_for_order,
    field_new,
    prime_power,
    subfield_embedding,
    unit_circle,
)


def through_zero(n, k):
    """The k-subsets of range(n) through 0, in lexicographic order: the
    first C(n-1, k-1) rows of ksubsets(n, k)."""
    return ksubsets(n, k)[: comb(n - 1, k - 1) if n and k else 0]


def scalar_weight4_blocks(q, h):
    """Oracle for weight4_blocks_det: one triple at a time, with each 3 x 3
    cofactor expanded in scalar field arithmetic."""
    p, _ = prime_power(q)
    pi = p ** trace_dual(q, h).i
    n = q + 1
    f2 = field_for_order(q * q)
    u = unit_circle(f2)
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


def all_triples_weight4_blocks(q, h):
    """Oracle for the through-0 determinant route: the quartic evaluated for
    every triple, so each block surfaces from all four of its triples, with
    no shift proof."""
    pi = prime_power(q)[0] ** trace_dual(q, h).i
    n = q + 1
    f2 = field_for_order(q * q)
    u = unit_circle(f2)
    u_pi = f2.pow_arr(u, pi)
    rows = np.vstack([np.ones(n, dtype=np.int64), u, u_pi, f2.mul_arr(u_pi, u)])
    quads = designs._quartic_zero_blocks(f2, rows, ksubsets(n, 3))
    return list(map(tuple, np.unique(quads, axis=0).tolist()))


def dict_design_counts(blocks, n_points, t):
    """Oracle for verify_design: a dict counter over the t-subsets of every
    block, scanned in lexicographic order; same returns and raises."""
    blocks = [tuple(sorted(b)) for b in blocks]
    b = len(blocks)
    if b == 0:
        return 0, 0
    k = len(blocks[0])
    counts = Counter(chain.from_iterable(combinations(blk, t) for blk in blocks))
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
    assert sup.b == 0 and sup.blocks == ()


def test_supports_of_dual_q9():
    sup = supports_of_weight(trace_dual(9, 3), 6)
    assert sup.b == 240 // 8 == 30


def test_supports_of_primal_q9():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 4)
    assert sup.b == 30
    lam, b = verify_design(sup.blocks, 10, 3)
    assert (lam, b) == (1, 30)


def test_supports_multiplicity_violation():
    # a full space GF(q)^n is cyclic and carries each weight-w support on
    # (q-1)^w words; the route names the lexicographically least support
    # and counts q-1 words for each of its words with c[0] = 1
    for p, m, n, w, witness, count in [
        (3, 1, 2, 2, (0, 1), 4),
        (3, 1, 3, 2, (0, 1), 4),  # (0, 1) and (0, 2) are both carried 4 times
        (2, 2, 2, 2, (0, 1), 9),
        (3, 1, 4, 3, (0, 1, 2), 8),
    ]:
        f = field_new(p, m)
        full = LinearCode(f, n, np.eye(n, dtype=np.int64))
        with pytest.raises(MultiplicityNotQMinus1) as exc:
            supports_of_weight(full, w)
        assert str(exc.value) == (
            f"support {witness} carried by {count} codewords, expected q-1 = {f.q - 1}")
        assert count == (f.q - 1) ** w


def test_verify_design_complete():
    blocks = CyclicBlocks(through_zero(5, 4), 5)
    lam, b = verify_design(blocks, 5, 3)
    assert (lam, b) == (2, 5)


def test_verify_design_not_regular_witness():
    blocks = cyclic([(0, 1, 2, 3)], 6)
    with pytest.raises(NotRegular) as exc:
        verify_design(blocks, 6, 3)
    assert (exc.value.subset, exc.value.count, exc.value.expected) == ((0, 1, 3), 1, 2)
    assert outcome(dict_design_counts, blocks, 6, 3) == ("NotRegular", (0, 1, 3), 1, 2)


def test_verify_design_empty():
    assert verify_design(CyclicBlocks(np.zeros((0, 4), dtype=np.int64), 10), 10, 3) == (0, 0)


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
    blocks = CyclicBlocks(through_zero(5, 4), 5)
    d = design_from_blocks(blocks, 5, 3)
    assert not steiner_check(d)  # lambda = 2


def test_weight4_blocks_det_q9_matches_supports():
    det_blocks = weight4_blocks_det(9, 3)
    assert len(det_blocks) == 30
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    sup = supports_of_weight(code, 4)
    assert det_blocks == sup.blocks


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
    assert sup5_enum.blocks == weight5_blocks_rank(9, 3)


def test_supports_need_a_positive_weight():
    # a block of size 0 has no point 0 to keep; every route rejects it
    for source in (bch_build(CodeSpec(q=2, n=3, delta=3, h=0)),
                   bch_build(CodeSpec(q=9, n=10, delta=3, h=3)), trace_dual(9, 3)):
        for k in (0, -1):
            with pytest.raises(InvalidParameters, match="block size"):
                supports_of_weight(source, k)


def test_budget_errors():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    with pytest.raises(BudgetExceeded):
        supports_of_weight(code, 6, budget=10_000)  # no structural route for k=6
    with pytest.raises(BudgetExceeded):
        weight4_blocks_det(9, 3, budget=10)
    # the words route is charged the q^(k-1) words with c[0] = 1 of the
    # [10, 6] code: within that budget it runs and finds the weight-6
    # supports carried by more than q-1 words
    with pytest.raises(MultiplicityNotQMinus1) as exc:
        supports_of_weight(code, 6, budget=9**5)
    assert str(exc.value) == ("support (0, 1, 2, 3, 4, 5) carried by 48 codewords, "
                              "expected q-1 = 8")
    with pytest.raises(BudgetExceeded) as exc:
        supports_of_weight(code, 6, budget=9**5 - 1)
    assert str(exc.value) == ("59049 codewords with c[0] = 1 exceed budget 59048 and no "
                              "structural construction applies for k=6")


def test_weight4_blocks_det_charges_triple_w_pairs():
    # q = 9: C(9, 2) triples through 0 times 10 points w = 360 evaluations
    with pytest.raises(BudgetExceeded, match="360 items exceeds budget 359"):
        weight4_blocks_det(9, 3, budget=359)
    assert weight4_blocks_det(9, 3, budget=360) == weight4_blocks_det(9, 3)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_weight4_blocks_det_matches_scalar_oracle(q):
    for _family, _i, h in valid_instances(q):
        assert weight4_blocks_det(q, h) == scalar_weight4_blocks(q, h), (q, h)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27] + [
    pytest.param(q, marks=pytest.mark.slow) for q in (49, 64, 81)
])
def test_weight4_blocks_det_through_zero_matches_all_triples(q):
    for _family, _i, h in valid_instances(q):
        got = weight4_blocks_det(q, h)
        assert isinstance(got, CyclicBlocks)
        assert list(got) == all_triples_weight4_blocks(q, h), (q, h)


def test_weight4_blocks_det_batches_agree(monkeypatch):
    # batches of a few triples give the same blocks as one batch
    whole = weight4_blocks_det(16, 6)
    monkeypatch.setattr(designs, "_CHUNK_ELEMS", 17 * 5)
    assert weight4_blocks_det(16, 6) == whole


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


def test_verify_design_identity_catches_a_miscount(monkeypatch):
    # a through-0 count that is regular but one too high for every subset
    # passes the witness scan and fails C(n, t) lambda = b C(k, t)
    blocks = CyclicBlocks(through_zero(4, 3), 4)
    assert verify_design(blocks, 4, 2) == (2, 4)
    real = designs._counts_through_zero
    monkeypatch.setattr(designs, "_counts_through_zero", lambda blocks, t: real(blocks, t) + 1)
    assert outcome(verify_design, blocks, 4, 2) == ("NotRegular", (), 18, 12)


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


@pytest.mark.parametrize("through0", [False, True])
def test_ksubsets_matches_itertools(through0):
    for n in range(13):
        for k in range(n + 2):
            want = [c for c in combinations(range(n), k) if not through0 or 0 in c]
            got = through_zero(n, k) if through0 else ksubsets(n, k)
            assert got.shape == (len(want), k), (n, k)
            assert list(map(tuple, got.tolist())) == want, (n, k)
            if k and not through0:
                # the subsets whose least point lies in [first, stop)
                for first, stop in ((1, 3), (2, n)):
                    part = [c for c in want if first <= c[0] < stop]
                    got = ksubsets(n, k, first, stop)
                    assert list(map(tuple, got.tolist())) == part, (n, k, first)


def test_rank_route_needs_delta_3():
    # delta = 4 codes of length q+1 used to reach the rank route, which
    # assumes the 4-row parity matrix of a delta = 3 code
    for h in range(10):
        code = bch_build(CodeSpec(q=9, n=10, delta=4, h=h))
        for k in (4, 5):
            with pytest.raises(BudgetExceeded, match="no structural construction applies"):
                supports_of_weight(code, k, budget=100)


def rotations(hits, n):
    """Every block H + c mod n of a set of hits, as sorted tuples."""
    return sorted({tuple(sorted((x + c) % n for x in h)) for h in hits for c in range(n)})


def cyclic(blocks, n):
    """The rotation closure of a list of blocks, as CyclicBlocks."""
    full = rotations(blocks, n)
    hits = np.array([blk for blk in full if blk[0] == 0], dtype=np.int64)
    return CyclicBlocks(hits.reshape(-1, len(blocks[0])), n)


def word_support_counts(word_arrays):
    """Oracle: how many words of the arrays lie on each nonzero support,
    keyed by the support as a sorted tuple."""
    counts = Counter()
    for words in word_arrays:
        n = words.shape[1]
        masks = (words != 0).astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
        keys, mults = np.unique(masks[masks != 0], return_counts=True)
        counts.update(dict(zip(keys.tolist(), mults.tolist())))
    return {tuple(i for i in range(n) if mask >> i & 1): c for mask, c in counts.items()}


def code_words(code):
    """Every one of the q^k words of a code, q^(k-1) at a time:
    s G[0] + span(G[1:]) for each s in GF(q)."""
    G, f = code.gen_matrix, code.field
    if not len(G):
        return [np.zeros((1, code.n), dtype=np.int64)]
    rest = LinearCode(f, code.n, G[1:]).codewords()
    return (f.add_arr(rest, f.mul_arr(s, G[0])) for s in range(code.q))


def sorted_word_supports(counts, k, q):
    """Oracle for the words route: every weight-k support, sorted, after
    checking that the words on each number q-1; else MultiplicityNotQMinus1
    naming the lexicographically least support that fails, and its count."""
    supports = sorted(s for s in counts if len(s) == k)
    bad = [s for s in supports if counts[s] != q - 1]
    if bad:
        raise MultiplicityNotQMinus1(
            f"support {bad[0]} carried by {counts[bad[0]]} codewords, expected q-1 = {q - 1}")
    return tuple(supports)


def full_scan_supports(q, h, k):
    """Oracle for the through-0 rank route: every k-subset scanned."""
    td = trace_dual(q, h)
    H, f2 = td.parity_rows(), td.big
    combos = ksubsets(q + 1, k)
    flags, _ = kernels.scan_supports(H, combos, f2)
    if (flags == 3).any():
        return "nullity >= 2"
    return tuple(map(tuple, combos[flags == 1].tolist()))


def rank_outcome(q, h, k):
    try:
        return designs._rank_supports(trace_dual(q, h), k)
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_trace_supports_equal_word_supports(q):
    # the trace duals of the family instances at each of their weights, and
    # every C_(q,q+1,3,h) with q <= 9 at every weight, against the oracle
    # that counts all q^k words
    sources = [trace_dual(q, h) for _family, _i, h in valid_instances(q)]
    if q <= 9:
        sources += [bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)) for h in range(q + 1)]
    for source in sources:
        if isinstance(source, TraceDualSpec):
            counts = word_support_counts([source.codewords()])
            weights = sorted({len(supp) for supp in counts})
        else:
            counts = word_support_counts(code_words(source))
            weights = range(1, q + 2)
        for k in weights:
            try:
                want = sorted_word_supports(counts, k, q)
            except MultiplicityNotQMinus1 as bad:
                with pytest.raises(MultiplicityNotQMinus1) as exc:
                    supports_of_weight(source, k)
                assert str(exc.value) == str(bad), (q, source, k)
                continue
            got = supports_of_weight(source, k)
            assert isinstance(got.blocks, CyclicBlocks)
            assert got.blocks == want and list(got.blocks) == list(want), (q, source, k)


def test_trace_route_charges_words_through_zero():
    td = trace_dual(9, 3)
    with pytest.raises(BudgetExceeded):
        supports_of_weight(td, 6, budget=9**3 - 1)
    assert supports_of_weight(td, 6, budget=9**3).b == 30


def test_rank_route_needs_cyclic_parity_matrix(monkeypatch):
    # swapping two columns of the parity matrix breaks the shift symmetry
    swapped = trace_dual(9, 3).parity_rows()[:, [0, 2, 1, *range(3, 10)]]
    monkeypatch.setattr(TraceDualSpec, "parity_rows", lambda self: swapped)
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        supports_of_weight(code, 4, budget=10_000)
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        weight5_blocks_rank(9, 3)


def test_det_route_needs_cyclic_rows(monkeypatch):
    # two points of the circle swapped break the shift symmetry of the
    # determinant rows: without the proof the rotated blocks through 0
    # would differ from the singular 4-subsets of the swapped rows
    perm = [0, 2, 1, *range(3, 10)]
    want = sorted(tuple(sorted(perm[x] for x in blk)) for blk in all_triples_weight4_blocks(9, 3))
    real = designs.unit_circle
    monkeypatch.setattr(designs, "unit_circle", lambda f2: real(f2)[perm])
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        weight4_blocks_det(9, 3)
    monkeypatch.setattr(designs, "require_cyclic", lambda mat, field: None)
    # the multiplier images of the zeros of the unproved rows are not even
    # rotation-closed
    with pytest.raises(InvalidParameters, match="not rotation-closed"):
        weight4_blocks_det(9, 3)
    monkeypatch.setattr(designs, "_multipliers", lambda n, p: [1])
    got = weight4_blocks_det(9, 3)
    assert len(got) == len(want) and got != want


def test_words_route_needs_cyclic_code(monkeypatch):
    # the same for the enumerated words of a code with two coordinates swapped
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    swapped = LinearCode(code.field, 10, code.gen_matrix[:, [0, 2, 1, *range(3, 10)]])
    want = sorted_word_supports(word_support_counts([swapped.codewords()]), 4, 9)
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        supports_of_weight(swapped, 4)
    monkeypatch.setattr(designs, "require_cyclic", lambda mat, field: None)
    got = supports_of_weight(swapped, 4).blocks
    assert len(got) == len(want) and got != want


def test_trace_route_needs_cyclic_code(monkeypatch):
    # the trace code with two coordinates swapped is not cyclic: without
    # the proof the rotated supports would differ from its actual ones
    td = trace_dual(9, 3)
    perm = [0, 2, 1, *range(3, 10)]
    td._bh, td._bh1 = td._bh[perm], td._bh1[perm]
    want = sorted_word_supports(word_support_counts([td.codewords()]), 6, 9)
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
    assert CyclicBlocks(np.zeros((0, 3), dtype=np.int64), 7)[1:] == ()
    # {0, 1} alone rotates to three blocks of Z_4 under c <= n-1-max H,
    # but 1 * 4 / 2 = 2 pass through 0: the set is not rotation-closed
    with pytest.raises(InvalidParameters, match="not rotation-closed"):
        CyclicBlocks(np.array([[0, 1]]), 4)
    # hits must start at 0, increase, lie in range(n), and be distinct rows
    # in lexicographic order (the last two satisfy b k = hits n)
    for bad in ([[1, 2]], [[0, 2, 1]], [[0, 4]], [[0, 3], [0, 1]], [[0, 2], [0, 2]]):
        with pytest.raises(InvalidParameters, match="lexicographic order"):
            CyclicBlocks(np.array(bad), 4)


def test_cyclic_blocks_checks_the_row_pairs_across_chunks(monkeypatch):
    # two rows of three points a chunk: rows 1 and 2 straddle the first
    # boundary, and the one row of overlap still compares them
    monkeypatch.setattr(designs, "_CHUNK_ELEMS", 6)
    hits = through_zero(7, 3)
    assert len(CyclicBlocks(hits, 7)) == 35
    for rows in ([0, 2, 1], [0, 1, 1]):
        bad = np.concatenate([hits[rows], hits[3:]])
        with pytest.raises(InvalidParameters, match="lexicographic order"):
            CyclicBlocks(bad, 7)


def test_cyclic_blocks_slices_like_a_tuple():
    # the Fano plane as the rotations of {0, 1, 3}, {0, 2, 6} and {0, 4, 5}
    blocks = CyclicBlocks(np.array([[0, 1, 3], [0, 2, 6], [0, 4, 5]]), 7)
    want = tuple(blocks)
    assert blocks[1:3] == ((0, 2, 6), (0, 4, 5)) == want[1:3]
    for i, j, k in [(None, None, None), (-3, None, None), (None, -2, None), (-100, 100, 2),
                    (None, None, -1), (5, 1, -2), (-1, -8, -3), (3, 3, None), (6, 2, None)]:
        assert blocks[i:j:k] == want[i:j:k], (i, j, k)


def test_verify_design_through_zero_matches_full_count_on_random_sets():
    rng = np.random.default_rng(11)
    raised = regular = 0
    for _ in range(300):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, n))
        t = int(rng.integers(1, k))
        through0 = through_zero(n, k)
        picked = through0[rng.random(len(through0)) < rng.choice([0.05, 0.3, 1.0])]
        full = rotations(picked.tolist(), n)
        hits = np.array([blk for blk in full if blk[0] == 0], dtype=np.int64).reshape(-1, k)
        blocks = CyclicBlocks(hits, n)
        assert list(blocks) == full
        got = outcome(verify_design, blocks, n, t)
        assert got == outcome(dict_design_counts, full, n, t)
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
        sets = [designs._rank_supports(td, 4, check_code=code), supports_of_weight(td, dmin).blocks]
        if p == 3:
            sets.append(weight5_blocks_rank(q, h))
        for blocks in sets:
            assert isinstance(blocks, CyclicBlocks)
            full = list(blocks)
            for t in range(1, min(blocks.k, 5)):
                got = outcome(verify_design, blocks, q + 1, t)
                assert got == outcome(dict_design_counts, full, q + 1, t), (q, h, blocks.k, t)


def complement_route(n, k, t):
    """Whether a block's complement ranks fewer subsets than its tail."""
    return sum(comb(n - k, j) for j in range(1, t)) < comb(k - 1, t - 1)


@pytest.mark.parametrize("q", [9, 16, 25, 27, 49, pytest.param(81, marks=pytest.mark.slow)])
def test_complement_count_equals_tail_count_on_dual_designs(q, monkeypatch):
    # the dual minimum-weight blocks miss only p^m + 1 of the q + 1 points
    for _family, _i, h in valid_instances(q):
        td = trace_dual(q, h)
        blocks = supports_of_weight(td, q - td.p_m).blocks
        for t in (1, 2, 3):
            got = designs._complement_counts(blocks, t)
            assert np.array_equal(got, designs._tail_counts(blocks, t)), (q, h, t)
        if complement_route(q + 1, blocks.k, 3):
            with monkeypatch.context() as m:
                m.setattr(designs, "_tail_counts", None)
                assert verify_design(blocks, q + 1, 3)[0] == int(got[0]), (q, h)


def test_complement_count_matches_dict_counter_on_large_blocks():
    # the rotations of {0, ..., 4} on 7 points: {0, 2} lies in 3 blocks,
    # the blocks missing neither, against 4 for {0, 1}
    blocks = CyclicBlocks(np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 6], [0, 1, 2, 5, 6],
                                    [0, 1, 4, 5, 6], [0, 3, 4, 5, 6]]), 7)
    assert complement_route(7, 5, 2)
    assert outcome(verify_design, blocks, 7, 2) == ("NotRegular", (0, 2), 3, 4)
    assert outcome(dict_design_counts, list(blocks), 7, 2) == ("NotRegular", (0, 2), 3, 4)
    rng = np.random.default_rng(23)
    raised = regular = 0
    for _ in range(200):
        n = int(rng.integers(6, 14))
        k = n - int(rng.integers(1, 4))
        t = int(rng.integers(1, 5))
        if not complement_route(n, k, t):
            continue
        through0 = through_zero(n, k)
        picked = through0[rng.random(len(through0)) < rng.choice([0.05, 0.3, 1.0])]
        full = rotations(picked.tolist(), n)
        hits = np.array([blk for blk in full if blk[0] == 0], dtype=np.int64).reshape(-1, k)
        blocks = CyclicBlocks(hits, n)
        assert np.array_equal(designs._complement_counts(blocks, t),
                              designs._tail_counts(blocks, t)), (n, k, t)
        got = outcome(verify_design, blocks, n, t)
        assert got == outcome(dict_design_counts, full, n, t), (n, k, t)
        raised += isinstance(got[0], str)
        regular += not isinstance(got[0], str) and got != (0, 0)
    assert raised > 20 and regular > 20, (raised, regular)


# ---------------------------------------------------------------------------
# the multiplier orbits of the rank and determinant routes


def through_zero_rank_supports(td, k):
    """Oracle for the orbit-reduced rank route: every k-subset through 0 is
    scanned, with the rotation proved and no multiplier used."""
    n, field2 = td.n, td.big
    H = td.parity_rows()
    require_cyclic(H, field2)
    combos = through_zero(n, k)
    flags, _ = kernels.scan_supports(H, combos, field2)
    if (flags == 3).any():
        return "nullity >= 2"
    return CyclicBlocks(combos[flags == 1], n)


def through_zero_det_blocks(q, h):
    """Oracle for the orbit-reduced determinant route: the quartic is
    evaluated for every triple through 0, with the rotation proved and no
    multiplier used."""
    td = trace_dual(q, h)
    n, f2 = q + 1, td.big
    u = unit_circle(f2)
    u_pi = f2.pow_arr(u, td.p_i)
    rows = np.vstack([np.ones(n, dtype=np.int64), u, u_pi, f2.mul_arr(u_pi, u)])
    require_cyclic(rows, f2)
    quads = designs._quartic_zero_blocks(f2, rows, through_zero(n, 3))
    return CyclicBlocks(np.unique(quads, axis=0), n)


def orbit_classes(n, k, p):
    """Oracle for the canonical subsets: each k-subset through 0 mapped to
    the lexicographically least of its images under i -> p^j i mod n."""
    mults = {pow(p, j, n) for j in range(n)}
    return {s: min(tuple(sorted(r * x % n for x in s)) for r in mults)
            for s in map(tuple, through_zero(n, k).tolist())}


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27] + [
    pytest.param(q, marks=pytest.mark.slow) for q in (49, 64, 81)
])
def test_orbit_reduced_routes_equal_through_zero_oracle(q):
    for _family, _i, h in valid_instances(q):
        td = trace_dual(q, h)
        for k in (4, 5):
            assert rank_outcome(q, h, k) == through_zero_rank_supports(td, k), (q, h, k)
        assert weight4_blocks_det(q, h) == through_zero_det_blocks(q, h), (q, h)


def orbit_least_chunks(n, k, p):
    """The chunks of designs._orbit_least, and their rows as tuples."""
    chunks = list(designs._orbit_least(n, k, designs._multipliers(n, p)))
    return chunks, [tuple(row) for chunk in chunks for row in chunk.tolist()]


@pytest.mark.parametrize("q,chunk_elems", [
    pytest.param(q, None, id=str(q)) for q in (4, 8, 9, 16, 25, 27)
] + [pytest.param(q, c, id=f"{q}-chunk{c}") for q, c in ((25, 1 << 8), (27, 1 << 8), (27, 1 << 10))])
def test_orbit_least_subsets_match_python_oracle(q, chunk_elems, monkeypatch):
    # with the default chunk size every q <= 27 takes one chunk; a smaller
    # one splits the candidates, and one least point's tails may overrun it
    n, p = q + 1, prime_power(q)[0]
    mults = designs._multipliers(n, p)
    assert sorted(mults) == sorted({pow(p, j, n) for j in range(n)}) and mults[0] == 1
    if chunk_elems:
        monkeypatch.setattr(designs, "_CHUNK_ELEMS", chunk_elems)
    for k in (3, 4, 5):
        classes = orbit_classes(n, k, p)
        least = sorted(s for s, rep in classes.items() if s == rep)
        chunks, got = orbit_least_chunks(n, k, p)
        assert got == least, (q, k)
        assert (len(chunks) == 1) == (chunk_elems is None), (q, k, len(chunks))
        # a random union of orbits comes back from one row per orbit
        rng = np.random.default_rng(q * 10 + k)
        picked = [s for s in least if rng.random() < 0.3]
        want = sorted(s for s, rep in classes.items() if rep in set(picked))
        rows = np.array(picked, dtype=np.int64).reshape(-1, k)
        assert list(map(tuple, designs._orbit_union(rows, n, mults).tolist())) == want, (q, k)


def test_orbit_least_chunk_holds_one_first_point_of_tails():
    # at (244, 5) the least point 1 has C(242, 3) = 2,331,240 candidates;
    # split by their first tail point, no chunk holds more than C(241, 2)
    chunk = next(designs._orbit_least(244, 5, designs._multipliers(244, 3)))
    assert 0 < len(chunk) <= comb(241, 2)


@pytest.mark.parametrize("q", [q for q in range(4, 82) if len(factorize(q)) == 1])
def test_split_tails_equal_the_one_chunk_listing(q, monkeypatch):
    # the default chunk splits the tails at q = 64 and 81 (k = 5), a 2^12
    # one at more q; no chunk exceeds max(step, C(n-3, k-3)), and a chunk
    # too large to split lists every least point's tails whole
    n, p = q + 1, prime_power(q)[0]
    mults = designs._multipliers(n, p)
    for k in (4, 5):
        rows = []
        for elems in (designs._CHUNK_ELEMS, 1 << 12, 1 << 40):
            monkeypatch.setattr(designs, "_CHUNK_ELEMS", elems)
            chunks = list(designs._orbit_least(n, k, mults))
            step = elems // (k * len(mults))
            assert max(map(len, chunks)) <= max(step, comb(n - 3, k - 3)), (q, k, elems)
            rows.append(np.concatenate(chunks))
        monkeypatch.undo()
        assert len(chunks) == 1
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2]), (q, k)


def triple_orbit(t, n, mults):
    """Oracle: the images of the triple t under the maps i -> r i + c,
    r in mults."""
    return frozenset(tuple(sorted((r * x + c) % n for x in t)) for r in mults for c in range(n))


@pytest.mark.parametrize("q", [q for q in range(2, 82) if len(factorize(q)) == 1])
def test_triple_orbit_representatives_cover_every_triple_once(q):
    # one representative per orbit of the rotations and multipliers: their
    # orbits are disjoint and cover all C(n, 3) triples, and each is the
    # lexicographically least triple of its orbit
    n, p = q + 1, prime_power(q)[0]
    mults = designs._multipliers(n, p)
    chunks = list(designs._triple_orbit_least(n, mults))
    reps = [tuple(row) for chunk in chunks for row in chunk.tolist()]
    assert reps == sorted(reps) and all(rep[0] == 0 for rep in reps)
    orbits = [triple_orbit(rep, n, mults) for rep in reps]
    assert sum(map(len, orbits)) == len(frozenset().union(*orbits)) == comb(n, 3)
    assert all(rep == min(orbit) for rep, orbit in zip(reps, orbits))


@pytest.mark.parametrize("q", [243, 729, 2048])
def test_triple_orbit_representatives_are_one_per_orbit_at_large_q(q):
    # each representative T = {0, x, y} holds the least key x n + y among
    # its 3 |mults| images r (T - t) through 0, so no orbit has two; the
    # stabiliser of T is the (r, t) whose image is T itself, and the orbit
    # sizes |mults| n / |Stab(T)| add up to all C(n, 3) triples
    n, p = q + 1, prime_power(q)[0]
    mults = designs._multipliers(n, p)
    reps = np.concatenate(list(designs._triple_orbit_least(n, mults)))
    assert (reps[:, 0] == 0).all() and (reps[:, 1] < reps[:, 2]).all()
    keys = reps[:, 1] * n + reps[:, 2]
    assert (np.diff(keys) > 0).all()
    _, x, y = reps.T
    r = np.array(mults, dtype=np.int64)[:, None]
    images = []
    for a, b in ((x, y), (y - x, n - x), (n - y, n - y + x)):
        a, b = r * a % n, r * b % n
        images.append(np.minimum(a, b) * n + np.maximum(a, b))
    images = np.concatenate(images)
    assert (keys == images.min(axis=0)).all()
    stab = (images == keys).sum(axis=0)
    assert (len(mults) * n % stab == 0).all()
    assert int((len(mults) * n // stab).sum()) == comb(n, 3)


@pytest.mark.parametrize("q", [25, 27, 49, 81])
def test_triple_orbit_chunks_equal_the_one_chunk_listing(q, monkeypatch):
    # a small chunk splits the rows of _orbit_least that are filtered; the
    # least rows come back alike
    n, p = q + 1, prime_power(q)[0]
    mults = designs._multipliers(n, p)
    whole = list(designs._triple_orbit_least(n, mults))
    monkeypatch.setattr(designs, "_CHUNK_ELEMS", 1 << 8)
    parts = list(designs._triple_orbit_least(n, mults))
    assert len(whole) == 1 and len(parts) > 1
    assert np.array_equal(np.concatenate(parts), whole[0])


@pytest.mark.parametrize("q", [25, 27])
def test_chunked_orbit_scans_equal_one_chunk_results(q, monkeypatch):
    # the rank scans keep each chunk's hits, and the determinant route
    # feeds the chunks to the quartic: both equal their one-chunk results
    real = kernels.scan_supports
    calls = []

    def spy(H, combos, field2):
        calls.append(len(combos))
        return real(H, combos, field2)

    monkeypatch.setattr(designs.kernels, "scan_supports", spy)
    whole = {h: ([rank_outcome(q, h, k) for k in (4, 5)], weight4_blocks_det(q, h))
             for _family, _i, h in valid_instances(q)}
    assert len(calls) == 2 * len(whole)
    monkeypatch.setattr(designs, "_CHUNK_ELEMS", 1 << 8)
    for h, (rank_whole, det_whole) in whole.items():
        calls.clear()
        assert [rank_outcome(q, h, k) for k in (4, 5)] == rank_whole, (q, h)
        assert len(calls) >= 4, (q, h)
        assert weight4_blocks_det(q, h) == det_whole, (q, h)


def test_rank_scan_takes_one_subset_per_orbit(monkeypatch):
    # at q = 27 the scans take 493 of the 2925 4-subsets through 0 and
    # 2946 of the 17550 5-subsets, one per orbit of i -> 3 i mod 28
    real = kernels.scan_supports
    scanned = []

    def spy(H, combos, field2):
        scanned.append(len(combos))
        return real(H, combos, field2)

    monkeypatch.setattr(designs.kernels, "scan_supports", spy)
    for _family, _i, h in valid_instances(27):
        for k in (4, 5):
            designs._rank_supports(trace_dual(27, h), k)
    assert scanned == [493, 2946] * 4
    assert [len(set(orbit_classes(28, k, 3).values())) for k in (4, 5)] == [493, 2946]


def test_orbit_reduction_holds_on_any_cyclic_rows(monkeypatch):
    # rows gamma^(t i), t = 1..4, are closed under the rotation, and so
    # under i -> 3 i twisted by x -> x^3, though {1, 2, 3, 4} is not closed
    # under t -> 3 t: the code they check is cyclic, and r(x)^3 stays in
    # any cyclic row space.  The reduced scans equal the oracle's.
    td = trace_dual(27, 12)
    f2 = td.big
    e = (f2.q - 1) // 28  # gamma = alpha^e has order 28
    rows = np.stack([f2.exp[e * t * np.arange(28) % (f2.q - 1)] for t in (1, 2, 3, 4)])
    monkeypatch.setattr(TraceDualSpec, "parity_rows", lambda self: rows)
    for k in (4, 5):
        got = designs._rank_supports(trace_dual(27, 12), k)
        assert got == through_zero_rank_supports(td, k), k
        # four consecutive roots: an MDS code of distance 5 over GF(729)
        assert len(got.hits) == (0 if k == 4 else comb(27, 4)), k


def test_orbit_reduced_rank_route_needs_cyclic_rows(monkeypatch):
    # two columns of the q = 27 parity rows swapped: the shift proof
    # refuses them, and without it the multiplier orbits of the scanned
    # hits are not even rotation-closed
    swapped = trace_dual(27, 12).parity_rows()[:, [0, 2, 1, *range(3, 28)]]
    monkeypatch.setattr(TraceDualSpec, "parity_rows", lambda self: swapped)
    with pytest.raises(InvalidParameters, match="cyclic shift"):
        designs._rank_supports(trace_dual(27, 12), 4)
    monkeypatch.setattr(designs, "require_cyclic", lambda mat, field: None)
    with pytest.raises(InvalidParameters, match="not rotation-closed"):
        designs._rank_supports(trace_dual(27, 12), 4)


def test_orbit_reduction_needs_the_frobenius_multiplier(monkeypatch):
    # i -> 5 i mod 28 is no automorphism of C_(27,28,3,12): its orbits of
    # the hits through 0 are not even rotation-closed
    monkeypatch.setattr(designs, "_multipliers", lambda n, p: [pow(5, j, n) for j in range(6)])
    for k in (4, 5):
        with pytest.raises(InvalidParameters, match="not rotation-closed"):
            designs._rank_supports(trace_dual(27, 12), k)
