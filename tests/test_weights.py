import itertools
from math import gcd

import numpy as np
import pytest

from codebench import _kernels as kernels
from codebench import weights as weights_mod
from codebench.codes import (
    CodeSpec,
    LinearCode,
    TraceDualSpec,
    bch_build,
    orthogonal,
    rank,
    trace_dual,
    valid_instances,
)
from codebench.cyclotomic import multiplicative_order
from codebench.errors import (
    BudgetExceeded,
    DegenerateDimension,
    InvalidParameters,
    NonIntegerResult,
)
from codebench.galois import factorize, field_new, prime_power
from codebench.subfield import report_tables, table_rows
from codebench.verify import run_suite
from codebench.weights import (
    WeightDistribution,
    classify,
    dual_distribution,
    enumerator_formula,
    macwilliams,
    verify_four_weight,
    weight_distribution,
)


def brute_weight_counts(code):
    """Independent oracle: enumerate all messages with itertools."""
    f, q, k, n = code.field, code.q, code.k, code.n
    counts = [0] * (n + 1)
    for msg in itertools.product(range(q), repeat=k):
        word = np.zeros(n, dtype=np.int64)
        for c, row in zip(msg, code.gen_matrix):
            if c:
                word = f.add_arr(word, f.mul_arr(c, row))
        counts[int((word != 0).sum())] += 1
    return tuple(counts)


def test_zero_code_distribution():
    f = field_new(3, 1)
    z = LinearCode(f, 4, np.zeros((0, 4), dtype=np.int64))
    wd = weight_distribution(z)
    assert wd.counts == (1, 0, 0, 0, 0)
    assert wd.d() is None


def test_kernel_matches_brute_force_small():
    rng = np.random.default_rng(7)
    from codebench.codes import rref

    for q, p, m in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2)]:
        f = field_new(p, m)
        for _ in range(3):
            n = int(rng.integers(4, 8))
            raw = rng.integers(0, q, size=(3, n))
            R, _ = rref(raw, f)
            if R.shape[0] == 0:
                continue
            code = LinearCode(f, n, R)
            wd = weight_distribution(code)
            assert wd.counts == brute_weight_counts(code)


def test_dual_distribution_q9_golden():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    wd = weight_distribution(code.dual())
    assert wd.nonzero() == {0: 1, 6: 240, 8: 2160, 9: 2000, 10: 2160}
    assert sum(wd.counts) == 6561


def test_dual_distribution_q16_golden():
    code = bch_build(CodeSpec(q=16, n=17, delta=3, h=6))
    wd = weight_distribution(code.dual())
    assert wd.nonzero() == {0: 1, 12: 1020, 15: 24480, 16: 15555, 17: 24480}
    assert sum(wd.counts) == 65536


def test_macwilliams_full_space_gf2():
    wd = WeightDistribution(n=3, q=2, k=3, counts=(1, 3, 3, 1))
    assert macwilliams(wd).counts == (1, 0, 0, 0)


def test_macwilliams_gives_a4_240():
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=3))
    dual_wd = weight_distribution(code.dual())
    primal = macwilliams(dual_wd)
    assert primal.counts[:5] == (1, 0, 0, 0, 240)


def test_macwilliams_involution_random():
    rng = np.random.default_rng(3)
    from codebench.codes import rref

    done = 0
    while done < 10:
        q = int(rng.choice([2, 3, 4, 5]))
        f = field_new(*prime_power(q))
        n = int(rng.integers(3, 9))
        raw = rng.integers(0, q, size=(int(rng.integers(1, 5)), n))
        R, _ = rref(raw, f)
        if R.shape[0] in (0, n):
            continue
        code = LinearCode(f, n, R)
        wd = weight_distribution(code)
        assert macwilliams(macwilliams(wd)).counts == wd.counts
        done += 1


def test_macwilliams_rejects_impossible_distribution():
    # three weight-1 words cannot span a [3,2] binary code
    wd = WeightDistribution(n=3, q=2, k=2, counts=(1, 3, 0, 0))
    with pytest.raises(NonIntegerResult):
        macwilliams(wd)


def test_distribution_validation():
    with pytest.raises(InvalidParameters):
        WeightDistribution(n=2, q=2, k=1, counts=(0, 1, 1))
    with pytest.raises(InvalidParameters):
        WeightDistribution(n=2, q=2, k=1, counts=(1, 1, 1))


def test_classify_golden():
    cls = classify(bch_build(CodeSpec(8, 9, 3, 3)))
    assert (cls.label, cls.d, cls.d_dual) == ("MDS", 5, 6)
    cls = classify(bch_build(CodeSpec(9, 10, 3, 3)))
    assert (cls.label, cls.d, cls.d_dual) == ("NMDS", 4, 6)
    cls = classify(bch_build(CodeSpec(16, 17, 3, 6)))
    assert (cls.label, cls.d, cls.d_dual) == ("AMDS-not-NMDS", 4, 12)
    assert cls.to_json_dict() == {"label": "AMDS-not-NMDS", "d": 4, "d_dual": 12}


def test_verify_four_weight_q27():
    rep = verify_four_weight(bch_build(CodeSpec(27, 28, 3, 12)))  # i = 1
    assert rep["weights"] == [24, 26, 27, 28]
    rep = verify_four_weight(bch_build(CodeSpec(27, 28, 3, 9)))  # i = 2, m = gcd(2,3) = 1
    assert rep["weights"] == [24, 26, 27, 28]
    assert rep["formula_match"] is True


def test_verify_four_weight_degenerate():
    with pytest.raises(DegenerateDimension):
        verify_four_weight(bch_build(CodeSpec(9, 10, 3, 4)))


def test_verify_four_weight_needs_a_delta_3_family_length_code():
    for spec in (CodeSpec(9, 10, 4, 3), CodeSpec(9, 20, 3, 3)):
        with pytest.raises(InvalidParameters, match="needs a built C_"):
            verify_four_weight(bch_build(spec))


def test_enumerator_formula_golden():
    wd = enumerator_formula(9, 3)
    assert wd.nonzero() == {0: 1, 6: 240, 8: 2160, 9: 2000, 10: 2160}
    wd = enumerator_formula(16, 4)
    assert wd.nonzero() == {0: 1, 12: 1020, 15: 24480, 16: 15555, 17: 24480}
    for q, p_m in [(9, 3), (27, 3), (16, 4), (25, 5), (243, 3)]:
        assert sum(enumerator_formula(q, p_m).counts) == q**4


def test_enumerator_formula_validation():
    with pytest.raises(InvalidParameters):
        enumerator_formula(16, 2)  # p^m < 3
    with pytest.raises(InvalidParameters):
        enumerator_formula(16, 3)  # mixed characteristic
    with pytest.raises(InvalidParameters):
        enumerator_formula(9, 9)  # m = s is not proper


def test_trace_dual_weight_distribution_route():
    td = trace_dual(16, 6)
    assert td.weight_distribution().counts == enumerator_formula(16, 4).counts


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_trace_dual_orbit_route_matches_kernel(q):
    # the orbit route against the generic enumeration of all projective
    # messages; for p^m = 2 the closed form does not apply and this is the
    # only independent check
    for family, i, h in valid_instances(q):
        td = trace_dual(q, h)
        want = kernels.weight_counts(td.basis_matrix(), td.field)
        assert td.weight_distribution().counts == tuple(want.tolist()), (family, i, h)


def small_trace_duals():
    """Every trace dual with q <= 9, 3 <= n < 30 and q^m <= 1000."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(3, 30):
            if gcd(n, q) != 1 or q ** multiplicative_order(q, n) > 1000:
                continue
            for h in range(n):
                try:
                    out.append(trace_dual(q, h, n))
                except DegenerateDimension:
                    pass
    return out


def test_trace_dual_reduces_the_side_with_fewer_orbits(monkeypatch):
    # the reversal i -> -i maps c_(a,b) for h onto c_(b,a) for n-1-h, so
    # the b side is reduced through the kernel at n-1-h
    offsets = []
    orbit_counts = kernels.trace_orbit_counts
    monkeypatch.setattr(kernels, "trace_orbit_counts",
                        lambda big, q, n, t: offsets.append(t) or orbit_counts(big, q, n, t))
    tds = small_trace_duals()
    assert len(tds) == 407
    for td in tds:
        g_a, g_b = td.orbit_counts()
        want = kernels.weight_counts(td.basis_matrix(), td.field)
        assert td.weight_distribution().counts == tuple(want.tolist()), (td.q, td.n, td.h)
        assert offsets.pop() == (td.n - 1 - td.h if g_b < g_a else td.h)
        assert td.enumeration_cost() == (min(g_a, g_b) + 1) * td.big.q
    assert sum(b < a for a, b in map(TraceDualSpec.orbit_counts, tds)) == 45


def _dual_kernel_counts(code):
    dual = code.dual()
    return tuple(kernels.weight_counts(dual.gen_matrix, dual.field).tolist())


@pytest.mark.parametrize("q", [q for q in range(4, 28) if len(factorize(q)) == 1])
def test_orbit_route_matches_kernel_every_h(q, monkeypatch):
    # every C_(q,q+1,3,h) with two distinct cosets of size 2: the orbit
    # counts against the generic kernel over the algebraic dual, and the
    # chooser's distribution against the transform of those kernel counts
    calls = []
    orbit_counts = kernels.trace_orbit_counts
    monkeypatch.setattr(kernels, "trace_orbit_counts",
                        lambda *a: calls.append(a) or orbit_counts(*a))
    for h in range(q + 1):
        try:
            td = trace_dual(q, h)
        except DegenerateDimension:
            continue
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        want = _dual_kernel_counts(code)
        assert td.weight_distribution().counts == want, h
        before = len(calls)
        wd = weight_distribution(code)
        assert wd.counts == macwilliams(WeightDistribution(q + 1, q, 4, want)).counts, h
        # the chooser takes the orbit route exactly when it is strictly cheapest
        cheapest = td.enumeration_cost() < min(code.enumeration_cost(),
                                               kernels.projective_count(q, 4) + 1)
        assert (len(calls) > before) == cheapest, h


SUBFIELD_ROWS = {(row[0], row[1]): row for row in table_rows()}


@pytest.mark.parametrize("label,s", [
    ("binary", 4), ("binary", 5), ("quaternary", 2), ("quaternary", 4),
    ("ternary", 2), ("ternary", 3),
    pytest.param("quaternary", 6, marks=pytest.mark.slow),
])
def test_orbit_route_matches_kernel_on_subfield_rows(label, s):
    # C_(p^t, n, 3, h) with n = p^s + 1 and m = ord_n(p^t) = 2s/t > 2
    _label, _s, t, parent_q, h, *_rest = SUBFIELD_ROWS[label, s]
    p, _ = prime_power(parent_q)
    spec = CodeSpec(q=p**t, n=parent_q + 1, delta=3, h=h)
    td = trace_dual(spec.q, spec.h, spec.n)
    assert td.m == 2 * s // t
    assert td.weight_distribution().counts == _dual_kernel_counts(bch_build(spec))


@pytest.mark.parametrize("bad", ["h+2", "repeated"])
def test_orbit_route_needs_proven_dual_basis(bad, monkeypatch):
    # a trace basis of full rank that is not orthogonal to the code
    # (exponent h+2 in place of h+1; C_3 is another coset of size 2), or
    # one orthogonal but of rank m < n-k (the b rows repeat the a rows),
    # must fail the check and fall back to the kernel
    code = bch_build(CodeSpec(q=9, n=10, delta=3, h=1))
    td = trace_dual(9, 1)
    assert orthogonal(code.gen_matrix, td.basis_matrix(), code.field)
    order = td.big.q - 1
    if bad == "h+2":
        td._bh1 = td.big.exp[(order // td.n) * (td.h + 2) * np.arange(td.n) % order]
        assert rank(td.basis_matrix(), code.field) == 4
        assert not orthogonal(code.gen_matrix, td.basis_matrix(), code.field)
    else:
        td._bh1 = td._bh
        assert rank(td.basis_matrix(), code.field) == 2
        assert orthogonal(code.gen_matrix, td.basis_matrix(), code.field)

    def refuse(*args):
        raise AssertionError("orbit kernel ran on an unproven basis")

    monkeypatch.setattr(weights_mod, "trace_dual", lambda q, h, n: td)
    monkeypatch.setattr(kernels, "trace_orbit_counts", refuse)
    want = macwilliams(WeightDistribution(10, 9, 4, _dual_kernel_counts(code)))
    assert weight_distribution(code).counts == want.counts


def test_four_weight_suite_needs_proven_dual_basis(monkeypatch):
    # a full-rank trace basis that is not orthogonal to C_(64,65,3,31): the
    # four-weight suite must still verify, through the dual route, without
    # running the orbit kernel on the unproven basis.  At q = 64, h + 2 =
    # 33 = -(h+1) lies in C_(h+1), so exponent h + 4 (C_35 = {35, 30})
    # takes its place
    td = trace_dual(64, 31)
    order = td.big.q - 1
    td._bh1 = td.big.exp[(order // td.n) * (td.h + 4) * np.arange(td.n) % order]
    assert rank(td.basis_matrix(), td.field) == 4
    code = bch_build(CodeSpec(q=64, n=65, delta=3, h=31))
    assert not orthogonal(code.gen_matrix, td.basis_matrix(), code.field)

    def refuse(*args):
        raise AssertionError("orbit kernel ran on an unproven basis")

    kernel_rows = []
    weight_counts = kernels.weight_counts
    monkeypatch.setattr(weights_mod, "trace_dual", lambda q, h, n=None: td)
    monkeypatch.setattr(kernels, "trace_orbit_counts", refuse)
    monkeypatch.setattr(kernels, "weight_counts",
                        lambda rows, field: kernel_rows.append(len(rows)) or weight_counts(rows, field))
    res = run_suite("thm3.1", q=64, i=1)
    assert res.ok, res.failures()
    assert kernel_rows == [4]  # the algebraic dual's generator matrix


@pytest.mark.parametrize("argv", [
    ("thm3.1", 9, 1, None), ("thm3.1", 64, 1, None), ("thm3.4", 9, 1, None),
    ("thm4.1", 9, 1, "q-minus-pi"), ("thm4.1", 9, 1, "pi-minus-1"),
    ("thm4.2", 9, 1, "q-minus-pi"), ("thm4.2", 9, 1, "pi-minus-1"),
], ids=lambda argv: "-".join(map(str, argv)))
def test_suites_count_the_trace_dual_only_after_the_proof(argv, monkeypatch):
    # every call of the orbit-route counter follows an orthogonality and a
    # rank check of the trace basis made since the previous call
    events = []

    def spy(name, fn):
        return lambda *args, **kw: events.append(name) or fn(*args, **kw)

    monkeypatch.setattr(weights_mod, "orthogonal", spy("orthogonal", orthogonal))
    monkeypatch.setattr(weights_mod, "rank", spy("rank", rank))
    monkeypatch.setattr(TraceDualSpec, "weight_distribution",
                        spy("count", TraceDualSpec.weight_distribution))
    theorem, q, i, family = argv
    assert run_suite(theorem, q=q, i=i, family=family).ok
    assert "count" in events
    while "count" in events:
        proof, events = events[: events.index("count")], events[events.index("count") + 1 :]
        assert proof[-2:] == ["orthogonal", "rank"], argv


@pytest.mark.parametrize("q", [q for q in range(4, 28) if len(factorize(q)) == 1])
def test_dual_distribution_matches_kernel_on_algebraic_dual(q):
    for family, i, h in valid_instances(q):
        code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
        assert dual_distribution(code).counts == _dual_kernel_counts(code), (family, i, h)


@pytest.mark.parametrize("spec", [CodeSpec(4, 15, 4, 1), CodeSpec(2, 15, 4, 1)],
                         ids=["dual-route", "direct-route"])
def test_dual_distribution_of_a_non_family_code(spec):
    # the [15, 9] code over GF(4) counts its dual directly; the binary
    # [15, 7] code counts itself and transforms once
    code = bch_build(spec)
    assert dual_distribution(code).counts == _dual_kernel_counts(code)
    assert dual_distribution(code).k == code.n - code.k


def test_orbit_route_charge():
    # (g_a, g_b) = (gcd(28, 26 h), gcd(28, 26 (h+1))), and the route costs
    # (min(g_a, g_b) + 1) 27^2, below the dual's 27^3 + 27^2 + 27 + 2
    # projective messages: h = 12 reduces b, h = 6 reduces a
    for h, sides, charge in ((12, (4, 2), 2187), (6, (4, 14), 3645)):
        code = bch_build(CodeSpec(q=27, n=28, delta=3, h=h))
        td = trace_dual(27, h)
        assert td.orbit_counts() == sides
        assert (td.orbit_count(), td.enumeration_cost()) == (min(sides), charge)
        with pytest.raises(BudgetExceeded, match=f"trace orbit={charge}"):
            weight_distribution(code, budget=charge - 1)
        assert weight_distribution(code, budget=charge).d() == 4
    (row,) = report_tables([SUBFIELD_ROWS["ternary", 4]], budget=100)
    assert row.params is None and "trace orbit=531441" in row.skipped


def test_distribution_csv():
    wd = weight_distribution(bch_build(CodeSpec(9, 10, 3, 3)).dual())
    csv = wd.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "i,A_i"
    assert len(lines) == 6  # header + five nonzero rows
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 6561


def test_amds_duals_have_no_weight_qminus2_words():
    # the closed-form derivation needs A_(q-2) = 0 whenever p^m >= 3
    for q, h in [(9, 3), (16, 6), (27, 12), (27, 4)]:
        wd = trace_dual(q, h).weight_distribution()
        assert wd.counts[q - 2] == 0


def test_classification_matches_paper_instances_q_le_64():
    # MDS family instances (gcd(i,s)=1, p=2)
    mds = [(4, 1), (8, 3), (8, 2), (16, 7), (16, 4), (32, 15), (32, 14),
           (32, 12), (32, 8), (64, 31), (64, 16)]
    for q, h in mds:
        cls = classify(bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)))
        assert cls.label == "MDS" and cls.d == 5 and cls.d_dual == q - 2, (q, h, cls)
    # AMDS instances with p^m >= 3: (q, h, p^m)
    amds = [(16, 6, 4), (25, 10, 5), (25, 2, 5), (49, 21, 7), (49, 3, 7),
            (64, 30, 4), (64, 24, 4)]
    for q, h, p_m in amds:
        cls = classify(bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)))
        want = "NMDS" if p_m == 3 else "AMDS-not-NMDS"
        assert cls.label == want and cls.d == 4 and cls.d_dual == q - p_m, (q, h, cls)
    # NMDS family over GF(3^s)
    nmds = [(9, 3), (9, 1), (27, 12), (27, 9), (27, 1), (27, 4)]
    for q, h in nmds:
        cls = classify(bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)))
        assert cls.label == "NMDS" and cls.d == 4 and cls.d_dual == q - 3, (q, h, cls)


@pytest.mark.slow
def test_enumerator_formula_matches_at_s5_scale():
    # the orbit-route distribution of the q=243 dual against the closed form
    # and against the generic kernel over all q^3+q^2+q+1 projective messages
    td = trace_dual(243, 4)
    wd = td.weight_distribution()
    assert wd.counts == enumerator_formula(243, 3).counts
    want = kernels.weight_counts(td.basis_matrix(), td.field)
    assert wd.counts == tuple(want.tolist())
