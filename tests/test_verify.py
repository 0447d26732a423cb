import tracemalloc
from math import gcd

import numpy as np
import pytest

from codebench import designs, verify, weights
from codebench import diophantine as dio
from codebench.cli import main
from codebench.codes import (
    CodeSpec,
    LinearCode,
    TraceDualSpec,
    bch_build,
    family_offset,
    rref,
    trace_dual,
    valid_instances,
)
from codebench.errors import InvalidParameters, WorkbenchError
from codebench.galois import Field, factorize
from codebench.verify import (
    VerificationResult,
    run_suite,
    verify_cor32,
    verify_cor33,
    verify_thm31,
    verify_thm34,
    verify_thm35,
    verify_thm36,
    verify_thm42,
)


def test_family_offsets():
    assert family_offset(9, 1, "q-minus-pi") == 3
    assert family_offset(9, 1, "pi-minus-1") == 1
    assert family_offset(27, 2, "pi-minus-1") == 4
    assert family_offset(16, 2, "q-minus-pi") == 6
    with pytest.raises(WorkbenchError):
        family_offset(9, 2, "q-minus-pi")  # i = s
    with pytest.raises(WorkbenchError):
        family_offset(16, 1, "pi-minus-1")  # even p


def test_valid_instances():
    assert valid_instances(9) == [("q-minus-pi", 1, 3), ("pi-minus-1", 1, 1)]
    assert [h for _, _, h in valid_instances(16)] == [7, 6, 4]


def _gen_poly(q, h):
    return bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)).gen_poly.coeffs


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
def test_reversed_offsets_share_the_generator_polynomial(q):
    # q = -1 mod q+1, so C_h and C_(q-h) have the zeros {+-h, +-(h+1)}
    for h in range(q + 1):
        assert _gen_poly(q, h) == _gen_poly(q, q - h), (q, h)


def _thm35_per_offset(q):
    """The thm3.5 suite with one distance enumeration for every h."""
    res = VerificationResult("thm3.5", {"q": q})
    for h in range(q + 1):
        d = weights.weight_distribution(bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))).d()
        if d is None:
            raise InvalidParameters("zero code has no minimum distance")
        res.check(f"h={h}: d==3 iff gcd>1", gcd(2 * h + 1, q + 1) > 1, d == 3)
    return res


@pytest.mark.parametrize("q", [16, 27, 49])
def test_thm35_enumerates_one_distance_per_generator_polynomial(q, monkeypatch):
    want = _thm35_per_offset(q).to_json_dict()
    polys = {_gen_poly(q, h) for h in range(q + 1)}
    assert len(polys) == q // 2 + 1
    # the route builds no code and counts no distribution: it scans the
    # parity rows of each distinct code, once, in one stack
    stacks = []
    real = weights.kernels.scan_supports

    def spy(H, combos, field2):
        stacks.append((len(H), combos.shape[1]))
        return real(H, combos, field2)

    def refuse(*args, **kwargs):
        raise AssertionError("thm3.5 builds a code or counts a distribution")

    monkeypatch.setattr(weights.kernels, "scan_supports", spy)
    monkeypatch.setattr(verify, "bch_build", refuse)
    monkeypatch.setattr(weights, "_enumerate", refuse)
    assert verify_thm35(q).to_json_dict() == want
    assert stacks[0] == (len(polys), 2)  # the pairs of every distinct code
    assert all(s == 3 for _, s in stacks[1:])


def _thm35_oracle_or_error(q):
    try:
        return _thm35_per_offset(q).to_json_dict()
    except WorkbenchError as exc:
        return str(exc)


def _thm35_or_error(q):
    try:
        return verify_thm35(q).to_json_dict()
    except WorkbenchError as exc:
        return str(exc)


@pytest.mark.parametrize("q", [q for q in range(2, 82) if len(factorize(q)) == 1] + [
    pytest.param(343, marks=pytest.mark.slow)])
def test_thm35_route_equals_one_distance_per_offset(q):
    # at q = 2 the h = 0 code is the zero code, refused alike by both
    assert _thm35_or_error(q) == _thm35_oracle_or_error(q)


def _blind_to_code(q, h):
    """A scan_supports that reports no dependent triple for the code of h."""
    real = weights.kernels.scan_supports
    row = trace_dual(q, h).parity_rows()[0]

    def scan(H, combos, field2):
        flags, nulls = real(H, combos, field2)
        if combos.shape[1] == 3:
            stack = np.asarray(H).reshape(-1, *np.shape(H)[-2:])
            flags.reshape(len(stack), -1)[(stack[:, 0] == row).all(axis=1)] = 0
        return flags, nulls

    return scan


def test_thm35_fails_when_a_dependent_triple_is_missed(monkeypatch, capsys):
    # gcd(7, 28) = 7: the code of h = 3 (and of h = 24, the same code) has
    # d = 3; blind to its triples, the route decides d > 3
    monkeypatch.setattr(weights.kernels, "scan_supports", _blind_to_code(27, 3))
    assert main(["verify", "thm3.5", "--q", "27"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if "[FAIL]" in line]
    assert failed == [f"  [FAIL] h={h}: d==3 iff gcd>1 (expected True, got False)"
                      for h in (3, 24)]
    assert out.endswith("FALSIFIED\n")


@pytest.mark.parametrize("flag", [2, 3])
def test_thm35_refuses_a_light_triple_after_the_pair_scan(flag, monkeypatch):
    # the pairs ruled out weight <= 2, so a triple whose nullvector has a
    # zero entry, or whose nullity is >= 2, contradicts the pair scan
    real = weights.kernels.scan_supports

    def scan(H, combos, field2):
        flags, nulls = real(H, combos, field2)
        if combos.shape[1] == 3:
            flags[-1] = flag
        return flags, nulls

    monkeypatch.setattr(weights.kernels, "scan_supports", scan)
    with pytest.raises(InvalidParameters, match="no pair is dependent"):
        verify_thm35(27)


def test_thm35_budget_charge(capsys):
    # 14 distinct codes, each scanned on its 27 pairs through 0 and the 23
    # triple representatives of the maps i -> 3^j i + c on Z_28
    reps = designs._triple_orbit_least(28, designs._multipliers(28, 3))
    assert sum(map(len, reps)) == 23
    charge = 14 * (27 + 23)
    argv = ("verify", "thm3.5", "--q", "27")
    assert main(["--budget", str(charge - 1), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: enumeration of {charge} items exceeds budget {charge - 1}\n")
    assert main(["--budget", str(charge), *argv]) == 0
    assert capsys.readouterr().out.endswith("VERIFIED\n")


@pytest.mark.parametrize("theorem,q", [("thm3.1", 16), ("thm3.4", 27)])
def test_four_weight_cross_check_is_charged_before_the_count(theorem, q, capsys, monkeypatch):
    # the q <= 32 cross-check enumerates all q^4 trace words; a budget that
    # cannot hold them is refused before the distribution is counted, also
    # below the orbit route's charge
    def refuse(*args, **kwargs):
        raise AssertionError("the distribution was counted")

    monkeypatch.setattr(verify, "verify_four_weight", refuse)
    argv = ("verify", theorem, "--q", str(q), "--i", "1")
    for budget in (100, q**4 - 1):
        assert main(["--budget", str(budget), *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"budget exceeded: enumeration of {q**4} items exceeds budget {budget}\n")
    monkeypatch.undo()
    assert main(["--budget", str(q**4), *argv]) == 0
    assert capsys.readouterr().out.endswith("VERIFIED\n")


def test_suite_thm36_amds():
    res = verify_thm36(25, 1, "q-minus-pi")
    assert res.ok
    res = verify_thm36(25, 1, "pi-minus-1")
    assert res.ok
    # p^m = 2 falls outside the AMDS statement
    res = verify_thm36(16, 1, "q-minus-pi")
    assert not res.ok


def test_suite_cor32_and_cor33_preconditions():
    assert verify_cor32(2, 1, "pi-minus-1").ok
    assert verify_cor32(2, 1, "q-minus-pi").ok
    assert not verify_cor33(2).ok  # even s rejected with a failed assertion


def test_suite_thm42_family2():
    res = verify_thm42(9, 1, "pi-minus-1")
    assert res.ok
    assert not verify_thm42(16, 2, "q-minus-pi").ok  # p != 3


def test_run_suite_dispatch_subfield_rows():
    assert run_suite("thm5.3", s=2).ok
    assert run_suite("thm5.2", s=4).ok
    assert run_suite("thm5.1", s=5).ok


def test_run_suite_thm43():
    assert run_suite("thm4.3", q=9, i=1, family="q-minus-pi").ok


def test_run_suite_errors():
    with pytest.raises(WorkbenchError):
        run_suite("thm9.9")
    with pytest.raises(WorkbenchError):
        run_suite("thm3.1", q=9)  # missing i


def test_result_serialization():
    res = run_suite("cor3.1", s=3, i=1)
    payload = res.to_json_dict()
    assert payload["ok"] is True
    assert payload["theorem"] == "cor3.1"
    assert all(set(a) == {"name", "passed", "expected", "actual"}
               for a in payload["assertions"])


def _change_last_nonzero_entry(words):
    # the dual's pivots are its first 4 coordinates, an information set of
    # every cyclic [n, 4] code, so the last one is no pivot
    r = np.flatnonzero(words[:, -1])[0]
    words[r, -1] = words[r, -1] % 8 + 1


def _repeat_row_3(words):
    words[7] = words[3]


def _swap_rows_0_1(words):
    words[[0, 1]] = words[[1, 0]]


@pytest.mark.parametrize("corrupt,failing", [
    (_change_last_nonzero_entry, ["trace image equals algebraic dual"]),
    (_repeat_row_3, ["trace image size", "trace image equals algebraic dual",
                     "wt(c_(a,b)) = q+1 - N(a,b) for all (a,b)"]),
    (_swap_rows_0_1, ["wt(c_(a,b)) = q+1 - N(a,b) for all (a,b)"]),
])
def test_four_weight_suite_flags_corrupted_trace_words(monkeypatch, corrupt, failing):
    block = TraceDualSpec.packed_block

    def corrupted(self, lo, hi):
        packed = block(self, lo, hi)
        if lo == 0:  # at q = 9 the first chunk holds every word
            lanes = self.field.lanes(self.n)
            words = lanes.unpack(packed)
            corrupt(words)
            packed = lanes.pack(words)
        return packed

    monkeypatch.setattr(TraceDualSpec, "packed_block", corrupted)
    assert [a.name for a in verify_thm31(9, 1).failures()] == failing


CROSS_CHECKS = (
    "trace image size",
    "trace image equals algebraic dual",
    "wt(c_(a,b)) = q+1 - N(a,b) for all (a,b)",
)


def _materialised_cross_checks(q, h, words):
    """The three cross-checks on the whole word set: the algebraic dual's
    q^4 words are built from its RREF basis R, so row sum m_j q^(3-j) holds
    message m and carries it at the pivot columns, and each trace word's
    pivot digits index the dual word it must equal."""
    dual = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h)).dual()
    R, pivots = rref(dual.gen_matrix, dual.field)
    idx = words[:, pivots] @ q ** np.arange(len(pivots) - 1, -1, -1)
    hits = np.bincount(idx, minlength=q**4)
    size = int(np.count_nonzero(hits))
    dual_words = LinearCode(dual.field, dual.n, R).codewords()
    step = 1 << 16
    equal = bool((hits == 1).all()) and all(
        np.array_equal(dual_words[idx[lo : lo + step]], words[lo : lo + step])
        for lo in range(0, len(words), step)
    )
    counts = dio.unit_solution_counts(q, h)
    weights_ok = bool(np.array_equal(np.count_nonzero(words, axis=1), (q + 1) - counts))
    return [(CROSS_CHECKS[0], size == q**4, size), (CROSS_CHECKS[1], equal, None),
            (CROSS_CHECKS[2], weights_ok, None)]


def _streamed_cross_checks(q, i, family):
    res = verify._four_weight_suite("thm", q, i, family, None)
    return [(a.name, a.passed, a.actual) for a in res.assertions if a.name in CROSS_CHECKS]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_streamed_cross_checks_equal_materialised_ones(q):
    for family, i, h in valid_instances(q):
        want = _materialised_cross_checks(q, h, trace_dual(q, h).codewords())
        assert _streamed_cross_checks(q, i, family) == want, (q, i, family)


def _change_pivot_entry(words, r):
    words[r, 0] = words[r, 0] % 8 + 1


def _change_last_entry(words, r):
    words[r, -1] = (words[r, -1] + 1) % 9


def _repeat_first_row(words, r):
    words[r] = words[1]


def _swap_with_first_chunk(words, r):
    words[[2, r]] = words[[r, 2]]


@pytest.mark.parametrize("corrupt", [
    _change_pivot_entry, _change_last_entry, _repeat_first_row, _swap_with_first_chunk,
])
def test_streamed_cross_checks_see_corruption_past_the_first_chunk(monkeypatch, corrupt):
    q, i, family = 9, 1, "q-minus-pi"
    h = family_offset(q, i, family)
    q2 = q * q
    # two values of a per chunk; row r = 13 q^2 + 5 lies in the seventh chunk
    monkeypatch.setattr(verify, "_CHUNK_ELEMS", 2 * q2 * (q + 1))
    td = trace_dual(q, h)
    words = td.codewords()
    corrupt(words, 13 * q2 + 5)
    packed = td.field.lanes(td.n).pack(words)
    monkeypatch.setattr(TraceDualSpec, "packed_block",
                        lambda self, lo, hi: packed[:, lo * q2 : min(hi, q2) * q2].copy())
    got = _streamed_cross_checks(q, i, family)
    assert got == _materialised_cross_checks(q, h, words)
    assert not all(passed for _, passed, _ in got)


def test_cross_checks_build_no_dense_table_of_the_big_field(monkeypatch, capsys):
    # nor of GF(q): no dense table of any field, on the suites' paths and
    # on the distribution chooser's
    for name in ("add_table", "mul_table", "neg_table", "inv_table"):
        def guarded(self, _name=name):
            raise AssertionError(f"dense {_name} table of {self!r}")

        monkeypatch.setattr(Field, name, guarded)
    assert verify_thm31(27, 1).ok
    assert verify_thm34(27, 1).ok
    assert verify_thm31(32, 1).ok
    # weight_counts on the dual route of a [10, 7] code, and the trace
    # orbit route of the dual of a [10, 6] code over GF(9)
    assert main(["wdist", "--q", "9", "--h", "0"]) == 0
    assert main(["wdist", "--q", "9", "--h", "3", "--side", "dual"]) == 0
    assert capsys.readouterr().out.count("over GF(9)") == 2


def test_four_weight_suite_at_q32(capsys):
    # 2^20 words, the largest size the suite cross-checks word by word
    assert main(["verify", "thm3.1", "--q", "32", "--i", "1"]) == 0
    assert "trace image equals algebraic dual" in capsys.readouterr().out


def test_four_weight_suite_memory_at_q27():
    q = 27
    assert verify_thm34(q, 1).ok  # warms the field caches
    tracemalloc.start()
    try:
        assert verify_thm34(q, 1).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words_bytes = q**4 * (q + 1) * 4
    # words_bytes is all q^4 words as int32; the streamed checks hold a few
    # chunks of them, the q^4 int64 counts N(a,b) and a q^4 boolean of marks
    assert peak < 1.25 * words_bytes, peak / words_bytes


def test_trace_image_checks_memory_at_q32():
    # one q^4-entry boolean of marks (1 MiB) and chunks of about 2^18 word
    # entries; the q^4 int64 names and their bincount took 17 MB
    q, h = 32, family_offset(32, 1, "q-minus-pi")
    code = bch_build(CodeSpec(q=q, n=q + 1, delta=3, h=h))
    counts = dio.unit_solution_counts(q, h)
    want = verify._trace_image_checks(code, counts, None)  # warms the caches
    tracemalloc.start()
    try:
        got = verify._trace_image_checks(code, counts, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == (q**4, True, True)
    assert peak < 4 * 2**20, peak
