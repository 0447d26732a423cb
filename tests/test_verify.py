import tracemalloc

import numpy as np
import pytest

from codebench.cli import main
from codebench.codes import TraceDualSpec
from codebench.errors import WorkbenchError
from codebench.verify import (
    family_offset,
    run_suite,
    valid_instances,
    verify_cor32,
    verify_cor33,
    verify_thm31,
    verify_thm34,
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
    codewords = TraceDualSpec.codewords

    def corrupted(self, budget=None):
        words = codewords(self, budget=budget)
        corrupt(words)
        return words

    monkeypatch.setattr(TraceDualSpec, "codewords", corrupted)
    assert [a.name for a in verify_thm31(9, 1).failures()] == failing


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
    # the trace and dual words, chunked comparisons; a third q^4 x n array
    # (one-step gather of the dual words) would reach about 3.4 x
    assert peak < 2.75 * words_bytes, peak / words_bytes
