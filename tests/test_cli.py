import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codebench
from codebench import galois
from codebench.cli import main
from codebench.errors import count_text
from codebench.weights import enumerator_formula


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_field_json(capsys):
    code, out = run(capsys, "--format", "json", "field", "3", "2")
    assert code == 0
    assert json.loads(out) == {"p": 3, "m": 2, "modulus": [2, 1, 1]}


def test_coset_single(capsys):
    code, out = run(capsys, "--format", "json", "coset", "10", "9", "--s", "3")
    assert code == 0
    assert json.loads(out) == [{"n": 10, "q": 9, "leader": 3, "members": [3, 7]}]


def test_coset_csv_partition(capsys):
    code, out = run(capsys, "--format", "csv", "coset", "33", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q,leader,size,members"
    assert sum(int(line.split(",")[3]) for line in lines[1:]) == 33


def test_build_json(capsys):
    code, out = run(capsys, "--format", "json", "build", "9", "10", "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["q"], payload["n"], payload["k"]) == (9, 10, 6)
    assert payload["family"] == "q-minus-pi"


def test_build_words_dump(capsys):
    code, out = run(capsys, "build", "3", "10", "3", "3", "--words")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9  # 3^2 codewords of the [10,2] ternary code
    assert all(len(line.split()) == 10 for line in lines)


def test_wdist_dual_csv(capsys):
    code, out = run(capsys, "--format", "csv", "wdist", "--q", "9", "--h", "3",
                    "--side", "dual")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,A_i"
    assert len(lines) == 6  # five nonzero rows
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 6561


def test_wdist_dual_side_takes_the_trace_route(capsys):
    # the dual of the [730, 726] code over GF(729) is counted through the
    # primal code's routes, the trace orbit route among them
    code, out = run(capsys, "wdist", "--q", "729", "--h", "363", "--side", "dual")
    assert code == 0
    nz = ", ".join(f"A_{i}={c}" for i, c in enumerator_formula(729, 3).nonzero().items())
    assert out == f"[730,4] over GF(729): {nz}\n"


def test_back_to_back_calls_share_no_state(capsys):
    argv = ("wdist", "--q", "9", "--h", "3")
    assert main(["--budget", "100", *argv]) == 3
    assert main(list(argv)) == 0
    assert main(["--format", "json", *argv]) == 0
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[1])["counts"][4] == 240
    assert out[0] == out[2] and out[0].startswith("[10,6] over GF(9): A_0=1, A_4=240")


def test_classify_json(capsys):
    code, out = run(capsys, "--format", "json", "classify", "--q", "9", "--h", "3")
    assert code == 0
    assert json.loads(out) == {"label": "NMDS", "d": 4, "d_dual": 6}


def test_design_block_file(capsys):
    code, out = run(capsys, "design", "--q", "9", "--h", "3", "--weight", "4",
                    "--source", "det")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "10 4 30"
    assert len(lines) == 31


def test_design_dual_certificate(capsys):
    code, out = run(capsys, "--format", "json", "design", "--q", "9", "--h", "3",
                    "--weight", "6", "--source", "dual")
    assert code == 0
    assert json.loads(out) == {"n": 10, "k": 6, "t": 3, "lambda": 5, "b": 30,
                               "steiner": False}


def test_subfield_tables_csv(capsys):
    code, out = run(capsys, "--format", "csv", "subfield", "--tables",
                    "--label", "ternary", "--budget", "2000000")
    assert code == 0
    assert "9,3,1,10,2,5,10,8,2" in out


def test_verify_pass_exit0(capsys):
    code, out = run(capsys, "verify", "cor3.1", "--s", "3", "--i", "1")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_json_assertions(capsys):
    code, out = run(capsys, "--format", "json", "verify", "thm3.5", "--q", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["assertions"]) == 5
    assert all(a["passed"] for a in payload["assertions"])


def test_verify_failed_precondition_exit1(capsys):
    # gcd(i, s) != 1 records a failed assertion: falsified run
    code, out = run(capsys, "verify", "cor3.1", "--s", "4", "--i", "2")
    assert code == 1
    assert "FALSIFIED" in out


def test_verify_missing_args_exit2(capsys):
    code, _ = run(capsys, "verify", "cor3.1")
    assert code == 2
    # a table suite with no published row for s has nothing to check
    assert main(["verify", "thm5.1", "--s", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: thm5.1 has no published binary row for s=3; "
                            "published s: 4, 5, 6\n")


def test_unknown_theorem_exit2(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_falsified_design_exit1_with_witness(capsys):
    # weight-5 supports of C_(9,10,3,3) form a 3-design, not a 4-design
    code = main(["design", "--q", "9", "--h", "3", "--weight", "5", "--t", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "falsified: t-subset (0, 1, 2, 6) lies in 0 blocks, expected 2\n"


@pytest.mark.parametrize("argv", [
    ("cor3.3", "--s", "5"),  # the [244,4] dual over GF(243)
    ("thm5.3", "--s", "4"),  # the [82,16] ternary dual, m = 8
])
def test_verify_trace_orbit_instances(argv, capsys):
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")


def test_budget_exceeded_exit3(capsys):
    code, _ = run(capsys, "--budget", "100", "wdist", "--q", "9", "--h", "3")
    assert code == 3


@pytest.mark.parametrize("argv,count", [
    # the [2188, 2182] code has about 10^7284 projective messages and the
    # [2188, 2184] code 10^7294 words, more digits than str() of an int allows
    (("wdist", "--q", "2187", "--h", "1", "--delta", "4"), "min(direct=1.62328e+7284, dual="),
    (("build", "2187", "2188", "3", "1", "--words"), "1.69723e+7294 codewords"),
], ids=["wdist", "build-words"])
def test_budget_exceeded_exit3_for_huge_counts(argv, count, capsys):
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ")
    assert count in err


def test_count_text_switches_to_an_exponent_at_10_pow_50():
    assert count_text(10**50 - 1) == "9" * 50
    assert count_text(10**50) == "1.00000e+50"
    assert count_text(10**7000 - 1) == "9.99999e+6999"


@pytest.mark.parametrize("argv", [
    ("field", "2", "25"),  # GF(2^25) is above the field-size cap
], ids=["field-2-25"])
def test_table_cap_exit3(argv, capsys):
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert "cap exceeded:" in err
    assert "budget exceeded" not in err


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ("thm4.1", "--q", "81", "--i", "1", "--family", "q-minus-pi"),
    ("thm4.2", "--q", "81", "--i", "1", "--family", "q-minus-pi"),
    ("thm4.3", "--q", "81", "--i", "1", "--family", "q-minus-pi"),
    ("thm4.1", "--q", "49", "--i", "1", "--family", "q-minus-pi"),
    ("thm4.3", "--q", "49", "--i", "1", "--family", "q-minus-pi"),
])
def test_verify_designs_q49_q81(argv, capsys):
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ("thm4.3", "--q", "243", "--i", "1", "--family", "q-minus-pi"),
    ("thm4.3", "--q", "256", "--i", "2", "--family", "q-minus-pi"),
])
def test_verify_thm43_q243_q256_default_budget(argv, capsys):
    # the determinant route scans only the C(q, 2) triples through point 0
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")


@pytest.mark.slow
def test_design_q81_weight4_equals_determinant_blocks(capsys):
    from codebench.designs import weight4_blocks_det

    code, out = run(capsys, "design", "--q", "81", "--h", "39", "--weight", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "82 4 22140"
    blocks = [tuple(map(int, line.split())) for line in lines[1:]]
    assert blocks == weight4_blocks_det(81, 39)


# A wrapper interpreter runs the CLI and waits for it, so the peak RSS it
# reads from RUSAGE_CHILDREN is that of the CLI process alone.
_MEASURED = (
    "import json, resource, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "r = subprocess.run([sys.executable, '-m', 'codebench.cli', *sys.argv[1:]],\n"
    "                   capture_output=True, text=True)\n"
    "print(json.dumps([r.returncode, r.stdout, r.stderr, time.perf_counter() - start,\n"
    "                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))\n"
)


def run_measured(*argv):
    """(exit code, stdout, stderr, wall seconds, peak RSS in MiB) of the CLI
    in a fresh interpreter under the default budget."""
    src = str(Path(codebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _MEASURED, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


@pytest.mark.slow
def test_design_q729_weight4_streams_the_orbit_candidates():
    # the rank scan takes its 5,358,802 orbit candidates a chunk at a time;
    # holding them all peaked near 600 MB
    code, out, _err, _wall, rss = run_measured(
        "design", "--q", "729", "--h", "363", "--weight", "4", "--source", "code",
        "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 730, "k": 4, "t": 3, "lambda": 1, "b": 16142490,
                               "steiner": True}
    assert rss < 200, rss


@pytest.mark.slow
@pytest.mark.parametrize("theorem,charge", [
    ("thm4.1", 729**3),  # the dual support words, after the weight-4 scan
    ("thm4.2", 11_671_285_626),  # C(729, 4) weight-5 subsets, after the weight-4 scan
])
def test_design_suites_price_their_phases_before_the_first_scan(theorem, charge):
    # the C(729, 3) weight-4 scan fits the budget; a later phase does not
    code, out, err, wall, _rss = run_measured(
        "verify", theorem, "--q", "729", "--i", "1", "--family", "q-minus-pi")
    assert (code, out) == (3, "")
    assert f"budget exceeded: enumeration of {charge} items exceeds budget {1 << 26}" in (
        err.splitlines())
    assert wall < 2, wall


@pytest.mark.slow
def test_verify_thm35_q729_default_budget():
    # one weight-3 scan per distinct code, over its 7,408 triple
    # representatives: 1.2-1.5 s here (13.5 s when each code's distribution
    # was counted)
    code, out, _err, wall, _rss = run_measured("verify", "thm3.5", "--q", "729")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")
    assert wall < 3, wall


@pytest.mark.slow
@pytest.mark.parametrize("q", ["2048", "2187"])
def test_verify_thm35_q2048_q2187_default_budget(q):
    # 1,025 codes x (2,048 pairs + 31,807 triple representatives) =
    # 34,701,375 subsets charged at q = 2048, and 1,094 x (2,187 + 56,993)
    # = 64,742,920 at q = 2187, under the default 2^26; about 19 s and
    # 31 s here
    code, out, _err, wall, _rss = run_measured("verify", "thm3.5", "--q", q)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")
    assert wall < 60, wall


def test_trace_dual_budget_charge(capsys):
    # h = 31, g = gcd(65, 63 * 31) = 1: the orbit route is charged (g+1) q^2
    charge = 2 * 64**2
    argv = ("verify", "thm3.1", "--q", "64", "--i", "1")
    assert run(capsys, "--budget", str(charge - 1), *argv)[0] == 3
    code, out = run(capsys, "--budget", str(charge), *argv)
    assert code == 0
    assert out.endswith("VERIFIED\n")


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ("thm3.1", "--q", "512", "--i", "1"),
    ("thm3.4", "--q", "729", "--i", "2"),
    ("cor3.2", "--s", "6", "--i", "1", "--family", "pi-minus-1"),
    # above q = 2048, where GF(q) once had a dense add table
    ("cor3.3", "--s", "7"),
    ("thm3.4", "--q", "2187", "--i", "2"),
    ("thm3.1", "--q", "4096", "--i", "1"),
])
def test_verify_large_duals_default_budget(argv, capsys, monkeypatch):
    # the fields built here (GF(2^24) holds about 0.5 GB) leave the caches
    # with the test
    monkeypatch.setattr(galois, "_FIELD_CACHE", dict(galois._FIELD_CACHE))
    monkeypatch.setattr(galois, "_EMBED_CACHE", dict(galois._EMBED_CACHE))
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("VERIFIED\n")


def test_out_file_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--format", "csv", "--out", str(p1), "wdist", "--q", "9",
                 "--h", "3", "--side", "dual"]) == 0
    assert main(["--format", "csv", "--out", str(p2), "wdist", "--q", "9",
                 "--h", "3", "--side", "dual"]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    assert main(["field", "3", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()


@pytest.mark.parametrize("value", ["5", "abc"])
def test_budget_environment_variable_changes_nothing(value, capsys, monkeypatch):
    # a run's budget comes from its argv alone
    argvs = (["verify", "thm3.1", "--q", "9", "--i", "1"], ["field", "3", "2"])
    plain = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setenv("WORKBENCH_BUDGET", value)
    assert [run(capsys, *argv) for argv in argvs] == plain
    assert [code for code, _ in plain] == [0, 0]


def test_cli_threads_smoke(capsys):
    # --threads is accepted and changes nothing; the benchmark's dual-large
    # argvs pass --threads 2
    for argv in (["--format", "csv", "wdist", "--q", "9", "--h", "3", "--side", "dual"],
                 ["verify", "thm3.1", "--q", "128", "--i", "1"]):
        code1, out1 = run(capsys, *argv, "--threads", "2")
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2, argv


def test_cli_verify_thm41_instance(capsys):
    code, out = run(capsys, "verify", "thm4.1", "--q", "16", "--i", "2",
                    "--family", "q-minus-pi")
    assert code == 0
    assert "VERIFIED" in out


def test_subfield_single_subcode(capsys):
    code, out = run(capsys, "--format", "json", "subfield", "--q", "16",
                    "--h", "4", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (17, 9, 7)


def test_design_code_source(capsys):
    code, out = run(capsys, "design", "--q", "9", "--h", "3", "--weight", "5",
                    "--source", "code")
    assert code == 0
    assert out.startswith("10 5 72\n")


@pytest.mark.parametrize("argv, header", [
    (["--q", "9", "--h", "3", "--weight", "5", "--source", "dual"], "10 5 0\n"),
    (["--q", "4", "--h", "1", "--weight", "4", "--source", "det"], "5 4 0\n"),
], ids=["dual-no-weight-5", "det-q4"])
def test_empty_design_header_keeps_the_block_size(argv, header, capsys):
    assert run(capsys, "design", *argv) == (0, header)


def test_design_rank_route_names_the_weight_it_rules_out(capsys):
    # C_(16,17,3,6) is AMDS with d = 4: two independent nullvectors on a
    # 5-subset give a word of weight < 5, not one of weight < 4
    assert main(["design", "--q", "16", "--h", "6", "--weight", "5", "--source", "code"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: parity submatrix with nullity >= 2: "
                            "the code has weight < 5 words\n")


def test_cli_rejects_bad_thread_count(capsys):
    assert main(["--threads", "0", "field", "3", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--budget", "0"]], ids=["budget-0"])
def test_bad_budget_exit2(argv, capsys):
    assert main([*argv, "field", "3", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["field", "2", "0"],
    ["subfield", "--q", "9", "--h", "3", "--t", "0"],
    ["subfield", "--q", "9", "--h", "3", "--t", "-1"],
    ["design", "--q", "9", "--h", "3", "--weight", "4", "--t", "0"],
    ["design", "--q", "9", "--h", "3", "--weight", "4", "--t", "-1"],
    ["--seed", "-1", "verify", "lemmas"],
], ids=["field-m0", "subfield-t0", "subfield-t-neg", "design-t0", "design-t-neg", "seed-neg"])
def test_bad_parameter_exit2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, err", [
    (["coset", "0", "2"], "n=0 and q=2 are not coprime"),
    (["field", "1", "2"], "1 is not a prime"),
    (["build", "9", "0", "3", "3"], "n=0 and q=9 are not coprime"),
    (["wdist", "--q", "9", "--h", "3", "--n", "0"], "n=0 and q=9 are not coprime"),
    (["classify", "--q", "9", "--h", "3", "--n", "3"], "n=3 and q=9 are not coprime"),
    (["coset", "0", "1", "--s", "0"], "need a modulus n >= 1, got n=0"),
    (["coset", "0", "1"], "need a modulus n >= 1, got n=0"),
    (["coset", "-3", "2"], "need a modulus n >= 1, got n=-3"),
    # the suites check s, then q, before they build a code
    (["verify", "cor3.1", "--s", "0", "--i", "1"], "need s >= 1, got s=0"),
    (["verify", "cor3.2", "--s", "0", "--i", "1", "--family", "pi-minus-1"],
     "need s >= 1, got s=0"),
    (["verify", "cor3.3", "--s", "-1"], "need s >= 1, got s=-1"),
    (["verify", "thm5.1", "--s", "0"],
     "thm5.1 has no published binary row for s=0; published s: 4, 5, 6"),
    (["verify", "thm3.5", "--q", "1"], "1 is not a prime power"),
    (["verify", "thm3.5", "--q", "2"], "zero code has no minimum distance"),
    # q is checked before n, delta, h and the dual dimension
    (["build", "1", "2", "3", "0"], "1 is not a prime power"),
    (["wdist", "--q", "1", "--h", "0"], "1 is not a prime power"),
    (["classify", "--q", "0", "--h", "0"], "0 is not a prime power"),
    (["subfield", "--q", "1", "--h", "0", "--t", "1"], "1 is not a prime power"),
    (["design", "--q", "0", "--h", "0", "--weight", "4"], "0 is not a prime power"),
    (["design", "--q", "0", "--h", "0", "--weight", "4", "--source", "det"],
     "0 is not a prime power"),
    (["design", "--q", "0", "--h", "0", "--weight", "4", "--source", "dual"],
     "0 is not a prime power"),
    (["subfield", "--q", "9", "--t", "1"], "--h is required for a single subcode"),
    (["subfield", "--h", "3", "--t", "1"], "--q is required for a single subcode"),
    (["design", "--q", "9", "--h", "3", "--weight", "11"], "need a block size 1 <= k <= 10, got k=11"),
    (["design", "--q", "9", "--h", "3", "--weight", "2"], "need t < k < n, got t=3, k=2, n=10"),
], ids=["coset-n0", "field-p1", "build-n0", "wdist-n0", "classify-n3", "coset-n0-q1-s0",
        "coset-n0-q1", "coset-n-neg", "cor3.1-s0", "cor3.2-s0", "cor3.3-s-neg", "thm5.1-s0",
        "thm3.5-q1", "thm3.5-q2", "build-q1", "wdist-q1", "classify-q0", "subfield-q1",
        "design-q0", "design-det-q0", "design-dual-q0", "subfield-no-h", "subfield-no-q",
        "design-k-above-n", "design-k-below-t"])
def test_usage_error_names_the_values(argv, err, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"
