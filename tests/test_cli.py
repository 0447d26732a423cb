import json

import pytest

from codebench.cli import main


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


@pytest.mark.parametrize("argv", [
    ("verify", "cor3.3", "--s", "7"),  # the dense GF(2187) add table of weight_counts
    ("field", "2", "25"),  # GF(2^25) is above the field-size cap
])
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
def test_design_q81_weight4_equals_determinant_blocks(capsys):
    from codebench.designs import weight4_blocks_det

    code, out = run(capsys, "design", "--q", "81", "--h", "39", "--weight", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "82 4 22140"
    blocks = [tuple(map(int, line.split())) for line in lines[1:]]
    assert blocks == weight4_blocks_det(81, 39)


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
])
def test_verify_large_duals_default_budget(argv, capsys):
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


def test_workbench_budget_env(monkeypatch):
    from codebench.config import default_budget

    monkeypatch.setenv("WORKBENCH_BUDGET", "12345")
    assert default_budget() == 12345
    monkeypatch.setenv("WORKBENCH_BUDGET", "0")
    with pytest.raises(ValueError):
        default_budget()


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


def test_cli_rejects_bad_thread_count(capsys):
    assert main(["--threads", "0", "field", "3", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, env", [
    (["--budget", "0"], None),
    ([], "0"),
    ([], "abc"),
], ids=["budget-0", "env-0", "env-abc"])
def test_bad_budget_exit2(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("WORKBENCH_BUDGET", env)
    assert main([*argv, "field", "3", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
