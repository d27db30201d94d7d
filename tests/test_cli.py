import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

import hinv as H
from hinv import serialization as ser
from hinv.cli import main
from hinv.oracles import random_certificate_violating_h


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, h):
    path = tmp_path / name
    path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
    return str(path)


def test_gen_and_certify_optimal(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run_cli(capsys, "gen", "ohm", "--n", "5", "--out", str(out))
    assert code == 0
    assert ser.hmatrix_from_dict(json.loads(out.read_text())) == H.ohm(5)
    code, stdout, stderr = run_cli(capsys, "certify", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal"
    assert "optimal" in stderr


def test_gen_mixed_families(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "gen", "self-dual", "--n", "6", "--n-prime", "3")
    assert code == 0
    assert ser.hmatrix_from_dict(json.loads(stdout)) == H.self_dual_mixed(6, 3)
    code, _, _ = run_cli(capsys, "gen", "self-dual", "--n", "6")
    assert code == 1  # missing --n-prime


def test_gen_extend(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "gen", "ohm", "--n", "3", "--extend", "5")
    assert code == 0
    assert ser.hmatrix_from_dict(json.loads(stdout)) == H.ohm(6)


def test_gen_strange3_ignores_n(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "strange3", "--n", "9")
    assert code == 0
    assert ser.hmatrix_from_dict(json.loads(stdout)) == H.strange3()


def test_sweep_strange3_single_row(capsys):
    code, stdout, _ = run_cli(capsys, "sweep", "--family", "strange3", "--n-range", "2:12")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("strange3,4,,optimal")


def test_certify_exit_codes(tmp_path, capsys):
    strange = write_matrix(tmp_path, "s.json", H.strange3())
    dual = write_matrix(tmp_path, "sd.json", H.h_dual(H.strange3()))
    bad = write_matrix(tmp_path, "bad.json", H.HMatrix([["1/3"]]))

    assert run_cli(capsys, "certify", strange)[0] == 0
    code, stdout, _ = run_cli(capsys, "certify", dual)
    assert code == 3
    assert [4, 2] in json.loads(stdout)["negative"]
    assert run_cli(capsys, "certify", bad)[0] == 2


def test_certify_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "rows": [[')
    assert run_cli(capsys, "certify", str(path))[0] == 1
    path.write_text('{"n": 3, "rows": [["1/2"]]}')
    assert run_cli(capsys, "certify", str(path))[0] == 1


def test_certify_names_json_numbers(tmp_path, capsys):
    path = tmp_path / "float.json"
    for entry in ("0.5", "NaN", "-Infinity", "1e3"):
        path.write_text(f'{{"rows": [[{entry}]]}}')
        code, stdout, stderr = run_cli(capsys, "certify", str(path))
        assert_clean_failure(code, stdout, stderr)
        assert "integers or 'p/q' strings, not the JSON number" in stderr


def test_dual_round_trip(tmp_path, capsys):
    strange = write_matrix(tmp_path, "s.json", H.strange3())
    code, stdout, _ = run_cli(capsys, "dual", strange)
    assert code == 0
    assert ser.hmatrix_from_dict(json.loads(stdout)) == H.h_dual(H.strange3())


def test_falsify_witness(tmp_path, capsys):
    dual = write_matrix(tmp_path, "sd.json", H.h_dual(H.strange3()))
    code, stdout, _ = run_cli(capsys, "falsify", dual, "--pair", "4", "2", "--emit-vectors")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["violated_pair"] == [4, 2]
    assert ser.parse_rational(doc["residual_sq"]) > F(1, 4)
    assert len(doc["vectors"]) == 5


def test_falsify_default_pair_is_smallest_negative(tmp_path, capsys):
    # without --pair the witness is the one for the lexicographically smallest negative pair
    cases = [H.h_dual(H.strange3()), random_certificate_violating_h(random.Random(41), 6)]
    for k, h in enumerate(cases):
        path = write_matrix(tmp_path, f"v{k}.json", h)
        i, j = H.certificates(h).negative_pairs()[0]
        code, default_out, _ = run_cli(capsys, "falsify", path)
        assert code == 0
        code, pinned_out, _ = run_cli(capsys, "falsify", path, "--pair", str(i), str(j))
        assert code == 0
        assert default_out == pinned_out
        assert json.loads(default_out)["violated_pair"] == [i, j]
    # a pair with a nonnegative certificate, and one outside the matrix
    path = write_matrix(tmp_path, "v0.json", cases[0])
    for pair, message in ((("4", "1"), "no violation at (4,1): certificate is 3/7"),
                          (("9", "1"), "not a strict lower-triangular pair")):
        code, stdout, stderr = run_cli(capsys, "falsify", path, "--pair", *pair)
        assert_clean_failure(code, stdout, stderr)
        assert message in stderr


def test_falsify_on_optimal_input(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(5))
    assert run_cli(capsys, "falsify", path)[0] == 4


def test_falsify_on_noninvariant_input(tmp_path, capsys):
    zero = write_matrix(tmp_path, "z.json", H.HMatrix([[0], [0, 0]]))
    code, stdout, _ = run_cli(capsys, "falsify", zero)
    assert code == 5
    doc = json.loads(stdout)
    assert ser.parse_rational(doc["excess"]) == F(4, 3) - F(4, 9)


def test_simulate_csv(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(6))
    code, stdout, _ = run_cli(capsys, "simulate", "--h", path,
                              "--oracle", "worstcase", "--y0", "worstcase")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "k,residual_sq,bound_sq,ratio"
    assert len(lines) == 7  # header + iterates 0..5
    last = lines[-1].split(",")
    assert last[0] == "5"
    assert abs(float(last[3]) - 1.0) < 1e-9  # terminal ratio exactly at the bound


def test_simulate_steps_truncation(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(6))
    code, stdout, _ = run_cli(capsys, "simulate", "--h", path, "--steps", "3",
                              "--oracle", "worstcase", "--y0", "worstcase")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 5
    assert run_cli(capsys, "simulate", "--h", path, "--steps", "9")[0] == 1


def test_simulate_rotation_with_y0_file(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(5))
    y0 = tmp_path / "y0.json"
    y0.write_text("[1.0, 0.25]")
    code, stdout, _ = run_cli(capsys, "simulate", "--h", path,
                              "--oracle", "rotation:0.6", "--y0", str(y0))
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    assert float(rows[-1][1]) <= float(rows[-1][2]) * (1 + 1e-9)


def assert_clean_failure(code, stdout, stderr):
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1
    assert "Traceback" not in stderr


def test_simulate_zero_start_is_malformed(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.0, 0.0]")
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path,
                                  "--oracle", "rotation:0.3", "--y0", str(y0)))
    # the worst-case start belongs to the worst-case operator only
    code, stdout, stderr = run_cli(capsys, "simulate", "--h", path, "--oracle", "rotation:0.3")
    assert_clean_failure(code, stdout, stderr)
    assert "--y0 worstcase only pairs with --oracle worstcase" in stderr


def test_simulate_non_finite_rotation_is_malformed(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(4))
    y0 = tmp_path / "y0.json"
    y0.write_text("[1.0, 0.25]")
    for angle in ("inf", "-inf", "nan"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert_clean_failure(*run_cli(capsys, "simulate", "--h", path,
                                          "--oracle", f"rotation:{angle}", "--y0", str(y0)))
    code, stdout, stderr = run_cli(capsys, "simulate", "--h", path, "--oracle", "reflection:0.5",
                                   "--y0", str(y0))
    assert_clean_failure(code, stdout, stderr)
    assert "unknown oracle spec 'reflection:0.5'" in stderr


def test_simulate_nonpositive_r_sq_is_malformed(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(4))
    for value in ("0", "-1", "nan"):
        assert_clean_failure(*run_cli(capsys, "simulate", "--h", path, "--oracle", "worstcase",
                                      "--y0", "worstcase", "--r-sq", value))


def test_simulate_wrong_dimension_start_is_malformed(tmp_path, capsys):
    # the default --r-sq is |y0|^2, which must not run before the shape check
    path = write_matrix(tmp_path, "o.json", H.ohm(4))
    y0 = tmp_path / "y0.json"
    not_numbers = ('"ab"', "{}", '["0.5", "0.5"]', "[true, 0.5]", "[0.5, null]")
    for text in ("[1.0, 0.5, 0.25]", "5", "[[0.5, 0.5]]", "[[0.5], [0.5]]", *not_numbers):
        y0.write_text(text)
        for r_sq in ((), ("--r-sq", "1")):
            code, stdout, stderr = run_cli(capsys, "simulate", "--h", path,
                                           "--oracle", "rotation:0.3", "--y0", str(y0), *r_sq)
            assert_clean_failure(code, stdout, stderr)
            assert "--y0" in stderr and "matmul" not in stderr, (text, r_sq)
            if text in not_numbers:
                assert "--y0 must be a JSON array of numbers" in stderr, (text, r_sq)
            else:
                assert "shape" in stderr, (text, r_sq)


def test_simulate_non_finite_start_is_malformed_whatever_r_sq(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    y0 = tmp_path / "y0.json"
    for text, entry in (("[NaN, 0.5]", "1 is nan"), ("[0.5, -Infinity]", "2 is -inf")):
        y0.write_text(text)
        for r_sq in ((), ("--r-sq", "1")):
            code, stdout, stderr = run_cli(capsys, "simulate", "--h", path,
                                           "--oracle", "rotation:0.5", "--y0", str(y0), *r_sq)
            assert_clean_failure(code, stdout, stderr)
            assert f"--y0 entry {entry}" in stderr


def test_simulate_float_overflow_is_malformed(tmp_path, capsys):
    # a finite start whose run (or whose envelope, through --r-sq) leaves the float range
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    big, ok = tmp_path / "big.json", tmp_path / "ok.json"
    big.write_text("[1e308, 1e308]")
    ok.write_text("[1.0, 0.5]")
    for y0, r_sq, message in ((big, "1", "float overflow at iterate 0: residual_sq inf"),
                              (ok, "1e308", "float overflow at iterate 0"),
                              (ok, "5e-324", "--r-sq 5e-324 is too small")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            code, stdout, stderr = run_cli(capsys, "simulate", "--h", path, "--oracle",
                                           "rotation:0.5", "--y0", str(y0), "--r-sq", r_sq)
        assert_clean_failure(code, stdout, stderr)
        assert message in stderr, (y0, r_sq)


def test_simulate_negative_steps_is_malformed(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(4))
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path, "--steps", "-1"))


def test_sweep_bad_range_fails_before_header(capsys, monkeypatch):
    assert_clean_failure(*run_cli(capsys, "sweep", "--family", "ohm", "--n-range", "1:3"))
    code, stdout, stderr = run_cli(capsys, "sweep", "--family", "ohm", "--n-range", "5:3")
    assert_clean_failure(code, stdout, stderr)
    assert "empty range '5:3'" in stderr
    # --n-prime-range is parsed once, before any cell, whatever the family
    for family in ("ohm", "strange3", "self-dual"):
        assert_clean_failure(*run_cli(capsys, "sweep", "--family", family, "--n-range", "4:6",
                                      "--n-prime-range", "3:x"))
    # forced colour wraps the one line in red and adds none
    monkeypatch.setenv("HINV_COLOR", "1")
    code, stdout, stderr = run_cli(capsys, "sweep", "--family", "ohm", "--n-range", "5:3")
    assert_clean_failure(code, stdout, stderr)
    assert stderr == "\x1b[31msweep: empty range '5:3'\x1b[0m\n"


def test_sweep_selecting_no_cell_fails_before_header(capsys):
    # self-dual members need 2 <= N' <= N - 2, so these ranges hold none
    assert_clean_failure(*run_cli(capsys, "sweep", "--family", "self-dual", "--n-range", "3:3"))
    assert_clean_failure(*run_cli(capsys, "sweep", "--family", "self-dual", "--n-range", "4:6",
                                  "--n-prime-range", "9:12"))
    # strange3 exists only at horizon 4
    code, stdout, stderr = run_cli(capsys, "sweep", "--family", "strange3", "--n-range", "9:9")
    assert_clean_failure(code, stdout, stderr)
    assert "the ranges select no family member" in stderr


def test_falsify_readme_example(tmp_path, capsys):
    dual = write_matrix(tmp_path, "sd.json", H.h_dual(H.strange3()))
    code, stdout, _ = run_cli(capsys, "falsify", dual, "--pair", "4", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["residual_sq"] == "27453624173/109330649456"
    assert doc["epsilon"] == "1/128"


def test_sweep_csv(capsys):
    code, stdout, _ = run_cli(capsys, "sweep", "--family", "ohm", "--n-range", "2:12")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "family,n,n_prime,status,min_lambda,max_residual"
    assert len(lines) == 12
    for line in lines[1:]:
        family, n, n_prime, status, min_lam, max_res = line.split(",")
        assert family == "ohm" and status == "optimal" and max_res == "0"
        assert ser.parse_rational(min_lam) >= 0


def test_sweep_mixed_family_ranges(capsys):
    code, stdout, _ = run_cli(capsys, "sweep", "--family", "second-mixed",
                              "--n-range", "4:6")
    assert code == 0
    lines = stdout.strip().splitlines()[1:]
    cells = [(int(r.split(",")[1]), int(r.split(",")[2])) for r in lines]
    assert cells == [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]
    assert all(r.split(",")[3] == "optimal" for r in lines)


def test_oracle_check_passes(capsys):
    code, stdout, _ = run_cli(capsys, "oracle-check", "--seed", "1", "--n-max", "4")
    assert code == 0
    assert all(line.startswith("PASS") for line in stdout.strip().splitlines())


def test_oracle_check_injected_bug(capsys, monkeypatch):
    import hinv.oracles

    enumerate_p = hinv.oracles.p_by_enumeration
    monkeypatch.setattr(hinv.oracles, "p_by_enumeration", lambda h, k, m: enumerate_p(h, k, m) + 1)
    code, stdout, _ = run_cli(capsys, "oracle-check", "--seed", "1", "--n-max", "3")
    assert code == 6
    assert "counterexample" in stdout


def test_oracle_check_caps_n_max(capsys):
    assert run_cli(capsys, "oracle-check", "--seed", "1", "--n-max", "9")[0] == 1


def test_oracle_check_rejects_n_max_below_three(capsys):
    # below horizon 3 the certificate checks would run on no matrix and still print PASS
    for n_max in ("2", "0", "-3"):
        assert_clean_failure(*run_cli(capsys, "oracle-check", "--seed", "1", "--n-max", n_max))


def test_matrix_oracle_spec(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    mfile = tmp_path / "m.json"
    mfile.write_text("[[0.0, -1.0], [1.0, 0.0]]")
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.5, 0.5]")
    code, stdout, _ = run_cli(capsys, "simulate", "--h", path,
                              "--oracle", f"matrix:{mfile}", "--y0", str(y0))
    assert code == 0
    assert len(stdout.strip().splitlines()) == 4


def test_matrix_oracle_non_finite_entry_is_malformed(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    mfile = tmp_path / "m.json"
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.5, 0.5]")
    for bad in ("NaN", "Infinity", "-Infinity"):
        mfile.write_text(f"[[0.5, 0.1], [{bad}, 0.2]]")
        code, stdout, stderr = run_cli(capsys, "simulate", "--h", path,
                                       "--oracle", f"matrix:{mfile}", "--y0", str(y0))
        assert_clean_failure(code, stdout, stderr)
        assert "entry (2,1)" in stderr and "not a finite number" in stderr


def test_matrix_oracle_that_is_no_array_of_numbers_names_the_file(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    mfile = tmp_path / "m.json"
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.5, 0.5]")
    for bad in ('{"rows": [[0.5, 0.1], [0.1, 0.2]]}', "[[0.5, 0.1], [0.1]]", '[[0.5, "x"], [0.1, 0.2]]',
                "[[0.5, 0.1]]", '[["0.5", "0.1"], ["0.1", "0.2"]]', "[[0.5, 0.1], [0.1, true]]",
                "[[false, 0.1], [0.1, 0.2]]", "[[0.5, 0.1], [null, 0.2]]"):
        mfile.write_text(bad)
        code, stdout, stderr = run_cli(capsys, "simulate", "--h", path,
                                       "--oracle", f"matrix:{mfile}", "--y0", str(y0))
        assert_clean_failure(code, stdout, stderr)
        assert f"matrix:{mfile} must be a square JSON array of numbers" in stderr, bad


def test_deeply_nested_json_is_malformed(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.5, 0.5]")
    assert_clean_failure(*run_cli(capsys, "certify", str(deep)))
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", str(deep)))
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path, "--oracle", "rotation:0.5",
                                  "--y0", str(deep)))
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path,
                                  "--oracle", f"matrix:{deep}", "--y0", str(y0)))


def test_simulate_rejects_integers_beyond_float_range(tmp_path, capsys):
    path = write_matrix(tmp_path, "o.json", H.ohm(3))
    huge = tmp_path / "huge.json"
    huge.write_text(f"[{10 ** 400}, 1]")
    ok = tmp_path / "ok.json"
    ok.write_text("[0.5, 0.5]")
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path, "--oracle", "rotation:0.5",
                                  "--y0", str(huge)))
    assert_clean_failure(*run_cli(capsys, "simulate", "--h", path,
                                  "--oracle", f"matrix:{huge}", "--y0", str(ok)))


def test_unwritable_out_is_malformed(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "x.json")
    optimal = write_matrix(tmp_path, "o.json", H.ohm(4))
    violated = write_matrix(tmp_path, "v.json", H.h_dual(H.strange3()))
    for argv in (("gen", "ohm", "--n", "4", "--out", missing),
                 ("dual", optimal, "--out", str(tmp_path)),  # a directory
                 ("falsify", violated, "--out", missing)):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_clean_failure(code, stdout, stderr)
        assert argv[-1] in stderr
        assert "witness at pair" not in stderr


def test_results_beyond_the_int_str_digit_limit(tmp_path, capsys):
    big = "1" + "0" * 2000 + "1"
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 3, "rows": [[big], ["1", big], ["1", "1", big]]}))
    h = ser.hmatrix_from_dict(json.loads(path.read_text()))
    code, stdout, stderr = run_cli(capsys, "certify", str(path))
    assert code == 2 and "Traceback" not in stderr
    doc = json.loads(stdout)
    assert doc["status"] == "invariance_violated"
    residuals = H.invariance_report(h).residuals
    assert max(len(r) for r in doc["residuals"].values()) > 4300
    assert [ser.parse_rational(doc["residuals"][str(m)]) for m in (1, 2, 3)] == list(residuals)
    code, stdout, _ = run_cli(capsys, "falsify", str(path))
    assert code == 5
    excess = ser.parse_rational(json.loads(stdout)["excess"])
    assert excess == H.worst_case_residual_sq(h, 1) - F(4, 16) > 0


def test_json_integers_beyond_the_int_str_digit_limit(tmp_path, capsys):
    # a JSON integer of 5,001 digits reads as the same value written as a string
    big = "1" + "0" * 5000
    as_int, as_str = tmp_path / "int.json", tmp_path / "str.json"
    as_int.write_text(f'{{"rows": [[{big}]]}}')
    as_str.write_text(f'{{"rows": [["{big}"]]}}')
    for command in ("certify", "falsify"):
        code, stdout, stderr = run_cli(capsys, command, str(as_int))
        assert "set_int_max_str_digits" not in stderr
        assert (code, stdout) == run_cli(capsys, command, str(as_str))[:2]
        assert code != 1


def test_parser_reused_in_one_process_matches_separate_runs(tmp_path, capsys):
    # build_parser is cached per process: a failing call, in argparse or in the
    # command, leaves no state behind for the good calls that follow
    optimal = write_matrix(tmp_path, "o.json", H.ohm(5))
    violated = write_matrix(tmp_path, "v.json", H.h_dual(H.strange3()))
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [["1/2", "1"]]}')
    calls = [
        ("certify",),
        ("certify", str(bad)),
        ("certify", optimal),
        ("falsify", violated, "--pair", "4", "2"),
        ("sweep", "--family", "ohm", "--n-range", "2:5"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "hinv.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code
        captured = capsys.readouterr()
        separate = (proc.returncode, proc.stdout, proc.stderr)
        assert (code, captured.out, captured.err) == separate, argv


def test_bad_command_line_is_malformed(capsys):
    # exit 1 and argparse's one error line, not its exit 2, which reads as certify's verdict
    for argv, prog in ((("certify",), "hinv certify"),
                       (("sweep", "--family", "bogus", "--n-range", "4:5"), "hinv sweep"),
                       (("falsify", "x", "--pair", "1"), "hinv falsify"),
                       (("oracle-check", "--seed", "1", "--inject-bug"), "hinv"),
                       ((), "hinv")):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_clean_failure(code, stdout, stderr)
        assert stderr.startswith(f"{prog}: error: "), argv
    code, stdout, stderr = run_cli(capsys, "certify", "--help")
    assert code == 0 and stdout.startswith("usage: hinv certify") and stderr == ""


def test_closed_stdout_ends_quietly(tmp_path):
    # a reader that stops early (`| head -1`) costs no traceback and keeps the exit code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "hinv.cli", "sweep", "--family", "ohm",
                             "--n-range", "2:30"], env=dict(env, PYTHONUNBUFFERED="1"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "family,n,n_prime,status,min_lambda,max_residual\n"
    proc.stdout.close()
    assert proc.communicate(timeout=300)[1] == "" and proc.returncode == 0
    # certify's JSON goes to a pipe that is already closed: the verdict code and summary stay,
    # whether the write fails at once or (buffered) at the last flush
    violated = write_matrix(tmp_path, "v.json", H.h_dual(H.strange3()))
    for unbuffered in ("1", ""):
        proc = subprocess.Popen([sys.executable, "-m", "hinv.cli", "certify", violated],
                                env=dict(env, PYTHONUNBUFFERED=unbuffered),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        assert proc.communicate(timeout=300)[1] == "certificate violated at (3,1), (4,2)\n"
        assert proc.returncode == 3
