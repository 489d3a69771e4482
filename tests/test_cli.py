import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import eulerlab
from eulerlab import _commands, cli, detformula, distributions, symmetry
from eulerlab.checks import CHECKS, CheckResult
from eulerlab.cli import main
from eulerlab.detformula import det_Mnr
from eulerlab.distributions import eulerian_st
from eulerlab.mpoly import DivisibilityError, MPoly, Refused
from eulerlab.symmetry import gamma_expand


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_json_is_byte_stable(capsys):
    code, out1, _ = run_cli(capsys, "poly", "--family", "des_exc",
                            "--n", "3", "--format", "json")
    assert code == 0
    expected = ('{"vars":["s","t"],"terms":['
                '{"e":[0,0],"n":"1","d":"1"},'
                '{"e":[1,1],"n":"3","d":"1"},'
                '{"e":[1,2],"n":"1","d":"1"},'
                '{"e":[2,1],"n":"1","d":"1"}]}\n')
    assert out1 == expected
    code, out2, _ = run_cli(capsys, "poly", "--family", "des_exc",
                            "--n", "3", "--format", "json")
    assert code == 0 and out2 == out1


def test_poly_text_and_latex(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "des_exc", "--n", "2",
                           "--format", "latex")
    assert code == 0 and out == "1 + st\n"
    code, out, _ = run_cli(capsys, "poly", "--family", "xi",
                           "--n", "4", "--i", "2")
    assert code == 0
    assert out == "p^2*q + 2*p^2*q^2 + p^2*q^3 + p^3*q^4\n"


def test_poly_missing_slice_index(capsys):
    code, out, err = run_cli(capsys, "poly", "--family", "xi", "--n", "4")
    assert code == 2
    assert out == ""
    assert "error:" in err and "--i" in err


_UNUSED_INDEX = [
    *((cmd, "xi", ("--i", "1", "--k", "9"), "'xi' takes no --k")
      for cmd in ("poly", "export")),
    *((cmd, "exc_slice", ("--k", "1", "--i", "2"), "'exc_slice' takes no --i")
      for cmd in ("poly", "export")),
    *(("export", fam, extra, f"{fam!r} takes no --i/--k")
      for fam in ("det", "a_part", "reconstruct_a")
      for extra in (("--i", "1"), ("--k", "0"))),
]


@pytest.mark.parametrize("command, family, extra, message", _UNUSED_INDEX)
def test_family_refuses_an_index_it_does_not_use(capsys, tmp_path, command,
                                                 family, extra, message):
    out_file = tmp_path / "f.json"
    argv = [command, "--family", family, "--n", "4", *extra]
    if command == "export":
        argv += ["--out", str(out_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: family {message}\n"
    assert not out_file.exists()


def test_table_formats(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n,permutations,derangements,"
                        "ordered_set_partitions,eulerian")
    assert lines[5] == "5,120,44,541,1;26;66;26;1"

    code, out, _ = run_cli(capsys, "table", "--max-n", "4",
                           "--format", "json")
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert rows[3]["derangements"] == 9
    assert rows[3]["eulerian"] == [1, 11, 11, 1]

    code, out, _ = run_cli(capsys, "table", "--max-n", "3")
    assert code == 0 and "eulerian" in out.splitlines()[0]


@pytest.mark.parametrize("command", ["table", "scan"])
def test_csv_lines_end_in_a_bare_newline(capsys, command):
    # a shell reading the last column must not see a trailing \r
    code, out, _ = run_cli(capsys, command, "--max-n", "3",
                           "--format", "csv")
    assert code == 0
    assert "\r" not in out and out.count("\n") == 4


def test_table_refuses_before_any_build(capsys, cache_sizes, tmp_path):
    out_file = str(tmp_path / "p.json")
    requests = [(1, "table", "--max-n", "14"),
                (1, "scan", "--max-n", "14"),
                (1, "poly", "--family", "des_exc", "--n", "14"),
                (1, "export", "--family", "des_exc", "--n", "14",
                 "--out", out_file),
                (0, "export", "--family", "det", "--n", "14",
                 "--out", out_file),
                (1, "decompose", "--n", "14"),
                (1, "gamma", "--n", "14"),
                (0, "det", "--n", "14")]
    for lo, *argv in requests:
        before = cache_sizes()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: n must be between {lo} and 13, got 14\n"
        assert cache_sizes() == before, argv
    assert not (tmp_path / "p.json").exists()
    for max_n in ("0", "-2"):
        code, out, err = run_cli(capsys, "table", "--max-n", max_n,
                                 "--format", "json")
        assert code == 2 and out == ""
        assert f"n must be between 1 and 13, got {max_n}" in err


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--family", "des_exc",
                           "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "a (t-palindromic, ambient degree 1): 1 + t",
        "b (t-palindromic, ambient degree 0): -1 + s",
    ]


def test_decompose_specialized(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--family", "des_exc",
                           "--n", "5", "--s", "2", "--format", "json")
    assert code == 0
    a_line, b_line = out.splitlines()
    a = MPoly.loads(a_line.split(": ", 1)[1])
    b = MPoly.loads(b_line.split(": ", 1)[1])
    t = MPoly.variable("t")
    assert a + t * b == eulerian_st(5).subs({"s": 2})


def test_decompose_flag_mismatch(capsys):
    code, _, err = run_cli(capsys, "decompose", "--family", "des_exc",
                           "--n", "3", "--p", "2")
    assert code == 2
    assert "--p does not apply" in err


def test_gamma_output(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--family", "des_exc", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "gamma[a][0] = 1",
        "gamma[a][1] = -1 + 2*s + s^2",
        "gamma[b][0] = -1 + s",
    ]


def test_gamma_zero_part(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--family", "classic_eulerian",
                           "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma[a][0] = 1"
    assert lines[1] == "gamma[a][1] = 2"
    assert lines[2] == "gamma[b]: zero polynomial, empty expansion"


def test_split_at_a_given_ambient_degree(capsys):
    # the derangement polynomial is palindromic at degree n, so at --d n
    # the whole of it is the a part
    argv = ("--family", "derangement", "--n", "6", "--d", "6")
    code, out, _ = run_cli(capsys, "decompose", *argv)
    assert code == 0
    assert out.splitlines() == [
        "a (x-palindromic, ambient degree 6): "
        "x + 51*x^2 + 161*x^3 + 51*x^4 + x^5",
        "b (x-palindromic, ambient degree 5): 0",
    ]
    code, out, _ = run_cli(capsys, "gamma", *argv)
    assert code == 0
    assert out.splitlines() == [
        "gamma[a][0] = 0", "gamma[a][1] = 1", "gamma[a][2] = 47",
        "gamma[a][3] = 61", "gamma[b]: zero polynomial, empty expansion",
    ]


@pytest.mark.parametrize("command", ["decompose", "gamma"])
@pytest.mark.parametrize("d", ["-1", "-5", "2", "1000000"])
def test_ambient_degree_outside_0_to_n_is_a_usage_error(capsys, monkeypatch,
                                                        command, d):
    # refused before the family is built
    monkeypatch.setattr(_commands, "build_distribution", None)
    code, out, err = run_cli(capsys, command, "--family", "derangement",
                             "--n", "1", "--d", d)
    assert code == 2 and out == ""
    bound = "nonnegative" if int(d) < 0 else "at most n=1"
    assert err == f"error: ambient degree must be {bound}, got {d}\n"


def test_gamma_expands_the_parts_decompose_prints(capsys):
    argv = ("--family", "des_exc", "--n", "5", "--s", "2", "--format", "json")
    code, out, _ = run_cli(capsys, "decompose", *argv)
    assert code == 0
    parts = [MPoly.loads(line.split(": ", 1)[1]) for line in out.splitlines()]
    want = []
    for label, part, amb in zip("ab", parts, (4, 3)):
        want += [f"gamma[{label}][{i}] = {g.dumps()}"
                 for i, g in enumerate(gamma_expand(part, "t", amb))]
    code, out, _ = run_cli(capsys, "gamma", *argv)
    assert code == 0 and out.splitlines() == want


@pytest.mark.parametrize("command", ["decompose", "gamma"])
def test_split_commands_document_their_arguments(capsys, monkeypatch,
                                                 command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "specialize the descent variable, as a/b" in out
    assert "ambient degree (default n-1)" in out


def test_det_command(capsys):
    code, out, _ = run_cli(capsys, "det", "--n", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("det (latex): ")
    assert lines[1].startswith("det (json): ")
    assert "reconstructed_a" not in out

    code, out, _ = run_cli(capsys, "det", "--n", "2", "--format", "json")
    assert code == 0
    det_line, rec_line = out.splitlines()
    assert det_line == f"det (json): {det_Mnr(2).dumps()}"
    rec = MPoly.loads(rec_line.split(": ", 1)[1])
    assert rec == MPoly(("s", "t"), {(0, 0): 1, (0, 1): 1})


def test_verify_choices_are_the_registered_suites(capsys, monkeypatch):
    # cli spells the suite tokens out so the parser needs no checks import
    assert cli._SUITES == tuple(CHECKS)
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert "{" + ",".join([*CHECKS, "all"]) + "}" in usage


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "thm20",
                           "--max-n", "5")
    assert code == 0
    assert "thm20 n=5: PASS" in out
    assert out.rstrip().endswith("result: PASS")


def test_verify_refuses_range_it_does_not_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "thm20",
                             "--max-n", "14")
    assert code == 2
    assert out == ""
    assert "'thm20'" in err and "up to 13" in err
    code, _, err = run_cli(capsys, "verify", "--check", "macmahon",
                           "--max-n", "14")
    assert code == 2
    assert "'macmahon'" in err and "up to 13" in err
    code, out, err = run_cli(capsys, "verify", "--check", "thm01",
                             "--max-n", "14")
    assert code == 2
    assert out == ""
    assert "'thm01'" in err and "from 2 up to 13" in err
    code, out, err = run_cli(capsys, "verify", "--check", "thT1",
                             "--max-n", "8")
    assert code == 2
    assert out == ""
    assert "'thT1'" in err and "up to 7" in err
    code, out, err = run_cli(capsys, "verify", "--check", "thm20",
                             "--max-n", "1")
    assert code == 2
    assert out == ""
    assert "'thm20'" in err and "from 2 up to 13" in err
    code, out, err = run_cli(capsys, "verify", "--check", "counts",
                             "--max-n", "-3")
    assert code == 2
    assert out == ""
    assert "'counts'" in err and "from 1 up to 13" in err
    code, out, _ = run_cli(capsys, "verify", "--check", "thm20",
                           "--max-n", "9")
    assert code == 0
    assert "thm20 n=9: PASS" in out
    assert out.rstrip().endswith("result: PASS")


def test_verify_thm20_reaches_the_builder_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "thm20",
                           "--max-n", "13")
    assert code == 0
    assert out.splitlines() == (
        [f"thm20 n={n}: PASS" for n in range(2, 14)]
        + ["thm20: PASS", "result: PASS"])


def test_verify_gf_reaches_the_builder_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "gf",
                           "--max-n", "13")
    assert code == 0
    assert out.splitlines() == [
        "gf joint coefficients n<=13 r<=13: PASS",
        "gf palindromic-part coefficients: PASS",
        "gf telescope identity: PASS", "gf: PASS", "result: PASS"]
    code, out, err = run_cli(capsys, "verify", "--check", "gf",
                             "--max-n", "14")
    assert code == 2
    assert out == ""
    assert "'gf'" in err and "from 0 up to 13" in err


def test_verify_reports_reading(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "thm01",
                           "--max-n", "4")
    assert code == 0
    assert "literal and transposed slice filters agree" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(max_n):
        return CheckResult("macmahon", False,
                           ("macmahon n=1: FAIL",), "n=1: forced failure")
    monkeypatch.setitem(CHECKS, "macmahon", (broken, CHECKS["macmahon"][1]))
    code, out, _ = run_cli(capsys, "verify", "--check", "macmahon")
    assert code == 1
    assert "macmahon witness: n=1: forced failure" in out
    assert out.rstrip().endswith("result: FAIL")


def _inexact_division(n, r):
    raise DivisibilityError("forced inexact division")


# a constant determinant leaves a reconstruction not divisible by t
@pytest.mark.parametrize("det_at, witness", [
    (lambda n, r: (2,), "n=1: reconstruction at n=1 is not divisible by t"),
    (_inexact_division, "n=0: forced inexact division"),
])
def test_verify_thT1_fails_on_an_inexact_division(capsys, monkeypatch,
                                                  det_at, witness):
    monkeypatch.setattr(detformula, "det_at", det_at)
    code, out, err = run_cli(capsys, "verify", "--check", "thT1",
                             "--max-n", "2")
    assert code == 1 and not err
    assert "thT1 reconstruct a_1: FAIL" in out
    (line,) = [x for x in out.splitlines() if x.startswith("thT1 witness:")]
    assert witness in line
    assert out.rstrip().endswith("result: FAIL")


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "bogus"])
    assert exc.value.code == 2


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n,p,q,gamma_a,gamma_b,gamma_a_nonneg,gamma_b_nonneg,"
                        "alternatingly_increasing,unimodal,mode_indices,"
                        "in_hypothesis")
    assert len(lines) == 5
    assert lines[1].startswith("1,2,1,1,,")
    code, out, _ = run_cli(capsys, "scan", "--max-n", "12", "--p", "2",
                           "--q", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("12,2,1,")
    code, out, err = run_cli(capsys, "scan", "--max-n", "14")
    assert code == 2
    assert out == "" and "between 1 and 13" in err
    for args in (("--max-n", "0"), ("--max-n", "-3", "--format", "json")):
        code, out, err = run_cli(capsys, "scan", *args)
        assert code == 2
        assert out == "" and "between 1 and 13" in err


def test_scan_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--max-n", "3", "--p", "3/2",
                           "--q", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[0]["p"] == "3/2"
    assert all(r["gamma_a_nonneg"] for r in rows)


def test_scan_outside_hypothesis_needs_force(capsys):
    code, _, err = run_cli(capsys, "scan", "--max-n", "3", "--p", "1")
    assert code == 2
    assert "force" in err

    code, out, _ = run_cli(capsys, "scan", "--max-n", "3", "--p", "1",
                           "--force")
    assert code == 0
    assert "False" in out  # in_hypothesis column


def test_scan_refuses_a_point_outside_the_zone_before_any_build(
        capsys, cache_sizes):
    # conjecture_scan refuses such a point with the same message, so only
    # the caches tell a refusal before the build from one after it
    distributions._trivariate_table.cache_clear()
    before = cache_sizes()
    code, out, err = run_cli(capsys, "scan", "--max-n", "7", "--p", "1",
                             "--q", "1")
    assert code == 2 and out == ""
    assert err == ("error: (p, q) = (1, 1) is outside p > 1, q >= 1; "
                   "pass --force, or force=True to conjecture_scan\n")
    assert cache_sizes() == before


def test_scan_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--p", "1/0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["scan", "--p", "abc"])
    # decimal strings are exact, not floats: 1.5 is the rational 3/2
    code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--p", "1.5")
    assert code == 0
    assert "3/2" in out


@pytest.mark.parametrize("argv", [
    ("scan", "--p", "1e-100000"), ("scan", "--max-n", "3", "--q", "2.5E3"),
    ("decompose", "--n", "3", "--s", "15e-1"),
    ("gamma", "--family", "trivariate", "--n", "3", "--p", "1e9")],
    ids=" ".join)
def test_the_exponent_form_is_a_usage_error(capsys, argv):
    # refused as it is parsed: 1e1000000000 would build a power of ten
    # with a billion digits before any check
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a rational like 3/2 or 2, got {argv[-1]!r}" in (
        captured.err)


def test_export_round_trip(tmp_path, capsys):
    out_file = tmp_path / "joint4.json"
    code, out, _ = run_cli(capsys, "export", "--family", "des_exc",
                           "--n", "4", "--out", str(out_file))
    assert code == 0
    assert str(out_file) in out
    blob = out_file.read_bytes()
    assert blob.endswith(b"\n")
    assert MPoly.loads(blob.decode()) == eulerian_st(4)

    again = tmp_path / "joint4_again.json"
    run_cli(capsys, "export", "--family", "des_exc", "--n", "4",
            "--out", str(again))
    assert again.read_bytes() == blob


def test_export_determinant_family(tmp_path, capsys):
    out_file = tmp_path / "det2.json"
    code, _, _ = run_cli(capsys, "export", "--family", "det", "--n", "2",
                         "--out", str(out_file))
    assert code == 0
    assert MPoly.loads(out_file.read_text()) == det_Mnr(2)


def test_export_bad_path(tmp_path, capsys, monkeypatch):
    # refused before any builder runs: xi at n = 13 would fold first
    def builder(*args):
        raise AssertionError("a builder ran before the path was opened")
    monkeypatch.setattr(cli, "build_distribution", builder)
    monkeypatch.setattr(eulerlab, "a_part", builder)
    for family, extra in (("xi", ("--i", "3")), ("a_part", ())):
        for out in (tmp_path / "missing_dir" / "f.json", tmp_path):
            code, stdout, err = run_cli(capsys, "export", "--family", family,
                                        "--n", "13", *extra,
                                        "--out", str(out))
            assert code == 2 and stdout == ""
            assert err.startswith("error: [Errno "), err


def test_a_refused_export_leaves_its_path_as_it_was(capsys, monkeypatch,
                                                    tmp_path):
    calls = []

    def spy(*args):
        calls.append(args)
        return build(*args)
    build = cli.build_distribution
    monkeypatch.setattr(cli, "build_distribution", spy)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        code, out, err = run_cli(capsys, "export", "--family", "des_exc",
                                 "--n", "14", "--out", str(path))
        assert code == 2 and out == ""
        assert err == "error: n must be between 1 and 13, got 14\n"
    assert len(calls) == 2  # the builder itself refused n = 14
    assert not new.exists()
    assert old.read_text() == "kept\n"
    # an export that is not refused replaces the whole file
    old.write_text("x" * 1000)
    assert run_cli(capsys, "export", "--family", "des_exc", "--n", "2",
                   "--out", str(old))[0] == 0
    assert old.read_text() == eulerian_st(2).dumps() + "\n"


def test_a_kernel_fault_raises_with_nothing_on_stdout(capsys, monkeypatch):
    # an inexact division inside a kernel is a bug, not a refused request;
    # it leaves main after det's first half was built, and prints nothing
    def inexact(n):
        raise DivisibilityError("forced inexact division")
    monkeypatch.setattr(detformula, "reconstruct_a", inexact)
    with pytest.raises(DivisibilityError, match="forced inexact division"):
        main(["det", "--n", "3"])
    assert capsys.readouterr().out == ""



def test_a_kernel_value_error_raises_with_nothing_on_stdout(capsys,
                                                            monkeypatch):
    # only a Refused request exits 2: a ValueError from a kernel, after
    # the build and the split, is a bug and leaves main
    def broken(cs):
        raise ValueError("forced kernel fault")
    monkeypatch.setattr(symmetry, "_gamma_ints", broken)
    with pytest.raises(ValueError, match="forced kernel fault"):
        main(["gamma", "--family", "des_exc", "--n", "4"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [("table", "--max-n", "3"), ("verify",)],
                         ids=" ".join)
def test_a_closed_stdout_exits_2_with_one_error_line(argv):
    # the read end of stdout's pipe is closed, as once `| head -1` quits:
    # a refusal, not a traceback and exit 1, which means a failing identity
    read, write = os.pipe()
    os.close(read)
    src = str(Path(eulerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "eulerlab.cli",
             *argv], stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("refuse", [
    lambda: distributions.check_n(14, 1),
    lambda: eulerlab.checks.run_checks("nope"),
    lambda: eulerlab.checks.run_checks("gf", max_n=99),
    lambda: distributions.build_distribution("xi", 6),
    lambda: distributions.classic_eulerian(3, "inv"),
    lambda: distributions.xi(6, 4),
    lambda: distributions.exc_slice(4, 4),
    lambda: eulerlab.mpoly._coefficient(1.5),
    lambda: symmetry.sym_decompose(eulerian_st(3), "t", 1),
    lambda: symmetry.conjecture_scan(3, 1, 1),
], ids=["check_n", "run_checks-name", "run_checks-max_n", "family-index",
        "stat", "xi-i", "exc_slice-k", "coefficient", "ambient-degree",
        "zone"])
def test_a_refusal_is_refused_and_still_a_value_error(refuse):
    # main exits 2 on Refused alone; library callers may catch ValueError
    with pytest.raises(Refused):
        refuse()
    assert issubclass(Refused, ValueError)

_EVERY_COMMAND = [
    *(("table", "--max-n", "5", "--format", fmt)
      for fmt in ("text", "csv", "json")),
    ("poly", "--family", "trivariate", "--n", "4"),
    ("decompose", "--n", "4", "--s", "3/2"),
    ("gamma", "--family", "trivariate", "--n", "5", "--p", "2"),
    ("det", "--n", "3"),
    ("verify", "--check", "thm20", "--max-n", "5"),
    *(("scan", "--max-n", "4", "--format", fmt) for fmt in ("csv", "json")),
    ("export", "--family", "des_exc", "--n", "4", "--out", "out.json"),
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=" ".join)
def test_commands_return_their_text_and_only_main_prints_it(
        capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(argv)
    written = io.StringIO()
    with contextlib.redirect_stdout(written):
        code, text = args.fn(args)
    assert written.getvalue() == ""
    assert text and not text.endswith("\n")
    assert run_cli(capsys, *argv) == (code, text + "\n", "")


#: per command, arguments that parse, to which a test adds a bad one
_PARSES = {"table": [], "poly": ["--family", "des_exc", "--n", "3"],
           "decompose": ["--n", "3"], "gamma": ["--n", "3"],
           "det": ["--n", "1"], "verify": [], "scan": [],
           "export": ["--family", "des_exc", "--n", "3", "--out", "x.json"]}
# main builds the parser of the command its first argument names; every
# request that stops in argparse must end as it does in the full parser
_PARSER_EXITS = [[], ["-h"], ["--help"], ["--nope"], ["nope"], ["pol"],
                 ["-h", "poly"], ["--nope", "poly"]] + [
    argv for name, args in _PARSES.items()
    for argv in ([name, "--help"], [name, "--nope"],
                 [name, *args, "--nope"], [name, *args, "extra"])]


def _parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _PARSER_EXITS,
                         ids=lambda argv: " ".join(argv) or "no argument")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parser_exit(capsys, cli.build_parser().parse_args, argv)
    assert want[0] in (0, 2) and any(want[1:])
    assert _parser_exit(capsys, main, argv) == want


def test_main_reads_sys_argv_and_builds_one_subparser(capsys, monkeypatch):
    # the console script and python -m call main() with no argv
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    monkeypatch.setattr(sys, "argv", ["eulerlab", "poly", "--family",
                                      "des_exc", "--n", "3"])
    assert main() == 0
    assert built == ["poly"]
    assert capsys.readouterr() == (eulerian_st(3).text() + "\n", "")


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python prints ints of any length")
    return limit


@pytest.mark.parametrize("digits", [60, 4000])
@pytest.mark.parametrize("command", ["decompose", "gamma", "scan"])
def test_values_too_long_to_print_are_refused_before_any_work(
        capsys, monkeypatch, command, digits):
    _digit_limit()

    def work(*args, **kwargs):
        raise AssertionError("work began on a refused request")
    for owner, name in ((MPoly, "subs"), (symmetry, "sym_decompose"),
                        (symmetry, "conjecture_scan")):
        monkeypatch.setattr(owner, name, work)
    x = ("1234567890" * 400)[:digits]
    argv = ["scan", "--max-n", "13"] if command == "scan" else [
        command, "--family", "trivariate", "--n", "13"]
    code, out, err = run_cli(capsys, *argv, "--p", f"{x}/3", "--q", f"{x}/7")
    assert code == 2 and out == ""
    assert err.startswith("error: the values given could make the output "
                          "print ints of up to ")


def test_digit_count_is_the_printed_length():
    # 10**k - 1 prints as k nines and 10**k + 1 in k + 1 digits; str()
    # confirms it at every k below 300 and around Python's digit limit,
    # which it has to lift there (str() at every k to 5000 took 2 s
    # on a 2-core x86)
    digits = _commands._digits
    for k in range(1, 5001):
        assert digits(10 ** k - 1) == k, k
        assert digits(10 ** k + 1) == digits(-10 ** k - 1) == k + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for x in [0, 9, 10] + [10 ** k + d for k in (*range(300), 4299,
                                                     4300, 4301, 5000)
                               for d in (-1, 1)]:
            assert digits(x) == digits(-x) == len(str(x)), x
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["decompose", "gamma", "scan"])
def test_a_value_too_long_to_print_gets_the_digit_bound_refusal(
        capsys, command):
    # it parses: an integer part and a decimal part of `limit` digits
    # each, whose numerator Python would refuse to print
    limit = _digit_limit()
    x = "9" * limit
    argv = ["scan", "--max-n", "3"] if command == "scan" else [
        command, "--family", "trivariate", "--n", "3"]
    code, out, err = run_cli(capsys, *argv, "--p", f"{x}.{x}")
    assert code == 2 and out == ""
    assert err.startswith("error: the values given could make the output "
                          "print ints of up to ")


# requests at n = 13 whose family's variables the test gives values:
# trivariate has degree 12 in p and 72 in q, des_exc degree 12 in s
_AT_THE_BOUND = ["decompose --family trivariate --n 13",
                 "gamma --family trivariate --n 13", "scan --max-n 13",
                 "decompose --family des_exc --n 13",
                 "gamma --family des_exc --n 13"]


@pytest.mark.parametrize("request_line", _AT_THE_BOUND)
def test_the_largest_values_the_digit_bound_admits_print(capsys,
                                                          request_line):
    # the bound at the default ambient degree d = 12 is
    # digits(13! * 2^(1 + 13^2 // 4)) + degree * digits(value)
    limit = _digit_limit()
    options, degree = (("--s",), 12) if "des_exc" in request_line else (
        ("--p", "--q"), 84)
    top = (limit - len(str(factorial(13) * 2 ** 43))) // degree
    for digits, want in ((top, 0), (top + 1, 2)):
        nines = "9" * digits
        # the largest integer, then a fraction of two such ints
        values = (nines, f"{nines}/{nines[:-1]}8")
        code, out, err = run_cli(capsys, *request_line.split(), *(
            f"{option}={value}" for option, value in zip(options, values)))
        assert code == want, (digits, err)
        assert bool(out) == (want == 0) and bool(err) == (want == 2)


@pytest.mark.parametrize("command", ["decompose", "gamma", "scan"])
def test_the_digit_bound_is_stated_in_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("digits(n! * 2^(1 + (d+1)^2 // 4)) plus, for each variable "
            "given a value, the family's degree in it times digits(value) "
            "exceeds sys.get_int_max_str_digits()") in text
