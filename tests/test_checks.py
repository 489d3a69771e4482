import pytest

from eulerlab import checks, detformula, distributions, gfengine, perms
from eulerlab import symmetry
from eulerlab.checks import CHECKS, run_checks
from eulerlab.cli import main
from eulerlab.distributions import eulerian_st


def test_registry_tokens():
    assert set(CHECKS) == {"macmahon", "thm01", "thm20", "eq1", "gf",
                           "thT1", "fubini", "li-binomial", "counts"}
    for name, (fn, (first, default, top)) in CHECKS.items():
        assert callable(fn)
        assert first <= default <= top, name


def test_all_suites_pass_at_small_sizes():
    results = run_checks("all", max_n=4)
    assert [r.name for r in results] == list(CHECKS)
    for res in results:
        assert res.passed, f"{res.name}: {res.witness}"
        assert res.lines
        assert res.witness is None


def test_run_checks_accepts_list():
    results = run_checks(["thm20", "fubini"], max_n=5)
    assert [r.name for r in results] == ["thm20", "fubini"]


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks("nope")


def test_run_checks_refuses_a_non_int_max_n():
    # 3.0 passes the range check, then would fail inside the suite
    for bad in (3.0, "3"):
        with pytest.raises(ValueError, match="^max_n must be an int, got "):
            run_checks("counts", max_n=bad)


def test_eq1_lines_document_the_rejected_readings():
    (res,) = run_checks("eq1", max_n=3)
    assert res.lines[-1] == ("eq1 note: literal index reading gives 1 at "
                             "(n=3,k=1,r=2), direct gives 13; corrected "
                             "roles are used")


def test_thm01_lines_name_the_reading():
    (res,) = run_checks("thm01", max_n=5)
    assert all("literal and transposed slice filters agree" in line
               for line in res.lines)


def test_thm01_lines_up_to_the_top_name_both_readings():
    (res,) = run_checks("thm01", max_n=13)
    assert res.passed, res.witness
    assert res.lines == tuple(
        f"thm01 n={n}: PASS (literal and transposed slice filters agree)"
        for n in range(2, 14))


def test_thm01_transposed_disagreement_fails_its_line(capsys, monkeypatch):
    # the literal expansion still holds at n = 5; only the transposed
    # table is skewed, and the line must not read PASS beside it.  Both
    # slices i = 1, 2 are skewed, and the witness names the first.
    real = distributions._macmahon_slices

    def skewed(n):
        slices = real(n)
        if n == 5:
            slices = {i: dict(weights) for i, weights in slices.items()}
            for weights in slices.values():
                weights[min(weights)] += 1
        return slices

    monkeypatch.setattr(distributions, "_macmahon_slices", skewed)
    (res,) = run_checks("thm01", max_n=6)
    assert not res.passed
    assert [line.split(" (")[0] for line in res.lines] == [
        "thm01 n=2: PASS", "thm01 n=3: PASS", "thm01 n=4: PASS",
        "thm01 n=5: FAIL", "thm01 n=6: PASS"]
    literal = distributions.xi(5, 1).dumps()
    transposed = distributions.xi_transposed(5, 1).dumps()
    assert literal != transposed
    witness = f"n=5 i=1: xi={literal} transposed={transposed}"
    assert res.witness == witness
    code = main(["verify", "--check", "thm01", "--max-n", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "thm01 n=5: FAIL (slice filters DISAGREE)" in out
    assert out[-3:] == ["thm01: FAIL", f"thm01 witness: {witness}",
                        "result: FAIL"]


def _skew(owner, attr, hit, change):
    """``owner.attr`` with ``change`` applied to its result where ``hit``
    holds for the arguments.  The skewed value is a new object, so the
    cache of the real builder never holds it."""
    real = getattr(owner, attr)

    def skewed(*args):
        got = real(*args)
        return change(got) if hit(*args) else got
    return owner, attr, skewed


# one skewed input per suite: max_n, the patch, and the lines and the
# joined witness the suite reports.  li-binomial, eq1 and gf fail several
# cases, so the witness order is pinned too: gf lists its witnesses
# statement by statement, each by r.
_SKEWED = {
    "macmahon": (
        3, _skew(checks, "classic_eulerian",
                 lambda n, stat="des": (n, stat) == (2, "exc"),
                 lambda p: 2 * p),
        ["macmahon n=1: PASS", "macmahon n=2: FAIL", "macmahon n=3: PASS"],
        'n=2: des={"vars":["x"],"terms":[{"e":[0],"n":"1","d":"1"},'
        '{"e":[1],"n":"1","d":"1"}]} exc={"vars":["x"],"terms":['
        '{"e":[0],"n":"2","d":"1"},{"e":[1],"n":"2","d":"1"}]}'),
    "thm20": (
        4, _skew(symmetry, "verify_thm20", lambda n: n == 3,
                 lambda witnesses: witnesses + ["b skewed", "a skewed"]),
        ["thm20 n=2: PASS", "thm20 n=3: FAIL", "thm20 n=4: PASS"],
        "n=3: b skewed a skewed"),
    "eq1": (
        3, _skew(gfengine, "f_nkr_closed", lambda n, k, r: n == 2 and r >= 5,
                 lambda c: c + 1),
        ["eq1 n=1: PASS", "eq1 n=2: FAIL", "eq1 n=3: PASS",
         "eq1 note: literal index reading gives 1 at (n=3,k=1,r=2), "
         "direct gives 13; corrected roles are used"],
        "(n=2,k=0,r=5): direct=21 closed=22; (n=2,k=0,r=6): direct=28 "
        "closed=29; (n=2,k=1,r=5): direct=15 closed=16; (n=2,k=1,r=6): "
        "direct=21 closed=22"),
    "gf": (
        1, _skew(gfengine, "_joint", lambda n: n == 1, lambda p: 2 * p),
        ["gf joint coefficients n<=1 r<=1: FAIL",
         "gf palindromic-part coefficients: PASS",
         "gf telescope identity: FAIL"],
        "joint r=0 n=1: [u^1] is [1, -1] on the counting side, [] on the "
        "closed side; joint r=1 n=1: [u^1] is [2, -3, 1] on the counting "
        "side, [0, -1, 1] on the closed side; telescope r=0 n=1: [u^1] is "
        "[1] on the counting side, [] on the closed side; telescope r=1 "
        "n=1: [u^1] is [2] on the counting side, [] on the closed side"),
    # the reconstruction reads det_at too, so both lines at n = 3 fail
    "thT1": (
        4, _skew(detformula, "det_at", lambda n, r: (n, r) == (3, 1),
                 lambda cs: tuple(c + 1 for c in cs)),
        ["thT1 det=recurrence n=0: PASS", "thT1 det=recurrence n=1: PASS",
         "thT1 det=recurrence n=2: PASS", "thT1 det=recurrence n=3: FAIL",
         "thT1 det=recurrence n=4: PASS", "thT1 reconstruct a_1: PASS",
         "thT1 reconstruct a_2: PASS", "thT1 reconstruct a_3: FAIL",
         "thT1 reconstruct a_4: PASS"],
        "n=3 r=1: det=[2, 5, 7, 5, 2] rec=[1, 4, 6, 4, 1]; n=3: "
        "reconstruction at n=3 is not divisible by t; the determinant "
        "identity is broken"),
    "fubini": (
        4, _skew(checks, "eulerian_st", lambda n: n == 3, lambda p: p + 1),
        ["fubini n=1: PASS", "fubini n=2: PASS", "fubini n=3: FAIL",
         "fubini n=4: PASS"],
        "n=3: joint gives 14, partitions give 13"),
    "li-binomial": (
        4, _skew(checks, "exc_slice", lambda n, k: n == 4, lambda p: 2 * p),
        ["li-binomial n=2: PASS", "li-binomial n=3: PASS",
         "li-binomial n=4: FAIL"],
        "(n=4,k=1): got 12, want 6; (n=4,k=2): got 8, want 4; "
        "(n=4,k=3): got 2, want 1"),
    # derangement_poly(1) is the zero polynomial, whose mass 0 is !1
    "counts": (
        4, _skew(checks, "derangement_poly", lambda n: n in (1, 3),
                 lambda p: 2 * p + 1),
        ["counts n=1: FAIL", "counts n=2: PASS", "counts n=3: FAIL",
         "counts n=4: PASS"],
        "n=1: joint mass 1 against n! = 1, derangement mass 1 against "
        "!n = 0; n=3: joint mass 6 against n! = 6, derangement mass 5 "
        "against !n = 2"),
}


@pytest.mark.parametrize("name", _SKEWED)
def test_a_skewed_input_fails_its_line_with_its_witness(monkeypatch, name):
    max_n, patch, lines, witness = _SKEWED[name]
    monkeypatch.setattr(*patch)
    (res,) = run_checks(name, max_n=max_n)
    assert not res.passed
    assert list(res.lines) == lines
    assert res.witness == witness


def test_each_top_is_the_cap_of_its_route():
    for name in ("macmahon", "thm01", "thm20", "eq1", "gf", "fubini",
                 "li-binomial", "counts"):
        assert CHECKS[name][1][2] == perms.MAX_ENUM_N, name
    # the top the table sets itself stays inside its route's cap
    assert CHECKS["thT1"][1][2] <= perms.MAX_ENUM_N
    # one above a route's cap, the route refuses on its own
    with pytest.raises(ValueError):
        eulerian_st(perms.MAX_ENUM_N + 1)
    with pytest.raises(ValueError):
        gfengine.verify_foata(perms.MAX_ENUM_N + 1)


def _labels(name, first, max_n):
    if name == "thT1":
        # at the top of its range the determinant half stops one below
        # it, and a note line says so
        note = ["thT1 note: determinant half stops at n=6, one below the "
                "top; reconstruction reaches 7"] if max_n == 7 else []
        return ([f"thT1 det=recurrence n={n}: PASS"
                 for n in range(0, min(max_n, 6) + 1)]
                + [f"thT1 reconstruct a_{n}: PASS"
                   for n in range(first, max_n + 1)] + note)
    return [f"{name} n={n}: PASS" for n in range(first, max_n + 1)]


# thm01 takes over a second at its top, so it runs at a smaller max_n;
# macmahon and counts take about 0.02 and 0.06 s at theirs from cold
# caches (2-core x86, Python 3.11); thm20 at 13 is in test_cli; gf
# prints no per-n lines
@pytest.mark.parametrize("name, max_n", [
    ("fubini", None), ("li-binomial", None), ("eq1", None), ("thT1", None),
    ("macmahon", None), ("thm01", 6), ("counts", None)])
def test_suite_checks_exactly_first_to_max_n(name, max_n):
    first, _, top = CHECKS[name][1]
    max_n = top if max_n is None else max_n
    (res,) = run_checks(name, max_n=max_n)
    assert res.passed, res.witness
    lines = [line.split(" (")[0] for line in res.lines]
    if name == "eq1":
        assert lines.pop().startswith("eq1 note:")
    assert lines == _labels(name, first, max_n)


def test_counts_folds_no_three_variable_table():
    # the derangement mass is the plain derangement fold's sum; the
    # refined table is left to the suites that read its statistics
    distributions._trivariate_table.cache_clear()
    distributions.eulerian_st.cache_clear()
    (res,) = run_checks("counts", max_n=7)
    assert res.passed, res.witness
    assert distributions._trivariate_table.cache_info().currsize == 0
