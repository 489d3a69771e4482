"""Machine verification suites over the identities this package implements.

Each suite returns a :class:`CheckResult` with one detail line per case.
Suites never stop at the first failure; they collect every mismatch,
with both sides serialized so a failure is reproducible from the report
alone.  The names are short stable tokens used by ``eulerlab verify``.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial

# symmetry and gfengine are imported inside the suites that run them, so
# a verify process loads only the modules of its suites.  detformula stays
# here: perfbench's tracer reaches it as an attribute of the package after
# importing only checks and series.
from . import detformula
from .distributions import (classic_eulerian, derangement_lhs, eulerian_st,
                            exc_slice, xi, xi_transposed)
from .mpoly import DivisibilityError, MPoly
from .perms import MAX_ENUM_N
from .qanalog import fubini_number, subfactorial


#: a suite's verdict: its name, whether it passed, the tuple of detail
#: lines, and the joined failure witnesses (None when it passed)
CheckResult = namedtuple("CheckResult", "name passed lines witness",
                         defaults=(None,))


def _result(name: str, lines: list[str], failures: list[str]) -> CheckResult:
    return CheckResult(
        name=name,
        passed=not failures,
        lines=tuple(lines),
        witness="; ".join(failures) if failures else None,
    )


def check_macmahon(max_n: int) -> CheckResult:
    """Descent and excedance counts are equidistributed over S_n."""
    lines, failures = [], []
    for n in range(1, max_n + 1):
        des = classic_eulerian(n, "des")
        exc = classic_eulerian(n, "exc")
        ok = des == exc
        lines.append(f"macmahon n={n}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"n={n}: des={des.dumps()} exc={exc.dumps()}")
    return _result("macmahon", lines, failures)


def check_thm20(max_n: int) -> CheckResult:
    """Two-term recursion of the palindromic decomposition parts."""
    from .symmetry import verify_thm20

    lines, failures = [], []
    for n in range(2, max_n + 1):
        report = verify_thm20(n)
        lines.append(f"thm20 n={n}: {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            failures.append(f"n={n}: {report.witness}")
    return _result("thm20", lines, failures)


def check_thm01(max_n: int) -> CheckResult:
    """Derangement refinement expands over the sparse-descent slices.

    Compares the derangement-restricted (exc, des, maj-exc) polynomial
    against sum_i xi(n, i) * t**i * (1 + t)**(n - 2i).  The slice filter
    is applied to the permutation itself (weights on its inverse) by the
    xi fold; the transposed filter, applied to the inverse, is computed
    independently from MacMahon's formula and compared at every n.  A
    line reads PASS only when the expansion holds and both readings
    agree.
    """
    lines, failures = [], []
    vars3 = ("t", "p", "q")
    t = MPoly.variable("t", vars3)
    for n in range(2, max_n + 1):
        lhs = derangement_lhs(n)
        rhs = MPoly.zero(vars3)
        agree = True
        for i in range(1, n // 2 + 1):
            term = xi(n, i).with_vars(vars3)
            if xi_transposed(n, i).with_vars(vars3) != term:
                agree = False
            rhs = rhs + term * t ** i * (1 + t) ** (n - 2 * i)
        ok = lhs == rhs
        reading = ("literal and transposed slice filters agree" if agree
                   else "slice filters DISAGREE")
        lines.append(f"thm01 n={n}: {'PASS' if ok and agree else 'FAIL'} "
                     f"({reading})")
        if not ok:
            failures.append(f"n={n}: lhs={lhs.dumps()} rhs={rhs.dumps()}")
        if not agree:
            failures.append(f"n={n}: transposed filter differs")
    return _result("thm01", lines, failures)


def check_eq1(max_n: int) -> CheckResult:
    """Closed-form lattice count against direct coefficient extraction,
    for r = 0..6.

    The closed form uses the corrected index roles; the detail lines
    record the two readings it replaces.  The verbatim swapped-window
    form is off by one on the k = 0 boundary (n=3, k=0, r=1 gives 3
    against the direct 4), and the unswapped literal reading fails
    outright (n=3, k=1, r=2 gives 1 against the direct 13).  The literal
    reading is the closed form with k and r swapped, so the note line
    computes it as f_nkr_closed(3, 2, 1); the window notes are in that
    function's docstring.
    """
    from . import gfengine

    lines, failures = [], []
    for n in range(1, max_n + 1):
        bad = []
        for k in range(0, n):
            for r in range(0, 7):
                direct = gfengine.f_nkr(n, k, r)
                closed = gfengine.f_nkr_closed(n, k, r)
                if direct != closed:
                    bad.append(f"(n={n},k={k},r={r}): "
                               f"direct={direct} closed={closed}")
        lines.append(f"eq1 n={n}: {'PASS' if not bad else 'FAIL'}")
        failures.extend(bad)
    literal_demo = gfengine.f_nkr_closed(3, 2, 1)
    lines.append(
        f"eq1 note: literal index reading gives {literal_demo} at "
        f"(n=3,k=1,r=2), direct gives {gfengine.f_nkr(3, 1, 2)}; "
        f"corrected roles are used")
    return _result("eq1", lines, failures)


def check_gf(max_n: int) -> CheckResult:
    """Series regrouping, its palindromic companion, and the telescope.

    ``max_n`` caps both the series order and r.  The statements are
    checked multiplied through by their denominators, on int
    coefficient lists in t (see :func:`gfengine.verify_foata`).
    """
    from . import gfengine

    report = gfengine.verify_foata(max_n)
    lines = [
        f"gf joint coefficients n<={max_n} r<={max_n}: "
        f"{'PASS' if report.joint_ok else 'FAIL'}",
        f"gf palindromic-part coefficients: "
        f"{'PASS' if report.a_ok else 'FAIL'}",
        f"gf telescope identity: {'PASS' if report.telescope_ok else 'FAIL'}",
    ]
    return _result("gf", lines, list(report.failures))


def check_thT1(max_n: int) -> CheckResult:
    """Determinant formula: Cramer determinant vs recurrence, then
    reconstruction of the palindromic parts from the determinant alone.

    Both halves work at integer r on int coefficient lists in t.  The
    determinant half compares ``det_at(n, r)`` (Bareiss over Z[t]) with
    ``f_at(n, r)`` (the recurrence) for r = 0..n.  That proves the
    identity as polynomials in r: f_n has r-degree at most n by
    induction, since alpha_j has degree j and beta_n degree n; and each
    permutation term of the Cramer matrix has r-degree exactly n, as
    entry (i, j) has degree i - j and the last column's beta_i degree i.
    Two polynomials of degree at most n that agree at n + 1 points are
    equal.

    The reconstruction half reaches max_n; the determinant half stops
    one below the top of thT1's range in ``_RANGES`` when max_n is that
    top.  A division that the kernels find inexact means the
    identity is broken: it fails that n, with the error as the witness.
    """
    from .symmetry import a_part

    lines, failures = [], []
    for n in range(0, min(max_n, _RANGES["thT1"][2] - 1) + 1):
        try:
            bad = [f"n={n} r={r}: det={list(detformula.det_at(n, r))} "
                   f"rec={list(detformula.f_at(n, r))}"
                   for r in range(n + 1)
                   if detformula.det_at(n, r) != detformula.f_at(n, r)]
        except DivisibilityError as exc:
            bad = [f"n={n}: {exc}"]
        lines.append(
            f"thT1 det=recurrence n={n}: {'PASS' if not bad else 'FAIL'}")
        failures.extend(bad)
    for n in range(1, max_n + 1):
        try:
            got = detformula.reconstruct_a(n)
        except DivisibilityError as exc:
            bad = [f"n={n}: {exc}"]
        else:
            want = a_part(n)
            bad = ([] if got == want else
                   [f"n={n}: got={got.dumps()} want={want.dumps()}"])
        lines.append(
            f"thT1 reconstruct a_{n}: {'PASS' if not bad else 'FAIL'}")
        failures.extend(bad)
    return _result("thT1", lines, failures)


_FUBINI_FIRST = (1, 3, 13, 75, 541)


def check_fubini(max_n: int) -> CheckResult:
    """Joint polynomial at (2, 1) counts ordered set partitions."""
    lines, failures = [], []
    for n in range(1, max_n + 1):
        got = eulerian_st(n).evaluate({"s": 2, "t": 1})
        want = fubini_number(n)
        ok = got == want
        if n <= len(_FUBINI_FIRST):
            ok = ok and got == _FUBINI_FIRST[n - 1]
        lines.append(f"fubini n={n}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"n={n}: joint gives {got}, partitions give {want}")
    return _result("fubini", lines, failures)


def check_li_binomial(max_n: int) -> CheckResult:
    """Linear descent coefficient of each excedance slice is binomial."""
    lines, failures = [], []
    for n in range(2, max_n + 1):
        bad = []
        for k in range(1, n):
            got = exc_slice(n, k).coeff_of("s", 1).constant()
            want = comb(n, k + 1)
            if got != want:
                bad.append(f"(n={n},k={k}): got {got}, want {want}")
        lines.append(f"li-binomial n={n}: {'PASS' if not bad else 'FAIL'}")
        failures.extend(bad)
    return _result("li-binomial", lines, failures)


def check_counts(max_n: int) -> CheckResult:
    """Total masses: n! for the joint polynomial, derangement counts."""
    lines, failures = [], []
    for n in range(1, max_n + 1):
        total = eulerian_st(n).evaluate({"s": 1, "t": 1})
        ok = total == factorial(n)
        if n >= 2:
            dtotal = derangement_lhs(n).evaluate({"t": 1, "p": 1, "q": 1})
            ok = ok and dtotal == subfactorial(n)
        lines.append(f"counts n={n}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"n={n}: masses do not match the factorials")
    return _result("counts", lines, failures)


#: token -> (function taking max_n, description)
CHECKS = {
    "macmahon": (check_macmahon, "descent/excedance equidistribution"),
    "thm01": (check_thm01, "derangement refinement over sparse-descent slices"),
    "thm20": (check_thm20, "palindromic decomposition recursion"),
    "eq1": (check_eq1, "closed-form lattice count for the coefficients"),
    "gf": (check_gf, "series regrouping and telescope identities"),
    "thT1": (check_thT1, "determinant formula and reconstruction"),
    "fubini": (check_fubini, "ordered set partition counts at (2, 1)"),
    "li-binomial": (check_li_binomial, "linear coefficient of excedance slices"),
    "counts": (check_counts, "total masses against factorials"),
}

#: token -> (first, default, top) max_n: the first checks a case, the
#: default runs when none is given, the top is the cap of the route that
#: bounds the suite.  thm01 runs both its readings, the xi fold and
#: MacMahon's formula, up to the builders' cap.  One top is set here:
#: thT1's, whose reconstruction half reaches the top and whose
#: determinant half stops one below it, the split its detail lines and
#: perfbench's verify labels record.
_RANGES = {
    "macmahon": (1, 9, MAX_ENUM_N),
    "thm01": (2, 7, MAX_ENUM_N),
    "thm20": (2, 9, MAX_ENUM_N),
    "eq1": (1, 6, MAX_ENUM_N),
    "gf": (0, 7, MAX_ENUM_N),
    "thT1": (1, 7, 7),
    "fubini": (1, 7, MAX_ENUM_N),
    "li-binomial": (2, 9, MAX_ENUM_N),
    "counts": (1, 7, MAX_ENUM_N),
}


def run_checks(names, max_n: int | None = None) -> list[CheckResult]:
    """Run the named suites; ``all`` expands to every registered suite.

    With ``max_n`` given, the same cap applies to each suite; a
    ``max_n`` that is not an int, or lies outside a requested suite's
    range (below its first n or above its top), raises ``ValueError``,
    so no report claims a range it did not check.
    Otherwise per-suite defaults chosen to finish in well under a minute
    are used.
    """
    if isinstance(names, str):
        names = [names]
    resolved: list[str] = []
    for name in names:
        if name == "all":
            resolved.extend(CHECKS)
        elif name in CHECKS:
            resolved.append(name)
        else:
            raise ValueError(
                f"unknown check {name!r}; expected one of "
                f"{', '.join(list(CHECKS) + ['all'])}")
    if max_n is not None:
        if type(max_n) is not int:
            raise ValueError(f"max_n must be an int, got {max_n!r}")
        for name in resolved:
            first, _, top = _RANGES[name]
            if not first <= max_n <= top:
                raise ValueError(
                    f"max_n={max_n} is out of range for check {name!r}, "
                    f"which supports max_n from {first} up to {top}")
    return [CHECKS[name][0](_RANGES[name][1] if max_n is None else max_n)
            for name in resolved]
