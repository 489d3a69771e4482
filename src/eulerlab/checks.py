"""Machine verification suites over the identities this package implements.

Each suite returns a :class:`CheckResult` with one detail line per case.
A suite states only its check: it hands its cases to one runner,
:func:`_run`, which writes every detail line with its verdict and joins
the witnesses.  The per-n suites go through :func:`_per_n`, which reads
each suite's first n from ``CHECKS``.  Suites never stop at the first
failure; they collect every mismatch, with both sides serialized so a
failure is reproducible from the report alone.  The names are short
stable tokens used by ``eulerlab verify``.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial

# symmetry, gfengine, detformula and qanalog are imported inside the
# suites that run them, so a verify process loads only its suites' modules
from . import distributions
from .distributions import (MAX_ENUM_N, classic_eulerian, derangement_lhs,
                            derangement_poly, eulerian_st, exc_slice)
from .mpoly import DivisibilityError, MPoly, Refused


#: a suite's verdict: its name, whether it passed, the tuple of detail
#: lines, and the joined failure witnesses (None when it passed)
CheckResult = namedtuple("CheckResult", "name passed lines witness",
                         defaults=(None,))


def _run(name: str, cases) -> CheckResult:
    """The suite's result from its ``(label, witnesses, tail)`` cases.

    Each case is one detail line, ``label: PASS`` when it has no
    witnesses and ``label: FAIL`` when it has some, then the tail if
    any.  A case whose witnesses are None is a note: its line is
    ``label: tail``, with no verdict.  The witnesses are joined in case
    order.
    """
    lines, failures = [], []
    for label, witnesses, tail in cases:
        if witnesses is not None:
            failures.extend(witnesses)
            verdict = "FAIL" if witnesses else "PASS"
            tail = verdict if tail is None else f"{verdict} {tail}"
        lines.append(f"{label}: {tail}")
    return CheckResult(name, not failures, tuple(lines),
                       "; ".join(failures) or None)


def _per_n(name: str, max_n: int, case, *after) -> CheckResult:
    """Run ``case(n) -> (witnesses, tail)`` as the line ``name n={n}``
    for each n from the suite's first n in ``CHECKS`` up to ``max_n``,
    then the ``after`` cases."""
    first = CHECKS[name][1][0]
    cases = [(f"{name} n={n}", *case(n)) for n in range(first, max_n + 1)]
    return _run(name, cases + list(after))


def check_macmahon(max_n: int) -> CheckResult:
    """Descent and excedance counts are equidistributed over S_n."""
    def case(n):
        des = classic_eulerian(n, "des")
        exc = classic_eulerian(n, "exc")
        return ([] if des == exc else
                [f"n={n}: des={des.dumps()} exc={exc.dumps()}"]), None
    return _per_n("macmahon", max_n, case)


def check_thm20(max_n: int) -> CheckResult:
    """Two-term recursion of the palindromic decomposition parts."""
    from .symmetry import verify_thm20

    def case(n):
        witnesses = verify_thm20(n)
        return ([f"n={n}: {' '.join(witnesses)}"] if witnesses else []), None
    return _per_n("thm20", max_n, case)


def check_thm01(max_n: int) -> CheckResult:
    """Derangement refinement expands over the sparse-descent slices.

    Compares the derangement-restricted (exc, des, maj-exc) polynomial
    against sum_i xi(n, i) * t**i * (1 + t)**(n - 2i), expanded in ints.
    The xi fold filters the permutation itself (weights on its inverse);
    MacMahon's formula filters the inverse, independently.  Each slice
    table is read once per n and the two are compared whole.  A line
    reads PASS only when the expansion holds and both readings agree;
    else the witness names the first slice i that differs, with both
    readings serialized.
    """
    def case(n):
        lhs = derangement_lhs(n)
        literal = distributions._xi_slices(n)
        transposed = distributions._macmahon_slices(n)
        rhs = MPoly(("t", "p", "q"), (
            ((i + j, a, b), c * comb(n - 2 * i, j))
            for i, terms in literal.items() for (a, b), c in terms.items()
            for j in range(n - 2 * i + 1)))
        witnesses = ([] if lhs == rhs else
                     [f"n={n}: lhs={lhs.dumps()} rhs={rhs.dumps()}"])
        if literal == transposed:
            return witnesses, "(literal and transposed slice filters agree)"
        i = min(k for k in literal.keys() | transposed.keys()
                if literal.get(k) != transposed.get(k))
        xi_i, transposed_i = (MPoly(("p", "q"), table.get(i, {})).dumps()
                              for table in (literal, transposed))
        witnesses.append(f"n={n} i={i}: xi={xi_i} transposed={transposed_i}")
        return witnesses, "(slice filters DISAGREE)"
    return _per_n("thm01", max_n, case)


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

    def case(n):
        bad = []
        for k in range(0, n):
            for r in range(0, 7):
                direct = gfengine.f_nkr(n, k, r)
                closed = gfengine.f_nkr_closed(n, k, r)
                if direct != closed:
                    bad.append(f"(n={n},k={k},r={r}): "
                               f"direct={direct} closed={closed}")
        return bad, None
    note = (f"literal index reading gives {gfengine.f_nkr_closed(3, 2, 1)} "
            f"at (n=3,k=1,r=2), direct gives {gfengine.f_nkr(3, 1, 2)}; "
            f"corrected roles are used")
    return _per_n("eq1", max_n, case, ("eq1 note", None, note))


def check_gf(max_n: int) -> CheckResult:
    """Series regrouping, its palindromic companion, and the telescope.

    ``max_n`` caps both the series order and r.  The statements are
    checked multiplied through by their denominators, on int
    coefficient lists in t (see :func:`gfengine.verify_foata`), and each
    is one line whose witnesses name each failing r.
    """
    from . import gfengine

    joint, a_part, telescope = gfengine.verify_foata(max_n)
    return _run("gf", [
        (f"gf joint coefficients n<={max_n} r<={max_n}", joint, None),
        ("gf palindromic-part coefficients", a_part, None),
        ("gf telescope identity", telescope, None)])


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

    The determinant half starts at n = 0 and the reconstruction half at
    thT1's first n in ``CHECKS``.  The reconstruction half reaches
    max_n; the determinant half stops one below the top of thT1's range
    when max_n is that top, and a closing note line says so.  A
    division that the kernels find inexact means the identity is
    broken: it fails that n, with the error as the witness.
    """
    from . import detformula
    from .symmetry import a_part

    def det_case(n):
        try:
            return [f"n={n} r={r}: det={list(detformula.det_at(n, r))} "
                    f"rec={list(detformula.f_at(n, r))}"
                    for r in range(n + 1)
                    if detformula.det_at(n, r) != detformula.f_at(n, r)]
        except DivisibilityError as exc:
            return [f"n={n}: {exc}"]

    def reconstruct_case(n):
        try:
            got = detformula.reconstruct_a(n)
        except DivisibilityError as exc:
            return [f"n={n}: {exc}"]
        want = a_part(n)
        return [] if got == want else [
            f"n={n}: got={got.dumps()} want={want.dumps()}"]

    first, _, top = CHECKS["thT1"][1]
    dets = [(f"thT1 det=recurrence n={n}", det_case(n), None)
            for n in range(0, min(max_n, top - 1) + 1)]
    rebuilt = [(f"thT1 reconstruct a_{n}", reconstruct_case(n), None)
               for n in range(first, max_n + 1)]
    note = [("thT1 note", None,
             f"determinant half stops at n={top - 1}, one below the top; "
             f"reconstruction reaches {top}")] if max_n == top else []
    return _run("thT1", dets + rebuilt + note)


_FUBINI_FIRST = (1, 3, 13, 75, 541)


def check_fubini(max_n: int) -> CheckResult:
    """Joint polynomial at (2, 1) counts ordered set partitions."""
    from .qanalog import fubini_number

    def case(n):
        got = eulerian_st(n).evaluate({"s": 2, "t": 1})
        want = fubini_number(n)
        ok = got == want
        if n <= len(_FUBINI_FIRST):
            ok = ok and got == _FUBINI_FIRST[n - 1]
        return ([] if ok else
                [f"n={n}: joint gives {got}, partitions give {want}"]), None
    return _per_n("fubini", max_n, case)


def check_li_binomial(max_n: int) -> CheckResult:
    """Linear descent coefficient of each excedance slice is binomial."""
    def case(n):
        bad = []
        for k in range(1, n):
            got = exc_slice(n, k).coeff_of("s", 1).constant()
            want = comb(n, k + 1)
            if got != want:
                bad.append(f"(n={n},k={k}): got {got}, want {want}")
        return bad, None
    return _per_n("li-binomial", max_n, case)


def check_counts(max_n: int) -> CheckResult:
    """Total masses: n! for the joint polynomial, derangement counts."""
    from .qanalog import subfactorial

    def case(n):
        joint, derange = (eulerian_st(n).evaluate({"s": 1, "t": 1}),
                           derangement_poly(n).evaluate({"x": 1}))
        if joint == factorial(n) and derange == subfactorial(n):
            return [], None
        return [f"n={n}: joint mass {joint} against n! = {factorial(n)}, "
                f"derangement mass {derange} against !n = "
                f"{subfactorial(n)}"], None
    return _per_n("counts", max_n, case)


#: token -> (suite taking max_n, (first, default, top) max_n): the first
#: checks a case, the default runs when none is given, the top is the cap
#: of the route that bounds the suite.  thm01 runs both its readings, the
#: xi fold and MacMahon's formula, up to the builders' cap.  One top is
#: set here: thT1's, whose reconstruction half reaches the top and whose
#: determinant half stops one below it, the split its detail lines and
#: perfbench's verify labels record.  Each entry stays a pair, since
#: perfbench's tracer unpacks every entry into two and writes its wrapped
#: suite back beside the same second item.
CHECKS = {
    "macmahon": (check_macmahon, (1, 9, MAX_ENUM_N)),
    "thm01": (check_thm01, (2, 7, MAX_ENUM_N)),
    "thm20": (check_thm20, (2, 9, MAX_ENUM_N)),
    "eq1": (check_eq1, (1, 6, MAX_ENUM_N)),
    "gf": (check_gf, (0, 7, MAX_ENUM_N)),
    "thT1": (check_thT1, (1, 7, 7)),
    "fubini": (check_fubini, (1, 7, MAX_ENUM_N)),
    "li-binomial": (check_li_binomial, (2, 9, MAX_ENUM_N)),
    "counts": (check_counts, (1, 7, MAX_ENUM_N)),
}


def run_checks(names, max_n: int | None = None) -> list[CheckResult]:
    """Run the named suites; ``all`` expands to every registered suite.

    With ``max_n`` given, the same cap applies to each suite; a ``max_n``
    that is not an int, or lies outside a requested suite's range (below
    its first n or above its top), is ``Refused``, as is an unknown name,
    so no report claims a range it did not check.  Otherwise per-suite
    defaults chosen to finish in well under a minute are used.
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
            raise Refused(
                f"unknown check {name!r}; expected one of "
                f"{', '.join(list(CHECKS) + ['all'])}")
    if max_n is not None:
        if type(max_n) is not int:
            raise Refused(f"max_n must be an int, got {max_n!r}")
        for name in resolved:
            first, _, top = CHECKS[name][1]
            if not first <= max_n <= top:
                raise Refused(
                    f"max_n={max_n} is out of range for check {name!r}, "
                    f"which supports max_n from {first} up to {top}")
    return [suite(default if max_n is None else max_n)
            for suite, (_, default, _) in (CHECKS[n] for n in resolved)]
