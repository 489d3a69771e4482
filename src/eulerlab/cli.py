"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite found a failing
identity (the witness is printed), 2 when the request was refused: an
``error:`` line goes to stderr and nothing to stdout.  Each command
returns its exit code and its whole stdout, and :func:`main` alone
prints it, after the command has returned.  A fault inside a kernel,
such as an inexact division, is a bug and raises.  All rational inputs
are given as ``a/b`` strings so nothing ever round-trips through
floating point.
"""

from __future__ import annotations

import argparse
import sys
from math import factorial
from typing import TYPE_CHECKING

from .distributions import FAMILIES, build_distribution, classic_eulerian
from .mpoly import MPoly
from .perms import check_n

if TYPE_CHECKING:
    from fractions import Fraction

# Each command imports the modules it runs, so building the parser loads
# only what poly and export need.  verify's choices are therefore spelled
# out here: the tokens of checks.CHECKS, in order (a test keeps the two
# equal).
_SUITES = ("macmahon", "thm01", "thm20", "eq1", "gf", "thT1", "fubini",
           "li-binomial", "counts")


def _rational(text: str) -> Fraction:
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3/2 or 2, got {text!r}")


def _render(poly: MPoly, fmt: str) -> str:
    return {"json": poly.dumps, "latex": poly.latex}.get(fmt, poly.text)()


_DIGITS_HELP = (
    "A value a/b has digits(a/b) = max(len(str(|a|)), len(str(b))).  "
    "Values are refused if digits(n! * 2^(1 + (d+1)^2 // 4)) plus, for each "
    "variable given a value, the family's degree in it times digits(value) "
    "exceeds sys.get_int_max_str_digits() (4300 by default), d being the "
    "ambient degree: that sum bounds the digits of every printed integer.")


def _check_digits(poly: MPoly, n: int, d: int, values: dict) -> None:
    """Refuse, before any work, values whose output could hold an int
    too long to print.  ``poly``'s coefficients are ints summing to at
    most n!, so over the common denominator prod b**k of the values a/b,
    k the degree of ``poly`` in each, the specialized coefficients have
    int numerators whose sizes sum to at most n! * prod max(|a|, b)**k.
    The split's prefix sums at most double that, and each gamma step
    m = d, d - 2, ... multiplies the largest entry by at most
    1 + C(m, m // 2) <= 2**m: hence the bound of ``_DIGITS_HELP``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = len(str(factorial(n) * 2 ** (1 + (d + 1) ** 2 // 4))) + sum(
        poly.degree(v) * len(str(max(abs(x.numerator), x.denominator)))
        for v, x in values.items())
    if limit and bound > limit:
        raise ValueError(
            f"the values given could make the output print ints of up to "
            f"{bound} digits, above the limit of {limit} "
            f"(sys.get_int_max_str_digits()); see --help")


_TABLE_FIELDS = ("n", "permutations", "derangements",
                 "ordered_set_partitions", "eulerian")


def _csv(header, rows) -> str:
    """The header and rows as CSV lines, each ending in a bare newline,
    without the final one."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()[:-1]


def _cmd_table(args) -> tuple[int, str]:
    from .qanalog import fubini_number, subfactorial

    check_n(args.max_n, 1)  # before any build
    rows = [(n, factorial(n), subfactorial(n), fubini_number(n),
             classic_eulerian(n).to_dense("x"))
            for n in range(1, args.max_n + 1)]
    if args.format == "json":
        import json
        return 0, json.dumps([dict(zip(_TABLE_FIELDS, r)) for r in rows],
                             separators=(",", ":"))
    if args.format == "csv":
        return 0, _csv(_TABLE_FIELDS, [(*counts, ";".join(map(str, eulerian)))
                                       for *counts, eulerian in rows])
    return 0, "\n".join(
        [f"{'n':>2} {'perms':>9} {'derange':>9} {'ordered':>9}  eulerian"]
        + [f"{n:>2} {perms:>9} {derange:>9} {ordered:>9}  "
           f"{' '.join(map(str, eulerian))}"
           for n, perms, derange, ordered, eulerian in rows])


def _cmd_poly(args) -> tuple[int, str]:
    poly = build_distribution(args.family, args.n, args.i, args.k)
    return 0, _render(poly, args.format)


_DECOMP_VAR = {"des_exc": "t", "trivariate": "t",
               "classic_eulerian": "x", "derangement": "x"}


def _split(args):
    """The family at --n, specialized at --s/--p/--q, split at --d or n-1:
    the parts a and b, the split variable and the ambient degree."""
    from .symmetry import sym_decompose

    # each family's degree in its split variable is below n; cost grows with d
    if args.d is not None and args.d > args.n:
        raise ValueError(
            f"ambient degree must be at most n={args.n}, got {args.d}")
    poly = build_distribution(args.family, args.n)
    values = {name: getattr(args, name) for name in ("s", "p", "q")
              if getattr(args, name) is not None}
    for name in values:
        if name not in poly.vars:
            raise ValueError(
                f"--{name} does not apply to family {args.family!r}")
    d = args.d if args.d is not None else args.n - 1
    _check_digits(poly, args.n, d, values)
    var = _DECOMP_VAR[args.family]
    a, b = sym_decompose(poly.subs(values), var, d)
    return a, b, var, d


def _cmd_decompose(args) -> tuple[int, str]:
    a, b, var, d = _split(args)
    return 0, (f"a ({var}-palindromic, ambient degree {d}): "
               f"{_render(a, args.format)}\n"
               f"b ({var}-palindromic, ambient degree {d - 1}): "
               f"{_render(b, args.format)}")


def _cmd_gamma(args) -> tuple[int, str]:
    from .symmetry import gamma_expand

    a, b, var, d = _split(args)
    lines = []
    for label, part, amb in (("a", a, d), ("b", b, d - 1)):
        if part.is_zero():
            lines.append(f"gamma[{label}]: zero polynomial, empty expansion")
            continue
        lines += [f"gamma[{label}][{i}] = {_render(g, args.format)}"
                  for i, g in enumerate(gamma_expand(part, var, amb))]
    return 0, "\n".join(lines)


def _cmd_det(args) -> tuple[int, str]:
    from .detformula import det_Mnr, reconstruct_a

    det = det_Mnr(args.n)
    fmts = ("latex", "json") if args.format == "all" else (args.format,)
    lines = [f"det ({fmt}): {_render(det, fmt)}" for fmt in fmts]
    if args.n >= 1:
        rec = reconstruct_a(args.n)
        lines += [f"reconstructed_a ({fmt}): {_render(rec, fmt)}"
                  for fmt in fmts]
    return 0, "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    from .checks import run_checks

    results = run_checks(args.check, max_n=args.max_n)
    lines = []
    for res in results:
        lines += [*res.lines,
                  f"{res.name}: {'PASS' if res.passed else 'FAIL'}"]
        if not res.passed:
            lines.append(f"{res.name} witness: {res.witness}")
    failed = not all(res.passed for res in results)
    lines.append("result: " + ("FAIL" if failed else "PASS"))
    return int(failed), "\n".join(lines)


def _cell(value):
    """A scan value as a row shows it: a tuple joined by ';', a bool or
    int as it is, a rational as its a/b string."""
    if type(value) is tuple:
        return ";".join(map(str, value))
    return value if isinstance(value, int) else str(value)


def _cmd_scan(args) -> tuple[int, str]:
    from .symmetry import ScanReport, _check_zone, conjecture_scan

    check_n(args.max_n, 1)  # before any build
    _check_zone(args.p, args.q, args.force)
    _check_digits(build_distribution("trivariate", args.max_n), args.max_n,
                  args.max_n - 1, {"p": args.p, "q": args.q})
    reports = [conjecture_scan(n, args.p, args.q, force=args.force)
               for n in range(1, args.max_n + 1)]
    rows = [{k: _cell(v) for k, v in r._asdict().items()} for r in reports]
    if args.format == "json":
        import json
        return 0, json.dumps(rows, separators=(",", ":"))
    return 0, _csv(ScanReport._fields, [row.values() for row in rows])


#: the families only export writes: family -> the package's exported
#: builder of n, whose module the package imports on first use
_EXPORT_ONLY = {"det": "det_Mnr", "a_part": "a_part",
                "reconstruct_a": "reconstruct_a"}


def _cmd_export(args) -> tuple[int, str]:
    if args.family in _EXPORT_ONLY:
        if args.i is not None or args.k is not None:
            raise ValueError(f"family {args.family!r} takes no --i/--k")
        builder = getattr(sys.modules[__package__], _EXPORT_ONLY[args.family])
        poly = builder(args.n)
    else:
        poly = build_distribution(args.family, args.n, args.i, args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(poly.dumps())
        fh.write("\n")
    return 0, f"wrote {args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Exact joint descent/excedance polynomials, their "
                    "palindromic decompositions, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="counting table for small n")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("poly", help="print one distribution polynomial")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None,
                   help="slice index for family xi")
    p.add_argument("--k", type=int, default=None,
                   help="excedance level for family exc_slice")
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    p.set_defaults(fn=_cmd_poly)

    decomp_help = ("The palindromic split is taken in t (or x for the "
                   "single-statistic families) at ambient degree n-1 "
                   "unless --d overrides it.  The recursion this feeds "
                   "seeds with the zero polynomial at n = 0.  "
                   + _DIGITS_HELP)
    for name, help_, fn in (
            ("decompose", "palindromic decomposition", _cmd_decompose),
            ("gamma", "gamma vectors of both parts", _cmd_gamma)):
        p = sub.add_parser(name, help=help_, epilog=decomp_help)
        p.add_argument("--family", choices=tuple(_DECOMP_VAR),
                       default="des_exc")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s", type=_rational, default=None,
                       help="specialize the descent variable, as a/b")
        p.add_argument("--p", type=_rational, default=None)
        p.add_argument("--q", type=_rational, default=None)
        p.add_argument("--d", type=int, default=None,
                       help="ambient degree (default n-1)")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")
        p.set_defaults(fn=fn)

    p = sub.add_parser("det", help="determinant and the rebuilt a-part")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "latex", "all"),
                   default="all")
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--check", choices=_SUITES + ("all",),
                   default="all")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="shape scan of the specialized "
                                    "three-variable refinement",
                       epilog="The family is trivariate at n = --max-n, "
                              "with d = n - 1.  " + _DIGITS_HELP)
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--p", type=_rational, default="2")
    p.add_argument("--q", type=_rational, default="1")
    p.add_argument("--force", action="store_true",
                   help="allow p, q outside the hypothesis zone")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("export", help="write one polynomial as canonical JSON")
    p.add_argument("--family",
                   choices=FAMILIES + tuple(_EXPORT_ONLY),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
