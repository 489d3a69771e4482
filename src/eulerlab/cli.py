"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite found a failing
identity (the witness is printed), 2 when the request was refused, by
:class:`~eulerlab.mpoly.Refused` or an OSError on ``--out``: an
``error:`` line goes to stderr and nothing to stdout.  Each command
returns its exit code and its whole stdout, and :func:`main` alone
prints it, after the command has returned.  A stdout whose reader has
gone (``eulerlab table | head -1``) exits 2 as well, with one ``error:``
line and no traceback, so that 1 still means only a failing identity.
A fault inside a kernel, an inexact division or any other ValueError,
is a bug and raises.  A rational argument is an integer, ``a/b`` or a
decimal such as ``1.5`` (the rational 3/2), parsed exactly by
:func:`eulerlab.mpoly._coefficient`, so nothing ever round-trips through
floating point; the exponent form (``1e9``) is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import factorial

from .distributions import FAMILIES, build_distribution, classic_eulerian
from .mpoly import MPoly, Refused, Scalar, _coefficient
from .perms import check_n

# Each command imports the modules it runs, so building the parser loads
# only what poly and export need.  verify's choices are therefore spelled
# out here: the tokens of checks.CHECKS, in order (a test keeps the two
# equal).
_SUITES = ("macmahon", "thm01", "thm20", "eq1", "gf", "thT1", "fubini",
           "li-binomial", "counts")


def _rational(text: str) -> Scalar:
    try:
        return _coefficient(text)
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


#: floor(log10(2) * 2**128).  b * _LOG10_2 >> 128 is floor(b * log10(2))
#: for every b below 2**64: log10(2) - _LOG10_2 / 2**128 < 2**-131, so
#: the error is below 2**-67, and the fractional part of b * log10(2) is
#: above 2**-65 (its least value over b < 2**64 sits at a lower
#: intermediate fraction of log10(2)'s continued fraction).
_LOG10_2 = 0x4D104D427DE7FBCC47C4ACD605BE48BC


def _digits(x: int) -> int:
    """len(str(abs(x))), counted without the string, which Python will
    not build past sys.get_int_max_str_digits() digits.  With b the bit
    length of x > 0 and e = floor(b * log10(2)), 10**(e - 1) < 2**(b - 1)
    <= x < 2**b < 10**(e + 1), so x has e or e + 1 digits, and one
    comparison tells which."""
    x = abs(x) or 1
    e = x.bit_length() * _LOG10_2 >> 128
    return e + (x >= 10 ** e)


def _check_digits(poly: MPoly, n: int, d: int, values: dict) -> None:
    """Refuse, before any work, values whose output could hold an int
    too long to print.  ``poly``'s coefficients are ints summing to at
    most n!, so over the common denominator prod b**k of the values a/b,
    k the degree of ``poly`` in each, the specialized coefficients have
    int numerators whose sizes sum to at most n! * prod max(|a|, b)**k.
    Each entry of the split's parts a and b is a difference of two sums
    of those numerators, so at most double that, and each gamma step
    m = d, d - 2, ... multiplies the largest entry by at most
    1 + C(m, m // 2) <= 2**m: hence the bound of ``_DIGITS_HELP``.
    Digits are counted by :func:`_digits`, so a value too long to print
    is refused too."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = _digits(factorial(n) * 2 ** (1 + (d + 1) ** 2 // 4)) + sum(
        poly.degree(v) * _digits(max(abs(x.numerator), x.denominator))
        for v, x in values.items())
    if limit and bound > limit:
        raise Refused(
            f"the values given could make the output print ints of up to "
            f"{bound} digits, above the limit of {limit} "
            f"(sys.get_int_max_str_digits()); see --help")


_TABLE_FIELDS = ("n", "permutations", "derangements",
                 "ordered_set_partitions", "eulerian")


def _csv(header, rows) -> str:
    """The header and rows as CSV lines joined by bare newlines.  No
    field holds a comma, quote, CR or LF (ints, bools, 'a/b' rationals and
    ';'-joined tuples), so none needs quoting."""
    return "\n".join(",".join(map(str, row)) for row in (header, *rows))


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
    if args.d is not None and not 0 <= args.d <= args.n:
        bound = "nonnegative" if args.d < 0 else f"at most n={args.n}"
        raise Refused(f"ambient degree must be {bound}, got {args.d}")
    poly = build_distribution(args.family, args.n)
    values = {name: getattr(args, name) for name in ("s", "p", "q")
              if getattr(args, name) is not None}
    for name in values:
        if name not in poly.vars:
            raise Refused(f"--{name} does not apply to family {args.family!r}")
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
    only = _EXPORT_ONLY.get(args.family)
    if only and (args.i is not None or args.k is not None):
        raise Refused(f"family {args.family!r} takes no --i/--k")
    # open the path before the build, so a bad --out is refused up front;
    # "a" neither truncates nor replaces a file that is already there,
    # and a refused build removes only a file this call created
    existed = os.path.exists(args.out)
    open(args.out, "a", encoding="utf-8").close()
    try:
        poly = (getattr(sys.modules[__package__], only)(args.n) if only
                else build_distribution(args.family, args.n, args.i, args.k))
    except BaseException:
        if not existed:
            os.remove(args.out)
        raise
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
    except (Refused, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except OSError as exc:
        # stdout's reader is gone: point its descriptor at devnull, so the
        # interpreter's last flush of what stays in the buffer is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
