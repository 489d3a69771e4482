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

from .distributions import _DECOMP_VAR, FAMILIES, build_distribution
from .mpoly import Refused, _coefficient, _render_as

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

#: every command, in the order --help lists them
_COMMANDS = ("table", "poly", "decompose", "gamma", "det", "verify", "scan",
             "export")

# Each command imports the modules it runs, and main builds the parser of
# the one command it runs, so a poly or export process loads and compiles
# only what that command needs.  verify's choices, the tokens of
# checks.CHECKS, are therefore spelled out here, and a test keeps the two
# equal.
_SUITES = ("macmahon", "thm01", "thm20", "eq1", "gf", "thT1", "fubini",
           "li-binomial", "counts")


def _rational(text: str) -> int | Fraction:
    try:
        return _coefficient(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3/2 or 2, got {text!r}")


_DIGITS_HELP = (
    "A value a/b has digits(a/b) = max(len(str(|a|)), len(str(b))).  "
    "Values are refused if digits(n! * 2^(1 + (d+1)^2 // 4)) plus, for each "
    "variable given a value, the family's degree in it times digits(value) "
    "exceeds sys.get_int_max_str_digits() (4300 by default), d being the "
    "ambient degree: that sum bounds the digits of every printed integer.")


def _cmd_poly(args) -> tuple[int, str]:
    poly = build_distribution(args.family, args.n, args.i, args.k)
    return 0, _render_as(poly, args.format)


def _cmd_elsewhere(args) -> tuple[int, str]:
    """Run table, decompose, gamma, det or scan: the function of the
    command's name in :mod:`eulerlab._commands`, which no other command
    compiles."""
    from . import _commands
    return getattr(_commands, args.command)(args)


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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  Either way
    the top-level usage names every command, so a parser of one command
    prints the same usage and errors for the arguments it accepts."""
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Exact joint descent/excedance polynomials, their "
                    "palindromic decompositions, and verification suites.")
    # argparse's own metavar for the full set, given only to a partial one:
    # a metavar would also replace "command" in the full parser's
    # "the following arguments are required" error
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")

    def wanted(name: str) -> bool:
        return command in (None, name)

    if wanted("table"):
        p = sub.add_parser("table", help="counting table for small n")
        p.add_argument("--max-n", type=int, default=7)
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.set_defaults(fn=_cmd_elsewhere)

    if wanted("poly"):
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
    for name, help_ in (("decompose", "palindromic decomposition"),
                        ("gamma", "gamma vectors of both parts")):
        if not wanted(name):
            continue
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
        p.set_defaults(fn=_cmd_elsewhere)

    if wanted("det"):
        p = sub.add_parser("det", help="determinant and the rebuilt a-part")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("text", "json", "latex", "all"),
                       default="all")
        p.set_defaults(fn=_cmd_elsewhere)

    if wanted("verify"):
        p = sub.add_parser("verify", help="run verification suites")
        p.add_argument("--check", choices=_SUITES + ("all",),
                       default="all")
        p.add_argument("--max-n", type=int, default=None)
        p.set_defaults(fn=_cmd_verify)

    if wanted("scan"):
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
        p.set_defaults(fn=_cmd_elsewhere)

    if wanted("export"):
        p = sub.add_parser("export",
                           help="write one polynomial as canonical JSON")
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
    if argv is None:
        argv = sys.argv[1:]
    # a first argument that names a command builds that command's parser
    # alone; any other (none, -h, a typo) builds them all, for the
    # top-level help and errors
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
