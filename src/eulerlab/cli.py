"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite found a failing
identity (the witness is printed), 2 on usage errors.  All rational
inputs are given as ``a/b`` strings so nothing ever round-trips through
floating point.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from math import factorial
from typing import TYPE_CHECKING

from .distributions import FAMILIES, build_distribution, classic_eulerian
from .mpoly import MPoly
from .perms import check_n

if TYPE_CHECKING:
    from fractions import Fraction

    from .symmetry import SymDecomp

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
    if fmt == "json":
        return poly.dumps()
    if fmt == "latex":
        return poly.latex()
    return poly.text()


# ----------------------------------------------------------------------
# table

_TABLE_FIELDS = ("n", "permutations", "derangements",
                 "ordered_set_partitions", "eulerian")


def _cmd_table(args) -> int:
    from .qanalog import fubini_number, subfactorial

    check_n(args.max_n, 1)  # before any build
    rows = [(n, factorial(n), subfactorial(n), fubini_number(n),
             classic_eulerian(n).to_dense("x"))
            for n in range(1, args.max_n + 1)]
    if args.format == "json":
        import json
        print(json.dumps([dict(zip(_TABLE_FIELDS, r)) for r in rows],
                         separators=(",", ":")))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_TABLE_FIELDS)
        for *counts, eulerian in rows:
            writer.writerow([*counts, ";".join(map(str, eulerian))])
    else:
        print(f"{'n':>2} {'perms':>9} {'derange':>9} {'ordered':>9}  eulerian")
        for n, perms, derange, ordered, eulerian in rows:
            print(f"{n:>2} {perms:>9} {derange:>9} {ordered:>9}  "
                  f"{' '.join(map(str, eulerian))}")
    return 0


# ----------------------------------------------------------------------
# poly

def _cmd_poly(args) -> int:
    poly = build_distribution(args.family, args.n, args.i, args.k)
    print(_render(poly, args.format))
    return 0


# ----------------------------------------------------------------------
# decompose / gamma

_DECOMP_VAR = {"des_exc": "t", "trivariate": "t",
               "classic_eulerian": "x", "derangement": "x"}


def _split(args) -> SymDecomp:
    """The family at --n, specialized at --s/--p/--q, split at --d or n-1."""
    from .symmetry import sym_decompose

    # each family's degree in its split variable is below n; cost grows with d
    if args.d is not None and args.d > args.n:
        raise ValueError(
            f"ambient degree must be at most n={args.n}, got {args.d}")
    poly = build_distribution(args.family, args.n)
    assignments = {}
    for name in ("s", "p", "q"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in poly.vars:
            raise ValueError(
                f"--{name} does not apply to family {args.family!r}")
        assignments[name] = value
    if assignments:
        poly = poly.subs(assignments)
    d = args.d if args.d is not None else args.n - 1
    return sym_decompose(poly, _DECOMP_VAR[args.family], d)


def _cmd_decompose(args) -> int:
    a, b, var, d = _split(args)
    print(f"a ({var}-palindromic, ambient degree {d}): "
          f"{_render(a, args.format)}")
    print(f"b ({var}-palindromic, ambient degree {d - 1}): "
          f"{_render(b, args.format)}")
    return 0


def _cmd_gamma(args) -> int:
    from .symmetry import gamma_expand

    a, b, var, d = _split(args)
    for label, part, amb in (("a", a, d), ("b", b, d - 1)):
        if part.is_zero():
            print(f"gamma[{label}]: zero polynomial, empty expansion")
            continue
        expansion = gamma_expand(part, var, amb)
        for i, g in enumerate(expansion.gammas):
            print(f"gamma[{label}][{i}] = {_render(g, args.format)}")
    return 0


# ----------------------------------------------------------------------
# det

def _cmd_det(args) -> int:
    from .detformula import det_Mnr, reconstruct_a

    det = det_Mnr(args.n)
    fmts = ("latex", "json") if args.format == "all" else (args.format,)
    for fmt in fmts:
        print(f"det ({fmt}): {_render(det, fmt)}")
    if args.n >= 1:
        rec = reconstruct_a(args.n)
        for fmt in fmts:
            print(f"reconstructed_a ({fmt}): {_render(rec, fmt)}")
    return 0


# ----------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    from .checks import run_checks

    results = run_checks(args.check, max_n=args.max_n)
    failed = False
    for res in results:
        for line in res.lines:
            print(line)
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'}")
        if not res.passed:
            failed = True
            print(f"{res.name} witness: {res.witness}")
    print("result: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# scan

def _cell(value):
    """A scan value as a row shows it: a tuple joined by ';', a bool or
    int as it is, a rational as its a/b string."""
    if type(value) is tuple:
        return ";".join(map(str, value))
    return value if isinstance(value, int) else str(value)


def _scan_rows(args):
    from .symmetry import conjecture_scan

    check_n(args.max_n, 1)  # before any build
    for n in range(1, args.max_n + 1):
        rep = conjecture_scan(n, args.p, args.q, force=args.force)
        yield {k: _cell(v) for k, v in rep._asdict().items()}


def _cmd_scan(args) -> int:
    from .symmetry import ScanReport

    rows = list(_scan_rows(args))
    if args.format == "json":
        import json
        print(json.dumps(rows, separators=(",", ":")))
    else:
        import csv
        writer = csv.DictWriter(sys.stdout, fieldnames=ScanReport._fields,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ----------------------------------------------------------------------
# export

#: the families only export writes: family -> (module, builder of n),
#: the module imported on use
_EXPORT_ONLY = {
    "det": ("detformula", "det_Mnr"),
    "a_part": ("symmetry", "a_part"),
    "reconstruct_a": ("detformula", "reconstruct_a"),
}


def _cmd_export(args) -> int:
    if args.family in _EXPORT_ONLY:
        if args.i is not None or args.k is not None:
            raise ValueError(f"family {args.family!r} takes no --i/--k")
        module, builder = _EXPORT_ONLY[args.family]
        poly = getattr(import_module(f".{module}", __package__),
                       builder)(args.n)
    else:
        poly = build_distribution(args.family, args.n, args.i, args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(poly.dumps())
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser

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
                   "seeds with the zero polynomial at n = 0.")
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
                                    "three-variable refinement")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
