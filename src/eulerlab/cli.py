"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite found a failing
identity (the witness is printed), 2 on usage errors.  All rational
inputs are given as ``a/b`` strings so nothing ever round-trips through
floating point.
"""

from __future__ import annotations

import argparse
import io
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
    if fmt == "json":
        return poly.dumps()
    if fmt == "latex":
        return poly.latex()
    return poly.text()


# ----------------------------------------------------------------------
# table

def _cmd_table(args) -> int:
    from .qanalog import fubini_number, subfactorial

    check_n(args.max_n, 1)  # before any build
    rows = []
    for n in range(1, args.max_n + 1):
        rows.append({
            "n": n,
            "permutations": factorial(n),
            "derangements": subfactorial(n),
            "ordered_set_partitions": fubini_number(n),
            "eulerian": [str(int(c))
                         for c in classic_eulerian(n).to_dense("x")],
        })
    if args.format == "json":
        import json
        print(json.dumps(rows, separators=(",", ":")))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "permutations", "derangements",
                         "ordered_set_partitions", "eulerian"])
        for r in rows:
            writer.writerow([r["n"], r["permutations"], r["derangements"],
                             r["ordered_set_partitions"],
                             ";".join(r["eulerian"])])
    else:
        header = f"{'n':>2} {'perms':>9} {'derange':>9} {'ordered':>9}  eulerian"
        print(header)
        for r in rows:
            print(f"{r['n']:>2} {r['permutations']:>9} {r['derangements']:>9} "
                  f"{r['ordered_set_partitions']:>9}  {' '.join(r['eulerian'])}")
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


def _specialized(args) -> tuple[MPoly, str]:
    family = args.family
    poly = build_distribution(family, args.n)
    var = _DECOMP_VAR[family]
    assignments = {}
    for name in ("s", "p", "q"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in poly.vars:
            raise ValueError(
                f"--{name} does not apply to family {family!r}")
        assignments[name] = value
    if assignments:
        poly = poly.subs(assignments)
    return poly, var


def _cmd_decompose(args) -> int:
    from .symmetry import sym_decompose

    poly, var = _specialized(args)
    d = args.d if args.d is not None else args.n - 1
    dec = sym_decompose(poly, var, d)
    print(f"a ({var}-palindromic, ambient degree {d}): "
          f"{_render(dec.a, args.format)}")
    print(f"b ({var}-palindromic, ambient degree {d - 1}): "
          f"{_render(dec.b, args.format)}")
    return 0


def _cmd_gamma(args) -> int:
    from .symmetry import gamma_expand, sym_decompose

    poly, var = _specialized(args)
    d = args.d if args.d is not None else args.n - 1
    dec = sym_decompose(poly, var, d)
    for label, part, amb in (("a", dec.a, d), ("b", dec.b, d - 1)):
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

def _scan_rows(args):
    from .symmetry import conjecture_scan

    check_n(args.max_n, 1)  # before any build
    for n in range(1, args.max_n + 1):
        rep = conjecture_scan(n, args.p, args.q, force=args.force)
        yield {
            "n": rep.n,
            "p": str(rep.p),
            "q": str(rep.q),
            "gamma_a": ";".join(str(g) for g in rep.gamma_a),
            "gamma_b": ";".join(str(g) for g in rep.gamma_b),
            "gamma_a_nonneg": rep.gamma_a_nonneg,
            "gamma_b_nonneg": rep.gamma_b_nonneg,
            "alternatingly_increasing": rep.alternatingly_increasing,
            "unimodal": rep.unimodal,
            "mode_indices": ";".join(str(i) for i in rep.mode_indices),
            "in_hypothesis": rep.in_hypothesis,
        }


_SCAN_FIELDS = ["n", "p", "q", "gamma_a", "gamma_b", "gamma_a_nonneg",
                "gamma_b_nonneg", "alternatingly_increasing", "unimodal",
                "mode_indices", "in_hypothesis"]


def _cmd_scan(args) -> int:
    rows = list(_scan_rows(args))
    if args.format == "json":
        import json
        print(json.dumps(rows, separators=(",", ":")))
    else:
        import csv
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SCAN_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return 0


# ----------------------------------------------------------------------
# export

def _cmd_export(args) -> int:
    if args.family in ("det", "a_part", "reconstruct_a") and (
            args.i is not None or args.k is not None):
        raise ValueError(f"family {args.family!r} takes no --i/--k")
    if args.family == "det":
        from .detformula import det_Mnr
        poly = det_Mnr(args.n)
    elif args.family == "a_part":
        from .symmetry import a_part
        poly = a_part(args.n)
    elif args.family == "reconstruct_a":
        from .detformula import reconstruct_a
        poly = reconstruct_a(args.n)
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
    p = sub.add_parser("decompose", help="palindromic decomposition",
                       epilog=decomp_help)
    p.add_argument("--family", choices=tuple(_DECOMP_VAR), default="des_exc")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_rational, default=None,
                   help="specialize the descent variable, as a/b")
    p.add_argument("--p", type=_rational, default=None)
    p.add_argument("--q", type=_rational, default=None)
    p.add_argument("--d", type=int, default=None,
                   help="ambient degree (default n-1)")
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("gamma", help="gamma vectors of both parts",
                       epilog=decomp_help)
    p.add_argument("--family", choices=tuple(_DECOMP_VAR), default="des_exc")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_rational, default=None)
    p.add_argument("--p", type=_rational, default=None)
    p.add_argument("--q", type=_rational, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    p.set_defaults(fn=_cmd_gamma)

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
                   choices=FAMILIES + ("det", "a_part", "reconstruct_a"),
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
