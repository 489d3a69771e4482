"""The bodies of the commands ``table``, ``decompose``, ``gamma``, ``det``
and ``scan``, each the function of its name, with the helpers only they
use.

:mod:`eulerlab.cli` parses their arguments and imports this module only
when one of them runs, so that a ``poly``, ``export`` or ``verify``
process never compiles this code.  This module never imports
:mod:`eulerlab.cli`: under ``python -m eulerlab.cli`` that module is
``__main__``, and importing it by name would compile it a second time.
"""

from __future__ import annotations

import sys
from math import factorial

from .distributions import build_distribution, classic_eulerian
from .mpoly import MPoly, Refused, _render_as
from .perms import check_n

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
    1 + C(m, m // 2) <= 2**m: hence the bound that ``--help`` states
    (``cli._DIGITS_HELP``).  Digits are counted by :func:`_digits`, so a
    value too long to print is refused too."""
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


def table(args) -> tuple[int, str]:
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


#: each family decompose and gamma split, and its split variable; cli
#: spells out the same families, in this order, as --family's choices
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


def decompose(args) -> tuple[int, str]:
    a, b, var, d = _split(args)
    return 0, (f"a ({var}-palindromic, ambient degree {d}): "
               f"{_render_as(a, args.format)}\n"
               f"b ({var}-palindromic, ambient degree {d - 1}): "
               f"{_render_as(b, args.format)}")


def gamma(args) -> tuple[int, str]:
    from .symmetry import gamma_expand

    a, b, var, d = _split(args)
    lines = []
    for label, part, amb in (("a", a, d), ("b", b, d - 1)):
        if part.is_zero():
            lines.append(f"gamma[{label}]: zero polynomial, empty expansion")
            continue
        lines += [f"gamma[{label}][{i}] = {_render_as(g, args.format)}"
                  for i, g in enumerate(gamma_expand(part, var, amb))]
    return 0, "\n".join(lines)


def det(args) -> tuple[int, str]:
    from .detformula import det_Mnr, reconstruct_a

    poly = det_Mnr(args.n)
    fmts = ("latex", "json") if args.format == "all" else (args.format,)
    lines = [f"det ({fmt}): {_render_as(poly, fmt)}" for fmt in fmts]
    if args.n >= 1:
        rec = reconstruct_a(args.n)
        lines += [f"reconstructed_a ({fmt}): {_render_as(rec, fmt)}"
                  for fmt in fmts]
    return 0, "\n".join(lines)


def _cell(value):
    """A scan value as a row shows it: a tuple joined by ';', a bool or
    int as it is, a rational as its a/b string."""
    if type(value) is tuple:
        return ";".join(map(str, value))
    return value if isinstance(value, int) else str(value)


def scan(args) -> tuple[int, str]:
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
