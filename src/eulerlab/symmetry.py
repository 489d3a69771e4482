"""Symmetric decompositions, gamma expansions and coefficient shape tests.

Fix a variable x and an ambient degree d.  Every polynomial f with
deg_x(f) <= d splits uniquely as f = a + x*b where a is palindromic at
ambient degree d and b is palindromic at ambient degree d - 1:

    a = (f - x**(d+1) * f(1/x)) / (1 - x)
    b = (f - a) / x

With F_i = f_0 + ... + f_i, the quotient is a_i = F_i + F_(d-i) - F_d,
so the split takes one prefix sum and divides by nothing; a + x*b = f
holds for every input.  A palindromic polynomial at ambient degree d
has a unique expansion in the basis x**i * (1 + x)**(d - 2*i);
nonnegativity of those expansion coefficients is the gamma-positivity
property that the scan command hunts for.

One kernel on coefficient lists (:func:`_split_ints`,
:func:`_gamma_ints`) serves ``verify``, ``scan``, ``decompose`` and
``gamma``: :func:`sym_decompose` and :func:`gamma_expand` run it on each
row of f, the list in x of one monomial in the other variables, and
return only what it computed, the pair (a, b) and the tuple of gammas:
the caller already holds x and d.  The kernel takes exact values as
they come, ints or Fractions; only
:func:`conjecture_scan` scales to ints, for the cost its docstring gives.
The gamma elimination runs over the first half of the list alone,
indices 0..d // 2: each step subtracts a palindrome at degree d, so the
remainder stays palindromic and a zero first half means a zero
remainder.  Two divisions by 1 - x and top-down elimination over the
whole polynomial are its test reference.

The joint descent/excedance polynomial has ambient degree n - 1 in the
excedance variable.  Its palindromic part satisfies a two-term recursion
against the previous n which :func:`verify_thm20` checks; the seed of
that recursion at n = 0 is the zero polynomial by convention.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import comb

from .distributions import _trivariate_table, check_n, eulerian_st
from .mpoly import MPoly, Refused, _coefficient, _fraction

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


#: the pair (a, b) with f = a + var * b, both parts palindromic
SymDecomp = namedtuple("SymDecomp", "a b")


def _rows(f: MPoly, var: str, d: int) -> dict[tuple, list]:
    """f's coefficient list in var, of length d + 1, for each monomial in
    the other variables, keyed by its exponents before and after var."""
    if f.degree(var) > d:
        raise Refused(
            f"degree {f.degree(var)} in {var!r} exceeds ambient degree {d}")
    i = f.vars.index(var)
    rows: dict[tuple, list] = {}
    for exp, c in f.terms.items():
        rows.setdefault((exp[:i], exp[i + 1:]), [0] * (d + 1))[exp[i]] = c
    return rows


def _by_rows(f: MPoly, var: str, d: int, kernel, parts: int) -> list[MPoly]:
    """Run a list kernel on every row of f and reassemble its output.

    ``kernel`` maps a row to ``parts`` lists; entry k of list j is the
    coefficient of var**k times the row's monomial in part j.
    """
    out: list[dict] = [{} for _ in range(parts)]
    for (head, tail), row in _rows(f, var, d).items():
        for terms, cs in zip(out, kernel(row)):
            for k, c in enumerate(cs):
                if c:
                    terms[head + (k,) + tail] = c
    return [MPoly(f.vars, terms) for terms in out]


def _check_degree(d: int) -> None:
    if type(d) is not int:
        raise ValueError(f"ambient degree must be an int, got {d!r}")


def is_palindromic(f: MPoly, var: str, d: int) -> bool:
    _check_degree(d)
    return f.degree(var) <= d and all(
        row == row[::-1] for row in _rows(f, var, d).values())


def sym_decompose(f: MPoly, var: str, d: int) -> SymDecomp:
    """Split f into its palindromic parts at ambient degree d >= 0."""
    _check_degree(d)
    if d < 0:
        raise ValueError(f"ambient degree must be nonnegative, got {d}")
    return SymDecomp(*_by_rows(f, var, d, _split_ints, 2))


def a_part(n: int) -> MPoly:
    """Palindromic part of the joint (des, exc) polynomial; zero at n = 0.

    Each call splits the cached :func:`eulerian_st` afresh; the split is
    too cheap for a cache of its own to measure.
    """
    check_n(n, 0)
    if n == 0:
        return MPoly.zero(("s", "t"))
    return sym_decompose(eulerian_st(n), "t", n - 1).a


def verify_thm20(n: int) -> list[str]:
    """Check the decomposition recursion at one n; return its witnesses.

    Confirms that the antisymmetric part of the joint polynomial equals
    (s - 1) times the previous palindromic part, and that the whole
    identity A_n = a_n + (s - 1) * t * a_{n-1} holds exactly.  Each
    failing half gives one witness, its serialized part against the
    expected value: the b part against (s - 1) * a_{n-1} first, then the
    a part against A_n - (s - 1) * t * a_{n-1}.  The list is empty when
    both halves hold.
    """
    check_n(n, 2)
    joint = eulerian_st(n)
    dec = sym_decompose(joint, "t", n - 1)
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    want_b = (s - 1) * a_part(n - 1)
    want_a = joint - t * want_b
    return [f"{name}={got.dumps()} expected={want.dumps()}"
            for name, got, want in (("b_part", dec.b, want_b),
                                    ("a_part", dec.a, want_a))
            if got != want]


# ----------------------------------------------------------------------
# gamma expansion

def gamma_expand(f: MPoly, var: str, d: int) -> tuple[MPoly, ...]:
    """Expand a palindromic f in the gamma basis at ambient degree d.

    Returns the coefficients g_i of f = sum g_i var**i (1 + var)**(d - 2i).
    Gamma i is a polynomial in the other variables: each row of f is
    expanded by :func:`_gamma_ints`.  Raises ValueError when f is not
    palindromic at ambient degree d (the basis only spans those): a
    degree above d is refused by :func:`_rows`, a row that is not its
    own reverse by :func:`_gamma_ints`.  The zero polynomial, of degree
    -1, has the empty expansion at every d >= -1, as
    :func:`is_palindromic` reads it.  A d that is not an int is refused.
    """
    _check_degree(d)
    if f.is_zero() and d >= -1:
        return ()
    gammas = _by_rows(f, var, d, lambda cs: [[g] for g in _gamma_ints(cs)],
                      d // 2 + 1)
    return tuple(gammas)


def gamma_expand_coeffs(coeffs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Gamma vector of a palindromic coefficient list.

    The list fixes the ambient degree: its length is d + 1, trailing
    zeros included.  An empty or all-zero list has an empty gamma vector.
    The list is expanded by :func:`_gamma_ints`.  Entries are exact:
    each is coerced by :func:`~eulerlab.mpoly._coefficient`, so a float
    or complex raises ValueError.
    """
    Fraction = _fraction()
    return tuple(Fraction(g)
                 for g in _gamma_ints([_coefficient(c) for c in coeffs]))


# ----------------------------------------------------------------------
# coefficient-list kernel, in one variable at ambient degree len(list) - 1:
# it only adds, subtracts and multiplies by ints, so ints stay ints

def _split_ints(f: list) -> tuple[list, list]:
    """The palindromic parts (a, b) of f = a + x*b at degree len(f) - 1.

    a has len(f) entries and b one fewer, none for an empty f.
    a = (f - x*flip(f))/(1 - x)
    in closed form: with d = len(f) - 1 and the prefix sums
    F_i = f_0 + ... + f_i, a_i = F_i + F_(d-i) - F_d, and
    b_i = f_(d-i) - a_i for i < d.  Then a_i - a_(i-1) = f_i - f_(d+1-i),
    so a + x*b = f by construction, and the check that pins the split
    is the palindromy of a and b.
    """
    if not f:
        return [], []
    prefix = list(accumulate(f))
    top = prefix[-1]
    a = [x + y - top for x, y in zip(prefix, reversed(prefix))]
    b = [x - y for x, y in zip(f[:0:-1], a)]
    assert a == a[::-1] and b == b[::-1], "split parts are not palindromic"
    return a, b


def _gamma_ints(cs: list) -> list:
    """Gamma vector of a palindromic list; [] when all zero.

    The list is checked to be palindromic first, then eliminated from
    the bottom over its first half alone, indices 0..d // 2: every basis
    element is a palindrome at degree d, so the remainder stays one, and
    the assert that the half-remainder is zero covers all of it.
    """
    if not any(cs):
        return []
    d = len(cs) - 1
    if cs != cs[::-1]:
        raise ValueError(
            f"coefficient list is not palindromic at ambient degree {d}")
    half = d // 2
    rem = cs[:half + 1]
    gammas = []
    # step i subtracts g * x**i * (1 + x)**(d - 2i), a palindrome at
    # degree d, so the remainder stays palindromic: once its first half
    # is zero, all of it is
    for i in range(half + 1):
        g = rem[i]
        gammas.append(g)
        if g:
            m = d - 2 * i
            for k in range(i, half + 1):
                rem[k] -= g * comb(m, k - i)
    assert not any(rem), "gamma elimination left a remainder"
    return gammas


# ----------------------------------------------------------------------
# shape predicates on coefficient lists

ShapeFlags = namedtuple("ShapeFlags", "palindromic unimodal "
                        "alternatingly_increasing gamma_nonnegative")


def _is_unimodal(cs: Sequence[Fraction]) -> bool:
    rising = True
    for a, b in zip(cs, cs[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True


def _is_alternatingly_increasing(cs: Sequence[Fraction]) -> bool:
    # chain c_0 <= c_d <= c_1 <= c_{d-1} <= ... from the outside in
    d = len(cs) - 1
    chain = []
    lo, hi = 0, d
    while lo <= hi:
        chain.append(cs[lo])
        if hi != lo:
            chain.append(cs[hi])
        lo += 1
        hi -= 1
    return all(a <= b for a, b in zip(chain, chain[1:]))


def shape_checks(coeffs: Sequence[Fraction | int]) -> ShapeFlags:
    """Palindromicity, unimodality, alternating increase, gamma sign."""
    cs = [_coefficient(c) for c in coeffs]
    if not cs:
        raise ValueError("empty coefficient list")
    palin = cs == cs[::-1]
    return ShapeFlags(
        palindromic=palin,
        unimodal=_is_unimodal(cs),
        alternatingly_increasing=_is_alternatingly_increasing(cs),
        gamma_nonnegative=palin and all(g >= 0 for g in _gamma_ints(cs)),
    )


# ----------------------------------------------------------------------
# numeric scan of the three-variable refinement

#: n and the point (p, q) as Fractions, the gamma vectors of both parts
#: as tuples of Fractions with their sign flags, the shape flags of the
#: t-vector, the tuple of its modes, and whether the point lies in the
#: zone; ``eulerlab scan`` writes its columns in this order
ScanReport = namedtuple(
    "ScanReport", "n p q gamma_a gamma_b gamma_a_nonneg gamma_b_nonneg "
    "alternatingly_increasing unimodal mode_indices in_hypothesis")


def _check_zone(p: Fraction, q: Fraction, force: bool) -> bool:
    """Whether (p, q) lies in the hypothesis zone p > 1, q >= 1; a point
    outside it is refused unless ``force``.  ``eulerlab scan`` calls it
    once before it builds anything, and :func:`conjecture_scan` before it
    reads the table."""
    in_zone = p.numerator > p.denominator and q.numerator >= q.denominator
    if not (in_zone or force):
        raise Refused(f"(p, q) = ({p}, {q}) is outside p > 1, q >= 1; "
                      f"pass --force, or force=True to conjecture_scan")
    return in_zone


def conjecture_scan(n: int, p, q, force: bool = False) -> ScanReport:
    """Decompose the specialized refinement and report its shape.

    Specializes the (exc, des, maj-exc) polynomial at rational p, q,
    splits it in t at ambient degree n - 1, and reports the gamma
    vectors of both parts together with shape flags of the t-vector
    itself.  The hypothesis zone is p > 1, q >= 1; points
    outside it need ``force=True``.  n takes the range of
    :func:`trivariate`.  p and q are exact: a ``Fraction`` is used as
    given, and any other value is read by
    :func:`~eulerlab.mpoly._coefficient`, so a float or complex raises
    ValueError.  Reports never raise on a shape violation; they record it.

    The work is exact on int coefficient lists.  The scan reads the
    fold's own table of (exc, des, gap, count) ints
    (``distributions._trivariate_table``), built once per n and shared
    with :func:`trivariate`, so every later point at that n and every
    build of the polynomial reuse it.  n is checked before the table is
    read, since its cache is untyped.  With p = a/b and q = c/e, the
    t-vector is evaluated from that table scaled by
    M = b**D * e**G (D, G the top degrees in p and q), split and
    gamma-expanded by the integer kernel; M > 0, so the sign flags are
    read off the integer gammas, and only the reported gammas are
    divided by M.  Once the tables are built, a point over n = 1..9
    takes about 0.3 ms in process (the median over perfbench's 36
    points, 2-core x86, Python 3.11.7); the same gammas from the table
    evaluated in Fractions take about 5 ms, which is why the scan alone
    scales to ints.
    """
    check_n(n, 1)
    Fraction = _fraction()
    if type(p) is not Fraction:
        p = Fraction(_coefficient(p))
    if type(q) is not Fraction:
        q = Fraction(_coefficient(q))
    in_hyp = _check_zone(p, q, force)
    a, b, c, e = p.numerator, p.denominator, q.numerator, q.denominator
    top_des, top_gap, terms = _trivariate_table(n, False)
    p_pow = [a ** k * b ** (top_des - k) for k in range(top_des + 1)]
    q_pow = [c ** k * e ** (top_gap - k) for k in range(top_gap + 1)]
    dense = [0] * n
    for exc, des, gap, count in terms:
        dense[exc] += count * p_pow[des] * q_pow[gap]
    scale = p_pow[0] * q_pow[0]
    a_cs, b_cs = _split_ints(dense)
    ints_a, ints_b = _gamma_ints(a_cs), _gamma_ints(b_cs)
    top = max(dense)
    modes = tuple(i for i, c in enumerate(dense) if c == top)
    # positional, with min() for the sign flags: about 1 % of an op
    # against keywords and all() over a generator
    return ScanReport(
        n, p, q,
        tuple(Fraction(g, scale) for g in ints_a),
        tuple(Fraction(g, scale) for g in ints_b),
        min(ints_a, default=0) >= 0, min(ints_b, default=0) >= 0,
        _is_alternatingly_increasing(dense), _is_unimodal(dense),
        modes, in_hyp)
