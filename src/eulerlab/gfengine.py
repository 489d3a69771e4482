"""Series-side identities for the joint descent/excedance polynomials.

The driving identity: summing A_n(s, t) * u**n / (1 - s)**(n + 1) over n
and regrouping by powers of s gives, for each exponent r, the closed
series

    g_r = (1 - t) * (1 - u*t)**r / ((1 - u) * D_r),
    D_r = (1 - u)**r - t*(1 - u*t)**r,

so [u**n] g_r must equal sum_j [s**j] A_n * C(n + r - j, n).  The same
regrouping applied to the palindromic parts a_n produces a companion
series w_r, and the two telescope: g_r - (1 - u*t) * w_r == 1 for every
r.

:func:`verify_foata` checks all three statements on plain ``int``
coefficient lists in t, with no division: each series side is
multiplied by its denominator and compared mod u**(K+1).  The closed
forms themselves, over ``USeries``, live in :mod:`eulerlab.series`; they
are the oracle the tests hold the integer route against, and nothing
here imports them.

Integer coefficient extraction (:func:`f_nkr` and its lattice closed
form :func:`f_nkr_closed`) serves the eq1 suite.  :func:`binom_resum`
regroups the values of a polynomial in r by
:func:`eulerlab.qanalog.regroup`, the inverse of :func:`_resummed`.  No
command runs it and the package does not export it; it stays only
because perfbench's tracer wraps it.
"""

from __future__ import annotations

from math import comb

from .distributions import check_n, eulerian_st
from .mpoly import MPoly
from .qanalog import (_check_naturals, int_add, int_mul, int_sub, int_trim,
                      regroup)


def _joint(n: int) -> MPoly:
    if n == 0:
        return MPoly.const(("s", "t"), 1)
    return eulerian_st(n)


def _resummed(poly: MPoly, n: int, r: int) -> list[int]:
    """sum_j [s**j] poly * C(n + r - j, n) as an int coefficient list in t.

    ``poly`` is an integer polynomial over (s, t); entry k of the result
    is the coefficient of t**k, with no trailing zeros.
    """
    out: list[int] = []
    for (j, k), c in poly.terms.items():
        if k >= len(out):
            out.extend([0] * (k + 1 - len(out)))
        out[k] += c * comb(n + r - j, n)
    return int_trim(out)


def _binomial_series(r: int, order: int, step: int) -> list[list[int]]:
    """(1 - u*t**step)**r mod u**(order+1).

    Entry j, the coefficient of u**j, is (-1)**j C(r, j) t**(step*j).
    """
    return [[0] * (step * j) + [(-1) ** j * comb(r, j)]
            for j in range(min(r, order) + 1)]


def _series_mul(a, b, order: int) -> list[list[int]]:
    """Product of two int series in u, truncated after u**order."""
    out: list[list[int]] = [[] for _ in range(order + 1)]
    for i, x in enumerate(a[:order + 1]):
        for j, y in enumerate(b[:order + 1 - i]):
            out[i + j] = int_add(out[i + j], int_mul(x, y))
    return out


def _truncate(a, order: int) -> list[list[int]]:
    """The int series ``a`` with exactly the entries u**0 .. u**order."""
    return (list(a) + [[]] * (order + 1))[:order + 1]


def _series_sub(a, b, order: int) -> list[list[int]]:
    return [int_sub(x, y)
            for x, y in zip(_truncate(a, order), _truncate(b, order))]


def _statements(L, W, r: int, order: int):
    """The three statements at r as (label, lhs, rhs), each side an int
    series with the entries u**0 .. u**order.

    L and W are the series whose u**n coefficients are [s**r] of the
    joint and the palindromic-part regroupings, as int lists in t.
    """
    one_minus_u = [[1], [-1]]
    one_minus_ut = [[1], [0, -1]]
    den = _series_sub(_binomial_series(r, order, 0),
                      [[0] + c for c in _binomial_series(r, order, 1)], order)
    joint_den = _series_mul(one_minus_u, den, order)
    return (
        ("joint", _series_mul(L, joint_den, order),
         _truncate([int_mul([1, -1], c)
                    for c in _binomial_series(r, order, 1)], order)),
        ("a-part", _series_mul(W, _series_mul(one_minus_ut, joint_den, order),
                               order),
         _series_sub(_binomial_series(r + 1, order, 1),
                     _binomial_series(r + 1, order, 0), order)),
        ("telescope", _series_sub(L, _series_mul(one_minus_ut, W, order),
                                  order),
         _truncate([[1]], order)),
    )


def verify_foata(max_n: int) -> tuple[list[str], list[str], list[str]]:
    """Check the three series statements for all n <= max_n and r <= max_n.

    With K = max_n and L_r, W_r the series whose u**n coefficients
    are the counting sides ``_resummed(A_n, n, r)`` and
    ``_resummed(a_n, n, r)``, the statements are checked as

        L_r * (1 - u) * D_r            == (1 - t) * (1 - u*t)**r
        W_r * (1 - u)(1 - u*t) * D_r   == (1 - u*t)**(r+1) - (1 - u)**(r+1)
        L_r - (1 - u*t) * W_r          == 1

    mod u**(K+1), on int coefficient lists in t.  Each denominator has
    u**0 term 1 - t, a unit of Q(t), so it is invertible in Q(t)[[u]]
    and multiplying by it is a bijection on series mod u**(K+1): the
    first two statements hold exactly when L_r and W_r agree with g_r
    and w_r through u**K, the old coefficient comparison.  Given those,
    the third is the telescope g_r - (1 - u*t) w_r == 1 through u**K.

    Returns the witnesses of each statement in that order (joint,
    a-part, telescope), each list empty when its statement holds.  A
    statement gives one witness per failing r, naming the lowest
    u-degree n where the two sides differ.  max_n runs from 0 up to
    ``MAX_ENUM_N``, the builders' cap; ``distributions.check_n`` refuses
    the rest before any build.
    """
    # imported here, so the eq1 suite, which needs only f_nkr, does not
    # load symmetry
    from .symmetry import a_part

    check_n(max_n, 0)
    orders = range(max_n + 1)
    joint = [_joint(n) for n in orders]
    parts = [a_part(n) for n in orders]
    witnesses: tuple[list[str], ...] = ([], [], [])
    for r in orders:
        L = [_resummed(joint[n], n, r) for n in orders]
        W = [_resummed(parts[n], n, r) for n in orders]
        for found, (label, lhs, rhs) in zip(witnesses,
                                            _statements(L, W, r, max_n)):
            for n in orders:
                if lhs[n] != rhs[n]:
                    found.append(f"{label} r={r} n={n}: [u^{n}] is "
                                 f"{lhs[n]} on the counting side, "
                                 f"{rhs[n]} on the closed side")
                    break
    return witnesses


# ----------------------------------------------------------------------
# integer coefficient extraction and its closed form

def f_nkr(n: int, k: int, r: int) -> int:
    """[s**r t**k u**n] of the joint generating function, by direct expansion."""
    _check_naturals(n, k, r)
    coeffs = _resummed(_joint(n), n, r)
    return coeffs[k] if k < len(coeffs) else 0


def f_nkr_closed(n: int, k: int, r: int) -> int:
    """Closed-form lattice count matching :func:`f_nkr`.

    Counts integer points y in the box [0, r]**n whose coordinate sum
    lies in a window of r consecutive values ending at k*r + r (for
    k >= 1) or in the closed window [0, r] (for k = 0, where there is
    no lower face to remove).  Equivalently, the coefficient of
    x**(k*r + r) in (1 - x**r) * (1 - x**(r+1))**n / (1 - x)**(n+1),
    with the first factor dropped when k = 0.

    The literal reading of the formula swaps the roles of k and r: the
    coefficient of x**(k*r + k) in (1 - x**k) * (1 - x**(k+1))**n /
    (1 - x)**(n+1).  For r >= 1 that is ``f_nkr_closed(n, r, k)``, and it
    does not agree with :func:`f_nkr`; ``check_eq1`` prints one such
    point.
    """
    _check_naturals(n, k, r)
    target = k * r + r
    # numerator (1 - x**r) * (1 - x**(r+1))**n, sparse in x; the window
    # factor 1 - x**r is absent at k = 0 (closed window) and identically
    # zero at r = 0
    numer = {i * (r + 1): (-1) ** i * comb(n, i) for i in range(n + 1)}
    if k >= 1:
        if r == 0:
            return 0
        shifted: dict[int, int] = {}
        for m, c in numer.items():
            shifted[m] = shifted.get(m, 0) + c
            shifted[m + r] = shifted.get(m + r, 0) - c
        numer = shifted
    return sum(c * comb(target - m + n, n)
               for m, c in numer.items() if m <= target)


# ----------------------------------------------------------------------
# binomial resummation

def binom_resum(poly: MPoly, n: int) -> MPoly:
    """Regroup sum_r poly(r) s**r against the weight (1 - s)**(n + 1).

    ``poly`` is a polynomial in r, possibly with coefficients in t, of
    degree at most n.  Its values at r = 0..n fix it, and
    :func:`eulerlab.qanalog.regroup` turns them into the product, a
    polynomial in s and t, which this returns.  It stays only because
    perfbench's tracer wraps it; no test holds another route against it.
    """
    _check_naturals(n)
    poly = poly.with_vars(("t", "r"))
    if poly.degree("r") > n:
        raise ValueError(
            f"degree {poly.degree('r')} in r exceeds n = {n}")
    values = [poly.subs({"r": r}).to_dense("t") for r in range(n + 1)]
    return MPoly(("s", "t"), regroup(values))
