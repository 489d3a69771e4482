"""Determinant formula for the palindromic-part coefficients.

The series coefficients f_n(t, r) of :func:`eulerlab.series.f_series`
satisfy a linear recurrence with polynomial coefficients

    alpha_j = C(r, j) * (1 + t + ... + t**j)
    beta_j  = (-1)**j * C(r - 1, j) * (1 + t + ... + t**(j+1))
    sum_{j=0..n} (-1)**j * alpha_j * f_{n-j} = beta_n,      f_0 = 1 + t.

Solving the unit-lower-triangular system by Cramer's rule turns f_n into
an (n+1) x (n+1) determinant: entry (i, j) is (-1)**(i-j) * alpha_(i-j)
for j < n (zero above the diagonal) and beta_i in the last column.  The
alternating signs are part of the Cramer matrix; a plain alpha_(i-j)
layout changes the determinant.

Binomial coefficients here are polynomials in r, so they do not vanish
for small integer r; in particular C(r - 1, n) at r = 0 is (-1)**n,
which is exactly what makes the recurrence hold at r = 0.

The recurrence and the determinant are evaluated at integer r, on
``int`` coefficient lists in t: :func:`f_at` runs the recurrence
bottom-up, f_0 first, and :func:`det_at` runs fraction-free Bareiss
elimination over Z[t] (:func:`det_bareiss`) on the Cramer matrix.  At
integer r >= 0, alpha_j vanishes for j > r, so f_n reads only the last
r values before it.  Both sides have degree at most n in r, so their
values at r = 0..n determine them: :func:`det_Mnr` is the Newton form
sum_k Delta**k det(0) * C(r, k) of those values.

:func:`reconstruct_a` subtracts the boundary term 1 + t**(n+1) from
det(r), regroups the values against (1 - s)**(n+1) in closed form
(:func:`eulerlab.qanalog.regroup`) and divides by t, recovering the
palindromic part a_n(s, t) of the joint polynomial without touching the
symmetric group.  The division by t must be exact; if it is not, the
identity chain upstream is broken and a DivisibilityError says so.
"""

from __future__ import annotations

from collections import deque
from math import comb

from .distributions import check_n
from .mpoly import DivisibilityError, MPoly
from .qanalog import (_check_ints, _check_naturals, binom_poly, gen_binomial,
                      int_add, int_div, int_mul, int_sub, int_trim, regroup)

_VARS = ("t", "r")


def det_bareiss(matrix: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a square matrix over Z[t].

    The matrix is a list of rows, each a list of entries, and entries
    are int coefficient lists in t; a matrix, row or entry that is not a
    list, or a coefficient that is not an ``int`` (a float, a string, a
    Fraction), raises ValueError before elimination.  Each division is
    exact in Z[t] by Sylvester's identity; a remainder raises
    DivisibilityError.  Zero pivots are handled by row swaps (with the
    sign flip); if no nonzero pivot exists below, the determinant is
    zero.

    Step k rewrites entry (i, j) below and right of the pivot only when
    the cross term m[i][k] * m[k][j] is nonzero or the pivot differs
    from the previous one; otherwise Sylvester's identity leaves it
    unchanged.  On the Cramer matrix of :func:`det_at` every pivot is 1
    and each pivot row is zero right of the pivot but in the last
    column, so only that column is rewritten.
    """
    if type(matrix) is not list or any(type(row) is not list
                                       for row in matrix):
        raise ValueError(f"expected a list of rows, got {matrix!r}")
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        for e in row:
            if type(e) is not list:
                raise ValueError(f"expected a list of coefficients, got {e!r}")
    m = [[int_trim(e) for e in row] for row in matrix]
    _check_ints(*(c for row in m for e in row for c in e))
    sign = 1
    prev = [1]
    for k in range(size - 1):
        if not m[k][k]:
            for l in range(k + 1, size):
                if m[l][k]:
                    m[k], m[l] = m[l], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, size):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, size):
                if (lead and m[k][j]) or pivot != prev:
                    row[j] = int_div(int_sub(int_mul(pivot, row[j]),
                                             int_mul(lead, m[k][j])), prev)
        prev = pivot
    det = m[size - 1][size - 1]
    return det if sign == 1 else [-c for c in det]


def _alpha_at(j: int, r: int) -> list[int]:
    return [comb(r, j)] * (j + 1)


def _beta_at(j: int, r: int) -> list[int]:
    return [(-1) ** j * gen_binomial(r - 1, j)] * (j + 2)


def f_at(n: int, r: int) -> tuple[int, ...]:
    """f_n(t, r) at integer r >= 0 from the recurrence, as t-coefficients.

    Builds f_0, ..., f_n in turn, keeping the last r + 1: alpha_j
    vanishes for j > r, so f_m reads only f_(m-1), ..., f_(m-min(m, r)).
    """
    _check_naturals(n, r)
    last: deque[list[int]] = deque(maxlen=r + 1)
    for m in range(n + 1):
        f = _beta_at(m, r)
        for j in range(1, min(m, r) + 1):
            term = int_mul(_alpha_at(j, r), last[-j])
            f = int_sub(f, term) if j % 2 == 0 else int_add(f, term)
        last.append(int_trim(f))
    return tuple(last[-1])


def det_at(n: int, r: int) -> tuple[int, ...]:
    """The Cramer determinant at integer r >= 0, by Bareiss over Z[t]."""
    _check_naturals(n, r)
    rows = []
    for i in range(n + 1):
        row = [[] if i < j else
               [(-1) ** (i - j) * c for c in _alpha_at(i - j, r)]
               for j in range(n)]
        row.append(_beta_at(i, r))
        rows.append(row)
    return tuple(det_bareiss(rows))


def det_Mnr(n: int) -> MPoly:
    """Determinant of the Cramer matrix, as a polynomial in t and r.

    The determinant has degree at most n in r, so it equals its Newton
    form sum_k Delta**k det(0) * C(r, k) over the values r = 0..n.
    n runs from 0 up to ``MAX_ENUM_N``, the largest n whose a_n the
    reconstruction can be checked against; ``distributions.check_n``
    refuses the rest.
    """
    check_n(n, 0)
    values = [list(det_at(n, r)) for r in range(n + 1)]
    acc = MPoly.zero(_VARS)
    for k in range(n + 1):
        if values[0]:
            coeff = MPoly(_VARS, {(e, 0): c for e, c in enumerate(values[0])})
            acc = acc + coeff * binom_poly(k).with_vars(_VARS)
        values = [int_sub(b, a) for a, b in zip(values, values[1:])]
    return acc


def reconstruct_a(n: int) -> MPoly:
    """Rebuild the palindromic part a_n(s, t) from the determinant alone.

    The boundary term (1 + t**(n+1)) * (1 - s)**n is the regrouping of
    the constant 1 + t**(n+1), so subtract that from det(r) at every r,
    regroup against (1 - s)**(n+1) and divide by t.
    """
    check_n(n, 1)
    boundary = [1] + [0] * n + [1]
    total = regroup([int_sub(det_at(n, r), boundary) for r in range(n + 1)])
    if any(e == 0 for _, e in total):
        raise DivisibilityError(
            f"reconstruction at n={n} is not divisible by t; "
            f"the determinant identity is broken")
    return MPoly(("s", "t"), {(j, e - 1): c for (j, e), c in total.items()})
