"""Determinant formula for the palindromic-part coefficients.

The series coefficients f_n(t, r) of :func:`eulerlab.gfengine.f_series`
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

:func:`reconstruct_a` resums the determinant against (1 - s)**(n+1),
subtracts the boundary term and divides by t, recovering the palindromic
part a_n(s, t) of the joint polynomial without touching the symmetric
group.  The division by t must be exact; if it is not, the identity
chain upstream is broken and a DivisibilityError says so.
"""

from __future__ import annotations

from functools import lru_cache

from .gfengine import binom_resum
from .mpoly import DivisibilityError, MPoly, exact_divide
from .perms import MAX_ENUM_N
from .qanalog import binom_poly, t_analog

_VARS = ("t", "r")


@lru_cache(maxsize=None)
def alpha(j: int) -> MPoly:
    """Recurrence coefficient C(r, j) * (1 + ... + t**j), in t and r."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return binom_poly(j, 0).with_vars(_VARS) * t_analog(j + 1).with_vars(_VARS)


@lru_cache(maxsize=None)
def beta(j: int) -> MPoly:
    """Right-hand side (-1)**j * C(r - 1, j) * (1 + ... + t**(j+1))."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    sign = -1 if j % 2 else 1
    return (binom_poly(j, -1).with_vars(_VARS)
            * t_analog(j + 2).with_vars(_VARS) * sign)


@lru_cache(maxsize=None)
def recurrence_f(n: int) -> MPoly:
    """n-th solution of the recurrence, a polynomial in t and r."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return t_analog(2).with_vars(_VARS)
    acc = beta(n)
    for j in range(1, n + 1):
        term = alpha(j) * recurrence_f(n - j)
        acc = acc - term if j % 2 == 0 else acc + term
    return acc


def build_matrix(n: int) -> list[list[MPoly]]:
    """The (n+1) x (n+1) Cramer matrix whose determinant is f_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    zero = MPoly.zero(_VARS)
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n):
            if i < j:
                row.append(zero)
            else:
                entry = alpha(i - j)
                if (i - j) % 2:
                    entry = -entry
                row.append(entry)
        row.append(beta(i))
        rows.append(row)
    return rows


def det_bareiss(matrix: list[list[MPoly]]) -> MPoly:
    """Fraction-free determinant; every division is exact by construction.

    Zero pivots are handled by row swaps (with the sign flip); if no
    nonzero pivot exists below, the determinant is zero.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size == 0:
        raise ValueError("empty matrix")
    vars = matrix[0][0].vars
    m = [list(row) for row in matrix]
    sign = 1
    prev = MPoly.const(vars, 1)
    for k in range(size - 1):
        if m[k][k].is_zero():
            for l in range(k + 1, size):
                if not m[l][k].is_zero():
                    m[k], m[l] = m[l], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(vars)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = exact_divide(
                    m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = MPoly.zero(vars)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def det_cofactor(matrix: list[list[MPoly]]) -> MPoly:
    """Textbook first-row expansion; exponential, for cross-checks only."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size == 1:
        return matrix[0][0]
    vars = matrix[0][0].vars
    acc = MPoly.zero(vars)
    for j in range(size):
        c = matrix[0][j]
        if c.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = c * det_cofactor(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


@lru_cache(maxsize=None)
def det_Mnr(n: int) -> MPoly:
    """Determinant of the Cramer matrix, as a polynomial in t and r.

    n runs up to ``MAX_ENUM_N``, the largest n whose a_n the
    reconstruction can be checked against.
    """
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 0..{MAX_ENUM_N}, got {n}")
    return det_bareiss(build_matrix(n))


def reconstruct_a(n: int) -> MPoly:
    """Rebuild the palindromic part a_n(s, t) from the determinant alone.

    Resums det over r with the (1 - s)**(n+1) weight, strips the
    boundary term (1 + t**(n+1)) * (1 - s)**n, and divides by t.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    resummed = binom_resum(det_Mnr(n), n)
    total = resummed - (1 + t ** (n + 1)) * (1 - s) ** n
    try:
        return exact_divide(total, t)
    except DivisibilityError as exc:
        raise DivisibilityError(
            f"reconstruction at n={n} is not divisible by t; "
            f"the determinant identity is broken") from exc
