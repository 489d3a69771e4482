"""Binomial polynomials, Stirling numbers, counting sequences and
arithmetic on integer coefficient lists in t.

Everything here returns exact integers, integer lists or
:class:`~eulerlab.mpoly.MPoly` values, and the integer functions refuse
an argument that is not an ``int`` with ValueError rather than carry a
float through.  One guard, :func:`_check_naturals`, states the rule "a
nonnegative int" for every size and index here and in ``detformula``,
``gfengine`` and ``series``.  The binomial helpers follow the
falling-factorial definition, so a negative upper argument is
meaningful: ``gen_binomial(-1, j) == (-1)**j``, not 0.
That sign is load-bearing for the determinant recurrence: its beta_j
carries C(r - 1, j), which ``detformula`` evaluates as
``gen_binomial(r - 1, j)``, and the recurrence is a polynomial identity
in r that must hold at r = 0 too.
"""

from __future__ import annotations

from math import comb, factorial

from .mpoly import DivisibilityError, MPoly, _fraction


def _check_ints(*args) -> None:
    for value in args:
        if type(value) is not int:
            raise ValueError(f"expected an int, got {value!r}")


def _check_naturals(*args) -> None:
    """Refuse any argument that is not an int >= 0."""
    _check_ints(*args)
    for value in args:
        if value < 0:
            raise ValueError(f"expected a nonnegative int, got {value}")


def gen_binomial(a: int, j: int) -> int:
    """Binomial coefficient ``C(a, j)`` for any integer ``a``, ``j >= 0``."""
    _check_ints(a)
    _check_naturals(j)
    num = 1
    for m in range(j):
        num *= a - m
    return num // factorial(j)


def binom_poly(j: int) -> MPoly:
    """``C(r, j)`` as a polynomial in ``r`` with rational coefficients."""
    _check_naturals(j)
    r = MPoly.variable("r")
    prod = MPoly.const(("r",), 1)
    for m in range(j):
        prod = prod * (r - m)
    return prod * _fraction()(1, factorial(j))


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an m-set into k
    blocks, by inclusion-exclusion over the blocks left empty,
    ``S(m, k) = sum_j (-1)**j C(k, j) (k - j)**m / k!``."""
    _check_naturals(m, k)
    return sum((-1) ** j * comb(k, j) * (k - j) ** m
               for j in range(k + 1)) // factorial(k)


def subfactorial(n: int) -> int:
    """Number of derangements of n letters, by the loop
    ``!n = n * !(n - 1) + (-1)**n`` from ``!0 = 1``."""
    _check_naturals(n)
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1) ** m
    return d


def fubini_number(n: int) -> int:
    """Number of ordered set partitions of an n-set.

    That is sum_k k! S(n, k); expanding each S(n, k) by inclusion-exclusion
    and swapping the sums leaves one power per m,
    ``sum_m m**n sum_{k=m..n} (-1)**(k-m) C(k, m)``.
    """
    _check_naturals(n)
    return sum(m ** n * sum((-1) ** (k - m) * comb(k, m)
                            for k in range(m, n + 1))
               for m in range(n + 1))


# ----------------------------------------------------------------------
# integer coefficient lists in t
#
# A polynomial in t with integer coefficients is a list whose entry k is
# the coefficient of t**k.  Results carry no trailing zeros, so zero is
# ``[]`` and two results are equal exactly when their polynomials are.

def int_trim(a) -> list[int]:
    """``a`` as a list without trailing zeros."""
    out = list(a)
    while out and not out[-1]:
        out.pop()
    return out


def int_add(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] += y
    return int_trim(out)


def int_sub(a, b) -> list[int]:
    return int_add(a, [-y for y in b])


def int_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return int_trim(out)


def int_div(a, b) -> list[int]:
    """Quotient a / b in Z[t]; DivisibilityError unless it is exact."""
    a, b = int_trim(a), int_trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + len(b) - 1], lead)
        if r:
            raise DivisibilityError(f"{b} does not divide {a} in Z[t]")
        quot[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise DivisibilityError(f"{b} does not divide {a} in Z[t]")
    return int_trim(quot)

