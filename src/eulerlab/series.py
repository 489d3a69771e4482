"""Truncated power series with rational-function coefficients, and the
closed-form generating series of :mod:`eulerlab.gfengine`.

A :class:`USeries` of order N stores coefficients for u**0 .. u**N and
silently discards everything above.  Operands must share the same order;
mixing truncation levels is almost always a bug in the calling code, so
it raises instead of guessing.

:func:`foata_term` (g_r), :func:`a_series_term` (w_r) and
:func:`f_series` compute the closed series by division in Q(t)[[u]], and
:func:`lhs_coeff`/:func:`lhs_coeff_a` wrap the counting side of
``gfengine`` in :class:`~eulerlab.univariate.UPoly`.  They are the
oracle the tests hold ``gfengine``'s division-free integer route
against; ``eulerlab verify`` never loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from .gfengine import _joint, _resummed
from .qanalog import _check_naturals
from .symmetry import a_part
from .univariate import RatFunc, UPoly


class USeries:
    """Power series in one formal variable, truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        _check_naturals(order)
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients for order {order}")
        cs.extend([RatFunc(0)] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("USeries is immutable")

    @classmethod
    def constant(cls, value, order: int) -> "USeries":
        return cls(order, (value,))

    def coeff(self, k: int) -> RatFunc:
        if not 0 <= k <= self.order:
            raise ValueError(f"order {self.order} series has no u^{k} term")
        return self.coeffs[k]

    def _check(self, other: "USeries"):
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        self._check(other)
        return USeries(self.order,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        self._check(other)
        return USeries(self.order,
                       [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        self._check(other)
        out = []
        for k in range(self.order + 1):
            acc = RatFunc(0)
            for i in range(k + 1):
                a, b = self.coeffs[i], other.coeffs[k - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return USeries(self.order, out)

    def scale(self, factor) -> "USeries":
        factor = factor if isinstance(factor, RatFunc) else RatFunc(factor)
        return USeries(self.order, [c * factor for c in self.coeffs])

    def inverse(self) -> "USeries":
        """Multiplicative inverse; needs an invertible constant term."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series has no constant term")
        inv0 = c0.inverse()
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = RatFunc(0)
            for j in range(1, k + 1):
                a = self.coeffs[j]
                if a:
                    acc = acc + a * out[k - j]
            out.append(-(inv0 * acc))
        return USeries(self.order, out)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"USeries(order={self.order}, {list(self.coeffs)!r})"


# ----------------------------------------------------------------------
# closed forms of the regrouped generating series

_T = RatFunc(UPoly((0, 1)))
_ONE_MINUS_T = RatFunc(UPoly((1, -1)))


@lru_cache(maxsize=None)
def _pow_one_minus_u(r: int, order: int) -> USeries:
    """(1 - u)**r truncated; coefficients are rational constants."""
    return USeries(order, [Fraction((-1) ** j * comb(r, j))
                           for j in range(min(r, order) + 1)])


@lru_cache(maxsize=None)
def _pow_one_minus_ut(r: int, order: int) -> USeries:
    """(1 - u*t)**r truncated; coefficient of u**j is C(r, j)(-t)**j."""
    return USeries(order, [RatFunc(UPoly.term(j, (-1) ** j * comb(r, j)))
                           for j in range(min(r, order) + 1)])


def _joint_denominator(r: int, order: int) -> USeries:
    return (_pow_one_minus_u(r, order)
            - _pow_one_minus_ut(r, order).scale(_T))


def foata_term(r: int, order: int) -> USeries:
    """The series g_r, truncated at the given order in u."""
    _check_naturals(r, order)
    num = _pow_one_minus_ut(r, order).scale(_ONE_MINUS_T)
    den = _joint_denominator(r, order) * _pow_one_minus_u(1, order)
    return num * den.inverse()


def a_series_term(r: int, order: int) -> USeries:
    """The companion series w_r carrying the palindromic parts."""
    _check_naturals(r, order)
    num = _pow_one_minus_ut(r + 1, order) - _pow_one_minus_u(r + 1, order)
    den = (_pow_one_minus_u(1, order) * _pow_one_minus_ut(1, order)
           * _joint_denominator(r, order))
    return num * den.inverse()


def f_series(r: int, order: int) -> USeries:
    """Series whose u**n coefficient matches the determinant recurrence.

    Equals ((1-u)**(r-1) - t**2 (1-u*t)**(r-1)) / ((1-u)**r - t (1-u*t)**r);
    at r = 0 the negative powers are expanded as series inverses.
    """
    _check_naturals(r, order)
    if r >= 1:
        left = _pow_one_minus_u(r - 1, order)
        right = _pow_one_minus_ut(r - 1, order)
    else:
        left = _pow_one_minus_u(1, order).inverse()
        right = _pow_one_minus_ut(1, order).inverse()
    num = left - right.scale(_T * _T)
    return num * _joint_denominator(r, order).inverse()


def lhs_coeff(n: int, r: int) -> UPoly:
    """[s**r u**n] of the assembled joint generating function, in t."""
    _check_naturals(n, r)
    return UPoly(_resummed(_joint(n), n, r))


def lhs_coeff_a(n: int, r: int) -> UPoly:
    """Same extraction applied to the palindromic parts a_n."""
    _check_naturals(n, r)
    return UPoly(_resummed(a_part(n), n, r))
