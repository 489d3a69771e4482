"""Dense univariate polynomials and rational functions over the rationals.

These back the truncated power series engine: a series in ``u`` carries
one :class:`RatFunc` in ``t`` per order.  Keeping this layer univariate
and dense makes gcd normalization cheap and predictable.

``RatFunc`` maintains two invariants after every operation: numerator
and denominator are coprime, and the denominator is monic.  Equality of
rational functions is therefore plain structural equality.
"""

from __future__ import annotations

from fractions import Fraction

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UPoly:
    """Dense univariate polynomial; coefficient i belongs to x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("UPoly is immutable")

    @classmethod
    def const(cls, value: int | Fraction) -> "UPoly":
        return cls((value,))

    @classmethod
    def term(cls, k: int, value: int | Fraction = 1) -> "UPoly":
        return cls((0,) * k + (value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def _coerce(self, other):
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return UPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly(c * other for c in self.coeffs)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UPoly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UPoly"):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return UPoly(), self
        lead = other.leading()
        quo = [_ZERO] * (dd - dv + 1)
        for k in range(dd - dv, -1, -1):
            c = rem[k + dv] / lead
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UPoly(quo), UPoly(rem[:dv])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exquo(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError(f"inexact division: {self} by {other}")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return self if lead == 1 else self * (1 / lead)

    def evaluate(self, value: int | Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * Fraction(value) + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == UPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor; gcd(0, 0) is 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """Quotient of two univariate polynomials, always in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFunc) and den is None:
            object.__setattr__(self, "num", num.num)
            object.__setattr__(self, "den", num.den)
            return
        num = num if isinstance(num, UPoly) else UPoly.const(num)
        if den is None:
            den = UPoly.const(1)
        else:
            den = den if isinstance(den, UPoly) else UPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UPoly(), UPoly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exquo(g), den.exquo(g)
            lead = den.leading()
            if lead != 1:
                num, den = num * (1 / lead), den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_upoly(self) -> UPoly:
        if not self.is_polynomial():
            raise ValueError(f"denominator is not trivial: {self!r}")
        return self.num

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, UPoly)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({list(self.num.coeffs)!r})"
        return f"RatFunc({list(self.num.coeffs)!r} / {list(self.den.coeffs)!r})"
