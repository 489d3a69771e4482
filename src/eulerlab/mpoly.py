"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from exponent vectors to nonzero coefficients,
together with a tuple of variable names.  A coefficient is an ``int`` or
a ``fractions.Fraction``.  The constructor, and so every builder, keeps
a whole value as an ``int``, so the permutation counts this package
builds never load ``fractions``.  Arithmetic on Fractions (the scalar
product, :meth:`MPoly.subs`) may leave a whole value as
``Fraction(k, 1)``; such a value renders, serializes, compares and
hashes like the ``int`` ``k``.
Exponent vectors are tuples of nonnegative ints, one entry per variable.
Zero terms are never stored, so two polynomials are equal exactly when
their variable tuples and term dictionaries are equal.

Variable tuples are kept in one global order (``VAR_ORDER``) so that
polynomials built independently in different modules can be compared and
serialized without ambiguity.  Binary operations require both operands
to carry the same variable tuple; use :meth:`MPoly.with_vars` to embed a
polynomial into a larger variable set first.  This is deliberate: silent
alignment hides bugs where a coefficient ring was mixed up.

All arithmetic is exact.  There are no floats anywhere in this package:
a float or complex coefficient or value is refused with ValueError.
``fractions`` is imported on first need: the integer-first modules
(this one, ``qanalog`` and ``symmetry``) get the class from
:func:`_fraction`.  :meth:`MPoly.dumps` writes its canonical JSON text
directly, term by term, and imports ``json`` only to escape a variable
name that is not printable ASCII or holds ``"`` or ``\\``.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

#: Every variable this package uses, in display and serialization order.
VAR_ORDER = ("s", "t", "u", "p", "q", "x", "r")


class DivisibilityError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class Refused(ValueError):
    """A refused request, not a fault: the command line exits 2 on it."""


def _var_key(name: str):
    try:
        return (0, VAR_ORDER.index(name), "")
    except ValueError:
        return (1, 0, name)


def canonical_vars(names: Iterable[str]) -> tuple[str, ...]:
    """Sort variable names into the package-wide canonical order."""
    names = tuple(names)
    for name in names:
        if type(name) is not str:
            raise ValueError(f"variable name {name!r} is not a string")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names!r}")
    return tuple(sorted(names, key=_var_key))


class MPoly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str],
                 terms: Mapping[tuple[int, ...], Scalar] | Iterable = ()):
        vars = tuple(vars)
        order = canonical_vars(vars)
        perm = None
        if order != vars:
            perm = tuple(vars.index(v) for v in order)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Scalar] = {}
        width = len(vars)
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(
                    f"exponent {exp} has length {len(exp)}, expected {width}")
            for e in exp:
                if type(e) is not int or e < 0:
                    raise ValueError(f"bad exponent entry in {exp}")
            if perm is not None:
                exp = tuple(exp[i] for i in perm)
            c = _coefficient(coeff)
            if exp in clean:
                c = _coefficient(clean[exp] + c)
            if c:
                clean[exp] = c
            elif exp in clean:
                del clean[exp]
        object.__setattr__(self, "vars", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "MPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Iterable[str], value: Scalar) -> "MPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, name: str, vars: Iterable[str] | None = None) -> "MPoly":
        vars = (name,) if vars is None else tuple(vars)
        if name not in vars:
            raise ValueError(f"{name!r} not among {vars!r}")
        exp = tuple(1 if v == name else 0 for v in canonical_vars(vars))
        return cls(canonical_vars(vars), {exp: 1})

    # ------------------------------------------------------------------
    # predicates and coercion

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant(self) -> Scalar:
        """The value of a polynomial with no effective variables."""
        zero_exp = (0,) * len(self.vars)
        if self.terms.keys() - {zero_exp}:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get(zero_exp, 0)

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if _is_scalar(other):
            return MPoly.const(self.vars, other)
        return None

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            elif exp in out:
                del out[exp]
        return _raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if _is_scalar(other):
            c = _coefficient(other)
            if not c:
                return MPoly.zero(self.vars)
            return _raw(self.vars, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(exp, 0) + c1 * c2
                if v:
                    out[exp] = v
                elif exp in out:
                    del out[exp]
        return _raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # every caller raises to at most perms.MAX_ENUM_N = 13, where repeated
        # squaring measures no faster than n products in a row
        result = MPoly.const(self.vars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        if _is_scalar(other):
            return self.terms == MPoly.const(self.vars, other).terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        zero_exp = (0,) * len(self.vars)
        if self.terms.keys() <= {zero_exp}:
            return hash(self.terms.get(zero_exp, 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # degrees, coefficients, substitution

    def _vi(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValueError(f"{var!r} not among variables {self.vars}") from None

    def degree(self, var: str) -> int:
        """Degree in one variable; the zero polynomial has degree -1."""
        i = self._vi(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coeff_of(self, var: str, k: int) -> "MPoly":
        """Coefficient of ``var**k`` as a polynomial in the other variables."""
        if type(k) is not int:
            raise ValueError(f"exponent must be an int, got {k!r}")
        i = self._vi(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict[tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            if exp[i] == k:
                out[exp[:i] + exp[i + 1:]] = c
        return _raw(rest, out)

    def subs(self, assignments: Mapping[str, Scalar]) -> "MPoly":
        """Substitute rational values for some variables."""
        for name in assignments:
            self._vi(name)
        keep = tuple(v for v in self.vars if v not in assignments)
        idx = [self.vars.index(v) for v in keep]
        values = {self.vars.index(v): _coefficient(val)
                  for v, val in assignments.items()}
        out: dict[tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            for i, val in values.items():
                if exp[i]:
                    c = c * val ** exp[i]
            if not c:
                continue
            nexp = tuple(exp[i] for i in idx)
            v = out.get(nexp, 0) + c
            if v:
                out[nexp] = v
            elif nexp in out:
                del out[nexp]
        return _raw(keep, out)

    def evaluate(self, assignments: Mapping[str, Scalar]) -> Scalar:
        """Evaluate fully; every variable must receive a value."""
        missing = [v for v in self.vars if v not in assignments]
        if missing:
            raise ValueError(f"no value given for {missing}")
        return self.subs(assignments).constant()

    def with_vars(self, vars: Iterable[str]) -> "MPoly":
        """Reinterpret over another variable tuple.

        New variables are added with exponent zero.  Dropping a variable
        is allowed only when it does not occur in any term.
        """
        target = canonical_vars(vars)
        for i, v in enumerate(self.vars):
            if v not in target and any(e[i] for e in self.terms):
                raise ValueError(f"cannot drop live variable {v!r}")
        pos = {v: j for j, v in enumerate(target)}
        out: dict[tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            nexp = [0] * len(target)
            for i, v in enumerate(self.vars):
                if exp[i]:
                    nexp[pos[v]] = exp[i]
            out[tuple(nexp)] = c
        return _raw(target, out)

    def to_dense(self, var: str) -> list[Scalar]:
        """Coefficient list in ``var`` for an effectively univariate polynomial."""
        i = self._vi(var)
        for exp in self.terms:
            for j, e in enumerate(exp):
                if j != i and e:
                    raise ValueError(
                        f"polynomial is not univariate in {var!r}: {self}")
        n = max((exp[i] for exp in self.terms), default=0)
        dense = [0] * (n + 1)
        for exp, c in self.terms.items():
            dense[exp[i]] = c
        return dense

    # ------------------------------------------------------------------
    # serialization

    def dumps(self) -> str:
        """Canonical JSON text: fixed key order, sorted terms, no whitespace.

        The text is written directly, one ``{"e":[..],"n":"..","d":".."}``
        string per term in sorted exponent order, and each variable name
        by :func:`_json_string`.  The bytes are those of
        ``json.dumps({"vars": [...], "terms": [...]}, separators=(",",
        ":"))`` without building that list of term dicts.
        """
        terms = self.terms
        body = ",".join(
            f'{{"e":[{",".join(map(str, exp))}],'
            f'"n":"{terms[exp].numerator}","d":"{terms[exp].denominator}"}}'
            for exp in sorted(terms))
        names = ",".join(map(_json_string, self.vars))
        return f'{{"vars":[{names}],"terms":[{body}]}}'

    @classmethod
    def loads(cls, text: str) -> "MPoly":
        import json
        try:
            data = json.loads(text)
            vars = data["vars"]
            if not isinstance(vars, list):
                raise TypeError(f"vars must be a list, got {vars!r}")
            terms = {}
            for item in data["terms"]:
                exp = tuple(item["e"])
                if exp in terms:
                    raise ValueError(f"repeated exponent {list(exp)}")
                num, den = _decimal(item["n"]), _decimal(item["d"])
                if den <= 0:
                    raise ValueError(f"denominator {den} is not positive")
                terms[exp] = num if den == 1 else _fraction()(num, den)
            return cls(vars, terms)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc

    # ------------------------------------------------------------------
    # rendering

    def _render(self, body) -> str:
        """Terms by total degree, then exponent, joined as ``-a + b - c``.

        ``body(exp, a)`` writes one term from its exponent vector and the
        absolute value ``a`` of its coefficient.
        """
        if not self.terms:
            return "0"
        out = "".join(
            (" - " if c < 0 else " + ") + body(exp, abs(c))
            for exp, c in sorted(self.terms.items(),
                                 key=lambda kv: (sum(kv[0]), kv[0])))
        return out[3:] if out[1] == "+" else "-" + out[3:]

    def text(self) -> str:
        def body(exp, a):
            mono = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip(self.vars, exp) if e)
            if not mono:
                return str(a)
            return mono if a == 1 else f"{a}*{mono}"
        return self._render(body)

    def latex(self) -> str:
        def body(exp, a):
            mono = "".join(v if e == 1 else f"{v}^{{{e}}}"
                           for v, e in zip(self.vars, exp) if e)
            if mono and a == 1:
                return mono
            if a.denominator == 1:
                return str(a.numerator) + mono
            return rf"\frac{{{a.numerator}}}{{{a.denominator}}}" + mono
        return self._render(body)

    def __repr__(self):
        return f"MPoly[{','.join(self.vars)}]({self.text()})"

    __str__ = text


def _is_scalar(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``Fraction``.

    No Fraction exists before ``fractions`` is imported, so the check
    reads the loaded module and never imports it.
    """
    if isinstance(value, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _coefficient(value) -> Scalar:
    """``value`` as a coefficient: an ``int`` as it is, anything else as
    an exact ``Fraction``, collapsed to an ``int`` when its denominator
    is 1.  An inexact number (a float or complex) is :class:`Refused`.

    This is the one parser of an exact value given as text, for the
    library and the command line alike.  It reads an integer, ``'a/b'``
    or a decimal such as ``'1.5'`` (the rational 3/2) as ``Fraction``
    does, at a cost bounded by the text's length.  It refuses, with
    :class:`Refused`, the exponent form (``'1e9'``, ``'2.5E3'``), whose cost
    grows with the exponent's value: ``'1e-10000000'`` builds a power of
    ten with ten million digits.  A ``Decimal`` is read by its own text,
    ``str(value)``: ``Decimal('0.1')`` is 1/10, and ``Decimal('1e-7')``
    and ``Decimal('0.0000001')``, both of text ``'1E-7'``, are refused."""
    if type(value) is int:
        return value
    fractions = sys.modules.get("fractions")
    if fractions is None or not isinstance(value, fractions.Fraction):
        decimal = sys.modules.get("decimal")
        if decimal is not None and isinstance(value, decimal.Decimal):
            value = str(value)
        if isinstance(value, str) and ("e" in value or "E" in value):
            raise Refused(
                f"{value!r} is not an integer, 'a/b' or a decimal without "
                f"an exponent: give an int, a Fraction or 'a/b'")
        from numbers import Complex, Rational
        if isinstance(value, Complex) and not isinstance(value, Rational):
            raise Refused(
                f"inexact value {value!r}: give an int, a Fraction or 'a/b'")
        value = _fraction()(value)
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=None)
def _fraction() -> type:
    """The ``Fraction`` class, imported on the first call.

    The integer-first modules make every Fraction through it, so
    integer-only work never loads ``fractions`` (nor ``decimal`` and
    ``numbers``, which it imports), and a hot caller pays a cache lookup
    instead of an import statement.
    """
    from fractions import Fraction
    return Fraction


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an ``int`` when b divides a, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
        return _fraction()(a, b)
    return a / b


def _decimal(text) -> int:
    """The integer that canonical JSON spells as ``text``; else ValueError."""
    if not isinstance(text, str) or str(int(text)) != text:
        raise ValueError(f"{text!r} is not a canonical decimal string")
    return int(text)


def _json_string(name: str) -> str:
    """``json.dumps(name)``.  A name of printable ASCII with no ``"`` or
    ``\\``, which JSON writes as it is, is quoted here, so the usual
    names load no ``json``; any other name goes through ``json``."""
    if (name.isascii() and name.isprintable()
            and '"' not in name and "\\" not in name):
        return f'"{name}"'
    import json
    return json.dumps(name)


def _render_as(poly: MPoly, fmt: str) -> str:
    """``poly`` in the CLI's ``--format`` ``fmt``: json, latex or text."""
    return {"json": poly.dumps, "latex": poly.latex}.get(fmt, poly.text)()


def _raw(vars: tuple[str, ...], terms: dict) -> MPoly:
    """Internal constructor bypassing validation; callers guarantee invariants."""
    obj = MPoly.__new__(MPoly)
    object.__setattr__(obj, "vars", vars)
    object.__setattr__(obj, "terms", terms)
    return obj


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    """Quotient f / g when the division is exact.

    Runs multivariate long division with the lexicographic term order on
    the canonical variable tuple.  Raises :class:`DivisibilityError` as
    soon as the leading term of the running remainder is not divisible
    by the leading term of ``g``, which for an inexact input always
    happens after finitely many steps.
    """
    if not isinstance(g, MPoly):
        g = MPoly.const(f.vars, g)
    if f.vars != g.vars:
        raise ValueError(f"variable mismatch: {f.vars} vs {g.vars}")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    g_lead = max(g.terms)
    g_lc = g.terms[g_lead]
    rem = dict(f.terms)
    quo: dict[tuple[int, ...], Scalar] = {}
    while rem:
        r_lead = max(rem)
        diff = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(d < 0 for d in diff):
            raise DivisibilityError(
                f"not divisible: leading term {r_lead} vs divisor {g_lead}")
        c = _quotient(rem[r_lead], g_lc)
        quo[diff] = quo.get(diff, 0) + c
        for exp, gc in g.terms.items():
            key = tuple(a + b for a, b in zip(diff, exp))
            v = rem.get(key, 0) - c * gc
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return _raw(f.vars, {e: c for e, c in quo.items() if c})

