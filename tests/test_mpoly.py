import json
import tracemalloc
from fractions import Fraction as F

import pytest

from eulerlab.detformula import det_Mnr, reconstruct_a
from eulerlab.distributions import (FAMILIES, build_distribution,
                                    eulerian_st, trivariate)
from eulerlab.mpoly import (VAR_ORDER, DivisibilityError, MPoly,
                            _coefficient, canonical_vars, exact_divide)
from eulerlab.symmetry import (a_part, conjecture_scan, gamma_expand_coeffs,
                               shape_checks)


def test_canonical_vars_ordering():
    assert canonical_vars(("t", "s")) == ("s", "t")
    assert canonical_vars(("r", "q", "p")) == ("p", "q", "r")
    with pytest.raises(ValueError):
        canonical_vars(("s", "s"))


def test_variable_names_must_be_strings():
    # each was accepted, and its text() and latex() raised TypeError
    for names in ((1,), ("t", None), ("s", b"t")):
        with pytest.raises(ValueError, match="is not a string$"):
            canonical_vars(names)
        with pytest.raises(ValueError, match="is not a string$"):
            MPoly(names, {})
    with pytest.raises(ValueError, match="^malformed polynomial JSON"):
        MPoly.loads('{"vars":[1],"terms":[{"e":[1],"n":"1","d":"1"}]}')


def test_constructor_reorders_exponents():
    # same polynomial built with swapped variable order
    a = MPoly(("s", "t"), {(2, 1): 5})
    b = MPoly(("t", "s"), {(1, 2): 5})
    assert a == b
    assert a.vars == ("s", "t")


def test_zero_terms_dropped():
    f = MPoly(("s", "t"), {(0, 0): 1, (1, 1): 0})
    assert len(f.terms) == 1
    assert f == 1


def test_basic_arithmetic():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    assert (1 + s * t) + (s - t) == 1 + s + s * t - t
    assert (1 - t) * (1 + t + t ** 2) == 1 - t ** 3
    assert (s + t) ** 2 == s ** 2 + 2 * s * t + t ** 2
    assert (s + 1) - (s + 1) == 0
    assert -(s - t) == t - s
    assert 2 * s == s + s
    assert s * F(1, 2) * 2 == s
    results = [(1 + s * t) + (s - t), (1 - t) * (1 + t + t ** 2),
               (s + t) ** 2, -(s - t), 2 * s, s * F(1, 2), s * F(4, 2),
               3 - s, MPoly.const(("s", "t"), F(6, 3))]
    for f in results:
        assert all(type(c) in (int, F) for c in f.terms.values()), f
    # integral values are kept as ints, whatever type they came in
    assert type((s * F(4, 2)).terms[(1, 0)]) is int
    assert type(MPoly.const(("s",), F(6, 3)).constant()) is int


def test_constructor_refuses_inexact_coefficients():
    # no floats: 0.1 would be stored as 3602879701896397/36028797018963968
    for value in (0.1, 1j):
        with pytest.raises(ValueError, match="inexact"):
            MPoly(("x",), {(1,): value})
    # exact non-int inputs still read as Fractions
    x = MPoly.variable("x")
    assert MPoly(("x",), {(1,): "3/2"}) == x * F(3, 2)


def test_text_is_read_exactly():
    for text, want in (("1.5", F(3, 2)), ("-3/7", F(-3, 7)), ("2", 2),
                       ("-4/2", -2), ("0.25", F(1, 4))):
        got = _coefficient(text)
        assert got == want and type(got) is type(want), text


def test_the_exponent_form_is_refused():
    # its cost grows with the exponent's value, not the text's length;
    # each library entry point that reads an exact value given as text
    for reader in (_coefficient, lambda x: MPoly(("x",), {(1,): x}),
                   lambda x: MPoly.const(("x",), x),
                   lambda x: MPoly.variable("x").subs({"x": x}),
                   lambda x: conjecture_scan(3, x, 1),
                   lambda x: gamma_expand_coeffs([1, x, 1]),
                   lambda x: shape_checks([1, x, 1])):
        for text in ("15e-1", "1e3", "1e9", "2.5E3", "-1e-100000"):
            with pytest.raises(ValueError, match="without an exponent"):
                reader(text)


def test_const_refuses_inexact_values():
    with pytest.raises(ValueError, match="inexact"):
        MPoly.const(("x",), 0.1)


def test_subs_refuses_inexact_values():
    x = MPoly.variable("x")
    with pytest.raises(ValueError, match="inexact"):
        (x + 1).subs({"x": 0.1})
    with pytest.raises(TypeError):
        x * 0.25


def test_pow_validation():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    assert (1 + t) ** 0 == 1
    with pytest.raises(ValueError):
        (1 + t) ** -1
    # True is an int subclass: f ** True returned f
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="^exponent must be a nonneg"):
            (1 + t) ** bad


def test_pow_is_the_k_fold_product():
    s, t = (MPoly.variable(v, ("s", "t", "p")) for v in ("s", "t"))
    f = 1 + s + 2 * t
    product = MPoly.const(f.vars, 1)
    for k in range(14):
        assert f ** k == product, k
        product = product * f
    # equality already compares the variables; at k = 0 the result is
    # the constant 1, which must still carry all three of f's
    assert (f ** 0).vars == f.vars == ("s", "t", "p")


def test_variable_mismatch_is_usage_error():
    s, t = MPoly.variable("s"), MPoly.variable("t")
    with pytest.raises(ValueError):
        s + t
    with pytest.raises(ValueError):
        s * t


def test_degree_and_coeff():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    f = 1 + (3 * s + s ** 2) * t + s * t ** 2
    assert f.degree("t") == 2
    assert f.degree("s") == 2
    assert f.coeff_of("t", 1) == MPoly(("s",), {(1,): 3, (2,): 1})
    assert f.coeff_of("t", 5).is_zero()
    # 1.0 == 1, so coeff_of("t", 1.0) returned the t**1 coefficient
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match="^exponent must be an int, got "):
            f.coeff_of("t", bad)
    assert MPoly.zero(("s", "t")).degree("t") == -1


def test_subs_and_evaluate():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    f = 1 + (3 * s + s ** 2) * t + s * t ** 2
    g = f.subs({"s": 2})
    assert g == MPoly(("t",), {(0,): 1, (1,): 10, (2,): 2})
    assert f.evaluate({"s": 1, "t": 1}) == 6
    assert f.evaluate({"s": 2, "t": 1}) == 13
    with pytest.raises(ValueError):
        f.evaluate({"s": 1})
    with pytest.raises(ValueError):
        f.subs({"u": 1})


def test_with_vars():
    g = MPoly(("t",), {(0,): 1, (1,): 4, (2,): 1})
    h = g.with_vars(("s", "t"))
    assert h.vars == ("s", "t")
    assert h.coeff_of("s", 0) == g
    with pytest.raises(ValueError):  # drops a live variable
        MPoly.variable("s", ("s", "t")).with_vars(("t",))


def test_to_dense():
    t = MPoly.variable("t")
    assert (1 + 2 * t + t ** 3).to_dense("t") == [F(1), F(2), F(0), F(1)]
    s, t2 = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    f = (1 + t2).with_vars(("s", "t"))
    assert f.to_dense("t") == [F(1), F(1)]
    with pytest.raises(ValueError):
        (s * t2).to_dense("t")


def test_exact_divide():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    assert exact_divide(1 - t ** 2, 1 - t) == 1 + t
    assert exact_divide(1 + s * t - t ** 2 - s * t ** 3, 1 + s * t) == 1 - t ** 2
    f = (1 + s + t) * (s ** 2 - t + 2)
    assert exact_divide(f, s ** 2 - t + 2) == 1 + s + t
    with pytest.raises(DivisibilityError):
        exact_divide(1 + s * t, 1 - t)
    with pytest.raises(ZeroDivisionError):
        exact_divide(s, MPoly.zero(("s", "t")))
    assert exact_divide(MPoly.zero(("s", "t")), 1 - t).is_zero()
    # int by int coefficients: a Fraction where the division is not whole,
    # never a float
    q = exact_divide(3 * s, 2 * s)
    assert q == F(3, 2)
    assert all(type(c) in (int, F) for c in q.terms.values())
    q = exact_divide(6 * s * t - 3 * t, 2 * s - 1)
    assert q == 3 * t and type(q.terms[(0, 1)]) is int


def test_json_round_trip_and_canonical_bytes():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    f = 1 + (3 * s + s ** 2) * t + s * t ** 2
    text = f.dumps()
    assert MPoly.loads(text) == f
    # canonical bytes: term order is sorted by exponent vector, keys fixed
    expected = ('{"vars":["s","t"],"terms":['
                '{"e":[0,0],"n":"1","d":"1"},'
                '{"e":[1,1],"n":"3","d":"1"},'
                '{"e":[1,2],"n":"1","d":"1"},'
                '{"e":[2,1],"n":"1","d":"1"}]}')
    assert text == expected
    # identical regardless of construction order
    g = s * t ** 2 + (3 * s) * t + s ** 2 * t + 1
    assert g.dumps() == text


def test_json_zero_and_fractions():
    z = MPoly.zero(("t", "r"))
    assert z.dumps() == '{"vars":["t","r"],"terms":[]}'
    assert MPoly.loads(z.dumps()) == z
    f = MPoly(("t",), {(1,): F(-3, 2)})
    blob = json.loads(f.dumps())
    assert blob["terms"][0] == {"e": [1], "n": "-3", "d": "2"}
    assert MPoly.loads(f.dumps()) == f
    g = MPoly.loads('{"vars":["t"],"terms":[{"e":[2],"n":"5","d":"2"}]}')
    assert g == MPoly(("t",), {(2,): F(5, 2)})
    assert json.loads(g.dumps())["terms"][0] == {"e": [2], "n": "5", "d": "2"}
    assert type(MPoly.loads(MPoly.const(("t",), 7).dumps()).constant()) is int


def _dumps_oracle(f: MPoly) -> str:
    """The canonical JSON as ``json`` writes it from a list of term dicts,
    the form the direct writer must reproduce byte for byte."""
    return json.dumps({
        "vars": list(f.vars),
        "terms": [{"e": list(exp), "n": str(c.numerator),
                   "d": str(c.denominator)}
                  for exp, c in sorted(f.terms.items())],
    }, separators=(",", ":"))


def _export_polys():
    """Every family ``export`` writes, at n = 1..9, each slice included."""
    for n in range(1, 10):
        for family in FAMILIES:
            if family == "xi":
                for i in range(1, n // 2 + 1):
                    yield build_distribution(family, n, i=i)
            elif family == "exc_slice":
                for k in range(n):
                    yield build_distribution(family, n, k=k)
            elif family != "derangement_refined" or n >= 2:
                yield build_distribution(family, n)
        yield det_Mnr(n)
        yield a_part(n)
        yield reconstruct_a(n)


def test_dumps_matches_the_json_oracle_byte_for_byte():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    # names dumps quotes itself and names it leaves to json: every ASCII
    # character between two letters (controls, DEL, '"' and '\\'
    # included), non-ASCII and astral characters, and the empty name
    names = (*VAR_ORDER, *(f"a{chr(c)}b" for c in range(128)),
             "\u03bb\u00e9", "\U0001d4ae", "x \U0001f600", "")
    edge = [
        MPoly.zero(("s", "t")),
        MPoly.zero(()),
        MPoly.const(("t",), -7),
        (s - 2 * t) * F(-3, 4) + t ** 12 * 10 ** 40,
        MPoly(("\u03bb", "t"), {(2, 1): F(1, 3), (0, 0): -1}),
        MPoly(('a"b', "c\\d"), {(1, 0): 1, (0, 3): F(-5, 2)}),
        MPoly(names, {(1,) * len(names): 3}),
    ]
    for f in edge:
        assert f.dumps() == _dumps_oracle(f), f
        assert MPoly.loads(f.dumps()) == f
    count = 0
    for f in _export_polys():
        assert f.dumps() == _dumps_oracle(f), f
        count += 1
    assert count > 9 * len(FAMILIES)


def test_dumps_peak_memory_is_a_small_multiple_of_its_text():
    # building a list of term dicts first peaked at about 30x the text
    f = trivariate(10)
    text = f.dumps()
    tracemalloc.start()
    try:
        f.dumps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text), (peak, len(text))


def test_json_malformed():
    with pytest.raises(ValueError):
        MPoly.loads("not json")
    with pytest.raises(ValueError):
        MPoly.loads('{"vars":["t"]}')
    with pytest.raises(ValueError):
        MPoly.loads('{"vars":["t"],"terms":[{"e":[1,2],"n":"1","d":"1"}]}')
    for text in (
            '{"vars":["t"],"terms":[{"e":[true],"n":"1","d":"1"}]}',
            '{"vars":["t"],"terms":[{"e":[1],"n":"1","d":"0"}]}',
            '{"vars":["s","t"],"terms":[{"e":[1,0],"n":"1","d":"1"},'
            '{"e":[1,0],"n":"2","d":"1"}]}',
            '{"vars":"st","terms":[{"e":[1,0],"n":"1","d":"1"}]}',
            # only the decimal strings the writer emits, with d > 0
            '{"vars":["t"],"terms":[{"e":[1],"n":true,"d":"1"}]}',
            '{"vars":["t"],"terms":[{"e":[1],"n":3,"d":"1"}]}',
            '{"vars":["t"],"terms":[{"e":[1],"n":2,"d":"-4"}]}',
            '{"vars":["t"],"terms":[{"e":[1],"n":"2","d":"-4"}]}',
            '{"vars":["t"],"terms":[{"e":[1],"n":" 3","d":"1"}]}'):
        with pytest.raises(ValueError, match="malformed polynomial JSON"):
            MPoly.loads(text)
    with pytest.raises(ValueError):
        MPoly(("s",), {(True,): 1})


def test_rendering():
    s, t = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    f = 1 + (3 * s + s ** 2) * t + s * t ** 2
    assert f.text() == "1 + 3*s*t + s*t^2 + s^2*t"
    assert f.latex() == "1 + 3st + st^{2} + s^{2}t"
    assert (s - t).text() == "-t + s"
    assert (t - s).text() == "t - s"
    assert MPoly.zero(("s",)).text() == "0"
    half = MPoly(("t",), {(2,): F(1, 2)})
    assert half.latex() == r"\frac{1}{2}t^{2}"
    assert half.text() == "1/2*t^2"


def test_a_whole_fraction_acts_like_its_int():
    # arithmetic on Fractions may keep a whole value as Fraction(k, 1);
    # the constructor makes it an int, and nothing outside can tell
    for f in (eulerian_st(5).subs({"s": F(1, 2)}),
              MPoly(("x",), {(1,): F(1, 2)}) * 2):
        assert any(type(c) is F and c.denominator == 1
                   for c in f.terms.values())
        g = MPoly(f.vars, f.terms)
        assert all(type(c) is int or c.denominator != 1
                   for c in g.terms.values())
        assert f == g and hash(f) == hash(g)
        assert ((f.text(), f.latex(), f.dumps())
                == (g.text(), g.latex(), g.dumps()))


def test_constant_extraction():
    f = MPoly.const(("s", "t"), F(7, 3))
    assert f.constant() == F(7, 3)
    s = MPoly.variable("s", ("s", "t"))
    with pytest.raises(ValueError):
        (1 + s).constant()
    # a scalar equals only a polynomial with no other term
    assert f == F(7, 3) and 1 + s != 1 and s != 0


@pytest.mark.parametrize("vars, value", [
    (("t",), 3), (("s", "t"), 0), (("s", "t"), F(1, 2)), ((), -2)],
    ids=["int", "zero", "fraction", "no-variables"])
def test_a_constant_hashes_like_its_scalar(vars, value):
    # equal objects hash alike, so a set or dict finds either by the other
    c = MPoly.const(vars, value)
    assert c == value and hash(c) == hash(value)
    assert value in {c} and c in {value}
    assert {c: "poly"}[value] == "poly"
