from fractions import Fraction as F
from math import comb

import pytest

from eulerlab.detformula import det_at, f_at
from eulerlab.gfengine import binom_resum, f_nkr, f_nkr_closed
from eulerlab.mpoly import MPoly
from eulerlab.qanalog import (binom_poly, fubini_number, gen_binomial,
                              stirling2, subfactorial)
from eulerlab.series import f_series, lhs_coeff


def test_gen_binomial_extends_comb():
    for a in range(8):
        for j in range(8):
            assert gen_binomial(a, j) == comb(a, j)
    assert gen_binomial(-1, 0) == 1
    assert gen_binomial(-1, 3) == -1
    assert gen_binomial(-2, 2) == 3
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


def test_binom_poly_matches_integer_values():
    for j in range(6):
        poly = binom_poly(j)
        for r in range(-3, 8):
            assert poly.evaluate({"r": r}) == gen_binomial(r, j)


def test_binom_poly_shapes():
    r = MPoly.variable("r")
    assert binom_poly(0) == 1
    assert binom_poly(1) == r
    assert binom_poly(2) == (r ** 2 - r) * F(1, 2)
    # the polynomial vanishes at 0 <= r < j but not at r = -1
    cubic = binom_poly(3)
    assert cubic.evaluate({"r": 0}) == 0
    assert cubic.evaluate({"r": 1}) == 0
    assert cubic.evaluate({"r": 2}) == 0
    assert cubic.evaluate({"r": -1}) == -1


def test_stirling2_table():
    rows = {
        (0, 0): 1, (1, 1): 1, (4, 2): 7, (5, 3): 25, (6, 3): 90,
        (5, 0): 0, (3, 4): 0,
    }
    for (m, k), want in rows.items():
        assert stirling2(m, k) == want
    # row sums are Bell numbers
    assert sum(stirling2(5, k) for k in range(6)) == 52


def test_subfactorial_and_fubini():
    assert [subfactorial(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]
    assert [fubini_number(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


# Iterative references, each a recurrence the closed forms do not use.
# The large arguments lie past the depth at which a recursive
# implementation raises RecursionError (about n = 500).

def test_subfactorial_matches_the_derangement_recurrence():
    ref = [1, 0]  # D(n) = (n - 1)(D(n - 1) + D(n - 2))
    for n in range(2, 1001):
        ref.append((n - 1) * (ref[n - 1] + ref[n - 2]))
    assert subfactorial(1000) == ref[1000]
    assert [subfactorial(n) for n in range(61)] == ref[:61]


def test_stirling2_matches_the_triangle():
    row = [1] + [0] * 60  # S(m, k) for k = 0..60, from m = 0
    rows = [row]
    for m in range(1, 1001):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, 61)]
        rows.append(row)
    assert stirling2(1000, 3) == rows[1000][3]
    for m in range(61):
        assert [stirling2(m, k) for k in range(61)] == rows[m]


def test_fubini_matches_the_ordered_partition_recurrence():
    ref = [1]  # a(n) = sum_{k >= 1} C(n, k) a(n - k)
    for n in range(1, 506):
        ref.append(sum(comb(n, k) * ref[n - k] for k in range(1, n + 1)))
    assert fubini_number(505) == ref[505]
    assert [fubini_number(n) for n in range(61)] == ref[:61]


@pytest.mark.parametrize("fn, args", [
    (gen_binomial, (4, 2)), (stirling2, (4, 2)), (subfactorial, (4,)),
    (fubini_number, (4,)), (binom_poly, (2,))],
    ids=["gen_binomial", "stirling2", "subfactorial", "fubini_number",
         "binom_poly"])
def test_non_int_arguments_are_refused(fn, args):
    # each returns ints only: unchecked, 4.0 gave 9.0 or 6.0
    fn(*args)
    for k in range(len(args)):
        for bad in (float(args[k]), F(args[k]), str(args[k])):
            wrong = args[:k] + (bad,) + args[k + 1:]
            with pytest.raises(ValueError, match="^expected an int, got "):
                fn(*wrong)


_NEGATIVE = [
    (gen_binomial, (-3, -1)), (binom_poly, (-1,)), (stirling2, (-1, 2)),
    (stirling2, (4, -1)), (subfactorial, (-1,)), (fubini_number, (-1,)),
    (f_nkr, (-1, 0, 0)), (f_nkr, (1, -1, 0)), (f_nkr, (1, 0, -1)),
    (f_nkr_closed, (-1, 0, 0)), (f_nkr_closed, (1, 0, -1)),
    (binom_resum, (MPoly.zero(("t", "r")), -1)),
    (f_at, (-1, 0)), (f_at, (0, -1)), (det_at, (-1, 0)), (det_at, (0, -1)),
    (f_series, (-1, 3)), (lhs_coeff, (0, -1))]


@pytest.mark.parametrize("fn, args", _NEGATIVE, ids=[
    f"{fn.__name__}-{[type(a) is int and a < 0 for a in args].index(True)}"
    for fn, args in _NEGATIVE])
def test_a_negative_argument_is_refused_with_one_message(fn, args):
    with pytest.raises(ValueError,
                       match="^expected a nonnegative int, got -1$"):
        fn(*args)
