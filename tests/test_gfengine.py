from fractions import Fraction as F
from itertools import accumulate
from math import comb

import pytest

from eulerlab import gfengine, symmetry
from eulerlab.checks import run_checks
from eulerlab.detformula import det_Mnr, reconstruct_a
from eulerlab.distributions import MAX_ENUM_N
from eulerlab.gfengine import (_joint, _resummed, _statements, binom_resum,
                               f_nkr, f_nkr_closed, verify_foata)
from eulerlab.mpoly import MPoly
from eulerlab.qanalog import regroup
from eulerlab.series import (USeries, a_series_term, f_series, foata_term,
                             lhs_coeff, lhs_coeff_a)
from eulerlab.symmetry import a_part
from eulerlab.univariate import RatFunc, UPoly


def test_foata_term_r0_is_geometric():
    g = foata_term(0, 5)
    for n in range(6):
        assert g.coeff(n) == RatFunc(UPoly((1,)))


def test_foata_term_order_zero():
    g = foata_term(3, 0)
    assert g.coeff(0) == RatFunc(UPoly((1,)))


def test_series_guards():
    with pytest.raises(ValueError):
        foata_term(-1, 3)
    with pytest.raises(ValueError):
        a_series_term(2, -1)
    with pytest.raises(ValueError):
        f_series(-1, 0)


def test_lhs_coeff_fixtures():
    assert lhs_coeff(0, 0) == UPoly((1,))
    assert lhs_coeff(0, 5) == UPoly((1,))
    assert lhs_coeff(2, 1) == UPoly((3, 1))
    # n = 1: [s^0] A_1 * C(1 + r, 1)
    for r in range(4):
        assert lhs_coeff(1, r) == UPoly((r + 1,))
    assert lhs_coeff_a(0, 3) == UPoly()
    assert lhs_coeff_a(2, 0) == UPoly((1, 1))
    with pytest.raises(ValueError):
        lhs_coeff(14, 0)
    with pytest.raises(ValueError):
        lhs_coeff(-1, 0)


def test_series_match_direct_extraction():
    order, r_max = 4, 4
    for r in range(r_max + 1):
        g = foata_term(r, order)
        w = a_series_term(r, order)
        for n in range(order + 1):
            assert g.coeff(n).as_upoly() == lhs_coeff(n, r)
            assert w.coeff(n).as_upoly() == lhs_coeff_a(n, r)


def test_telescoping_identity():
    order = 5
    one = USeries.constant(1, order)
    for r in range(5):
        g = foata_term(r, order)
        w = a_series_term(r, order)
        ut = USeries(order, [RatFunc(UPoly((1,))), RatFunc(UPoly((0, -1)))])
        assert g - ut * w == one


def test_verify_foata():
    assert verify_foata(4) == ([], [], [])


def _ints(series, n):
    """[u**n] of a USeries with polynomial coefficients, as an int list."""
    return [int(c) for c in series.coeff(n).as_upoly().coeffs]


def test_int_route_equals_closed_forms():
    # the counting sides and the division-free statements against the
    # USeries closed forms, coefficient by coefficient
    for order in range(6):
        for r in range(6):
            g, w = foata_term(r, order), a_series_term(r, order)
            counted_L = [_resummed(_joint(n), n, r) for n in range(order + 1)]
            counted_W = [_resummed(a_part(n), n, r) for n in range(order + 1)]
            closed_L = [_ints(g, n) for n in range(order + 1)]
            closed_W = [_ints(w, n) for n in range(order + 1)]
            assert counted_L == closed_L, (order, r)
            assert counted_W == closed_W, (order, r)
            for label, lhs, rhs in _statements(closed_L, closed_W, r, order):
                assert lhs == rhs, (label, order, r)


def test_verify_foata_compares_both_statements_at_every_n(monkeypatch):
    # corrupt the counting side: A_2 and a_1 each gain a t**5 term
    joint, part = gfengine._joint, symmetry.a_part
    bump = MPoly(("s", "t"), {(0, 5): 1})
    monkeypatch.setattr(gfengine, "_joint",
                        lambda n: joint(n) + bump if n == 2 else joint(n))
    monkeypatch.setattr(symmetry, "a_part",
                        lambda n: part(n) + bump if n == 1 else part(n))
    # one witness per (statement, r), at the lowest differing u-degree,
    # listed statement by statement
    assert [[w.split(":")[0] for w in found]
            for found in verify_foata(3)] == [
        [f"{label} r={r} n={n}" for r in range(4)]
        for label, n in (("joint", 2), ("a-part", 1), ("telescope", 1))]


def test_verify_foata_guards():
    with pytest.raises(ValueError):
        verify_foata(MAX_ENUM_N + 1)
    with pytest.raises(ValueError):
        verify_foata(-1)


def test_f_nkr_frozen_values():
    assert f_nkr(3, 1, 1) == 3
    assert f_nkr(3, 1, 2) == 13
    assert f_nkr(3, 2, 2) == 4
    assert f_nkr(2, 1, 0) == 0
    assert f_nkr(0, 0, 4) == 1


def test_f_nkr_zero_excedance_column():
    for n in range(6):
        for r in range(6):
            assert f_nkr(n, 0, r) == comb(n + r, n)


def test_f_nkr_guards():
    with pytest.raises(ValueError):
        f_nkr(-1, 0, 0)
    with pytest.raises(ValueError):
        f_nkr(14, 0, 0)
    with pytest.raises(ValueError):
        f_nkr_closed(0, -1, 0)
    # a float index raised TypeError deep in the expansion
    for fn, args in ((f_nkr, (3, 1, 2.0)), (f_nkr, (3, 1.0, 2)),
                     (f_nkr_closed, (3.0, 1, 2))):
        with pytest.raises(ValueError, match="^expected an int, got "):
            fn(*args)


def test_closed_form_agrees_with_direct():
    for n in range(6):
        for k in range(n + 2):
            for r in range(6):
                assert f_nkr_closed(n, k, r) == f_nkr(n, k, r), (n, k, r)


def _literal_reading(n, k, r):
    """[x**(k*r + k)] of (1 - x**k) * (1 - x**(k+1))**n / (1 - x)**(n+1),
    expanded on an int list truncated after that power."""
    top = k * r + k
    f = [1] + [0] * top
    for step in [k] + [k + 1] * n:  # times 1 - x**step
        f = [c - (f[i - step] if i >= step else 0) for i, c in enumerate(f)]
    for _ in range(n + 1):  # divided by 1 - x
        f = list(accumulate(f))
    return f[top]


def test_literal_reading_is_the_swapped_closed_form():
    # check_eq1's note reads the literal index roles as f_nkr_closed with
    # k and r swapped; the expansion above does not rely on that swap
    for n in range(7):
        for k in range(7):
            for r in range(1, 7):
                assert _literal_reading(n, k, r) == f_nkr_closed(n, r, k), (
                    n, k, r)
    assert _literal_reading(3, 1, 2) == 1
    assert f_nkr(3, 1, 2) == 13
    assert _literal_reading(3, 0, 2) == 0
    assert f_nkr(3, 0, 2) == comb(5, 3)


def test_f_series_r0_gives_t_analogs():
    fs = f_series(0, 4)
    for n in range(5):
        want = UPoly([1] * (n + 2))  # 1 + t + ... + t**(n+1)
        assert fs.coeff(n).as_upoly() == want


def _binom_resum_fixtures():
    """(poly, n, want) triples, with want None where binom_resum refuses."""
    t, r = (MPoly.variable(v, ("t", "r")) for v in ("t", "r"))
    one = MPoly.const(("t", "r"), 1)
    return [
        (one, 0, MPoly.const(("s", "t"), 1)),
        (r, 1, MPoly(("s", "t"), {(1, 0): 1})),
        (r ** 2, 2, MPoly(("s", "t"), {(1, 0): 1, (2, 0): 1})),
        (t * r, 1, MPoly(("s", "t"), {(1, 1): 1})),
        (r ** 2, 1, None),
        (one, -1, None),
    ]


def _check_binom_resum(fixtures):
    for poly, n, want in fixtures:
        if want is None:
            with pytest.raises(ValueError):
                binom_resum(poly, n)
        else:
            assert binom_resum(poly, n) == want, (poly, n)


def test_binom_resum_fixtures():
    _check_binom_resum(_binom_resum_fixtures())


def test_regroup_inverts_resummed():
    # regrouping the resummed values of A against (1 - s)^(n+1) gives A's
    # terms back, for the joint polynomial and its palindromic part
    for n in range(MAX_ENUM_N + 1):
        for poly in (_joint(n), a_part(n)):
            values = [_resummed(poly, n, r) for r in range(n + 1)]
            assert regroup(values) == poly.terms, n


def test_the_routes_run_without_pow_rsub_or_bool(monkeypatch):
    # MPoly.__pow__, __rsub__ and __bool__ have no library caller: with
    # them raising, the regrouping routes and every suite still run
    fixtures = _binom_resum_fixtures()
    for name in ("__pow__", "__rsub__", "__bool__"):
        def refuse(*args, name=name):
            raise AssertionError(f"MPoly.{name} was called")
        monkeypatch.setattr(MPoly, name, refuse)
    _check_binom_resum(fixtures)
    for n in range(1, 8):
        assert reconstruct_a(n) == a_part(n), n
    for n in range(8):
        det_Mnr(n)
    for res in run_checks("all"):
        assert res.passed, f"{res.name}: {res.witness}"


def test_binom_resum_geometric_consistency():
    # sum_r C(r + 1, 1) s^r = 1 / (1 - s)^2, so the resummation of r + 1
    # against weight (1 - s)^(n+1) with n = 1 must be exactly 1
    r = MPoly.variable("r", ("t", "r"))
    assert binom_resum(r + 1, 1) == MPoly.const(("s", "t"), 1)
