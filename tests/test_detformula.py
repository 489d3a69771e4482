from fractions import Fraction as F

import pytest

from eulerlab.detformula import (alpha, beta, build_matrix, det_Mnr,
                                 det_bareiss, det_cofactor, reconstruct_a,
                                 recurrence_f)
from eulerlab.gfengine import f_series
from eulerlab.mpoly import MPoly, variables
from eulerlab.qanalog import t_analog
from eulerlab.symmetry import a_part
from eulerlab.univariate import UPoly

T, R = variables(("t", "r"))


def test_alpha_beta_small():
    assert alpha(0) == MPoly.const(("t", "r"), 1)
    assert alpha(1) == R * (1 + T)
    assert beta(0) == 1 + T
    assert beta(1) == -(R - 1) * (1 + T + T ** 2)
    # the shifted binomial does not vanish at r = 0: C(-1, 2) = 1
    assert beta(2).subs({"r": 0}) == t_analog(4)
    with pytest.raises(ValueError):
        alpha(-1)
    with pytest.raises(ValueError):
        beta(-1)


def test_recurrence_first_values():
    assert recurrence_f(0) == (1 + T)
    assert recurrence_f(1) == 1 + T + T ** 2 + T * R
    half = F(1, 2)
    expected_f2 = (t_analog(4).with_vars(("t", "r"))
                   + 3 * half * T * (1 + T) * R
                   + half * T * (1 + T) * R ** 2)
    assert recurrence_f(2) == expected_f2
    with pytest.raises(ValueError):
        recurrence_f(-1)


def _unsigned(n):
    """The Cramer layout with plain alpha_(i-j) entries, signs dropped."""
    zero = MPoly.zero(("t", "r"))
    return [[alpha(i - j) if i >= j else zero for j in range(n)] + [beta(i)]
            for i in range(n + 1)]


def test_matrix_structure():
    m = build_matrix(3)
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    for i in range(4):
        for j in range(3):
            if i < j:
                assert m[i][j].is_zero()
    assert m[3][3] == beta(3)
    assert m[2][1] == -alpha(1)
    assert _unsigned(3)[2][1] == alpha(1)


def test_determinant_equals_recurrence():
    for n in range(6):
        assert det_Mnr(n) == recurrence_f(n), n


def test_determinant_display_n2():
    half = F(1, 2)
    expected = (t_analog(4).with_vars(("t", "r"))
                + 3 * half * T * (1 + T) * R
                + half * T * (1 + T) * R ** 2)
    assert det_Mnr(2) == expected


def test_determinant_at_r0_collapses():
    for n in range(7):
        assert det_Mnr(n).subs({"r": 0}) == t_analog(n + 2)


def test_unsigned_layout_differs():
    # dropping the Cramer signs changes the answer already at n = 1
    wrong = det_bareiss(_unsigned(1))
    assert wrong == (1 + T + T ** 2) - R * (2 + 3 * T + 2 * T ** 2)
    assert wrong != recurrence_f(1)


def test_bareiss_matches_cofactor():
    for n in range(5):
        m = build_matrix(n)
        assert det_bareiss(m) == det_cofactor(m)


def test_bareiss_edge_cases():
    zero = MPoly.zero(("t",))
    one = MPoly.const(("t",), 1)
    assert det_bareiss([[zero, one], [one, zero]]) == -one
    assert det_bareiss([[zero, zero], [zero, one]]).is_zero()
    with pytest.raises(ValueError):
        det_bareiss([])
    with pytest.raises(ValueError):
        det_bareiss([[one, zero]])


def test_recurrence_matches_series():
    order = 5
    for r in range(5):
        fs = f_series(r, order)
        for n in range(order + 1):
            want = UPoly(recurrence_f(n).subs({"r": r}).to_dense("t"))
            assert fs.coeff(n).as_upoly() == want, (n, r)


def test_det_guards():
    with pytest.raises(ValueError):
        det_Mnr(14)
    with pytest.raises(ValueError):
        det_Mnr(-1)
    with pytest.raises(ValueError):
        reconstruct_a(0)
    with pytest.raises(ValueError):
        reconstruct_a(14)


def test_reconstruct_small_values():
    S2, T2 = variables(("s", "t"))
    assert reconstruct_a(1) == MPoly.const(("s", "t"), 1)
    assert reconstruct_a(2) == 1 + T2
    assert reconstruct_a(3) == 1 + (1 + S2) ** 2 * T2 + T2 ** 2
    assert reconstruct_a(4) == (1 + T2) * (1 + 5 * S2 * (1 + S2) * T2 + T2 ** 2)


def test_reconstruct_matches_enumeration():
    # 9 lies above the top of the thT1 suite, which checks n <= 7
    for n in (1, 2, 3, 4, 5, 9):
        assert reconstruct_a(n) == a_part(n), n
