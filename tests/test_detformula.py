from fractions import Fraction as F

import pytest

from eulerlab import detformula
from eulerlab.detformula import (alpha, beta, build_matrix, det_at, det_Mnr,
                                 det_bareiss, det_cofactor, f_at,
                                 reconstruct_a, recurrence_f)
from eulerlab.mpoly import DivisibilityError, MPoly, variables
from eulerlab.perms import MAX_ENUM_N
from eulerlab.qanalog import int_div, int_trim, t_analog
from eulerlab.series import f_series
from eulerlab.symmetry import a_part

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
    wrong = det_cofactor(_unsigned(1))
    assert wrong == (1 + T + T ** 2) - R * (2 + 3 * T + 2 * T ** 2)
    assert wrong != recurrence_f(1)


def _at(poly, r):
    """An MPoly in (t, r) at integer r, as an int coefficient list in t."""
    return int_trim(int(c) for c in poly.subs({"r": r}).to_dense("t"))


def test_bareiss_matches_cofactor():
    for n in range(5):
        m = build_matrix(n)
        want = det_cofactor(m)
        for r in range(n + 1):
            ints = [[_at(e, r) for e in row] for row in m]
            assert det_bareiss(ints) == _at(want, r), (n, r)
            assert list(det_at(n, r)) == _at(want, r), (n, r)


def test_bareiss_edge_cases():
    one, t = [1], [0, 1]
    # a zero pivot is swapped away, with the sign flip
    assert det_bareiss([[[], one], [one, []]]) == [-1]
    assert det_bareiss([[[0, 0], t], [t, [1, 1]]]) == [0, 0, -1]
    assert det_bareiss([[[], []], [[], one]]) == []
    assert det_bareiss([[one, t], [t, [0, 0, 1]]]) == []
    assert det_bareiss([[[2, 1]]]) == [2, 1]
    with pytest.raises(ValueError):
        det_bareiss([])
    with pytest.raises(ValueError):
        det_bareiss([[one, []]])


def test_int_div_is_exact_or_raises():
    assert int_div([1, 0, -1], [1, 1]) == [1, -1]
    assert int_div([], [1, 1]) == []
    with pytest.raises(DivisibilityError):
        int_div([1, 0, 1], [1, 1])
    with pytest.raises(DivisibilityError):
        int_div([1, 1], [2, 2])
    with pytest.raises(ZeroDivisionError):
        int_div([1], [0])


def test_recurrence_matches_series():
    order = 5
    for r in range(5):
        fs = f_series(r, order)
        for n in range(order + 1):
            want = [int(c) for c in fs.coeff(n).as_upoly().coeffs]
            assert _at(recurrence_f(n), r) == want, (n, r)
            assert list(f_at(n, r)) == want, (n, r)


def test_det_at_equals_f_at_up_to_the_cap():
    for n in range(MAX_ENUM_N + 1):
        for r in range(n + 1):
            assert det_at(n, r) == f_at(n, r), (n, r)


def test_reconstruct_refuses_a_broken_determinant(monkeypatch):
    det = detformula.det_at
    monkeypatch.setattr(detformula, "det_at",
                        lambda n, r: (det(n, r)[0] + 1,) + det(n, r)[1:]
                        if r == 0 else det(n, r))
    with pytest.raises(DivisibilityError, match="not divisible by t"):
        reconstruct_a(3)


def test_det_guards():
    with pytest.raises(ValueError):
        f_at(-1, 0)
    with pytest.raises(ValueError):
        det_at(2, -1)
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
