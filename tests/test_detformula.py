import random
from fractions import Fraction as F
from math import comb

import pytest

from eulerlab import detformula
from eulerlab.detformula import (det_at, det_Mnr, det_bareiss, f_at,
                                 reconstruct_a)
from eulerlab.gfengine import _binomial_series, _series_mul, _series_sub
from eulerlab.mpoly import DivisibilityError, MPoly
from eulerlab.perms import MAX_ENUM_N
from eulerlab.qanalog import (gen_binomial, int_add, int_div, int_mul,
                              int_sub, int_trim)
from eulerlab.series import f_series
from eulerlab.symmetry import a_part

T, R = (MPoly.variable(v, ("t", "r")) for v in ("t", "r"))


def test_alpha_beta_small():
    for r in range(6):
        # alpha_j = C(r, j) (1 + ... + t^j)
        assert detformula._alpha_at(0, r) == [1]
        assert detformula._alpha_at(1, r) == [r, r]
        # beta_j = (-1)^j C(r - 1, j) (1 + ... + t^(j+1))
        assert detformula._beta_at(0, r) == [1, 1]
        assert detformula._beta_at(1, r) == [1 - r] * 3
    # the shifted binomial does not vanish at r = 0: C(-1, 2) = 1
    assert detformula._beta_at(2, 0) == [1, 1, 1, 1]


def test_recurrence_first_values():
    for r in range(6):
        assert f_at(0, r) == (1, 1)
        assert f_at(1, r) == (1, 1 + r, 1)
        # f_2 = 1 + t + t^2 + t^3 + (3r + r^2) / 2 * t (1 + t)
        mid = 1 + (3 * r + r * r) // 2
        assert f_at(2, r) == (1, mid, mid, 1)
    with pytest.raises(ValueError):
        f_at(-1, 0)


def test_recurrence_runs_far_past_the_cap():
    # at r = 0 only alpha_0 is nonzero, so f_n = beta_n(0) = 1 + ... + t**(n+1)
    assert f_at(1100, 0) == (1,) * 1102
    # at r = 1 the recurrence is f_n = (1 + t) f_(n-1), so f_n = (1 + t)**(n+1)
    assert f_at(1100, 1) == tuple(comb(1101, k) for k in range(1102))


def _matrix(n, r, signed=True):
    """The Cramer matrix at integer r, entries int coefficient lists in t;
    ``signed=False`` drops its alternating signs."""
    def alpha(j):
        sign = (-1) ** j if signed else 1
        return [sign * comb(r, j)] * (j + 1)

    rows = []
    for i in range(n + 1):
        row = [alpha(i - j) if i >= j else [] for j in range(n)]
        rows.append(row + [[(-1) ** i * gen_binomial(r - 1, i)] * (i + 2)])
    return rows


def _cofactor(matrix):
    """Textbook first-row expansion over Z[t]; exponential, for checks."""
    if len(matrix) == 1:
        return int_trim(matrix[0][0])
    acc = []
    for j, c in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = int_mul(c, _cofactor(minor))
        acc = int_sub(acc, term) if j % 2 else int_add(acc, term)
    return acc


def test_matrix_structure():
    m = _matrix(3, 5)
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    for i in range(4):
        for j in range(3):
            if i < j:
                assert m[i][j] == []
    assert m[3][3] == [-comb(4, 3)] * 5      # beta_3 at r = 5
    assert m[2][1] == [-5, -5]               # -alpha_1 at r = 5
    assert _matrix(3, 5, signed=False)[2][1] == [5, 5]


def _at(poly, r):
    """An MPoly in (t, r) at integer r, as an int coefficient list in t."""
    return int_trim(int(c) for c in poly.subs({"r": r}).to_dense("t"))


def test_determinant_equals_recurrence():
    # det_Mnr interpolates r = 0..n; the points past n check its r-degree
    for n in range(7):
        for r in range(n + 3):
            assert _at(det_Mnr(n), r) == list(f_at(n, r)), (n, r)


def test_determinant_display_n2():
    half = F(1, 2)
    expected = (1 + T + T ** 2 + T ** 3
                + 3 * half * T * (1 + T) * R
                + half * T * (1 + T) * R ** 2)
    assert det_Mnr(2) == expected


def test_determinant_at_r0_collapses():
    for n in range(7):
        assert det_Mnr(n).subs({"r": 0}) == MPoly(
            ("t",), {(k,): 1 for k in range(n + 2)})


def test_unsigned_layout_differs():
    # dropping the Cramer signs changes the answer already at n = 1
    for r in range(1, 4):
        wrong = _cofactor(_matrix(1, r, signed=False))
        assert wrong == [1 - 2 * r, 1 - 3 * r, 1 - 2 * r]
        assert wrong != list(f_at(1, r))


def _sparse_matrix(rng, size):
    """A random square matrix over Z[t] with most entries zero."""
    def entry():
        if rng.random() < 0.6:
            return []
        return [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    return [[entry() for _ in range(size)] for _ in range(size)]


def test_bareiss_matches_cofactor():
    for n in range(5):
        for r in range(n + 1):
            m = _matrix(n, r)
            want = _cofactor(m)
            assert det_bareiss(m) == want, (n, r)
            assert list(det_at(n, r)) == want, (n, r)
    # Bareiss rewrites an entry only when its cross term is nonzero or
    # the pivot differs from the previous one; these matrices reach each
    # of the four cases, zero pivots swapped away and singular ones
    rng = random.Random(1)
    for _ in range(200):
        m = _sparse_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == _cofactor(m), m


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


def test_bareiss_refuses_inexact_entries():
    # each was carried through: [[[1.5]]] gave [1.5], [[["1"]]] gave ["1"]
    for bad in (1.5, "1", F(1, 2)):
        for m in ([[[bad]]], [[[1], []], [[0, bad], [1]]]):
            with pytest.raises(ValueError, match="^expected an int, got "):
                det_bareiss(m)
    # an entry that is not a coefficient list: int_trim raised TypeError
    for bad in (5, (1, 2)):
        with pytest.raises(ValueError,
                           match="^expected a list of coefficients, got "):
            det_bareiss([[bad]])
    # a matrix or row that is not a list: len() raised TypeError
    for bad in ([5], 5, None):
        with pytest.raises(ValueError, match="^expected a list of rows, got "):
            det_bareiss(bad)


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
            assert list(f_at(n, r)) == want, (n, r)


def test_recurrence_matches_its_generating_function():
    # F_r = sum_n f_at(n, r) u**n against D_r = (1 - u)**r - t (1 - u t)**r,
    # cross-multiplied on int series mod u**(K+1), with no division:
    #   r >= 1:  F_r D_r = (1 - u)**(r-1) - t**2 (1 - u t)**(r-1)
    #   r = 0:   F_0 D_0 (1 - u)(1 - u t) = (1 - u t) - t**2 (1 - u)
    K = 8
    for r in range(7):
        f = [list(f_at(n, r)) for n in range(K + 1)]
        den = _series_sub(_binomial_series(r, K, 0),
                          [[0] + c for c in _binomial_series(r, K, 1)], K)
        if r >= 1:
            lhs = _series_mul(f, den, K)
            rhs = _series_sub(
                _binomial_series(r - 1, K, 0),
                [[0, 0] + c for c in _binomial_series(r - 1, K, 1)], K)
        else:
            lhs = _series_mul(_series_mul(f, den, K),
                              _series_mul([[1], [-1]], [[1], [0, -1]], K), K)
            rhs = _series_sub([[1], [0, -1]], [[0, 0, 1], [0, 0, -1]], K)
        assert lhs == rhs, r


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
    with pytest.raises(ValueError, match="^expected an int, got 2.0$"):
        det_at(3, 2.0)
    assert det_at(3, 2) == f_at(3, 2) == (1, 10, 19, 10, 1)
    for fn, args in ((f_at, (3.0, 2)), (det_at, (3.0, 2)), (det_at, (3, 2.0)),
                     (f_at, (3, 2.0))):
        with pytest.raises(ValueError, match="^expected an int, got "):
            fn(*args)


def test_reconstruct_small_values():
    S2, T2 = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
    assert reconstruct_a(1) == MPoly.const(("s", "t"), 1)
    assert reconstruct_a(2) == 1 + T2
    assert reconstruct_a(3) == 1 + (1 + S2) ** 2 * T2 + T2 ** 2
    assert reconstruct_a(4) == (1 + T2) * (1 + 5 * S2 * (1 + S2) * T2 + T2 ** 2)


def test_reconstruct_matches_enumeration():
    # 9 lies above the top of the thT1 suite, which checks n <= 7
    for n in (1, 2, 3, 4, 5, 9):
        assert reconstruct_a(n) == a_part(n), n
