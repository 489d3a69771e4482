import doctest
import re
from fractions import Fraction
from math import factorial

import pytest

import eulerlab.perms
from eulerlab import detformula, distributions, gfengine, symmetry
from eulerlab.perms import (MAX_ENUM_N, enumerate_perms, inverse,
                            is_derangement, stable_subsets, stats)


def test_doctests():
    failures, _ = doctest.testmod(eulerlab.perms)
    assert failures == 0


def test_enumeration_order_and_count():
    perms = list(enumerate_perms(3))
    assert perms[0] == (1, 2, 3)
    assert perms[-1] == (3, 2, 1)
    assert perms == sorted(perms)
    assert len(perms) == 6
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_perms(n)) == factorial(n)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        list(enumerate_perms(0))
    with pytest.raises(ValueError):
        list(enumerate_perms(MAX_ENUM_N + 1))
    # listing S_11 takes seconds and S_13 hours; the call itself refuses
    for n in (11, MAX_ENUM_N):
        with pytest.raises(ValueError, match="between 1 and 10"):
            enumerate_perms(n)
    # a bool or a float is refused as every other size guard refuses it,
    # not listed as S_1 or failed in range()
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="between 1 and 10"):
            enumerate_perms(n)


#: every library entry point that takes an n, as (name, lowest n, call)
_N_ENTRY_POINTS = [
    ("eulerian_st", 1, distributions.eulerian_st),
    ("classic_eulerian-des", 1,
     lambda n: distributions.classic_eulerian(n, "des")),
    ("classic_eulerian-exc", 1,
     lambda n: distributions.classic_eulerian(n, "exc")),
    ("derangement_poly", 1, distributions.derangement_poly),
    ("trivariate", 1, distributions.trivariate),
    ("derangement_lhs", 2, distributions.derangement_lhs),
    ("xi", 2, lambda n: distributions.xi(n, 1)),
    ("xi_transposed", 2, lambda n: distributions.xi_transposed(n, 1)),
    ("exc_slice", 1, lambda n: distributions.exc_slice(n, 0)),
    ("det_Mnr", 0, detformula.det_Mnr),
    ("reconstruct_a", 1, detformula.reconstruct_a),
    ("a_part", 0, symmetry.a_part),
    ("verify_thm20", 2, symmetry.verify_thm20),
    ("verify_foata", 0, gfengine.verify_foata),
    ("conjecture_scan", 1, lambda n: symmetry.conjecture_scan(n, 2, 1)),
]


@pytest.mark.parametrize("lo, call", [e[1:] for e in _N_ENTRY_POINTS],
                         ids=[e[0] for e in _N_ENTRY_POINTS])
def test_n_refused_by_check_n_before_any_build(lo, call, cache_sizes):
    before = cache_sizes()
    for n in (lo - 1, MAX_ENUM_N + 1):
        message = f"n must be between {lo} and {MAX_ENUM_N}, got {n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(n)
    assert cache_sizes() == before


@pytest.mark.parametrize("lo, call", [e[1:] for e in _N_ENTRY_POINTS],
                         ids=[e[0] for e in _N_ENTRY_POINTS])
def test_non_int_n_refused_even_when_the_int_is_cached(lo, call, cache_sizes):
    # 4.0 == 4 and hashes alike, so an untyped cache would hand back the
    # int's entry; the float must still reach check_n and be refused
    n = max(lo, 4)
    call(n)
    before = cache_sizes()
    for bad in (float(n), Fraction(n), str(n)):
        with pytest.raises(ValueError, match="^n must be an int, got "):
            call(bad)
    assert cache_sizes() == before


def test_stats_examples():
    st = stats((1, 2, 3, 4))
    assert (st.des, st.exc, st.fix, st.maj) == (0, 0, 4, 0)
    assert st.des_set == ()
    st = stats((2, 1))
    assert (st.des, st.exc, st.fix, st.maj) == (1, 1, 0, 1)
    st = stats((2, 4, 1, 3))
    assert (st.des, st.exc, st.fix, st.maj) == (1, 2, 0, 2)
    assert st.des_set == (2,)
    st = stats((4, 3, 2, 1))
    assert (st.des, st.exc, st.maj) == (3, 2, 6)


def test_stats_consistency():
    for n in range(1, 7):
        for perm in enumerate_perms(n):
            st = stats(perm)
            assert st.des == len(st.des_set)
            assert st.maj == sum(st.des_set)
            assert 0 <= st.exc <= n - 1
            assert st.maj >= st.exc


def test_stats_validation():
    with pytest.raises(ValueError):
        stats((1, 3))
    with pytest.raises(ValueError):
        stats((0, 1))
    with pytest.raises(ValueError):
        stats((1, 1, 2))


def test_inverse():
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert inverse((1,)) == (1,)
    for perm in enumerate_perms(5):
        assert inverse(inverse(perm)) == perm


def test_is_derangement():
    assert is_derangement((2, 1))
    assert not is_derangement((1, 2))
    # 321 fixes position 2, so it is not a derangement
    assert not is_derangement((3, 2, 1))
    assert sorted(p for p in enumerate_perms(3) if is_derangement(p)) == \
        [(2, 3, 1), (3, 1, 2)]
    assert sum(1 for p in enumerate_perms(4) if is_derangement(p)) == 9


def test_stable_subsets():
    assert stable_subsets(2, 1) == [()]
    assert stable_subsets(2, 3) == [(), (2,), (3,)]
    assert stable_subsets(2, 5) == [
        (), (2,), (3,), (4,), (5,), (2, 4), (2, 5), (3, 5)]
    with pytest.raises(ValueError):
        stable_subsets(2, 0)
    # range() raised TypeError on a float bound
    for lo, hi in ((2.0, 4), (2, 4.0), (True, 4)):
        with pytest.raises(ValueError, match=r"^interval \[.*\] is malformed$"):
            stable_subsets(lo, hi)


def test_stable_subsets_no_consecutive():
    for sub in stable_subsets(1, 9):
        assert all(b - a >= 2 for a, b in zip(sub, sub[1:]))
    # Fibonacci count: subsets of an m-chain without neighbors
    counts = [len(stable_subsets(1, m)) for m in range(0, 7)]
    assert counts == [1, 2, 3, 5, 8, 13, 21]
