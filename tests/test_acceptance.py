"""Acceptance gate: eleven timed criteria, all exact-arithmetic.

Each criterion prints one PASS/FAIL line (echoed in the terminal summary
via conftest) with its runtime and budget.  A criterion fails either on
a wrong value or on blowing its runtime budget; there are no tolerances
anywhere, every comparison is exact equality of rationals.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb, factorial

import pytest

from eulerlab.checks import run_checks
from eulerlab.detformula import det_Mnr, f_at, reconstruct_a
from eulerlab.distributions import (classic_eulerian, derangement_lhs,
                                    eulerian_st, exc_slice, trivariate, xi,
                                    xi_transposed)
from eulerlab.gfengine import f_nkr, f_nkr_closed, verify_foata
from eulerlab.mpoly import MPoly, exact_divide
from eulerlab.symmetry import (a_part, conjecture_scan, gamma_expand,
                               gamma_expand_coeffs, is_palindromic,
                               sym_decompose, verify_thm20)

S, T = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
TT, P, Q = (MPoly.variable(v, ("t", "p", "q")) for v in ("t", "p", "q"))
TR, R = (MPoly.variable(v, ("t", "r")) for v in ("t", "r"))


@contextmanager
def criterion(log, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        log.append(f"FAIL {name} ({elapsed:.2f}s, budget {budget}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= budget else "FAIL"
    log.append(f"{verdict} {name} ({elapsed:.2f}s, budget {budget}s)")
    if verdict == "FAIL":
        pytest.fail(f"{name}: runtime {elapsed:.2f}s over the "
                    f"{budget}s budget")


def test_c01_frozen_small_n_displays(acceptance_log):
    with criterion(acceptance_log, "c01 frozen small-n displays", 1):
        assert eulerian_st(1) == MPoly.const(("s", "t"), 1)
        assert eulerian_st(2) == 1 + S * T
        assert eulerian_st(3) == 1 + (3 * S + S ** 2) * T + S * T ** 2
        assert eulerian_st(4) == (1 + (6 * S + 5 * S ** 2) * T
                                  + (4 * S + 6 * S ** 2 + S ** 3) * T ** 2
                                  + S * T ** 3)
        assert eulerian_st(5) == (
            1 + (10 * S + 15 * S ** 2 + S ** 3) * T
            + (10 * S + 36 * S ** 2 + 19 * S ** 3 + S ** 4) * T ** 2
            + (5 * S + 15 * S ** 2 + 6 * S ** 3) * T ** 3
            + S * T ** 4)

        # specialization at s = 2: each a-part is the previous row's b-source
        table = {1: [1], 2: [1, 1], 3: [1, 9, 1],
                 4: [1, 31, 31, 1], 5: [1, 87, 301, 87, 1]}
        for n in range(1, 6):
            dec = sym_decompose(eulerian_st(n).subs({"s": 2}), "t", n - 1)
            assert dec.a.to_dense("t") == table[n], n
            if n == 1:
                assert dec.b.is_zero()
            else:
                assert dec.b.to_dense("t") == table[n - 1], n

        # three-variable refinement displays
        assert trivariate(1) == MPoly.const(("t", "p", "q"), 1)
        assert trivariate(2) == 1 + P * TT
        assert trivariate(3) == (1 + (2 * P + P * Q + P ** 2 * Q ** 2) * TT
                                 + P * TT ** 2)
        assert trivariate(4) == (
            1
            + (3 * P + 2 * P * Q + P * Q ** 2
               + 2 * P ** 2 * Q ** 2 + 2 * P ** 2 * Q ** 3
               + P ** 2 * Q ** 4) * TT
            + (3 * P + P * Q + P ** 2 * Q
               + 3 * P ** 2 * Q ** 2 + 2 * P ** 2 * Q ** 3
               + P ** 3 * Q ** 4) * TT ** 2
            + P * TT ** 3)

        # and its decomposition display at n = 4
        dec4 = sym_decompose(trivariate(4), "t", 3)
        middle = (1 + 2 * P + 2 * P * Q + P * Q ** 2
                  + 2 * P ** 2 * Q ** 2 + 2 * P ** 2 * Q ** 3
                  + P ** 2 * Q ** 4)
        assert dec4.a == 1 + middle * (TT + TT ** 2) + TT ** 3
        assert dec4.b == (P - 1) * (1 + (1 + P * Q + P * Q ** 2
                                         + P ** 2 * Q ** 4) * TT + TT ** 2)


def test_c02_descent_excedance_equidistribution(acceptance_log):
    with criterion(acceptance_log, "c02 des/exc equidistribution n<=9", 30):
        for n in range(1, 10):
            assert classic_eulerian(n, "des") == classic_eulerian(n, "exc"), n
        (res,) = run_checks("macmahon", max_n=9)
        assert res.passed, res.witness


def test_c03_decomposition_recursion(acceptance_log):
    with criterion(acceptance_log, "c03 decomposition recursion n=2..9", 30):
        for n in range(2, 10):
            witnesses = verify_thm20(n)
            assert witnesses == [], witnesses


def test_c04_derangement_slice_expansion(acceptance_log):
    with criterion(acceptance_log, "c04 derangement slice expansion n=2..7", 20):
        readings = []
        for n in range(2, 8):
            lhs = derangement_lhs(n)
            rhs = MPoly.zero(("t", "p", "q"))
            literal_equals_transposed = True
            for i in range(1, n // 2 + 1):
                term = xi(n, i)
                if xi_transposed(n, i) != term:
                    literal_equals_transposed = False
                rhs = (rhs + term.with_vars(("t", "p", "q"))
                       * TT ** i * (1 + TT) ** (n - 2 * i))
            assert lhs == rhs, f"expansion fails at n={n}"
            readings.append(literal_equals_transposed)
        # the report must say which reading held: the literal one did,
        # and it coincides with the transposed reading at every n
        assert all(readings)
        (res,) = run_checks("thm01", max_n=7)
        assert res.passed, res.witness
        assert all("literal and transposed slice filters agree" in line
                   for line in res.lines)


def test_c05_coefficient_closed_form(acceptance_log):
    with criterion(acceptance_log, "c05 closed-form coefficients", 5):
        for n in range(1, 7):
            for k in range(0, n):
                for r in range(0, 7):
                    assert f_nkr(n, k, r) == f_nkr_closed(n, k, r), (n, k, r)
        assert f_nkr(3, 1, 1) == 3
        assert f_nkr(3, 1, 2) == 13
        assert f_nkr(3, 2, 2) == 4


def test_c06_generating_function_proof(acceptance_log):
    with criterion(acceptance_log, "c06 series regrouping order 7", 30):
        witnesses = verify_foata(7)
        assert witnesses == ([], [], []), witnesses


def test_c07_determinant_formula(acceptance_log):
    with criterion(acceptance_log, "c07 determinant formula", 20):
        half, sixth = F(1, 2), F(1, 6)
        assert det_Mnr(0) == 1 + TR
        assert det_Mnr(1) == 1 + TR + TR ** 2 + TR * R
        assert det_Mnr(2) == (1 + TR + TR ** 2 + TR ** 3
                              + 3 * half * TR * (1 + TR) * R
                              + half * TR * (1 + TR) * R ** 2)
        assert det_Mnr(3) == (
            1 + TR + TR ** 2 + TR ** 3 + TR ** 4
            + (F(11, 6) * (TR + TR ** 3) + F(7, 3) * TR ** 2) * R
            + TR * (1 + TR) ** 2 * R ** 2
            + sixth * (TR + 4 * TR ** 2 + TR ** 3) * R ** 3)
        d4 = det_Mnr(4)
        assert d4.terms[(1, 1)] == F(25, 12)
        assert d4.terms[(2, 1)] == F(35, 12)
        assert d4.terms[(1, 4)] == F(1, 24)
        assert d4.subs({"r": 0}) == MPoly(("t",),
                                          {(k,): 1 for k in range(6)})

        # det_Mnr interpolates r = 0..n; the points past n check its degree
        for n in range(0, 7):
            for r in range(n + 3):
                at_r = det_Mnr(n).subs({"r": r}).to_dense("t")
                assert tuple(at_r) == f_at(n, r), (n, r)
        for n in range(1, 8):
            assert reconstruct_a(n) == a_part(n), n
        assert reconstruct_a(3) == S ** 2 * T + 2 * S * T + T ** 2 + T + 1
        assert reconstruct_a(4) == (5 * S ** 2 * T * (T + 1)
                                    + 5 * S * T * (T + 1)
                                    + T ** 3 + T ** 2 + T + 1)


def test_c08_ordered_set_partitions(acceptance_log):
    with criterion(acceptance_log, "c08 ordered set partition counts", 1):
        # independent count: surjections [n] -> [k] by inclusion-exclusion
        def ordered_partitions(n):
            return sum(
                sum((-1) ** j * comb(k, j) * (k - j) ** n
                    for j in range(k + 1))
                for k in range(n + 1))

        values = [eulerian_st(n).evaluate({"s": 2, "t": 1})
                  for n in range(1, 6)]
        assert values == [1, 3, 13, 75, 541]
        assert values == [ordered_partitions(n) for n in range(1, 6)]
        for n in range(6, 8):
            got = eulerian_st(n).evaluate({"s": 2, "t": 1})
            assert got == ordered_partitions(n), n


def test_c09_slice_linear_coefficients(acceptance_log):
    with criterion(acceptance_log, "c09 slice linear coefficients n<=9", 30):
        for n in range(2, 10):
            for k in range(1, n):
                got = exc_slice(n, k).coeff_of("s", 1).constant()
                assert got == comb(n, k + 1), (n, k)


def test_c10_conjecture_scan_grid(acceptance_log):
    with criterion(acceptance_log, "c10 shape scan over rational grid", 30):
        violations = []
        for p in (F(3, 2), F(2), F(3)):
            for q in (F(1), F(2), F(3)):
                for n in range(1, 8):
                    rep = conjecture_scan(n, p, q)
                    assert rep.in_hypothesis
                    if not rep.gamma_a_nonneg:
                        violations.append((n, p, q, "gamma_a"))
                    if not rep.gamma_b_nonneg:
                        violations.append((n, p, q, "gamma_b"))
                    if not rep.alternatingly_increasing:
                        violations.append((n, p, q, "alternating"))
        for v in violations:
            print(f"shape violation at n={v[0]}, p={v[1]}, q={v[2]}: {v[3]}")
        assert not violations, violations


def _random_poly(rng, vars, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in vars)
        c = F(rng.randint(-6, 6), rng.randint(1, 3))
        terms[exp] = terms.get(exp, F(0)) + c
    return MPoly(vars, {e: c for e, c in terms.items() if c})


def _suite_ring_axioms(rng, cases):
    vars = ("s", "t")
    one = MPoly.const(vars, 1)
    zero = MPoly.zero(vars)
    for _ in range(cases):
        f = _random_poly(rng, vars)
        g = _random_poly(rng, vars)
        h = _random_poly(rng, vars)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f + zero == f and f * one == f
        assert f - f == zero


def _suite_exact_division(rng, cases):
    vars = ("s", "t")
    done = 0
    while done < cases:
        f = _random_poly(rng, vars)
        g = _random_poly(rng, vars)
        if g.is_zero():
            continue
        assert exact_divide(f * g, g) == f
        done += 1


def _suite_decomposition_uniqueness(rng, cases):
    vars = ("s", "t")
    t = MPoly.variable("t", vars)
    for _ in range(cases):
        d = rng.randint(1, 6)
        # build both parts from the gamma basis so they are palindromic
        # by construction, with coefficients free of t
        def palindromic(amb):
            acc = MPoly.zero(vars)
            for i in range(amb // 2 + 1):
                coeffs = {(rng.randint(0, 3), 0): F(rng.randint(-4, 4))}
                gi = MPoly(vars, coeffs)
                acc = acc + gi * t ** i * (1 + t) ** (amb - 2 * i)
            return acc

        a = palindromic(d)
        b = palindromic(d - 1)
        dec = sym_decompose(a + t * b, "t", d)
        assert dec.a == a and dec.b == b
        assert is_palindromic(dec.a, "t", d)
        assert dec.b.is_zero() or is_palindromic(dec.b, "t", d - 1)


def _suite_gamma_reconstruction(rng, cases):
    for _ in range(cases):
        d = rng.randint(0, 8)
        gammas = [F(rng.randint(-5, 5), rng.randint(1, 2))
                  for _ in range(d // 2 + 1)]
        f = MPoly.zero(("t",))
        t = MPoly.variable("t")
        for i, g in enumerate(gammas):
            f = f + MPoly.const(("t",), g) * t ** i * (1 + t) ** (d - 2 * i)
        if f.is_zero():
            assert all(g == 0 for g in gammas)
            continue
        dense = f.to_dense("t")
        dense += [F(0)] * (d + 1 - len(dense))
        assert list(gamma_expand_coeffs(dense)) == gammas
        assert gamma_expand(f, "t", d).reconstructed() == f


def _suite_serializer(rng, cases):
    pool = ("s", "t", "u", "p", "q", "x", "r")
    for _ in range(cases):
        vars = tuple(rng.sample(pool, rng.randint(1, 3)))
        f = _random_poly(rng, vars, max_terms=6, max_exp=5)
        blob = f.dumps()
        assert MPoly.loads(blob) == f
        assert f.dumps() == blob
        # rebuilding from reshuffled terms cannot change the bytes
        items = list(f.terms.items())
        rng.shuffle(items)
        g = MPoly(f.vars, dict(items))
        assert g.dumps() == blob


def test_c11_property_suites(acceptance_log):
    with criterion(acceptance_log, "c11 randomized property suites", 10):
        cases = 1000
        _suite_ring_axioms(random.Random(101), cases)
        _suite_exact_division(random.Random(202), cases)
        _suite_decomposition_uniqueness(random.Random(303), cases)
        _suite_gamma_reconstruction(random.Random(404), cases)
        _suite_serializer(random.Random(505), cases)
