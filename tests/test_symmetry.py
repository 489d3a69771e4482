import random
import time
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import pytest

from eulerlab import distributions, symmetry
from eulerlab.distributions import derangement_lhs, eulerian_st, trivariate
from eulerlab.mpoly import MPoly, Refused, exact_divide
from eulerlab.perms import enumerate_perms, stats
from eulerlab.symmetry import (_is_alternatingly_increasing, _is_unimodal,
                               a_part, conjecture_scan, gamma_expand,
                               gamma_expand_coeffs, is_palindromic,
                               shape_checks, sym_decompose, verify_thm20)

S, T = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))


def test_decompose_smallest_case():
    dec = sym_decompose(eulerian_st(2), "t", 1)
    assert dec == (1 + T, S - 1) and dec._fields == ("a", "b")
    assert dec.a + T * dec.b == eulerian_st(2)


def test_decompose_n4_product_forms():
    dec = sym_decompose(eulerian_st(4), "t", 3)
    assert dec.a == (1 + T) * (1 + 5 * S * (1 + S) * T + T ** 2)
    assert dec.b == (S - 1) * (1 + (1 + S) ** 2 * T + T ** 2)


def test_decompose_recombines_exactly():
    for n in range(1, 7):
        f = eulerian_st(n)
        dec = sym_decompose(f, "t", n - 1)
        assert dec.a + T * dec.b == f
        assert is_palindromic(dec.a, "t", n - 1)
        assert dec.b.is_zero() or is_palindromic(dec.b, "t", n - 2)


def test_decompose_degree_guard():
    with pytest.raises(ValueError):
        sym_decompose(T ** 2, "t", 1)


@pytest.mark.parametrize("d", [-1, -5])
def test_decompose_refuses_a_negative_ambient_degree(d):
    # the zero polynomial has degree -1, so the degree guard alone lets
    # d = -1 through
    for f in (MPoly.zero(("s", "t")), T):
        with pytest.raises(ValueError, match=(
                f"^ambient degree must be nonnegative, got {d}$")):
            sym_decompose(f, "t", d)


@pytest.mark.parametrize("d", [2.0, True, 1.5, "2"])
def test_a_non_int_ambient_degree_is_refused(d):
    # 2.0 raised TypeError from [0] * (d + 1); True split at degree True;
    # the zero polynomial expanded to nothing at degree 1.5
    for call in (sym_decompose, gamma_expand, is_palindromic):
        for f in (MPoly.zero(("s", "t")), 1 + T):
            with pytest.raises(ValueError, match=(
                    "^ambient degree must be an int, got ")):
                call(f, "t", d)


def test_a_part_seed_and_small_values():
    assert a_part(0).is_zero()
    assert a_part(0).vars == ("s", "t")
    assert a_part(1) == MPoly.const(("s", "t"), 1)
    assert a_part(2) == 1 + T
    assert a_part(3) == 1 + (1 + S) ** 2 * T + T ** 2
    with pytest.raises(ValueError):
        a_part(-1)


def test_a_part_n5_middle_coefficient():
    middle = a_part(5).coeff_of("t", 2)
    expected = MPoly(("s",), {(0,): 1, (1,): 14, (2,): 36, (3,): 14, (4,): 1})
    assert middle == expected


# ----------------------------------------------------------------------
# the reference route: division by 1 - x and term-by-term elimination on
# MPoly, against which the row-by-row kernel is checked

def _reciprocal(f, var, d):
    """f with the coefficient of var**e moved to var**(d - e)."""
    i = f.vars.index(var)
    return MPoly(f.vars, {exp[:i] + (d - exp[i],) + exp[i + 1:]: c
                          for exp, c in f.terms.items()})


def _division_split(f, var, d):
    """(a, b) as (f - x * flip) / (1 - x) and (flip - f) / (1 - x)."""
    assert f.degree(var) <= d
    x = MPoly.variable(var, f.vars)
    flip = _reciprocal(f, var, d)
    a = exact_divide(f - x * flip, 1 - x)
    b = exact_divide(flip - f, 1 - x)
    assert a + x * b == f
    return a, b


def _elimination_gamma(f, var, d):
    """Gammas of a palindromic f, the coefficient of var**i top down."""
    if f.is_zero():
        return ()
    assert _reciprocal(f, var, d) == f
    x = MPoly.variable(var, f.vars)
    rem = f
    gammas = []
    for i in range(d // 2 + 1):
        g = rem.coeff_of(var, i).with_vars(rem.vars)
        gammas.append(g)
        if g:
            rem = rem - g * x ** i * (1 + x) ** (d - 2 * i)
    assert rem.is_zero()
    return tuple(gammas)


def _assert_matches_reference(f, var, d):
    dec = sym_decompose(f, var, d)
    a, b = _division_split(f, var, d)
    assert (dec.a.dumps(), dec.b.dumps()) == (a.dumps(), b.dumps())
    for part, amb in ((a, d), (b, d - 1)):
        assert is_palindromic(part, var, amb)
        got = gamma_expand(part, var, amb)
        assert [g.dumps() for g in got] == [
            g.dumps() for g in _elimination_gamma(part, var, amb)]
    assert is_palindromic(f, var, d) == (_reciprocal(f, var, d) == f)


def test_integer_split_matches_sym_decompose():
    for n in range(1, 14):
        dec = sym_decompose(eulerian_st(n), "t", n - 1)
        a, b = _division_split(eulerian_st(n), "t", n - 1)
        assert a_part(n).dumps() == dec.a.dumps() == a.dumps(), n
        assert dec.b.dumps() == b.dumps(), n


@pytest.mark.parametrize("n", range(1, 10))
def test_row_kernel_matches_reference_route(n):
    # the decompose/gamma inputs: symbolic and specialised refinements,
    # the joint polynomial at a negative rational s, and d above n - 1
    polys = [trivariate(n), eulerian_st(n),
             eulerian_st(n).subs({"s": F(-3, 7)})]
    polys += [trivariate(n).subs({v: r}) for v in ("p", "q")
              for r in (F(3, 2), F(-5, 4))]
    # both values at once, with coprime denominators and one negative
    polys.append(trivariate(n).subs({"p": F(3, 2), "q": F(-5, 7)}))
    for f in polys:
        for d in (n - 1, n):
            _assert_matches_reference(f, "t", d)


def test_split_kernel_matches_the_division_route_on_random_lists():
    # rows no counting polynomial produces: negative ints, Fractions and
    # zeros, at every length 0..12, zero top entries included; the empty
    # row splits into two empty lists
    rng = random.Random(1)
    for _ in range(1500):
        f = [rng.choice((0, rng.randint(-99, 99),
                         F(rng.randint(-99, 99), rng.randint(1, 12))))
             for _ in range(rng.randint(0, 12))]
        a, b = symmetry._split_ints(f)
        assert (len(a), len(b)) == (len(f), max(len(f) - 1, 0)), f
        ref_a, ref_b = _division_split(MPoly(("t",), {
            (k,): c for k, c in enumerate(f)}), "t", len(f) - 1)
        assert MPoly(("t",), {(k,): c for k, c in enumerate(a)}) == ref_a, f
        assert MPoly(("t",), {(k,): c for k, c in enumerate(b)}) == ref_b, f


def test_the_split_divides_by_nothing():
    # the t-split and MacMahon's word tables are prefix sums in closed
    # form, so neither module keeps a division by 1 - x^k or its error
    for module in (distributions, symmetry):
        for name in ("_over_one_minus", "DivisibilityError"):
            assert not hasattr(module, name), (module.__name__, name)


def test_verify_thm20_reports_a_corrupted_b_part(monkeypatch):
    decompose = symmetry.sym_decompose

    def corrupted(f, var, d):
        dec = decompose(f, var, d)
        return dec._replace(b=dec.b + S * T)

    monkeypatch.setattr(symmetry, "sym_decompose", corrupted)
    (witness,) = verify_thm20(4)
    b = decompose(eulerian_st(4), "t", 3).b
    assert witness.startswith(f"b_part={(b + S * T).dumps()} expected=")


def test_verify_thm20_reports_a_corrupted_a_part(monkeypatch):
    # only the recombination half fails: the witness shows the a part
    # against A_4 - (s - 1) * t * a_3, which is the true a part
    decompose = symmetry.sym_decompose

    def corrupted(f, var, d):
        dec = decompose(f, var, d)
        return dec._replace(a=dec.a + S * T) if d == 3 else dec

    monkeypatch.setattr(symmetry, "sym_decompose", corrupted)
    a = decompose(eulerian_st(4), "t", 3).a
    assert verify_thm20(4) == [f"a_part={(a + S * T).dumps()} "
                               f"expected={a.dumps()}"]


def test_verify_thm20_reports_both_halves_in_order(monkeypatch):
    decompose = symmetry.sym_decompose

    def corrupted(f, var, d):
        dec = decompose(f, var, d)
        return dec._replace(a=dec.a + T, b=dec.b + S) if d == 3 else dec

    monkeypatch.setattr(symmetry, "sym_decompose", corrupted)
    dec = decompose(eulerian_st(4), "t", 3)
    assert verify_thm20(4) == [
        f"b_part={(dec.b + S).dumps()} expected={dec.b.dumps()}",
        f"a_part={(dec.a + T).dumps()} expected={dec.a.dumps()}"]


def test_recursion_report_range():
    for n in range(2, 10):
        witnesses = verify_thm20(n)
        assert witnesses == [], witnesses
    with pytest.raises(ValueError):
        verify_thm20(1)
    with pytest.raises(ValueError):
        verify_thm20(14)


def test_gamma_expand_numeric_fixtures():
    assert gamma_expand_coeffs([1, 1]) == (1,)
    assert gamma_expand_coeffs([1, 7, 1]) == (1, 5)
    assert gamma_expand_coeffs([1, 87, 301, 87, 1]) == (1, 83, 129)
    assert gamma_expand_coeffs([1, 3, 3, 1]) == (1, 0)
    assert gamma_expand_coeffs([0, 1, 0]) == (0, 1)
    assert gamma_expand_coeffs([]) == ()
    assert gamma_expand_coeffs([0, 0, 0]) == ()
    assert gamma_expand_coeffs([F(1, 2), F(7, 2), F(1, 2)]) == (F(1, 2),
                                                                 F(5, 2))
    assert all(type(g) is F for g in gamma_expand_coeffs([1, 7, 1]))
    # denominators whose lcm is above 2**64, against the elimination route
    big = [F(1, 3 ** 41), F(2, 5 ** 28), F(-1, 7 ** 23), F(2, 5 ** 28),
           F(1, 3 ** 41)]
    assert lcm(*(c.denominator for c in big)) > 2 ** 64
    f = MPoly(("t",), {(i,): c for i, c in enumerate(big)})
    want = tuple(g.constant() for g in _elimination_gamma(f, "t", 4))
    assert gamma_expand_coeffs(big) == want and want[1] < 0


def test_gamma_expand_symbolic():
    f = a_part(3)
    gammas = gamma_expand(f, "t", 2)
    assert gammas == (MPoly.const(("s", "t"), 1),
                      (S ** 2 + 2 * S - 1).with_vars(("s", "t")))
    assert (1 + T) ** 2 + gammas[1] * T == f


def test_gamma_expand_rejects_non_palindromic():
    # the sparse route and the kernel refuse the same lists
    for cs in ([1, 2], [1, 2, 0, 3], [F(1, 2), 1]):
        f = MPoly(("t",), {(i,): c for i, c in enumerate(cs)})
        with pytest.raises(ValueError, match="^coefficient list is not "
                                             "palindromic at ambient degree"):
            gamma_expand(f, "t", len(cs) - 1)
        with pytest.raises(ValueError):
            gamma_expand_coeffs(cs)
    # a degree above d is refused before any row is expanded
    with pytest.raises(ValueError, match="^degree 2 in 't' exceeds ambient "
                                         "degree 1$"):
        gamma_expand(MPoly(("t",), {(2,): 1}), "t", 1)


def test_gamma_expand_of_zero_agrees_with_is_palindromic():
    # zero has degree -1: its empty expansion exists at every d >= -1 and
    # at no lower d, where gamma_expand returned one at d = -3
    zero = MPoly.zero(("t",))
    for d in range(-1, 4):
        assert is_palindromic(zero, "t", d)
        assert gamma_expand(zero, "t", d) == ()
    for d in (-2, -3, -5):
        assert not is_palindromic(zero, "t", d)
        with pytest.raises(ValueError, match=f"ambient degree {d}$"):
            gamma_expand(zero, "t", d)


def test_shape_checks():
    cube = shape_checks([1, 3, 3, 1])
    assert cube.palindromic and cube.unimodal
    assert cube.alternatingly_increasing and cube.gamma_nonnegative

    valley = shape_checks([2, 1, 2])
    assert valley.palindromic
    assert not valley.unimodal
    assert not valley.alternatingly_increasing
    assert not valley.gamma_nonnegative

    ramp = shape_checks([1, 2, 3])
    assert not ramp.palindromic
    assert ramp.unimodal
    assert not ramp.alternatingly_increasing
    assert not ramp.gamma_nonnegative

    with pytest.raises(ValueError):
        shape_checks([])

    # denominators whose lcm is above 2**64
    big = [F(1, 3 ** 41), F(2, 5 ** 28), F(1, 2), F(2, 5 ** 28),
           F(1, 3 ** 41)]
    assert shape_checks(big) == (True, True, True, False)
    big[2] = F(-1, 7 ** 23)
    assert shape_checks(big) == (True, False, False, False)


def test_shape_checks_specialized_joint():
    dense = eulerian_st(5).subs({"s": 2}).to_dense("t")
    assert dense == [1, 88, 332, 118, 2]
    flags = shape_checks(dense)
    assert not flags.palindromic
    assert flags.unimodal
    assert flags.alternatingly_increasing


def test_scan_forced_symmetric_point():
    # p = q = 1 collapses the refinement to the plain excedance polynomial
    report = conjecture_scan(3, 1, 1, force=True)
    assert not report.in_hypothesis
    assert report.gamma_a == (1, 2)
    assert report.gamma_b == ()
    assert report.gamma_a_nonneg and report.gamma_b_nonneg
    assert report.alternatingly_increasing and report.unimodal
    assert report.mode_indices == (1,)


def test_scan_small_cases():
    flat = conjecture_scan(1, 2, 1)
    assert flat.gamma_a == (1,)
    assert flat.gamma_b == ()

    two = conjecture_scan(2, 2, 1)
    assert two.gamma_a == (1,)
    assert two.gamma_b == (1,)

    five = conjecture_scan(5, 2, 1)
    assert five.in_hypothesis
    assert five.gamma_a_nonneg and five.gamma_b_nonneg
    assert five.alternatingly_increasing
    assert five.mode_indices == (2,)


def test_scan_guards():
    # a point outside the zone is refused before any table is built; the
    # n range is covered with every other entry point in test_perms
    distributions._trivariate_table.cache_clear()
    for n in (3, 5):
        with pytest.raises(ValueError, match="outside p > 1"):
            conjecture_scan(n, 1, 1)
    assert distributions._trivariate_table.cache_info().currsize == 0


def test_scan_refuses_inexact_points():
    # no floats: 1.1 would scan the dyadic 2476979795053773/2251799813685248
    for p, q in [(1.1, 1), (2, 1.5), (2, 1 + 0j)]:
        with pytest.raises(ValueError, match="inexact"):
            conjecture_scan(3, p, q)


def test_coefficient_lists_refuse_inexact_values():
    # 0.1 would expand the dyadic 3602879701896397/36028797018963968
    for x in (0.1, 2.5, 1 + 0j):
        for fn in (gamma_expand_coeffs, shape_checks):
            with pytest.raises(ValueError, match="inexact"):
                fn([1, x, 1])
    # a Decimal is exact, and taken at its exact value
    assert gamma_expand_coeffs([1, Decimal("0.1"), 1]) == (1, F(-19, 10))
    assert shape_checks([1, Decimal("0.1"), 1]).palindromic


def test_a_decimal_in_exponent_form_is_refused_at_once():
    # Fraction would build 10**1000000 first, at a cost that grows with
    # the exponent; the refusal reads the Decimal's text, '1E-1000000'
    x = Decimal("1e-1000000")
    start = time.perf_counter()
    for call in (lambda: gamma_expand_coeffs([1, x, 1]),
                 lambda: shape_checks([x]),
                 lambda: conjecture_scan(3, 2, x)):
        with pytest.raises(ValueError, match="without an exponent"):
            call()
    assert time.perf_counter() - start < 0.05


def _sparse_scan(n, p, q):
    """Gamma vectors, flags and modes of the scan by the MPoly route."""
    f = trivariate(n).subs({"p": p, "q": q})
    dense = f.to_dense("t")
    dense += [F(0)] * (n - len(dense))
    a, b = _division_split(f, "t", n - 1)
    gamma_a, gamma_b = (
        tuple(g.constant() for g in _elimination_gamma(part, "t", d))
        for part, d in ((a, n - 1), (b, n - 2)))
    top = max(dense)
    return (gamma_a, gamma_b,
            all(g >= 0 for g in gamma_a), all(g >= 0 for g in gamma_b),
            _is_alternatingly_increasing(dense), _is_unimodal(dense),
            tuple(i for i, c in enumerate(dense) if c == top))


def _kernel_scan(n, p, q):
    r = conjecture_scan(n, p, q, force=True)
    return (r.gamma_a, r.gamma_b, r.gamma_a_nonneg, r.gamma_b_nonneg,
            r.alternatingly_increasing, r.unimodal, r.mode_indices)


_IN_ZONE = [(F(p), F(q)) for p in ("3/2", "2", "5/2", "3", "7/3", "11/10")
            for q in ("1", "5/4", "3/2", "2", "3", "7/2")]
_FORCED = [(F(p), F(q)) for p in ("0", "1", "-1", "1/2", "-3/7")
           for q in ("0", "1", "-2", "1/3")]


def test_scan_kernel_matches_sparse_route():
    cases = [(n, p, q) for n in range(1, 10) for p, q in _IN_ZONE + _FORCED]
    cases += [(n, p, q) for n in (10, 11)
              for p, q in [(F(2), F(1)), (F(11, 10), F(7, 2)),
                           (F(-3, 7), F(1, 3))]]
    for n, p, q in cases:
        assert _kernel_scan(n, p, q) == _sparse_scan(n, p, q), (n, p, q)


def test_trivariate_table_matches_its_polynomials():
    cases = [(n, False, trivariate) for n in range(1, 12)]
    cases += [(n, True, derangement_lhs) for n in range(2, 12)]
    for n, derangements, build in cases:
        f = build(n)
        top_des, top_gap, terms = distributions._trivariate_table(
            n, derangements)
        assert (top_des, top_gap) == (f.degree("p"), f.degree("q"))
        assert len(terms) == len(f.terms)
        assert {(e, d, g): c for e, d, g, c in terms} == f.terms
        assert all(type(x) is int for term in terms for x in term)


def test_trivariate_table_built_once_per_n():
    # the builders and the scan share one fold per (n, derangements)
    distributions._trivariate_table.cache_clear()
    try:
        trivariate(6)
        derangement_lhs(6)
        for p, q in [(2, 1), (F(3, 2), 2), (F(-3, 7), F(1, 3)), (0, 0)]:
            conjecture_scan(6, p, q, force=True)
        info = distributions._trivariate_table.cache_info()
    finally:
        distributions._trivariate_table.cache_clear()
    assert (info.misses, info.hits) == (2, 4)


def test_scan_accepts_fractions():
    report = conjecture_scan(4, F(3, 2), 2)
    assert report.p == F(3, 2) and report.q == F(2)
    assert report.gamma_a_nonneg and report.gamma_b_nonneg


def test_scan_takes_a_fraction_as_given_and_reads_any_other_exact_form():
    # a Fraction is used as it is; an int, 'a/b' or a Decimal is read by
    # _coefficient and made one, so every form of a point gives one report
    for forms in ((F(3, 2), "3/2", Decimal("1.5")), (F(2), 2, "2")):
        want = _sparse_scan(5, forms[0], forms[0])
        for p in forms:
            for q in forms:
                r = conjecture_scan(5, p, q)
                assert type(r.p) is F and type(r.q) is F
                assert (r.n, r.p, r.q, r.in_hypothesis) == (
                    5, forms[0], forms[0], True)
                assert tuple(r[3:10]) == want, (p, q)
    for bad, match in ((1.5, "inexact"), ("1e0", "without an exponent")):
        for p, q in ((bad, 2), (2, bad)):
            with pytest.raises(Refused, match=match):
                conjecture_scan(5, p, q)


def test_trivariate_specialization_matches_joint_at_q1():
    # consistency between the scan's input and the joint polynomial
    a = trivariate(5).subs({"p": 2, "q": 1})
    b = eulerian_st(5).subs({"s": 2})
    assert a == b


# A q-analogue of thm20, measured from counting at n = 1..16 and cited
# as measured: split trivariate(n) = T_n(t, p, q) in t at degree n - 1
# as a_n + t b_n, one (des, gap) row at a time.  Then
# b_n(t, p, q) = (p - 1) a_(n-1)(t, pq, q), so the coefficient of
# p^d q^g in b_n is a_(n-1)'s at p^(d-1) q^(g-d+1) minus its at
# p^d q^(g-d).  At q = 1 this is thm20 with s = p; at p = 1 it is the
# t-symmetry of sum t^exc q^(maj-exc) (Shareshian-Wachs).

def _split_rows(n):
    """{(des, gap): (a, b)} from the fold's table, each row in t split at
    degree n - 1 by the kernel."""
    rows = {}
    for exc, des, gap, count in distributions._trivariate_table(n, False)[2]:
        rows.setdefault((des, gap), [0] * n)[exc] = count
    return {key: symmetry._split_ints(row) for key, row in rows.items()}


def test_q_analogue_of_thm20_on_the_fold_rows():
    prev = _split_rows(1)
    for n in range(2, 14):
        split = _split_rows(n)
        assert all(c >= 0 for a, _ in split.values() for c in a), n
        zero = ([0] * (n - 1),) * 2
        keys = set(split) | {(d + k, g + d) for d, g in prev for k in (0, 1)}
        for d, g in keys:
            up = prev.get((d - 1, g - d + 1), zero)[0]
            down = prev.get((d, g - d), zero)[0]
            want = [u - w for u, w in zip(up, down)]
            assert split.get((d, g), zero)[1] == want, (n, d, g)
        prev = split


def _counted_trivariate(n):
    """T_n(t, p, q) = sum t^exc p^des q^(maj - exc) over a listing of S_n."""
    terms = {}
    for perm in enumerate_perms(n):
        st = stats(perm)
        key = (st.exc, st.des, st.maj - st.exc)
        terms[key] = terms.get(key, 0) + 1
    return MPoly(("t", "p", "q"), terms)


def test_q_analogue_of_thm20_by_brute_force():
    # the same identity on S_n listed one permutation at a time and split
    # by division: neither the fold nor the kernel is on this path.
    # n = 2..8 (40,320 permutations at 8) takes about 0.25 s.
    prev = None
    for n in range(1, 9):
        a, b = _division_split(_counted_trivariate(n), "t", n - 1)
        assert all(c >= 0 for c in a.terms.values()), n
        if prev is not None:
            # [p^d q^g] b_n = [p^(d-1) q^(g-d+1)] a_(n-1)
            #                 - [p^d q^(g-d)] a_(n-1), for each t^e
            want = MPoly(a.vars, [((e, d + 1, g + d), c)
                                  for (e, d, g), c in prev.terms.items()]
                         + [((e, d, g + d), -c)
                            for (e, d, g), c in prev.terms.items()])
            assert b == want, n
        prev = a


# The first-letter split, measured from counting and cited as measured,
# not proved here: R_n = (T_n - (1 - p) T_(n-1)(t, pq, q)) / p, with T_n
# = trivariate(n).  The pi with pi(1) = 1 are 1 + pi' with the exc and
# des of pi' and maj raised by des(pi'), which gives T_(n-1)(t, pq, q);
# so R_n sums t^exc p^(des - [pi(1) != 1]) q^(maj - exc) over S_n.

def _first_letter_rest(n):
    """R_n as {(exc, des, gap): count}, from the fold's tables at n and
    n - 1."""
    r = {}
    for e, d, g, c in distributions._trivariate_table(n, False)[2]:
        r[e, d, g] = r.get((e, d, g), 0) + c
    for e, d, g, c in distributions._trivariate_table(n - 1, False)[2]:
        for key, sign in (((e, d, g + d), -1), ((e, d + 1, g + d), 1)):
            r[key] = r.get(key, 0) + sign * c
    r = {key: c for key, c in r.items() if c}
    assert all(d for _, d, _ in r), f"R_{n} times p has a term free of p"
    return {(e, d - 1, g): c for (e, d, g), c in r.items()}


def test_first_letter_rest_by_brute_force():
    # n = 2..8, 40,320 permutations at 8
    for n in range(2, 9):
        counted = {}
        for perm in enumerate_perms(n):
            st = stats(perm)
            key = (st.exc, st.des - (perm[0] != 1), st.maj - st.exc)
            counted[key] = counted.get(key, 0) + 1
        assert _first_letter_rest(n) == counted, n


def test_first_letter_rest_is_positive_and_t_palindromic():
    for n in range(2, 14):
        r = _first_letter_rest(n)
        assert all(c > 0 for c in r.values()), n
        assert {(n - 1 - e, d, g): c for (e, d, g), c in r.items()} == r, n


def test_a_part_three_term_recurrence_from_the_first_letter_split():
    # at q = 1 and p = s: a_n = s R_n + (1 - s)(1 + t) a_(n-1)
    #                           - (1 - s)^2 t a_(n-2)
    for n in range(3, 14):
        r = MPoly(("s", "t"), [((d, e), c) for (e, d, _), c
                               in _first_letter_rest(n).items()])
        want = (S * r + (1 - S) * (1 + T) * a_part(n - 1)
                - (1 - S) ** 2 * T * a_part(n - 2))
        assert a_part(n) == want, n


def test_scan_b_half_is_the_a_half_one_n_down():
    # with p > 1 and q >= 1, (pq, q) is in the zone too, so the b half of
    # the scan's question is the a half at n - 1
    for p, q in _IN_ZONE:
        for n in range(2, 14):
            want = tuple((p - 1) * g
                         for g in conjecture_scan(n - 1, p * q, q).gamma_a)
            assert conjecture_scan(n, p, q).gamma_b == want, (n, p, q)
