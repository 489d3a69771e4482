from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from eulerlab import distributions
from eulerlab.distributions import (MAX_ENUM_N, build_distribution,
                                    classic_eulerian, derangement_lhs,
                                    derangement_poly, eulerian_st, exc_slice,
                                    stable_subsets, trivariate, xi)
from eulerlab.mpoly import MPoly
from eulerlab.perms import enumerate_perms, inverse, stats
from eulerlab.qanalog import (fubini_number, int_add, int_mul, int_trim,
                              subfactorial)

S, T = (MPoly.variable(v, ("s", "t")) for v in ("s", "t"))
TT, P, Q = (MPoly.variable(v, ("t", "p", "q")) for v in ("t", "p", "q"))


def test_joint_displays():
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


def test_joint_guards():
    with pytest.raises(ValueError):
        eulerian_st(0)
    with pytest.raises(ValueError):
        eulerian_st(14)
    with pytest.raises(ValueError):
        trivariate(MAX_ENUM_N + 1)
    with pytest.raises(ValueError):
        derangement_lhs(MAX_ENUM_N + 1)


def test_marginals_match_single_statistic_builders():
    for n in range(1, 7):
        joint = eulerian_st(n)
        # the same terms over x
        des_marginal = MPoly(("x",), joint.subs({"t": 1}).terms)
        exc_marginal = MPoly(("x",), joint.subs({"s": 1}).terms)
        assert des_marginal == classic_eulerian(n, "des")
        assert exc_marginal == classic_eulerian(n, "exc")


def test_classic_eulerian_rows():
    assert classic_eulerian(4).to_dense("x") == [1, 11, 11, 1]
    assert classic_eulerian(5).to_dense("x") == [1, 26, 66, 26, 1]
    with pytest.raises(ValueError):
        classic_eulerian(3, "maj")


def test_top_n_digits_do_not_carry():
    # every fold packs digits of n!.bit_length() bits, since a state
    # stands for at most n! prefixes.  The des fold sees no value exactly,
    # so its last layer is one state holding all of S_n, and its largest
    # digit, an Eulerian number, needs more than (n-1)!.bit_length() bits
    n = MAX_ENUM_N
    des = classic_eulerian(n, "des")
    assert max(des.terms.values()) >= 1 << factorial(n - 1).bit_length()
    assert classic_eulerian(n, "exc") == des
    assert derangement_poly(n).evaluate({"x": 1}) == subfactorial(n)
    joint = eulerian_st(n)
    assert joint.evaluate({"s": 1, "t": 1}) == factorial(n)
    exc_row = MPoly(("x",), joint.subs({"s": 1}).terms)
    des_row = MPoly(("x",), joint.subs({"t": 1}).terms)
    assert exc_row == classic_eulerian(n, "exc")
    assert des_row == des


def test_a_rest_is_any_int():
    # a rest is only a key of its state, so no move needs to keep it
    # small: the trivariate fold with every rest offset by 1000 counts
    # as the plain one.  The kernel starts every fold at rest 0
    n = 6
    plain = distributions._trivariate_move(n, False)

    def offset(pos, rest, v, free, descent):
        moved = plain(pos, rest - 1000 if pos > 1 else rest, v, free,
                      descent)
        return None if moved is None else (moved[0] + 1000, moved[1])

    want = distributions._transfer(n, plain, True, distributions._positional)
    got = distributions._transfer(n, offset, True, distributions._positional)
    assert {(rest - 1000, code): c for (rest, code), c in got.items()} == want


def _spy(move, calls):
    """``move``, recording the arguments of each call in ``calls``."""
    def spy(*args):
        calls.append(args)
        return move(*args)
    return spy


def test_transfer_layers_hold_free_sets_not_used_sets(monkeypatch):
    # the positional families see exactly the remaining values from pos
    # up.  If j of the pos - 1 placed values lie at pos or above, j values
    # below pos remain, inert; so the free sets before position pos are
    # the subsets of {pos..n} missing j <= min(pos - 1, n - pos + 1)
    # values.  At n = 10 the widest layer has 64 of them, against the
    # C(10, 5) = 252 used sets of the middle layer
    n = 10
    # built before the spies go in, since a builder may not be cached yet
    refined, eulerian = trivariate(n), classic_eulerian(n, "exc")
    calls = []
    real = distributions._trivariate_move
    monkeypatch.setattr(distributions, "_trivariate_move",
                        lambda *args: _spy(real(*args), calls))
    distributions._trivariate_table.cache_clear()
    assert distributions._trivariate_poly(n, False) == refined
    layers: dict = {}
    seen: dict = {}
    for pos, rest, v, free, descent in calls:
        layers.setdefault(pos, set()).add(free)
        key = pos, rest, v, free, descent
        seen[key] = seen.get(key, 0) + 1
    for pos in range(1, n + 1):
        top = range(pos, n + 1)
        full = sum(1 << v for v in top)
        want = {full - sum(1 << v for v in gone)
                for j in range(min(pos - 1, n - pos + 1) + 1)
                for gone in combinations(top, j)}
        assert layers[pos] == want, pos
    sizes = [len(layers[pos]) for pos in range(1, n + 1)]
    assert sizes == [1, 10, 37, 64, 57, 32, 16, 8, 4, 2]
    assert max(sizes) < max(comb(n, k) for k in range(n)) == 252
    # each remaining value is placed at most twice per rest of a free
    # set; the inert ones all arrive as v = 0
    for (pos, rest, v, free, descent), count in seen.items():
        inert = n - pos + 1 - bin(free).count("1")
        assert count <= (inert if v == 0 else 1)

    # the excedance fold keeps no rank: one state per free set, so each
    # value is placed once per free set, never after a descent
    calls.clear()
    monkeypatch.setattr(distributions, "_exc_move",
                        _spy(distributions._exc_move, calls))
    assert classic_eulerian(n, "exc") == eulerian
    assert not any(descent for *_, descent in calls)
    exact = [(pos, v, free) for pos, _, v, free, _ in calls if v]
    assert len(exact) == len(set(exact))

    # des sees no value exactly: every layer is the empty free set, and
    # the fold is the Eulerian recurrence over the rank of the last value,
    # with at most two calls per rank left to place
    calls.clear()
    monkeypatch.setattr(distributions, "_des_move",
                        _spy(distributions._des_move, calls))
    assert classic_eulerian(n, "des") == eulerian
    assert {(v, free) for _, _, v, free, _ in calls} == {(0, 0)}
    assert len(calls) <= 2 * sum(range(1, n + 1))


def test_total_masses():
    for n in range(1, 7):
        assert eulerian_st(n).evaluate({"s": 1, "t": 1}) == factorial(n)
        assert derangement_poly(n).evaluate({"x": 1}) == subfactorial(n)


def test_fubini_specialization():
    values = [eulerian_st(n).evaluate({"s": 2, "t": 1}) for n in range(1, 6)]
    assert values == [1, 3, 13, 75, 541]
    assert values == [fubini_number(n) for n in range(1, 6)]


def test_trivariate_displays():
    assert trivariate(1) == MPoly.const(("t", "p", "q"), 1)
    assert trivariate(2) == 1 + P * TT
    assert trivariate(3) == 1 + (2 * P + P * Q + P ** 2 * Q ** 2) * TT + P * TT ** 2
    assert trivariate(4) == (
        1
        + (3 * P + 2 * P * Q + P * Q ** 2
           + 2 * P ** 2 * Q ** 2 + 2 * P ** 2 * Q ** 3 + P ** 2 * Q ** 4) * TT
        + (3 * P + P * Q + P ** 2 * Q
           + 3 * P ** 2 * Q ** 2 + 2 * P ** 2 * Q ** 3 + P ** 3 * Q ** 4) * TT ** 2
        + P * TT ** 3)


def test_trivariate_specializes_to_joint():
    # at q = 1 the refinement forgets the major index and p plays s
    for n in range(1, 6):
        # the same terms over (t, s): the constructor moves s first
        flat = MPoly(("t", "s"), trivariate(n).subs({"q": 1}).terms)
        assert flat == eulerian_st(n)


def test_derangement_refinement():
    assert derangement_lhs(2) == P * TT
    d3 = derangement_lhs(3).subs({"p": 1, "q": 1})
    assert d3 == MPoly(("t",), {(1,): 1, (2,): 1})
    for n in range(2, 7):
        total = derangement_lhs(n).evaluate({"t": 1, "p": 1, "q": 1})
        assert total == subfactorial(n)
    with pytest.raises(ValueError):
        derangement_lhs(1)


def test_xi_small_cases():
    PP, QQ = (MPoly.variable(v, ("p", "q")) for v in ("p", "q"))
    assert xi(2, 1) == PP
    assert xi(3, 1) == PP
    assert xi(4, 1) == PP
    assert xi(4, 2) == (PP ** 2 * QQ + 2 * PP ** 2 * QQ ** 2
                        + PP ** 2 * QQ ** 3 + PP ** 3 * QQ ** 4)


def test_xi_runs_no_fold(monkeypatch):
    # xi reads MacMahon's slices; the S_n fold is only thm01's literal
    # reading, which costs ten times as much at the cap
    def fold(*args):
        raise AssertionError("xi ran the S_n fold")

    monkeypatch.setattr(distributions, "_transfer", fold)
    for i in range(1, MAX_ENUM_N // 2 + 1):
        assert not xi(MAX_ENUM_N, i).is_zero(), i


def test_xi_guards():
    with pytest.raises(ValueError):
        xi(1, 1)
    with pytest.raises(ValueError):
        xi(4, 3)
    with pytest.raises(ValueError):
        xi(5, 0)
    # a float index in range was accepted silently
    with pytest.raises(ValueError, match="^i must lie in 1..3 for n=6, got 2.0$"):
        xi(6, 2.0)
    # xi shares the builders' cap, though MacMahon's slices need no fold
    with pytest.raises(ValueError, match=f"between 2 and {MAX_ENUM_N}"):
        xi(MAX_ENUM_N + 1, 1)


def _reference_transposed_slices(n):
    """The transposed slices, filtering on the public stats of each inverse."""
    allowed = set(stable_subsets(2, n - 2)) if n >= 4 else {()}
    slices = {}
    for perm in enumerate_perms(n):
        des_set = stats(inverse(perm)).des_set
        if des_set not in allowed:
            continue
        w = stats(perm)
        counts = slices.setdefault(len(des_set) + 1, {})
        key = (1 + w.des, w.maj)
        counts[key] = counts.get(key, 0) + 1
    return slices


def test_transposed_mask_matches_reference_filter():
    # MacMahon's formula against enumeration, slice by slice
    for n in range(2, 9):
        assert (distributions._macmahon_slices(n)
                == _reference_transposed_slices(n)), n


def _contents(n):
    """Every content of a word of length n: the sorted block sizes of n
    cut at any subset of 1..n-1."""
    contents = set()
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            bounds = (0, *cuts, n)
            contents.add(tuple(sorted(
                b - a for a, b in zip(bounds, bounds[1:]))))
    return sorted(contents)


def test_word_table_matches_brute_force():
    # every content to n = 7, blocks of size 1 included, which no slice
    # asks for, against the (des, maj) counts of its distinct words
    for n in range(1, 8):
        for content in _contents(n):
            letters = [v for v, m in enumerate(content) for _ in range(m)]
            counts = [[0] * (n * (n - 1) // 2 + 1) for _ in range(n)]
            for word in set(permutations(letters)):
                descents = [p for p in range(1, n) if word[p - 1] > word[p]]
                counts[len(descents)][sum(descents)] += 1
            want = tuple(int_trim(row) for row in counts)
            assert distributions._word_des_maj(content) == want, content


def test_word_table_sums_match_two_oracles_that_divide_by_nothing():
    # every content above brute force, to one past the cap.  Over des
    # the table sums to the q-multinomial, maj's distribution on words,
    # here a product of q-binomials from q-Pascal:
    # [m choose k] = [m - 1 choose k - 1] + q^k [m - 1 choose k].  At
    # q = 1, row d sums to sum_{j <= d} (-1)^j C(n + 1, j) prod_a
    # C(a + d - j, a), MacMahon's t-series at q = 1
    top = MAX_ENUM_N + 1
    q_binomials = [[[1]]]
    for m in range(1, top + 1):
        prev = q_binomials[-1] + [[]]
        q_binomials.append([int_add(prev[k - 1] if k else [],
                                    [0] * k + prev[k])
                            for k in range(m + 1)])
    for n in range(8, top + 1):
        for content in _contents(n):
            table = distributions._word_des_maj(content)
            total, multinomial, size = [], [1], 0
            for row in table:
                total = int_add(total, row)
            for a in content:
                size += a
                multinomial = int_mul(multinomial, q_binomials[size][a])
            assert total == multinomial, content
            for d, row in enumerate(table):
                assert sum(row) == sum(
                    (-1) ** j * comb(n + 1, j)
                    * prod(comb(a + d - j, a) for a in content)
                    for j in range(d + 1)), (content, d)


def test_exc_slice():
    assert exc_slice(4, 0) == MPoly.const(("s",), 1)
    assert exc_slice(4, 1) == MPoly(("s",), {(1,): 6, (2,): 5})
    assert exc_slice(4, 3) == MPoly(("s",), {(1,): 1})
    with pytest.raises(ValueError):
        exc_slice(4, 4)
    with pytest.raises(ValueError, match="^k must lie in 0..4 for n=5, got 1.0$"):
        exc_slice(5, 1.0)
    # n is checked before k, so the message names n's range
    with pytest.raises(ValueError, match="n must be between 1 and 13, got 0"):
        exc_slice(0, 0)
    with pytest.raises(ValueError, match="n must be between 1 and 13, got 20"):
        exc_slice(20, 25)
    # linear coefficient is a plain binomial
    for n in range(2, 8):
        for k in range(1, n):
            got = exc_slice(n, k).coeff_of("s", 1).constant()
            assert got == comb(n, k + 1)


def test_slice_sum_reassembles_joint():
    for n in (3, 5):
        acc = MPoly.zero(("s", "t"))
        t = MPoly.variable("t", ("s", "t"))
        for k in range(n):
            acc = acc + exc_slice(n, k).with_vars(("s", "t")) * t ** k
        assert acc == eulerian_st(n)


def test_build_distribution_dispatch():
    builders = {"des_exc": eulerian_st, "classic_eulerian": classic_eulerian,
                "derangement": derangement_poly, "trivariate": trivariate,
                "derangement_refined": derangement_lhs}
    assert {*builders, "xi", "exc_slice"} == set(distributions.FAMILIES)
    for family, builder in builders.items():
        assert build_distribution(family, 4) == builder(4), family
    assert build_distribution("xi", 4, i=2) == xi(4, 2)
    assert build_distribution("exc_slice", 4, k=1) == exc_slice(4, 1)
    with pytest.raises(ValueError):
        build_distribution("xi", 4)
    with pytest.raises(ValueError):
        build_distribution("exc_slice", 4)
    with pytest.raises(ValueError):
        build_distribution("des_exc", 4, i=1)
    with pytest.raises(ValueError, match="family 'xi' takes no --k"):
        build_distribution("xi", 4, i=1, k=9)
    with pytest.raises(ValueError, match="family 'exc_slice' takes no --i"):
        build_distribution("exc_slice", 4, i=1, k=1)
    with pytest.raises(ValueError):
        build_distribution("nope", 3)


def test_derangement_poly_values():
    assert derangement_poly(1).is_zero()
    assert derangement_poly(2) == MPoly(("x",), {(1,): 1})
    assert derangement_poly(3) == MPoly(("x",), {(1,): 1, (2,): 1})
    assert derangement_poly(4) == MPoly(("x",), {(1,): 1, (2,): 7, (3,): 1})


def _tally(counts, family, exps):
    table = counts.setdefault(family, {})
    table[exps] = table.get(exps, 0) + 1


@pytest.mark.parametrize("n", range(1, 9))
def test_builders_match_enumeration(n):
    # one pass over S_n by enumeration, reading every family's statistics
    # off perms.stats, against the transfer-built polynomials
    allowed = set(stable_subsets(2, n - 2)) if n >= 3 else {()}
    counts: dict = {}
    for perm in enumerate_perms(n):
        st = stats(perm)
        w = stats(inverse(perm))
        _tally(counts, "des_exc", (st.des, st.exc))
        _tally(counts, "des", (st.des,))
        _tally(counts, "exc", (st.exc,))
        _tally(counts, "trivariate", (st.exc, st.des, st.maj - st.exc))
        if st.fix == 0:
            _tally(counts, "derangement", (st.exc,))
            _tally(counts, "derangement_lhs",
                   (st.exc, st.des, st.maj - st.exc))
        if st.des_set in allowed:
            _tally(counts, ("xi", st.des + 1), (1 + w.des, w.maj))

    def want(family, vars):
        return MPoly(vars, counts.get(family, {})).dumps()

    assert eulerian_st(n).dumps() == want("des_exc", ("s", "t"))
    assert classic_eulerian(n, "des").dumps() == want("des", ("x",))
    assert classic_eulerian(n, "exc").dumps() == want("exc", ("x",))
    assert derangement_poly(n).dumps() == want("derangement", ("x",))
    assert trivariate(n).dumps() == want("trivariate", ("t", "p", "q"))
    if n >= 2:
        assert derangement_lhs(n).dumps() == want("derangement_lhs",
                                                  ("t", "p", "q"))
    for i in range(1, n // 2 + 1):
        assert xi(n, i).dumps() == want(("xi", i), ("p", "q"))
    # the xi fold is thm01's literal reading; it too must match counting
    if n >= 2:
        assert distributions._xi_slices(n) == {
            i: counts[("xi", i)] for i in range(1, n // 2 + 1)}
