"""Distribution polynomials over the symmetric group.

Every builder but :func:`xi` runs one left-to-right transfer over S_n
(:func:`_transfer`) and returns a sparse polynomial with integer
coefficients.  The transfer is an exact reorganisation of enumerating
S_n: it merges the prefixes that leave the same state, which is what the
family must remember about a prefix.  A state keeps exactly only the
remaining values that the family's move must still see: from the
position on for the families that read excedances or fixed points, since
a smaller value can be neither at any later position; all of them for
the xi fold (:func:`_xi_slices`), which reads whether v + 1 is placed;
none for the descent count.  The other remaining values are inert, kept
only as a count; they rank below every exact one.  The families that
read descents also keep the rank of the last value among the remaining
ones, and the three-variable refinements and the xi fold the descent
count so far.  No part of a state has a size limit, so the fold is exact
at every n and the cap :data:`MAX_ENUM_N` is set by cost alone.  Each
merged state holds one packed int over the remaining statistics, and as a
family reads the last value only through the descent test, each value is
placed once after all the prefixes ending below it and once after those
ending above it.  So n = 13 takes well under a second
(``trivariate(13)`` about 0.04 s, and the xi fold for all slices about
0.45 s, in fresh processes on a 2-core x86 machine) where listing 13!
permutations would take hours.  Each family only supplies the move that
reads its statistics off one placed value.  :func:`eulerian_st`, whose
polynomial several consumers read within one command, is cached.  So is
the integer table of the three-variable fold (:func:`_trivariate_table`)
behind :func:`trivariate`, :func:`derangement_lhs` and ``scan``, whose
readers :func:`check_n` guards.  No command asks :func:`classic_eulerian`,
:func:`derangement_poly`, the word table
:func:`_word_des_maj` or a slice table (:func:`_xi_slices`,
:func:`_macmahon_slices`) for the same arguments twice: thm01 reads each
slice table once per n, and :func:`xi` reads one per call.

:func:`xi` reads its slices with no pass over S_n
(:func:`_macmahon_slices`): MacMahon's formula for the (des, maj)
distribution of words, with Moebius inversion over descent sets of the
inverse over :func:`stable_subsets`.  The xi fold is left only as
thm01's literal reading: thm01 compares it whole with MacMahon's table.
Enumeration (``perms.enumerate_perms`` with ``perms.stats``) is the tests'
route: they compare every family and both slice tables against it byte
for byte at small n.

Variable conventions (fixed package-wide):

* ``s`` marks descents, ``t`` marks excedances in the joint polynomial;
* ``p`` marks descents, ``q`` carries the major-index/excedance gap in
  the three-variable refinements;
* ``x`` is the variable of single-statistic polynomials.

The three-variable builders assert that the major index of every
permutation is at least its excedance count.  A violation would falsify
the identities this package verifies, so it stops the build with the
offending statistics in the message.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

from .mpoly import MPoly, Refused

#: Largest n of the S_n distribution builders, and the library's one size
#: limit, set by cost alone.  At 13 the fold builds eulerian_st in about
#: 0.01 s and trivariate in about 0.04 s with a 16 MB peak, and xi reads
#: MacMahon's slices, with no fold, in about 0.04 s.  The costliest work
#: at the cap is no build but thm01's literal reading, the xi fold: about
#: 0.45 s with a 45 MB peak (fresh processes, 2-core x86, Python 3.11).
MAX_ENUM_N = 13


def check_n(n: int, lo: int) -> None:
    """Refuse an n that is not an int in lo..MAX_ENUM_N; every S_n route
    checks here.  The cached public builder, :func:`eulerian_st`, uses
    ``lru_cache(typed=True)``, so a float n never hits the entry of the
    equal int and always reaches this check.  The cached per-n table,
    :func:`_trivariate_table`, is private and untyped, so every public
    reader, ``conjecture_scan`` included, checks n here before reading."""
    if type(n) is not int:
        raise Refused(f"n must be an int, got {n!r}")
    if not lo <= n <= MAX_ENUM_N:
        raise Refused(f"n must be between {lo} and {MAX_ENUM_N}, got {n}")


def _transfer(n: int, move, tagged: bool,
              exact_from) -> dict[tuple[int, int], int]:
    """Fold a statistic over S_n, placing one value per position.

    Before position pos the prefix (pi(1), ..., pi(pos - 1)) leaves a set
    of values still to place.  The values from ``exact_from(pos)`` up are
    the ones the family's move must see exactly; the smaller ones are
    inert, seen only as a count.  A prefix is summarised by its state:
    the bit set ``free`` of its exact remaining values (bit v for value
    v), whatever else the family must remember (``rest``) and the rank t
    of its last value among the remaining ones: how many of them lie
    below it, or 0 when the family is not ``tagged``.  Placing the
    remaining value of rank rho puts a descent at pos - 1 exactly when
    t > rho, and leaves the new last value at rank rho.  An inert value
    lies below every exact one, and ``exact_from`` never falls, so the
    inert values hold the lowest ranks and a value that turns inert
    keeps its rank.  Hence prefixes with the same state have the same
    continuations, whichever inert values they left, and merge: for the
    positional families every value below pos is inert, since it can be
    neither an excedance (v > j) nor a fixed point (v = j) at a later
    position j >= pos.

    A layer maps ``free`` to ``{rest: row}``, and entry t of ``row``,
    which ends at its highest rank reached, is one packed int over the
    prefixes of rank t: digit j, ``width`` bits wide, counts those whose
    other tracked statistics encode to j, and raising that code by d is
    a left shift by d digits.  Sweeping the ranks upward, the kernel
    places each remaining value at most twice per rest: once after the
    prefixes of rank t <= rho (no descent) and once after the others (a
    descent).  ``move(pos, rest, v, free, descent)``, with v the exact
    value or 0 for an inert one, returns ``(new_rest, rise)``: the
    prefixes move to rank rho of ``new_rest`` in the state with v out of
    ``free``, and their code rises by ``rise``; or None to drop them.

    A state after pos values, like each sum below or above rho, covers
    at most n! / (n - pos)! <= n! prefixes, so ``width`` =
    ``n!.bit_length()`` keeps digits from carrying.  Returns
    ``{(rest, code): count}`` over S_n.
    """
    width = factorial(n).bit_length()
    values = range(1, n + 1)
    layer = {(1 << n + 1) - 2 & -(1 << exact_from(1)): {0: [1]}}
    for pos in range(1, n + 1):
        keep = -(1 << exact_from(pos + 1))  # the bits still exact after
        left = n - pos + 1
        nxt: dict = {}
        while layer:
            free, rests = layer.popitem()
            # the remaining values by rank: the inert ones, then the rest
            ranked = [v for v in values if free >> v & 1]
            ranked[:0] = [0] * (left - len(ranked))
            # outs[rho]: the rest dict reached by placing rank rho,
            # fetched or made by the first move into it
            outs = [None] * left
            for rest, row in rests.items():
                top = len(row) - 1  # a row ends at a rank it holds
                # adding 0, like a shift or subtraction by 0, would copy
                # the int
                total = sum(filter(None, row))
                below = 0  # the prefixes of rank t <= rho
                for rho, v in enumerate(ranked):
                    if rho <= top and row[rho]:
                        below += row[rho]
                    t = rho if tagged else 0
                    if below:
                        moved = move(pos, rest, v, free, False)
                        if moved is not None:
                            new_rest, rise = moved
                            packed = below << rise * width if rise else below
                            out = outs[rho]
                            if out is None:
                                out = outs[rho] = nxt.setdefault(
                                    free & ~(1 << v) & keep, {})
                            new = out.get(new_rest)
                            if new is None:
                                new = out[new_rest] = [0] * (t + 1)
                            elif len(new) <= t:
                                new += [0] * (t + 1 - len(new))
                            new[t] = new[t] + packed if new[t] else packed
                    if rho < top:
                        moved = move(pos, rest, v, free, True)
                        if moved is not None:
                            new_rest, rise = moved
                            packed = total - below if below else total
                            if rise:
                                packed <<= rise * width
                            out = outs[rho]
                            if out is None:
                                out = outs[rho] = nxt.setdefault(
                                    free & ~(1 << v) & keep, {})
                            new = out.get(new_rest)
                            if new is None:
                                new = out[new_rest] = [0] * (t + 1)
                            elif len(new) <= t:
                                new += [0] * (t + 1 - len(new))
                            new[t] = new[t] + packed if new[t] else packed
        layer = nxt
    counts: dict[tuple[int, int], int] = {}
    digit = (1 << width) - 1
    for rests in layer.values():
        # no value is left to rank below the last one
        for rest, (packed,) in rests.items():
            code = 0
            while packed:
                count = packed & digit
                if count:
                    key = rest, code
                    counts[key] = counts.get(key, 0) + count
                packed >>= width
                code += 1
    return counts


# Moves.  A descent sits at position pos - 1 when the last value exceeds
# v, v is an excedance when v > pos and a fixed point when v == pos; an
# inert value (v = 0) is neither.  The positional families see exactly
# the values from pos up, des sees none and xi all.  The excedance counts
# read nothing off the last value, so their folds are not tagged: every
# prefix sits at rank 0.

def _positional(pos):
    return pos


def _des_move(pos, rest, v, free, descent):
    # code = des
    return 0, descent


def _exc_move(pos, rest, v, free, descent):
    # code = exc
    return 0, v > pos


def _derangement_move(pos, rest, v, free, descent):
    return None if v == pos else (0, v > pos)


def _des_exc_move(n):
    def move(pos, rest, v, free, descent):
        # code = n * des + exc, as exc < n
        return 0, n * descent + (v > pos)
    return move


def _trivariate_move(n, derangements):
    def move(pos, des, v, free, descent):
        # rest = des; code = n * (maj - des (des + 1) / 2) + exc.  The des
        # descents sit at distinct positions, so maj >= 1 + ... + des, and
        # measuring maj from that floor keeps the codes of a state close
        # together.  A new descent at pos - 1 raises it by pos - 2 - des.
        if v == pos and derangements:
            return None
        if descent:
            return des + 1, n * (pos - 2 - des) + (v > pos)
        return des, v > pos
    return move


def _xi_move(n):
    def move(pos, seen, v, free, descent):
        # rest = 2 * descents so far + (previous position was a descent);
        # code = n * maj(w) + des(w).  w = pi^-1 descends at v when v + 1
        # is placed before v, i.e. no longer free: the xi fold keeps every
        # value exact.  The descent count picks the slice.
        if descent:
            if seen & 1 or not 2 <= pos - 1 <= n - 2:
                return None
            seen = (seen | 1) + 2
        else:
            seen &= ~1
        if v < n and not free >> v + 1 & 1:
            return seen, n * v + 1
        return seen, 0
    return move


@lru_cache(maxsize=None, typed=True)
def eulerian_st(n: int) -> MPoly:
    """Joint distribution of (des, exc) over S_n, as a polynomial in s, t."""
    check_n(n, 1)
    counts = _transfer(n, _des_exc_move(n), True, _positional)
    return MPoly(("s", "t"),
                 ((divmod(code, n), c) for (_, code), c in counts.items()))


def classic_eulerian(n: int, stat: str = "des") -> MPoly:
    """Single-statistic distribution over S_n in the variable x."""
    if stat not in ("des", "exc"):
        raise Refused(f"stat must be 'des' or 'exc', got {stat!r}")
    check_n(n, 1)
    if stat == "des":
        counts = _transfer(n, _des_move, True, lambda pos: n + 1)
    else:
        counts = _transfer(n, _exc_move, False, _positional)
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


def derangement_poly(n: int) -> MPoly:
    """Excedance distribution over the derangements of S_n, in x."""
    check_n(n, 1)
    counts = _transfer(n, _derangement_move, False, _positional)
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


@lru_cache(maxsize=None)
def _trivariate_table(n: int, derangements: bool
                      ) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """``(top_des, top_gap, terms)`` of the (exc, des, maj - exc) fold over
    S_n, or over its derangements, from one fold per (n, derangements).

    ``terms`` is a tuple of (exc, des, gap, count) ints, gap = maj - exc;
    ``top_des`` and ``top_gap`` are the largest des and gap among them.
    """
    move = _trivariate_move(n, derangements)
    terms = []
    for (des, code), count in _transfer(n, move, True, _positional).items():
        maj, exc = divmod(code, n)
        maj += des * (des + 1) // 2
        if maj < exc:
            raise AssertionError(
                f"major index {maj} below excedance count {exc} "
                f"for {count} permutations of {n} with {des} descents")
        terms.append((exc, des, maj - exc, count))
    return (max(des for _, des, _, _ in terms),
            max(gap for _, _, gap, _ in terms), tuple(terms))


def _trivariate_poly(n: int, derangements: bool) -> MPoly:
    return MPoly(("t", "p", "q"),
                 (((exc, des, gap), count) for exc, des, gap, count
                  in _trivariate_table(n, derangements)[2]))


def trivariate(n: int) -> MPoly:
    """Distribution of (exc, des, maj - exc) over S_n, in t, p, q.

    The exponent of t is the excedance count, p marks descents and q
    carries the gap between major index and excedance count.
    """
    check_n(n, 1)
    return _trivariate_poly(n, False)


def derangement_lhs(n: int) -> MPoly:
    """Same refinement as :func:`trivariate`, restricted to derangements."""
    check_n(n, 2)
    return _trivariate_poly(n, True)


def _xi_slices(n: int) -> dict[int, dict[tuple[int, int], int]]:
    """``{i: {(1 + des, maj): count}}`` for every slice i, from one fold.

    This is thm01's literal reading of :func:`xi`: thm01 compares it
    whole with :func:`_macmahon_slices`, and no builder reads it.
    """
    slices: dict[int, dict[tuple[int, int], int]] = {}
    counts = _transfer(n, _xi_move(n), True, lambda pos: 1)
    for (rest, code), count in counts.items():
        maj, des = divmod(code, n)
        weights = slices.setdefault((rest >> 1) + 1, {})
        key = (1 + des, maj)
        weights[key] = weights.get(key, 0) + count
    return slices


def _word_des_maj(content: tuple[int, ...]) -> tuple[list[int], ...]:
    """(des, maj) over the words of the given content: entry d holds, as
    q-coefficients, the maj distribution of the words with d descents.

    MacMahon: this is prod_{j=0..n} (1 - t q^j) * sum_{k>=0} t^k R_k with
    R_k = prod_a [a + k choose a]_q.  A word of length n has at most
    n - 1 descents, so everything is cut after t^(n-1).  R_0 = 1, and
    each block a takes R_k to R_(k+1) by the ratio
    [a + k + 1 choose a]_q / [a + k choose a]_q
    = (1 - q^(a+k+1)) / (1 - q^(k+1)), in closed form: with stride
    s = k + 1 and shift = a + s, pad the row with a zeros and take its
    prefix sums P with stride s, the row over 1 - q^s as a series; the
    new row is P_i - P_(i-shift), with P_j = 0 for j < 0.  That series is
    the row times the ratio, again a product of q-binomials: a polynomial
    whose degree is the row's plus a, so it is zero past the padded
    length and nothing is dropped.
    """
    n = sum(content)
    row = [1]
    rows = [row]
    for stride in range(1, n):
        for a in content:
            # times (1 - q^shift) / (1 - q^stride)
            shift = a + stride
            prefix = row + [0] * a
            for i in range(stride, len(prefix)):
                prefix[i] += prefix[i - stride]
            row = prefix[:shift] + [
                x - y for x, y in zip(prefix[shift:], prefix)]
        rows.append(row)
    for j in range(n + 1):
        # times 1 - t q^j, in place from the top row down so each reads
        # the old one.  Row d keeps the n d + 1 entries of R_d, and row
        # d - 1 shifted by j <= n reaches no further
        for d in range(n - 1, 0, -1):
            row = rows[d]
            for i, x in enumerate(rows[d - 1], j):
                row[i] -= x
    for row in rows:
        while row and not row[-1]:
            row.pop()
    return tuple(rows)


def stable_subsets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Subsets of {lo, ..., hi} with no two consecutive members.

    Ordered by size, then lexicographically; the empty set comes first.
    An empty interval (``lo == hi + 1``) still has the empty subset; a
    bound that is not an int, or lo > hi + 1, is :class:`Refused`.

    >>> stable_subsets(2, 3)
    [(), (2,), (3,)]
    """
    if type(lo) is not int or type(hi) is not int or lo > hi + 1:
        raise Refused(f"interval [{lo!r}, {hi!r}] is malformed")
    members = range(lo, hi + 1)
    out: list[tuple[int, ...]] = []
    for size in range(len(members) + 1):
        for sub in combinations(members, size):
            if all(b - a >= 2 for a, b in zip(sub, sub[1:])):
                out.append(sub)
    return out


def _macmahon_slices(n: int) -> dict[int, dict[tuple[int, int], int]]:
    """``{i: {(1 + des, maj): count}}`` for every slice i, with no S_n pass.

    Slice i holds the permutations pi whose inverse has an allowed
    descent set S with i - 1 members, weighted by pi's own statistics.
    The pi with Des(pi^-1) inside T are the standardisations of the words
    whose content is the composition of n cut at T, and standardising
    keeps des and maj; so their distribution is :func:`_word_des_maj`,
    and Moebius inversion over T inside S leaves Des(pi^-1) = S.  The
    multiplier of each T in slice i sums the signs (-1)^|S - T| over the
    allowed S with i - 1 members containing it.  The multipliers are
    keyed by content first, so each content's word table is expanded
    once and serves every slice.
    """
    # the interval [2, n-2] is empty below n = 4, leaving only the empty set
    multipliers: dict[tuple[int, ...], dict[int, int]] = {}
    for sub in stable_subsets(2, n - 2) if n >= 4 else [()]:
        for size in range(len(sub) + 1):
            for blocks in combinations(sub, size):
                # the block sizes of n cut after each member of blocks;
                # the distribution does not depend on their order
                cuts = (0, *blocks, n)
                content = sorted(b - a for a, b in zip(cuts, cuts[1:]))
                by_slice = multipliers.setdefault(tuple(content), {})
                i = len(sub) + 1
                by_slice[i] = by_slice.get(i, 0) + (-1) ** (len(sub) - size)
    slices: dict[int, dict[tuple[int, int], int]] = {}
    for content, by_slice in multipliers.items():
        table = _word_des_maj(content)
        for i, multiplier in by_slice.items():
            counts = slices.setdefault(i, {})
            for des, majs in enumerate(table):
                for maj, c in enumerate(majs):
                    key = (1 + des, maj)
                    counts[key] = counts.get(key, 0) + multiplier * c
    return {i: {key: c for key, c in counts.items() if c}
            for i, counts in slices.items()}


def xi(n: int, i: int) -> MPoly:
    """Weight polynomial of the sparse-descent-set slice of S_n, in p, q.

    Sums ``p ** (1 + des(w)) * q ** maj(w)`` over the inverses w of the
    permutations whose descent set lies inside [2, n-2], contains no two
    consecutive positions, and has exactly i - 1 members; by inversion,
    the same sum over the permutations whose inverse has such a descent
    set.  It reads slice i of :func:`_macmahon_slices`, with no S_n pass.
    """
    check_n(n, 2)
    if type(i) is not int or not 1 <= i <= n // 2:
        raise Refused(f"i must lie in 1..{n // 2} for n={n}, got {i}")
    return MPoly(("p", "q"), _macmahon_slices(n).get(i, {}))


# perfbench/tracer.py's _BUILDERS looks this name up when it installs
xi_transposed = xi


def exc_slice(n: int, k: int) -> MPoly:
    """Descent distribution over the excedance-k slice of S_n, in s."""
    check_n(n, 1)
    if type(k) is not int or not 0 <= k <= n - 1:
        raise Refused(f"k must lie in 0..{n - 1} for n={n}, got {k}")
    return eulerian_st(n).coeff_of("t", k)


# ----------------------------------------------------------------------
# declarative construction, used by the command line

#: each family's builder and the index it takes beside n, if any: the
#: slice i of xi or the excedance level k of exc_slice
_BUILDERS = {
    "des_exc": (eulerian_st, None),
    "classic_eulerian": (classic_eulerian, None),
    "derangement": (derangement_poly, None),
    "trivariate": (trivariate, None),
    "derangement_refined": (derangement_lhs, None),
    "xi": (xi, "i"),
    "exc_slice": (exc_slice, "k"),
}
FAMILIES = tuple(_BUILDERS)

#: the families that decompose and gamma split, each with the variable it
#: is split in, in the order --help lists them
_DECOMP_VAR = {"des_exc": "t", "trivariate": "t",
               "classic_eulerian": "x", "derangement": "x"}


def build_distribution(family: str, n: int, i: int | None = None,
                       k: int | None = None) -> MPoly:
    """The member of ``family`` at n; i is the slice index of xi and k
    the excedance level of exc_slice, and no other family takes either."""
    if family not in FAMILIES:
        raise Refused(f"unknown family {family!r}; "
                      f"expected one of {', '.join(FAMILIES)}")
    builder, index = _BUILDERS[family]
    if index is None:
        if i is not None or k is not None:
            raise Refused(f"family {family!r} takes no --i/--k")
        return builder(n)
    value, other, extra = (i, "k", k) if index == "i" else (k, "i", i)
    if value is None:
        raise Refused(f"family {family!r} needs --{index}")
    if extra is not None:
        raise Refused(f"family {family!r} takes no --{other}")
    return builder(n, value)
