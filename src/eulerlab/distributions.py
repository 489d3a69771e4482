"""Distribution polynomials over the symmetric group.

Every builder runs one left-to-right transfer over S_n (:func:`_transfer`)
and returns a sparse polynomial with integer coefficients.  The transfer
is an exact reorganisation of enumerating S_n: it merges the prefixes
that share their set of used values and their tag, which is what the
family must remember about a prefix: the last value for the families
that read descents, with the descent count so far for the three-variable
refinements and :func:`xi`, and nothing for the excedance counts.  Each
merged state holds one packed int over the remaining statistics, and
since a family reads the last value only through the descent test, each
value is placed once after all the prefixes ending below it and once
after those ending above it.  So n = 13 takes under two seconds
(``trivariate(13)``, and one ``xi`` fold for all slices, 1.2-1.6 s on
a 2-core x86 machine) where listing 13! permutations would take hours.
Each family only supplies the move that reads its statistics off one
placed value.
Builders are cached, since several verification suites want the same
polynomials.

Enumeration (:func:`perms.enumerate_perms` with :func:`perms.stats`) stays
as the independent route: :func:`xi_transposed` uses it, and the tests
compare every family against it byte for byte.

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

from collections import namedtuple
from functools import lru_cache
from math import factorial

from .mpoly import MPoly
from .perms import MAX_ENUM_N, enumerate_perms, stable_subsets, stats


def _transfer(n: int, move, width: int) -> dict[tuple[int, int], int]:
    """Fold a statistic over S_n, placing one value per position.

    A prefix (pi(1), ..., pi(pos - 1)) is summarised by its state: the bit
    set ``used`` of its values (bit v for value v) and a ``tag`` =
    16 * last + rest, where ``last`` is the last value placed (0 when the
    family reads nothing off it) and ``rest`` < 16 is whatever else the
    family must remember to place the next value.  Prefixes with the same
    state have the same continuations, so a state holds one packed int:
    digit j, ``width`` bits wide, counts its prefixes whose other tracked
    statistics encode to j, and raising that code by d is a left shift by
    d digits.  A layer maps ``used`` to ``{tag: packed}``; a used set
    enters it only when some move reaches it.

    Every family reads the last value only through the descent test
    ``last > v``.  So for each used set the kernel groups the tags by rest,
    adds their ints in ascending order of last, and places each free value
    v at most twice per rest: once after the prefixes whose last value is
    below v (no descent) and once after those above it (a descent).
    ``move(pos, rest, v, used, descent)`` returns ``(new_tag, rise)``: the
    prefixes move to the state (used | 1 << v, new_tag) and their code
    rises by ``rise``; or None to drop them.

    A state that holds the last value stands for at most (n-1)! prefixes,
    and so does each sum below or above v, which runs over prefixes with
    one used set of at most n - 1 values; so ``width`` =
    ``(n-1)!.bit_length()`` keeps digits from carrying.  A tag-free state
    after pos values stands for all pos! orderings of them, so those folds
    need ``n!.bit_length()``.  Returns ``{(rest, code): count}`` over S_n.
    """
    values = range(1, n + 1)
    layer = {0: {0: 1}}
    for pos in range(1, n + 1):
        nxt: dict = {}
        while layer:
            used, tags = layer.popitem()
            # outs[v]: the state dict of used | 1 << v, fetched or made
            # by the first move into it, so every state dict is nonempty
            outs = [None] * (n + 1)
            groups: dict = {}
            for tag in sorted(tags):
                group = groups.get(tag & 15)
                if group is None:
                    groups[tag & 15] = [tag]
                else:
                    group.append(tag)
            for rest, group in groups.items():
                total = 0
                for tag in group:
                    total += tags[tag]
                m = len(group)
                k = 0  # the first k tags of the group have last < v
                below = 0
                for v in values:
                    if used >> v & 1:
                        continue
                    while k < m and group[k] >> 4 < v:
                        below += tags[group[k]]
                        k += 1
                    # a shift or subtraction by 0 would copy the int
                    if k:
                        moved = move(pos, rest, v, used, False)
                        if moved is not None:
                            new_tag, rise = moved
                            packed = below << rise * width if rise else below
                            out = outs[v]
                            if out is None:
                                out = outs[v] = nxt.setdefault(used | 1 << v,
                                                               {})
                            old = out.get(new_tag)
                            out[new_tag] = (packed if old is None
                                            else old + packed)
                    if k < m:
                        moved = move(pos, rest, v, used, True)
                        if moved is not None:
                            new_tag, rise = moved
                            packed = total - below if k else total
                            if rise:
                                packed <<= rise * width
                            out = outs[v]
                            if out is None:
                                out = outs[v] = nxt.setdefault(used | 1 << v,
                                                               {})
                            old = out.get(new_tag)
                            out[new_tag] = (packed if old is None
                                            else old + packed)
        layer = nxt
    counts: dict[tuple[int, int], int] = {}
    zero = "0" * width
    for tags in layer.values():
        for tag, packed in tags.items():
            bits = format(packed, "b")
            bits = zero[len(bits) % width or width:] + bits  # whole digits
            for code, top in enumerate(range(len(bits), 0, -width)):
                digit = bits[top - width:top]
                if digit != zero:
                    key = tag & 15, code
                    counts[key] = counts.get(key, 0) + int(digit, 2)
    return counts


def _width(m: int) -> int:
    """Digit width that holds any count up to m!."""
    return factorial(m).bit_length()


# Moves.  A descent sits at position pos - 1 when the last value exceeds
# v, v is an excedance when v > pos and a fixed point when v == pos.  The
# excedance count reads nothing off the prefix, so its move keeps the tag
# 0 and its fold runs over the 2^n value sets alone.  The other moves put
# v into the tag as the next last value.

def _des_move(pos, rest, v, used, descent):
    # code = des
    return 16 * v, descent


def _exc_move(pos, rest, v, used, descent):
    # code = exc
    return 0, v > pos


def _derangement_move(pos, rest, v, used, descent):
    return None if v == pos else (0, v > pos)


def _des_exc_move(n):
    def move(pos, rest, v, used, descent):
        # code = n * des + exc, as exc < n
        return 16 * v, n * descent + (v > pos)
    return move


def _trivariate_move(n, derangements):
    def move(pos, des, v, used, descent):
        # rest = des; code = n * (maj - des (des + 1) / 2) + exc.  The des
        # descents sit at distinct positions, so maj >= 1 + ... + des, and
        # measuring maj from that floor keeps the codes of a state close
        # together.  A new descent at pos - 1 raises it by pos - 2 - des.
        if v == pos and derangements:
            return None
        if descent:
            return 16 * v + des + 1, n * (pos - 2 - des) + (v > pos)
        return 16 * v + des, v > pos
    return move


def _xi_move(n):
    def move(pos, seen, v, used, descent):
        # rest = 2 * descents so far + (previous position was a descent);
        # code = n * maj(w) + des(w).  w = pi^-1 descends at v when v + 1
        # is placed before v.  The descent count picks the slice.
        if descent:
            if seen & 1 or not 2 <= pos - 1 <= n - 2:
                return None
            seen = (seen | 1) + 2
        else:
            seen &= 14
        if used >> (v + 1) & 1:
            return 16 * v + seen, n * v + 1
        return 16 * v + seen, 0
    return move


def _check_n(n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"n must be between {lo} and {hi}, got {n}")


@lru_cache(maxsize=None)
def eulerian_st(n: int) -> MPoly:
    """Joint distribution of (des, exc) over S_n, as a polynomial in s, t."""
    _check_n(n, 1, MAX_ENUM_N)
    counts = _transfer(n, _des_exc_move(n), _width(n - 1))
    return MPoly(("s", "t"),
                 ((divmod(code, n), c) for (_, code), c in counts.items()))


def classic_eulerian(n: int, stat: str = "des") -> MPoly:
    """Single-statistic distribution over S_n in the variable x."""
    # one cache entry per (n, stat), however the arguments are spelled
    return _classic_eulerian(n, stat)


@lru_cache(maxsize=None)
def _classic_eulerian(n: int, stat: str) -> MPoly:
    if stat not in ("des", "exc"):
        raise ValueError(f"stat must be 'des' or 'exc', got {stat!r}")
    _check_n(n, 1, MAX_ENUM_N)
    if stat == "des":
        counts = _transfer(n, _des_move, _width(n - 1))
    else:
        counts = _transfer(n, _exc_move, _width(n))
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


classic_eulerian.cache_info = _classic_eulerian.cache_info
classic_eulerian.cache_clear = _classic_eulerian.cache_clear


@lru_cache(maxsize=None)
def derangement_poly(n: int) -> MPoly:
    """Excedance distribution over the derangements of S_n, in x."""
    _check_n(n, 1, MAX_ENUM_N)
    counts = _transfer(n, _derangement_move, _width(n))
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


def _trivariate_poly(n: int, derangements: bool) -> MPoly:
    move = _trivariate_move(n, derangements)
    terms = []
    for (des, code), count in _transfer(n, move, _width(n - 1)).items():
        maj, exc = divmod(code, n)
        maj += des * (des + 1) // 2
        if maj < exc:
            raise AssertionError(
                f"major index {maj} below excedance count {exc} "
                f"for {count} permutations of {n} with {des} descents")
        terms.append(((exc, des, maj - exc), count))
    return MPoly(("t", "p", "q"), terms)


@lru_cache(maxsize=None)
def trivariate(n: int) -> MPoly:
    """Distribution of (exc, des, maj - exc) over S_n, in t, p, q.

    The exponent of t is the excedance count, p marks descents and q
    carries the gap between major index and excedance count.
    """
    _check_n(n, 1, MAX_ENUM_N)
    return _trivariate_poly(n, False)


@lru_cache(maxsize=None)
def derangement_lhs(n: int) -> MPoly:
    """Same refinement as :func:`trivariate`, restricted to derangements."""
    _check_n(n, 2, MAX_ENUM_N)
    return _trivariate_poly(n, True)


def _check_slice(n: int, i: int) -> None:
    _check_n(n, 2, MAX_ENUM_N)
    if not 1 <= i <= n // 2:
        raise ValueError(f"i must lie in 1..{n // 2} for n={n}, got {i}")


@lru_cache(maxsize=None)
def _xi_slices(n: int) -> dict[int, dict[tuple[int, int], int]]:
    """``{i: {(1 + des, maj): count}}`` for every slice i, from one fold."""
    slices: dict[int, dict[tuple[int, int], int]] = {}
    counts = _transfer(n, _xi_move(n), _width(n - 1))
    for (rest, code), count in counts.items():
        maj, des = divmod(code, n)
        weights = slices.setdefault((rest >> 1) + 1, {})
        key = (1 + des, maj)
        weights[key] = weights.get(key, 0) + count
    return slices


def xi(n: int, i: int) -> MPoly:
    """Weight polynomial of the sparse-descent-set slice of S_n, in p, q.

    Sums ``p ** (1 + des(w)) * q ** maj(w)`` over the inverses w of the
    permutations whose descent set lies inside [2, n-2], contains no two
    consecutive positions, and has exactly i - 1 members.  One fold per n
    serves every slice, with no per-slice pruning.
    """
    _check_slice(n, i)
    return MPoly(("p", "q"), _xi_slices(n).get(i, {}))


@lru_cache(maxsize=None)
def _transposed_slices(n: int) -> dict[int, dict[tuple[int, int], int]]:
    """``{i: {(1 + des, maj): count}}`` for every slice i, in one pass over S_n.

    Slice i holds the permutations whose inverse has an allowed descent
    set with i - 1 members; each contributes the statistics of itself.
    The inverse is written into one position array reused for every
    permutation, and its descent set is read off as a bitmask (bit v for
    descent v), so only the permutations that pass are validated by
    :func:`perms.stats`.
    """
    # the interval [2, n-2] is empty below n = 4, leaving only the empty set
    subsets = stable_subsets(2, n - 2) if n >= 4 else [()]
    allowed = {sum(1 << v for v in sub): len(sub) for sub in subsets}
    where = [0] * (n + 1)  # where[v] = position of v, i.e. pi^-1(v)
    slices: dict[int, dict[tuple[int, int], int]] = {}
    for perm in enumerate_perms(n):
        for pos, v in enumerate(perm, 1):
            where[v] = pos
        mask = 0
        for v in range(1, n):
            if where[v] > where[v + 1]:
                mask |= 1 << v
        size = allowed.get(mask)
        if size is None:
            continue
        w = stats(perm)
        counts = slices.setdefault(size + 1, {})
        key = (1 + w.des, w.maj)
        counts[key] = counts.get(key, 0) + 1
    return slices


def xi_transposed(n: int, i: int) -> MPoly:
    """Variant of :func:`xi` with the filter applied to the inverse instead.

    Equal to :func:`xi` because inversion is a bijection of S_n; kept as
    an independently computed route so the equality can be checked rather
    than assumed.  One enumeration of S_n serves every slice of an n.
    """
    _check_slice(n, i)
    return MPoly(("p", "q"), _transposed_slices(n).get(i, {}))


def exc_slice(n: int, k: int) -> MPoly:
    """Descent distribution over the excedance-k slice of S_n, in s."""
    _check_n(n, 1, MAX_ENUM_N)
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..{n - 1} for n={n}, got {k}")
    return eulerian_st(n).coeff_of("t", k)


# ----------------------------------------------------------------------
# declarative construction, used by the command line

FAMILIES = ("des_exc", "classic_eulerian", "derangement", "trivariate",
            "derangement_refined", "xi", "exc_slice")


#: A family name plus the integers needed to pin down one member: the
#: slice index i of xi and the excedance level k of exc_slice.
DistributionSpec = namedtuple("DistributionSpec", "family n i k",
                              defaults=(None, None))


def build_distribution(spec: DistributionSpec) -> MPoly:
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; "
                         f"expected one of {', '.join(FAMILIES)}")
    if spec.family == "xi":
        if spec.i is None:
            raise ValueError("family 'xi' needs --i")
        if spec.k is not None:
            raise ValueError("family 'xi' takes no --k")
        return xi(spec.n, spec.i)
    if spec.family == "exc_slice":
        if spec.k is None:
            raise ValueError("family 'exc_slice' needs --k")
        if spec.i is not None:
            raise ValueError("family 'exc_slice' takes no --i")
        return exc_slice(spec.n, spec.k)
    if spec.i is not None or spec.k is not None:
        raise ValueError(f"family {spec.family!r} takes no --i/--k")
    builder = {
        "des_exc": eulerian_st,
        "classic_eulerian": classic_eulerian,
        "derangement": derangement_poly,
        "trivariate": trivariate,
        "derangement_refined": derangement_lhs,
    }[spec.family]
    return builder(spec.n)
