"""Distribution polynomials over the symmetric group.

Every builder runs one left-to-right transfer over S_n (:func:`_transfer`)
and returns a sparse polynomial with integer coefficients.  The transfer
is an exact reorganisation of enumerating S_n: it merges the prefixes
that share their set of used values and their tag, which is what the
family must remember about a prefix: the last value for the families
that read descents, nothing for the excedance counts, and the last value
with the descent count so far for :func:`xi`.  So n = 13 takes seconds
(``trivariate(13)``, the slowest family, about 2 s on a 2-core x86
machine) where listing 13! permutations would take hours.  Each family
only supplies the move that reads its statistics off one placed value.
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


def _transfer(n: int, move) -> dict[tuple[int, int], int]:
    """Fold a statistic over S_n, placing one value per position.

    A prefix (pi(1), ..., pi(pos - 1)) is summarised by its state: the bit
    set ``used`` of its values (bit v for value v) and a ``tag``, what the
    family must remember about the prefix to place the next value (0 when
    it needs nothing).  Prefixes with the same state have the same
    continuations, so each state keeps only ``{key: packed}``, and a layer
    maps ``used`` to ``{tag: {key: packed}}``.  ``key`` is a small int
    encoding the statistics a family tracks; ``packed`` holds the
    distribution of one more statistic, the q-statistic, with the number
    of prefixes having q = j in digit j.  A state that holds the last value
    stands for at most (n-1)! prefixes, but a tag-free state after pos
    values stands for all pos! orderings of them, up to n! at the end.  So
    digits are ``n!.bit_length()`` bits wide, never carry, and raising q
    by d is a left shift by d digits.

    ``move(pos, tag, v, used)`` places v at position ``pos`` after the
    prefixes of a state.  It returns ``(new_tag, dkey, rise)``: each key of
    the state moves to ``key + dkey`` and q rises by ``rise``; or None to
    drop those prefixes.  So each (state, value) pair costs one call,
    whatever the number of keys.  Returns ``{(key, q): count}`` over S_n.
    """
    width = factorial(n).bit_length()
    layer = {0: {0: {0: 1}}}
    for pos in range(1, n + 1):
        nxt: dict = {}
        while layer:
            used, tags = layer.popitem()
            for v in range(1, n + 1):
                if used >> v & 1:
                    continue
                out = nxt.get(used | 1 << v)
                if out is None:
                    out = nxt[used | 1 << v] = {}
                for tag, src in tags.items():
                    moved = move(pos, tag, v, used)
                    if moved is None:
                        continue
                    new_tag, dkey, rise = moved
                    shift = rise * width
                    tgt = out.get(new_tag)
                    if tgt is None:
                        out[new_tag] = ({key + dkey: packed << shift
                                         for key, packed in src.items()}
                                        if dkey or shift else src.copy())
                        continue
                    for key, packed in src.items():
                        key += dkey
                        tgt[key] = tgt.get(key, 0) + (packed << shift)
        layer = nxt
    mask = (1 << width) - 1
    counts: dict[tuple[int, int], int] = {}
    for tags in layer.values():
        for src in tags.values():
            for key, packed in src.items():
                q = 0
                while packed:
                    if packed & mask:
                        counts[key, q] = (counts.get((key, q), 0)
                                          + (packed & mask))
                    packed >>= width
                    q += 1
    return counts


# Moves.  The tag of the last-value families is the last value (0 before
# the first); a descent sits at position pos - 1 when last > v, v is an
# excedance when v > pos and a fixed point when v == pos.  The excedance
# count reads nothing off the prefix, so its move keeps the tag 0 and its
# fold runs over the 2^n value sets alone.

def _des_move(pos, last, v, used):
    return v, 0, last > v


def _exc_move(pos, tag, v, used):
    return 0, 0, v > pos


def _des_exc_move(pos, last, v, used):
    # key = des, q = exc
    return v, last > v, v > pos


def _trivariate_move(pos, last, v, used):
    # key = 16 * exc + des, q = maj; exc and des stay below 16 while
    # n <= 16, so divmod(key, 16) decodes the key and keys stay below 256,
    # where CPython shares the int objects across states
    if last > v:
        return v, 16 * (v > pos) + 1, pos - 1
    return v, 16 * (v > pos), 0


def _derangements(move):
    def no_fixed_point(pos, tag, v, used):
        return None if v == pos else move(pos, tag, v, used)
    return no_fixed_point


def _check_n(n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"n must be between {lo} and {hi}, got {n}")


@lru_cache(maxsize=None)
def eulerian_st(n: int) -> MPoly:
    """Joint distribution of (des, exc) over S_n, as a polynomial in s, t."""
    _check_n(n, 1, MAX_ENUM_N)
    return MPoly(("s", "t"), _transfer(n, _des_exc_move))


def classic_eulerian(n: int, stat: str = "des") -> MPoly:
    """Single-statistic distribution over S_n in the variable x."""
    # one cache entry per (n, stat), however the arguments are spelled
    return _classic_eulerian(n, stat)


@lru_cache(maxsize=None)
def _classic_eulerian(n: int, stat: str) -> MPoly:
    if stat not in ("des", "exc"):
        raise ValueError(f"stat must be 'des' or 'exc', got {stat!r}")
    _check_n(n, 1, MAX_ENUM_N)
    counts = _transfer(n, _des_move if stat == "des" else _exc_move)
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


classic_eulerian.cache_info = _classic_eulerian.cache_info
classic_eulerian.cache_clear = _classic_eulerian.cache_clear


@lru_cache(maxsize=None)
def derangement_poly(n: int) -> MPoly:
    """Excedance distribution over the derangements of S_n, in x."""
    _check_n(n, 1, MAX_ENUM_N)
    counts = _transfer(n, _derangements(_exc_move))
    return MPoly(("x",), (((k,), c) for (_, k), c in counts.items()))


def _trivariate_poly(n: int, move) -> MPoly:
    terms = []
    for (key, maj), count in _transfer(n, move).items():
        exc, des = divmod(key, 16)
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
    return _trivariate_poly(n, _trivariate_move)


@lru_cache(maxsize=None)
def derangement_lhs(n: int) -> MPoly:
    """Same refinement as :func:`trivariate`, restricted to derangements."""
    _check_n(n, 2, MAX_ENUM_N)
    return _trivariate_poly(n, _derangements(_trivariate_move))


def _check_slice(n: int, i: int) -> None:
    _check_n(n, 2, MAX_ENUM_N)
    if not 1 <= i <= n // 2:
        raise ValueError(f"i must lie in 1..{n // 2} for n={n}, got {i}")


@lru_cache(maxsize=None)
def xi(n: int, i: int) -> MPoly:
    """Weight polynomial of the sparse-descent-set slice of S_n, in p, q.

    Sums ``p ** (1 + des(w)) * q ** maj(w)`` over the inverses w of the
    permutations whose descent set lies inside [2, n-2], contains no two
    consecutive positions, and has exactly i - 1 members.
    """
    _check_slice(n, i)

    def move(pos, tag, v, used):
        # tag = 16 * last + 2 * descents so far + (previous position was a
        # descent); key = des(w), q = maj(w).  w = pi^-1 descends at v
        # when v + 1 is placed before v.
        seen = tag & 15
        if tag >> 4 > v:
            if seen & 1 or not 2 <= pos - 1 <= n - 2 or seen >> 1 == i - 1:
                return None
            seen = (seen | 1) + 2
        else:
            seen &= 14
        # once i - 1 descents are in, a further one is dropped whatever the
        # flag, so clearing it merges states; short of that, drop prefixes
        # that can no longer get there: the positions left are pos..n-2,
        # minus pos after a descent, and no two may be consecutive
        need = i - 1 - (seen >> 1)
        if not need:
            seen &= 14
        elif (n - max(pos + (seen & 1), 2)) // 2 < need:
            return None
        w_des = used >> (v + 1) & 1
        return 16 * v + seen, w_des, v * w_des

    return MPoly(("p", "q"), (((1 + des, maj), c)
                              for (des, maj), c in _transfer(n, move).items()))


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
