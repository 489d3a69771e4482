"""Permutations of {1, ..., n} in one-line notation, and their statistics.

A permutation is a tuple of the values (pi(1), ..., pi(n)).  Positions
and values are both 1-based throughout, which matches the usual
combinatorial conventions:

    >>> stats((2, 1))
    PermStats(des=1, exc=1, fix=0, maj=1, des_set=(1,))
    >>> stats((2, 4, 1, 3))
    PermStats(des=1, exc=2, fix=0, maj=2, des_set=(2,))
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .mpoly import Refused

#: Largest n of the S_n distribution builders, and the library's one size
#: limit.  It is set by cost alone: the transfer kernel in
#: ``distributions`` bounds no part of its state, so it is exact at every
#: n.  It builds eulerian_st(13) in about 0.01 s and trivariate(13) in
#: about 0.04 s with a 16 MB peak, and xi reads MacMahon's slices at 13,
#: with no fold, in about 0.04 s.  The costliest work at the cap is no
#: build but thm01's literal reading, the xi fold: about 0.45 s with a
#: 45 MB peak (fresh processes, 2-core x86, Python 3.11).  Every public
#: reader of a cached table checks n here before it reads the table.
MAX_ENUM_N = 13


def check_n(n: int, lo: int) -> None:
    """Refuse an n that is not an int in lo..MAX_ENUM_N; every S_n route
    checks here.  The cached public builder, ``eulerian_st``, uses
    ``lru_cache(typed=True)``, so a float n never hits the entry of the
    equal int and always reaches this check.  The cached per-n table of
    ``distributions``, ``_trivariate_table``, is private and untyped, so
    every public reader, ``symmetry.conjecture_scan`` included, calls
    this check before it reads it."""
    if type(n) is not int:
        raise Refused(f"n must be an int, got {n!r}")
    if not lo <= n <= MAX_ENUM_N:
        raise Refused(f"n must be between {lo} and {MAX_ENUM_N}, got {n}")

#: Largest n that :func:`enumerate_perms` lists.  Listing S_11 alone takes
#: about 6.5 s and each further n multiplies the cost by about n.  No
#: library route enumerates; the tests use it as the reference route at
#: small n.
_MAX_LIST_N = 10


#: des, exc, fix and maj are ints; des_set is the tuple of descent positions
PermStats = namedtuple("PermStats", "des exc fix maj des_set")


def _validate(perm: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")
    return perm


def enumerate_perms(n: int) -> Iterator[tuple[int, ...]]:
    """Iterate over all of S_n in lexicographic order; the call checks n.

    >>> list(enumerate_perms(3))[:3]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    if type(n) is not int or not 1 <= n <= _MAX_LIST_N:
        raise ValueError(
            f"n must be between 1 and {_MAX_LIST_N}, got {n!r}")
    return permutations(range(1, n + 1))


def stats(perm: Sequence[int]) -> PermStats:
    """Descent, excedance, fixed point and major index data of one permutation."""
    perm = _validate(perm)
    des_set = []
    exc = 0
    fix = 0
    for i, v in enumerate(perm, start=1):
        if v > i:
            exc += 1
        elif v == i:
            fix += 1
        if i < len(perm) and perm[i - 1] > perm[i]:
            des_set.append(i)
    return PermStats(des=len(des_set), exc=exc, fix=fix,
                     maj=sum(des_set), des_set=tuple(des_set))


def inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Group inverse.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    perm = _validate(perm)
    out = [0] * len(perm)
    for i, v in enumerate(perm, start=1):
        out[v - 1] = i
    return tuple(out)


def is_derangement(perm: Sequence[int]) -> bool:
    perm = _validate(perm)
    return all(v != i for i, v in enumerate(perm, start=1))


def stable_subsets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Subsets of {lo, ..., hi} with no two consecutive members.

    Ordered by size, then lexicographically; the empty set comes first.
    An empty interval (``lo == hi + 1``) still has the empty subset.

    >>> stable_subsets(2, 3)
    [(), (2,), (3,)]
    """
    if type(lo) is not int or type(hi) is not int or lo > hi + 1:
        raise ValueError(f"interval [{lo!r}, {hi!r}] is malformed")
    members = range(lo, hi + 1)
    out: list[tuple[int, ...]] = []
    for size in range(len(members) + 1):
        for sub in combinations(members, size):
            if all(b - a >= 2 for a, b in zip(sub, sub[1:])):
                out.append(sub)
    return out
