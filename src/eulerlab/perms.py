"""The tests' oracle: permutations of {1, ..., n} and their statistics.

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
from itertools import permutations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

#: Largest n that :func:`enumerate_perms` lists.  Listing S_11 alone takes
#: about 6.5 s and each further n multiplies the cost by about n.
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
