"""Closed forms in the block count k and the block-size product m.

|Q| = k! * m, Q is a group exactly when every block is a singleton, the
rank is max{2, m} for a nontrivial relation, and Q(P1) is isomorphic to
Q(P2) exactly when (k, m) agree.  Nothing here builds a map, so this
module imports no construction: ``analyze``, ``census`` and ``iso``'s
answer read their numbers from it alone.  Each formula is checked against
the constructions and the oracles in :mod:`qstar.verify` and the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError
from .limits import DEFAULT_CENSUS_MAX_N, admit
from .partition import PartitionedSet


def cardinality_Q(P: PartitionedSet) -> int:
    """|Q| = k! * m, exactly; an ``IsoClassKey`` works as ``P`` too."""
    return math.factorial(P.k) * P.m


def is_group_Q(P: PartitionedSet) -> bool:
    """Q is a group precisely when the relation is the identity (all blocks singletons)."""
    return P.is_identity_relation


def rank_Q(P: PartitionedSet) -> int:
    """Smallest size of a generating set of Q.

    Nontrivial relation (m >= 2): max{2, m}.  Identity relation (m == 1): Q
    is the symmetric group on k points, whose rank is 1 for k <= 2 and 2 for
    k >= 3.  (The k <= 2 value counts the single generator of a cyclic
    group; tests cover it exhaustively for n = 2.)  Only ``P.k`` and ``P.m``
    are read, so an ``IsoClassKey`` works too.
    """
    if P.m == 1:
        return 1 if P.k <= 2 else 2
    return max(2, P.m)


class IsoClassKey(NamedTuple):
    """Complete isomorphism invariant: block count and block-size product."""

    k: int
    m: int

    @property
    def cardinality(self) -> int:
        return cardinality_Q(self)

    @property
    def rank(self) -> int:
        return rank_Q(self)


def iso_key(P: PartitionedSet) -> IsoClassKey:
    return IsoClassKey(P.k, P.m)


def q_isomorphic(P1: PartitionedSet, P2: PartitionedSet) -> bool:
    """True when k and m agree; certified by :func:`qstar.iso.build_isomorphism`."""
    return iso_key(P1) == iso_key(P2)


def integer_partitions(n: int):
    """All partitions of n as weakly decreasing tuples, descending lex order.

    One loop (Zoghbi and Stojmenovic's ZS1): each step lowers the last part
    above 1 by one and refills what that frees, with the ones after it, as
    parts of the lowered size and one remainder part; ones follow.
    """
    if n < 1:
        raise ValidationError(f"need a positive integer, got {n!r}")
    parts = [1] * n
    parts[0] = n
    last = high = 0  # the index of the last part, and of the last part above 1
    yield (n,)
    while parts[0] > 1:
        if parts[high] == 2:
            parts[high] = 1
            last += 1
            high -= 1
        else:
            size = parts[high] - 1
            copies, rest = divmod(last - high + 1, size)
            parts[high:high + copies + 1] = [size] * (copies + 1)
            high += copies
            last = high + (rest > 0)
            if rest > 1:
                high += 1
                parts[high] = rest
        yield tuple(parts[:last + 1])


def classify_partitions(n: int) -> dict:
    """Group the block-size multisets for ground size n by isomorphism class,
    keyed by part count and part product: the k and m that :func:`iso_key`
    reads off a partitioned set of those block sizes, which is not built.
    Returns {IsoClassKey: (size tuples...)} ordered by key; n past
    ``DEFAULT_CENSUS_MAX_N`` is refused by ``admit``."""
    admit("n =", n, DEFAULT_CENSUS_MAX_N, "DEFAULT_CENSUS_MAX_N=")
    buckets: dict[IsoClassKey, list] = {}
    for sizes in integer_partitions(n):
        buckets.setdefault(IsoClassKey(len(sizes), math.prod(sizes)), []).append(sizes)
    return {key: tuple(buckets[key]) for key in sorted(buckets)}
