"""Isomorphism classification of the semigroups Q.

Two instances are isomorphic exactly when they share the block count k and
the block-size product m.  ``build_isomorphism`` realizes the bijection
explicitly through the right-group coordinates and verifies it
multiplicatively, so a positive answer is always certified.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import ContractError, InternalConsistencyError, ValidationError
from .limits import DEFAULT_CENSUS_MAX_N, DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER, DEFAULT_SAMPLE_PAIRS, DEFAULT_VERIFY_MAX
from .partition import PartitionedSet, partition_from_sizes
from .qsemigroup import block_permutation, decompose, enumerate_Q
from .transformation import compose


@dataclass(frozen=True, order=True)
class IsoClassKey:
    """Complete isomorphism invariant: block count and block-size product."""

    k: int
    m: int

    @property
    def cardinality(self) -> int:
        return math.factorial(self.k) * self.m

    @property
    def rank(self) -> int:
        if self.m == 1:
            return 1 if self.k <= 2 else 2
        return max(2, self.m)


def iso_key(P: PartitionedSet) -> IsoClassKey:
    return IsoClassKey(P.k, P.m)


def q_isomorphic(P1: PartitionedSet, P2: PartitionedSet) -> bool:
    """True when k and m agree; certified by :func:`build_isomorphism`."""
    return iso_key(P1) == iso_key(P2)


def build_isomorphism(
    P1: PartitionedSet,
    P2: PartitionedSet,
    max_size: int = DEFAULT_MAX_CLOSURE,
    verify_max: int = DEFAULT_VERIFY_MAX,
    seed: int = 0,
    sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> dict:
    """An explicit isomorphism Q(P1) -> Q(P2) as a mapping of elements.

    Group parts are matched through the block bijection that pairs blocks
    sorted by size then index; idempotent parts are matched in canonical
    order.  The map is verified to be a bijective homomorphism, on all
    pairs when |Q| <= ``verify_max`` and on seeded samples above that.
    Raises :class:`ContractError` when the instances are not isomorphic.
    """
    if not q_isomorphic(P1, P2):
        raise ContractError(
            f"not isomorphic: keys (k={P1.k}, m={P1.m}) vs (k={P2.k}, m={P2.m})"
        )
    dec1 = decompose(P1, max_size, max_group_order)
    dec2 = decompose(P2, max_size, max_group_order)
    k = P1.k

    order1 = sorted(range(k), key=lambda i: (len(P1.blocks[i]), i))
    order2 = sorted(range(k), key=lambda i: (len(P2.blocks[i]), i))
    beta = [0] * k  # block index of P1 -> block index of P2
    for a, b in zip(order1, order2):
        beta[a] = b
    beta_inv = [0] * k
    for i, v in enumerate(beta):
        beta_inv[v] = i

    # Group part: the element with pattern sigma goes to the element with
    # pattern beta . sigma . beta^{-1} over the target base cross-section.
    pattern_to_target = {}
    for a2 in dec2.group_part.elements:
        pattern_to_target[block_permutation(P2, a2)] = a2
    psi_g = {}
    for a1 in dec1.group_part.elements:
        sigma = block_permutation(P1, a1)
        conj = tuple(beta[sigma[beta_inv[i]]] for i in range(k))
        psi_g[a1] = pattern_to_target[conj]

    psi_e = dict(zip(dec1.idempotent_part, dec2.idempotent_part))

    mapping = {}
    for q in enumerate_Q(P1, max_size):
        a, f = dec1.coordinates(q)
        mapping[q] = compose(psi_g[a], psi_e[f])

    if len(set(mapping.values())) != len(mapping):
        raise InternalConsistencyError("constructed map is not injective")
    if set(mapping.values()) != set(enumerate_Q(P2, max_size).elements):
        raise InternalConsistencyError("constructed map is not onto Q(P2)")
    elems = list(mapping)
    if len(elems) <= verify_max:
        pairs = itertools.product(elems, elems)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(elems), rng.choice(elems)) for _ in range(sample_pairs))
    checked = 0
    for a, b in pairs:
        if mapping[compose(a, b)] != compose(mapping[a], mapping[b]):
            raise InternalConsistencyError("constructed map is not multiplicative")
        checked += 1
    return {
        "mapping": mapping,
        "block_bijection": tuple(beta),
        "verified": True,
        "pairs_checked": checked,
        "exhaustive": len(elems) <= verify_max,
    }


def integer_partitions(n: int):
    """All partitions of n as weakly decreasing tuples, descending lex order."""
    if n < 1:
        raise ValidationError(f"need a positive integer, got {n!r}")

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def classify_partitions(n: int, max_n: int = DEFAULT_CENSUS_MAX_N) -> dict:
    """Group the block-size multisets for ground size n by isomorphism class.

    Returns {IsoClassKey: (size tuples...)} ordered by key.
    """
    if n > max_n:
        raise ValidationError(f"census bound is n <= {max_n}, got {n}")
    buckets: dict[IsoClassKey, list] = {}
    for sizes in integer_partitions(n):
        P = partition_from_sizes(sizes)
        buckets.setdefault(iso_key(P), []).append(sizes)
    return {key: tuple(buckets[key]) for key in sorted(buckets)}
