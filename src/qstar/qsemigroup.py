"""Enumeration and structure of Q_{E*}(X).

Q is the set of double-direction equivalence preserving maps that collapse
every block to a single point while their image meets every block.  It is a
right group: the disjoint union of its H-classes, each a group of order k!,
indexed by the m image cross-sections.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

from .engine import GroupTable, SemigroupSet
from .errors import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    ValidationError,
)
from .limits import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER, DEFAULT_MAX_MAPS
from .membership import in_Q
from .partition import PartitionedSet
from .transformation import Transformation, compose, image, product_map


def cardinality_Q(P: PartitionedSet) -> int:
    """|Q| = k! * m, exactly."""
    return math.factorial(P.k) * P.m


def is_group_Q(P: PartitionedSet) -> bool:
    """Q is a group precisely when the relation is the identity (all blocks singletons)."""
    return P.is_identity_relation


def block_permutation(P: PartitionedSet, a: Transformation) -> tuple[int, ...]:
    """The permutation of block indices induced by a member of T_{E*}(X).

    sigma[i] is the index of the block receiving block i.  Raises
    :class:`ContractError` when the map does not induce a block bijection.
    """
    if a.n != P.n:
        raise ValidationError(f"degree mismatch: map on {a.n} points, partition of {P.n}")
    sigma = []
    for bi, block in enumerate(P.blocks):
        targets = {P.block_of[a.images[x]] for x in block}
        if len(targets) != 1:
            raise ContractError(f"block {bi} does not map into a single block")
        sigma.append(next(iter(targets)))
    if len(set(sigma)) != P.k:
        raise ContractError("induced block map is not a bijection")
    return tuple(sigma)


def _cached(maxsize: int):
    """``lru_cache`` keyed on the arguments with their defaults filled in.

    A plain ``lru_cache`` keys f(P), f(P, DEFAULT) and f(P, max_size=DEFAULT)
    apart, so callers that pass a bound differently would each build the
    instance again.
    """

    def decorate(fn):
        signature = inspect.signature(fn)
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return cached(*bound.args)

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper

    return decorate


@_cached(maxsize=128)
def enumerate_Q(P: PartitionedSet, max_size: int = DEFAULT_MAX_CLOSURE) -> SemigroupSet:
    """All of Q, built directly as (block permutation) x (representative choice).

    The element for a permutation sigma and representatives c (with
    c_i in the block sigma(i)) sends every point of block i to c_i.  The
    result is verified: the count is k!*m, every member passes in_Q, and
    the set is closed under composition.
    """
    expected = cardinality_Q(P)
    if expected > max_size:
        raise ResourceLimitError(f"|Q| = {expected} exceeds max_size={max_size}")
    k = P.k
    blocks = P.blocks
    block_of = P.block_of
    elems = []
    for sigma in itertools.permutations(range(k)):
        for choice in itertools.product(*(blocks[sigma[i]] for i in range(k))):
            elems.append(Transformation(tuple(choice[block_of[x]] for x in range(P.n))))
    elements = tuple(sorted(set(elems)))
    if len(elements) != expected:
        raise InternalConsistencyError(f"built {len(elements)} elements of Q, expected {expected}")
    for a in elements:
        if not in_Q(P, a):
            raise InternalConsistencyError("constructed element fails the membership predicate")
    images = [a.images for a in elements]
    index = set(images)
    for a in images:
        if not index.issuperset(map(product_map(a), images)):
            raise InternalConsistencyError("constructed Q is not closed under composition")
    return SemigroupSet(P.n, elements, None)


def enumerate_Q_bruteforce(P: PartitionedSet, max_maps: int = DEFAULT_MAX_MAPS) -> SemigroupSet:
    """Independent oracle: filter all n^n maps through the membership predicate."""
    total = P.n ** P.n
    if total > max_maps:
        raise ResourceLimitError(f"{total} candidate maps exceed max_maps={max_maps}")
    elems = [
        t
        for imgs in itertools.product(range(P.n), repeat=P.n)
        if in_Q(P, t := Transformation(imgs))
    ]
    return SemigroupSet(P.n, tuple(sorted(elems)), None)


@_cached(maxsize=128)
def idempotents_Q(P: PartitionedSet, max_size: int = DEFAULT_MAX_CLOSURE) -> tuple[Transformation, ...]:
    """The m idempotents of Q: one per choice of a representative in each block.

    Each constructed map is verified to satisfy a*a == a.
    """
    if P.m > max_size:
        raise ResourceLimitError(f"idempotent count {P.m} exceeds max_size={max_size}")
    out = []
    for choice in itertools.product(*P.blocks):
        a = Transformation(tuple(choice[P.block_of[x]] for x in range(P.n)))
        if compose(a, a) != a:
            raise InternalConsistencyError("constructed idempotent fails a*a == a")
        out.append(a)
    out = tuple(sorted(out))
    if len(out) != P.m:
        raise InternalConsistencyError(f"built {len(out)} idempotents, expected {P.m}")
    return out


def _pattern_element(P: PartitionedSet, cross_section: tuple[int, ...], sigma) -> Transformation:
    """The member of Q sending block i to cross_section[sigma[i]]."""
    return Transformation(tuple(cross_section[sigma[P.block_of[x]]] for x in range(P.n)))


def h_class(a: Transformation, P: PartitionedSet, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> GroupTable:
    """The H-class of ``a`` inside Q: all members sharing its image, as a group.

    The k! elements correspond to block permutations over the fixed image
    cross-section, so they are built from the permutation patterns instead
    of searching Q; their product table then proves closure, identity and
    inverses.  Equivalence with the search route is covered by tests.
    """
    if not in_Q(P, a):
        raise ContractError("h_class needs a member of Q")
    order = math.factorial(P.k)
    if order > max_order:
        raise ResourceLimitError(f"H-class order {order} exceeds bound {max_order}")
    cross_section = tuple(sorted(image(a), key=P.block_of.__getitem__))
    members = [_pattern_element(P, cross_section, p) for p in itertools.permutations(range(P.k))]
    return GroupTable.from_semigroup(SemigroupSet.from_elements(members), max_order)


@dataclass(frozen=True)
class RightGroupDecomposition:
    """Q as (group part) x (idempotent part) under the pairing (a, f) -> a*f."""

    partition: PartitionedSet
    base_idempotent: Transformation
    group_part: GroupTable
    idempotent_part: tuple[Transformation, ...]

    @cached_property
    def _idempotent_by_image(self) -> dict:
        return {image(f): f for f in self.idempotent_part}

    def pair(self, a: Transformation, f: Transformation) -> Transformation:
        return compose(a, f)

    def coordinates(self, q: Transformation) -> tuple[Transformation, Transformation]:
        """Invert the pairing: q == compose(a, f) with a in H_e and f idempotent."""
        f = self._idempotent_by_image.get(image(q))
        if f is None:
            raise ContractError("element image matches no idempotent cross-section")
        a = compose(q, self.base_idempotent)
        return a, f


@_cached(maxsize=64)
def decompose(
    P: PartitionedSet,
    max_size: int = DEFAULT_MAX_CLOSURE,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> RightGroupDecomposition:
    """Split Q into H_e x E(Q) over the canonically least idempotent e.

    The pairing (a, f) -> a*f is verified to be a bijection onto Q, and the
    coordinate inverse is verified to round-trip.  ``max_group_order``
    bounds the H-class build.
    """
    idems = idempotents_Q(P, max_size)
    e = idems[0]
    G = h_class(e, P, max_group_order)
    if G.elements.elements[G.identity] != e:
        raise InternalConsistencyError("base idempotent is not the identity of its H-class")
    Q = enumerate_Q(P, max_size)
    dec = RightGroupDecomposition(P, e, G, idems)
    seen = set()
    for a in G.elements:
        for f in idems:
            seen.add(compose(a, f))
    if len(seen) != len(Q) or seen != set(Q.elements):
        raise InternalConsistencyError("pairing (a, f) -> a*f is not a bijection onto Q")
    for q in Q:
        a, f = dec.coordinates(q)
        if compose(a, f) != q:
            raise InternalConsistencyError("coordinate inverse fails to round-trip")
    return dec
