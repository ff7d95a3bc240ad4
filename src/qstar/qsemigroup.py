"""Enumeration and structure of Q_{E*}(X).

Q is the set of double-direction equivalence preserving maps that collapse
every block to a single point while their image meets every block.  It is a
right group: the disjoint union of its H-classes, each a group of order k!,
indexed by the m image cross-sections.  :func:`decompose` names every
element by right-group coordinates (i, j), group element i of the base
H-class times idempotent j, and certifies that naming once against Q.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps

from .engine import GroupTable, SemigroupSet, closure
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
    """|Q| = k! * m, exactly; an ``IsoClassKey`` works as ``P`` too."""
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
    the closure of the symmetric-part generators and the m idempotents,
    bounded by |Q|, is the built set, which proves it closed with
    O(|Q|*|G|) products for those generators G instead of |Q|^2.  Elements
    are built, sorted and compared as image tuples; each is wrapped by the
    validating constructor once.
    """
    expected = cardinality_Q(P)
    if expected > max_size:
        raise ResourceLimitError(f"|Q| = {expected} exceeds max_size={max_size}")
    blocks = P.blocks
    spread = product_map(P.block_of)  # one image per block -> one per point
    images = sorted({
        spread(choice)
        for sigma in itertools.permutations(range(P.k))
        for choice in itertools.product(*(blocks[i] for i in sigma))
    })
    if len(images) != expected:
        raise InternalConsistencyError(f"built {len(images)} elements of Q, expected {expected}")
    elements = tuple(map(Transformation, images))
    for a in elements:
        if not in_Q(P, a):
            raise InternalConsistencyError("constructed element fails the membership predicate")
    built = [a.images for a in elements]  # what is returned is what the proof covers
    generators = symmetric_part_generators(P) + idempotents_Q(P, max_size)
    try:
        generated = [a.images for a in closure(generators, max_size=expected)]
    except ResourceLimitError:  # the closure grew past |Q|, so it left the built set
        generated = None
    if generated != built:
        if generated is None or not set(built).issuperset(generated):
            raise InternalConsistencyError("constructed Q is not closed under composition")
        raise InternalConsistencyError("symmetric part + idempotents do not generate the constructed Q")
    return SemigroupSet(P.n, elements)


def enumerate_Q_bruteforce(P: PartitionedSet) -> SemigroupSet:
    """Independent oracle: filter all n^n maps through the membership predicate."""
    total = P.n ** P.n
    if total > DEFAULT_MAX_MAPS:
        raise ResourceLimitError(f"{total} candidate maps exceed DEFAULT_MAX_MAPS={DEFAULT_MAX_MAPS}")
    elems = [
        t
        for imgs in itertools.product(range(P.n), repeat=P.n)
        if in_Q(P, t := Transformation(imgs))
    ]
    return SemigroupSet(P.n, tuple(sorted(elems)))


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


def _base_cross_section(P: PartitionedSet) -> tuple[int, ...]:
    # least idempotent in canonical order = least representative per block
    return tuple(min(b) for b in P.blocks)


def symmetric_part_generators(P: PartitionedSet) -> tuple[Transformation, ...]:
    """Generators of the base H-class fixing its cross-section setwise.

    k >= 3: a transposition pattern and a k-cycle pattern; k == 2: the
    transposition; k == 1: the least constant map.
    """
    c = _base_cross_section(P)
    k = P.k
    if k == 1:
        return (_pattern_element(P, c, (0,)),)
    transposition = tuple([1, 0] + list(range(2, k)))
    if k == 2:
        return (_pattern_element(P, c, transposition),)
    cycle = tuple(list(range(1, k)) + [0])
    return tuple(sorted((_pattern_element(P, c, transposition), _pattern_element(P, c, cycle))))


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
    return GroupTable.from_semigroup(SemigroupSet.from_elements(members))


@dataclass(frozen=True)
class RightGroupDecomposition:
    """Q in right-group coordinates: Q is isomorphic to H_e x E(Q).

    Element ``(i, j)`` is the product of ``group_part.elements[i]`` and
    ``idempotent_part[j]``, and ``patterns[i]`` is the block permutation of
    group element i.  Products follow the right-group law
    ``(i, j)(i', j') = (group_part.table[i][i'], j')``.  :func:`decompose`
    certifies the pairing once, so every lookup here is a table read.
    """

    partition: PartitionedSet
    base_idempotent: Transformation
    group_part: GroupTable
    idempotent_part: tuple[Transformation, ...]
    patterns: tuple[tuple[int, ...], ...]
    grid: tuple[tuple[Transformation, ...], ...] = field(repr=False, compare=False)
    index: dict = field(repr=False, compare=False)  # images of q -> (i, j)

    def element(self, i: int, j: int) -> Transformation:
        """The member of Q with coordinates (i, j)."""
        return self.grid[i][j]

    def coordinates(self, q: Transformation) -> tuple[int, int]:
        """The (i, j) with ``element(i, j) == q``."""
        try:
            return self.index[q.images]
        except KeyError:
            raise ContractError(f"{q!r} is not an element of Q") from None


@_cached(maxsize=64)
def decompose(
    P: PartitionedSet,
    max_size: int = DEFAULT_MAX_CLOSURE,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> RightGroupDecomposition:
    """Split Q into H_e x E(Q) over the canonically least idempotent e.

    The pairing (a, f) -> a*f is computed on the product kernel and verified
    to hit every element of Q exactly once; the coordinate lookups are built
    from the same products.  ``max_group_order`` bounds the H-class build.
    """
    idems = idempotents_Q(P, max_size)
    e = idems[0]
    G = h_class(e, P, max_group_order)
    if G.elements.elements[G.identity] != e:
        raise InternalConsistencyError("base idempotent is not the identity of its H-class")
    unpaired = {q.images: q for q in enumerate_Q(P, max_size)}
    index = {}
    grid = []
    for i, a in enumerate(G.elements):
        mul = product_map(a.images)
        row = []
        for j, f in enumerate(idems):
            q = unpaired.pop(mul(f.images), None)
            if q is None:
                raise InternalConsistencyError("pairing (a, f) -> a*f is not a bijection onto Q")
            index[q.images] = (i, j)
            row.append(q)
        grid.append(tuple(row))
    if unpaired:
        raise InternalConsistencyError("pairing (a, f) -> a*f is not a bijection onto Q")
    patterns = tuple(block_permutation(P, a) for a in G.elements)
    return RightGroupDecomposition(P, e, G, idems, patterns, tuple(grid), index)
