"""Enumeration and structure of Q_{E*}(X).

Q is the set of double-direction equivalence preserving maps that collapse
every block to a single point while their image meets every block.  It is a
right group: the disjoint union of its H-classes, each a group of order k!,
indexed by the m image cross-sections.  :func:`decompose` names every
element by right-group coordinates (i, j), group element i of the base
H-class times idempotent j, and certifies that naming once against Q.
:func:`prove_Q` proves Q on maps packed one byte per point, closing its
generating set R through block patterns in about k!*|R| products, as every
member of Q is constant on blocks, and keeps the maps packed in the
partition's record, in the one cache :func:`instance`, beside
R's ``Pairing``, the idempotents and the decomposition; the record's
``images``, Q's sorted image tuples, are unpacked on first read, and
:func:`enumerate_Q` wraps them as maps on first use.  The cache and the
packed maps stay in this module: others read R as ``prove_Q(P).pairing``
and ask :func:`generates` whether maps generate a set.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice, repeat
from operator import add
from typing import Collection

from .engine import GroupTable, SemigroupSet
from .errors import ContractError, InternalConsistencyError, ResourceLimitError
from .formulas import cardinality_Q
from .limits import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_MAPS, MAX_DEGREE, MAX_GROUP_ORDER, admit
from .membership import in_Q
from .partition import PartitionedSet, check_degree
from .transformation import Transformation, compose, image, product_map


def block_permutation(P: PartitionedSet, a: Transformation) -> tuple[int, ...]:
    """The permutation of block indices induced by a member of T_{E*}(X).

    sigma[i] is the index of the block receiving block i.  Raises
    :class:`ContractError` when the map does not induce a block bijection.
    """
    check_degree(P, a)
    sigma = []
    for bi, block in enumerate(P.blocks):
        targets = {P.block_of[a.images[x]] for x in block}
        if len(targets) != 1:
            raise ContractError(f"block {bi} does not map into a single block")
        sigma.append(next(iter(targets)))
    if len(set(sigma)) != P.k:
        raise ContractError("induced block map is not a bijection")
    return tuple(sigma)


def _built(P: PartitionedSet) -> set[bytes]:
    """Q by formula, packed: the map for a block permutation sigma and a choice c of one
    point per block sends block i to c[sigma(i)], so it is (block i -> sigma(i)).translate(c)."""
    spreads = list(map(bytes, map(product_map(P.block_of), itertools.permutations(range(P.k)))))
    pad = bytes(256 - P.k)
    choices = [bytes(c) + pad for c in itertools.product(*P.blocks)]
    return set(itertools.starmap(bytes.translate, itertools.product(spreads, choices)))


# Known maps that packed_closure's left-product guard pads at a time: 1,024 padded maps
# hold about 0.3 MB; one list of all of them took `generate` at k = 8 from 35 to 58 MB.
_PAD_BATCH = 1024


def packed_closure(P: PartitionedSet, gens, max_size: int) -> set[bytes] | None:
    """The packed maps generated by ``gens``, maps constant on P's blocks, or None past
    ``max_size`` of them.  With e sending each point to its block's least point, s*g = (s*e)*g
    for such g, so the closure is R with H*R, for H = <R>*e the closure of the maps g*e: at
    most k! maps, a group once R lies in Q.  H is closed by right products one breadth-first
    level at a time, each tested against the known maps as it comes; then each g adds H*g,
    or H itself when g*e == g, as g then lies in H.  That is about k!*|R| products, not
    |Q|*|R|.  The left products f*p, each known map padded once per batch of ``_PAD_BATCH``,
    guard against a defective level loop; they skip each f that sends every block into
    itself (f*e == e), as then f*p == p for p constant on blocks.  A caller that needs the
    closure proved checks its maps, R among them, against Q's definition."""
    gens = [bytes(g.images) for g in gens]
    pad = bytes(256 - P.n)
    e = bytes(P.blocks[b][0] for b in P.block_of)
    patterns = [g.translate(e + pad) for g in gens]  # g*e, one per generator
    members = list(dict.fromkeys(patterns))  # H's maps, in the order found
    group, tables, level = set(members), [h + pad for h in members], members
    while level:
        fresh = []
        for table in tables:
            for p in map(bytes.translate, level, repeat(table)):
                if p not in group:
                    group.add(p)
                    fresh.append(p)
            if len(group) > max_size:
                return None
        members += fresh
        level = fresh
    known = set() if group.isdisjoint(gens) else group  # H*g = H for g in H, that is, g == g*e
    known.update(gens)
    for g, pattern in zip(gens, patterns):
        if g != pattern:
            known.update(map(bytes.translate, members, repeat(g + pad)))
            if len(known) > max_size:
                return None
    movers = [g for g, pattern in zip(gens, patterns) if pattern != e]  # g*e != e: g moves a block
    maps = iter(known if movers else ())
    while batch := list(map(add, islice(maps, _PAD_BATCH), repeat(pad))):
        for g in movers:
            if not known.issuperset(map(g.translate, batch)):
                raise InternalConsistencyError("left product escaped a right-product closure")
    return known


def generates(P: PartitionedSet, gens, elements) -> bool:
    """True when the maps ``gens``, constant on P's blocks, generate exactly the maps
    ``elements``, closed on packed maps."""
    return packed_closure(P, gens, len(elements)) == {bytes(a.images) for a in elements}


def all_in_Q(P: PartitionedSet, images: Collection[bytes]) -> bool:
    """``in_Q`` for packed maps, assumed valid maps of degree P.n, read by columns: column x of
    the maps joined holds x's image in each.  Collapse: each point's column is its block head's.
    Cover: the heads' blocks differ pairwise in each map, so their columns, read as integers,
    XOR to no zero byte.  Defensively: with k hits per map, each block is hit once per map."""
    joined, n = b"".join(images), P.n
    if not all(joined[x::n] == joined[block[0]::n] for block in P.blocks for x in block):
        return False
    hits = [joined[block[0]::n].translate(bytes(P.block_of) + bytes(256 - n)) for block in P.blocks]
    ints = [int.from_bytes(column, "big") for column in hits]  # the heads' blocks, one byte per map
    if any(0 in (a ^ b).to_bytes(len(images), "big") for a, b in itertools.combinations(ints, 2)):
        return False
    if not set(map(b"".join(hits).count, range(P.k))) <= {len(images)}:
        raise InternalConsistencyError("accepted map whose image is not a cross-section")
    return True


def admit_Q(P: PartitionedSet) -> int:
    """|Q|, once P passes the bounds of a built Q: |Q| <= ``DEFAULT_MAX_CLOSURE``, then n <= ``MAX_DEGREE``."""
    admit("|Q| =", expected := cardinality_Q(P), DEFAULT_MAX_CLOSURE, "DEFAULT_MAX_CLOSURE=")
    admit("n =", P.n, MAX_DEGREE, "MAX_DEGREE=")
    return expected


def prove_Q(P: PartitionedSet) -> _Record:
    """P's record, holding R's ``Pairing`` (``pairing``) and Q as the packed maps its
    closure proved; ``pairing`` marks the record proved, and nothing is wrapped as a map.

    The proof packs a map of degree n <= ``MAX_DEGREE`` as ``bytes(images)``, so a*b is
    ``a.translate(b + bytes(256 - n))``.  The pad is never read: every packed map is a
    validated generator, a formula-built choice or a product of those.  The count of
    :func:`_built` is k!*m, R of :func:`rank_pairing` and its factors (symmetric part and
    idempotents) lie in that set, the closure of R, bounded by |Q|, is that set, and it
    passes :func:`all_in_Q`.  So R is constant on blocks, as :func:`packed_closure`'s
    closure through block patterns needs, and the set is closed and generated by R, so by
    R's factors, with about k!*|R| right products and at most 2*|Q| left ones, and each map
    in it is a product of validated maps.  The closure stays packed and unsorted until
    ``images`` is first read.  The bounds of :func:`admit_Q` are checked before the record
    is read; nothing unproved is kept.
    """
    expected = admit_Q(P)
    record = instance(P)
    if record.pairing is not None:
        return record
    built = _built(P)
    if len(built) != expected:
        raise InternalConsistencyError(f"built {len(built)} elements of Q, expected {expected}")
    pairing = rank_pairing(P)
    factors = (a for row in pairing.paired + pairing.leftover for a in row[:-1])
    if not built.issuperset(bytes(a.images) for a in itertools.chain(pairing.generators, factors)):
        raise InternalConsistencyError("constructed Q is not closed under composition")
    generated = packed_closure(P, pairing.generators, max_size=expected)  # None: it grew past |Q|, so left the built set
    if generated is None or not built.issuperset(generated):
        raise InternalConsistencyError("constructed Q is not closed under composition")
    if len(generated) != len(built):  # distinct maps inside the built set
        raise InternalConsistencyError("symmetric part + idempotents do not generate the constructed Q")
    del built  # equal to the closure now: freed before the membership batch
    if not all_in_Q(P, generated):  # after the closure proof, which rejects maps that are not of degree n
        raise InternalConsistencyError("constructed element fails the membership predicate")
    record.packed, record.pairing = generated, pairing
    return record


def enumerate_Q(P: PartitionedSet) -> SemigroupSet:
    """All of Q in canonical order: the image tuples of :func:`prove_Q`'s record, each
    wrapped, unvalidated, once per record and kept there."""
    record = prove_Q(P)
    if record.Q is None:
        record.Q = SemigroupSet(P.n, tuple(map(Transformation._unchecked, record.images)))
    return record.Q


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


def idempotents_Q(P: PartitionedSet) -> tuple[Transformation, ...]:
    """The m idempotents of Q: one per choice of a representative in each block, wrapped unvalidated.

    Each map is verified, before caching, to satisfy a*a == a and to send each block to one of its points.
    """
    admit("idempotent count", P.m, DEFAULT_MAX_CLOSURE, "DEFAULT_MAX_CLOSURE=")
    admit("n =", P.n, MAX_DEGREE, "MAX_DEGREE=")
    record = instance(P)
    if record.idempotents is not None:
        return record.idempotents
    out = tuple(sorted(map(Transformation._unchecked, map(product_map(P.block_of), itertools.product(*P.blocks)))))
    if any(compose(a, a) != a for a in out):
        raise InternalConsistencyError("constructed idempotent fails a*a == a")
    if len(out) != P.m:
        raise InternalConsistencyError(f"built {len(out)} idempotents, expected {P.m}")
    if not all_in_Q(P, [bytes(a.images) for a in out]) or any(product_map(a.images)(P.block_of) != P.block_of for a in out):
        raise InternalConsistencyError("constructed idempotent does not send each block to one of its own points")
    record.idempotents = out
    return out


def _pattern_element(P: PartitionedSet, cross_section: tuple[int, ...], sigma) -> Transformation:
    """The member of Q sending block i to cross_section[sigma[i]]."""
    return Transformation(tuple(cross_section[sigma[P.block_of[x]]] for x in range(P.n)))


def symmetric_part_generators(P: PartitionedSet) -> tuple[Transformation, ...]:
    """Generators of the base H-class fixing its cross-section setwise.

    A k-cycle pattern and, for k >= 3, a transposition pattern (for k <= 2
    the k-cycle is the transposition or the least constant map).
    """
    c = tuple(min(b) for b in P.blocks)  # the least idempotent's image, block by block
    cycle = (*range(1, P.k), 0)
    patterns = {cycle, (1, 0, *range(2, P.k))} if P.k >= 3 else {cycle}
    return tuple(sorted(_pattern_element(P, c, p) for p in patterns))


# R, Q's generating set of size rank_Q(P), and the rows of rank_pairing that built it; R holds each row's last entry.
Pairing = namedtuple("Pairing", "generators paired leftover")


def rank_pairing(P: PartitionedSet) -> Pairing:
    """Q's ``Pairing``: (g, f, g*f) pairs each symmetric-part generator g with the next least
    idempotent f (cycling, for the identity relation), and (f, e*f) == (f, f) adds each other
    idempotent f, e the least.  Products of these valid maps are taken on image tuples, unvalidated;
    one equal to its right factor, as e*f == f is, is that factor's own object."""
    idems = idempotents_Q(P)
    gens_sym = symmetric_part_generators(P)

    def times(a, b):
        images = product_map(a.images)(b.images)
        return b if images == b.images else a._unchecked(images)

    paired = tuple((g, f, times(g, f)) for g, f in zip(gens_sym, itertools.cycle(idems)))
    leftover = tuple((f, times(idems[0], f)) for f in idems[len(gens_sym):])
    return Pairing(tuple(sorted({row[-1] for row in paired + leftover})), paired, leftover)


def _h_class_members(a: Transformation, P: PartitionedSet) -> tuple[Transformation, ...]:
    """The k! members of Q sharing a's image, sorted: one per block permutation over that cross-section."""
    cross_section = tuple(sorted(image(a), key=P.block_of.__getitem__))
    return tuple(sorted(_pattern_element(P, cross_section, p) for p in itertools.permutations(range(P.k))))


def h_class(a: Transformation, P: PartitionedSet) -> GroupTable:
    """The H-class of ``a`` inside Q as a group of order k! <= ``MAX_GROUP_ORDER``, whose product
    table proves closure, identity and inverses; tests cover its equivalence with searching Q."""
    if not in_Q(P, a):
        raise ContractError("h_class needs a member of Q")
    admit("H-class order", math.factorial(P.k), MAX_GROUP_ORDER, "MAX_GROUP_ORDER=")
    return GroupTable.from_semigroup(SemigroupSet.from_elements(_h_class_members(a, P)))


@dataclass(frozen=True)
class RightGroupDecomposition:
    """Q in right-group coordinates: Q is isomorphic to H_e x E(Q).

    Element ``(i, j)`` is the product of ``group_part[i]``, a member of the
    base H-class, and ``idempotent_part[j]``, and ``patterns[i]`` is the
    block permutation of group element i.  Products follow the right-group
    law (i, j)(i', j') = (i'', j'), where group_part[i'']
    = group_part[i]*group_part[i'].  :func:`decompose` certifies the pairing
    once, so every lookup here is a read of the grid or the index.
    """

    partition: PartitionedSet
    base_idempotent: Transformation
    group_part: tuple[Transformation, ...]
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


def decompose(P: PartitionedSet) -> RightGroupDecomposition:
    """Split Q into H_e x E(Q) over the canonically least idempotent e, with no product table.

    H_e's k! members are built from the block patterns, with e checked as their two-sided
    identity.  The pairing (a, f) -> a*f is computed on the product kernel and verified to hit
    every element of Q exactly once; the coordinate lookups are built from the same products.
    """
    admit("idempotent count", P.m, DEFAULT_MAX_CLOSURE, "DEFAULT_MAX_CLOSURE=")
    Q = enumerate_Q(P)  # checks |Q|; makes the record as enumerate_Q's build
    record = instance(P)
    if record.decomposition is not None:
        return record.decomposition
    idems = idempotents_Q(P)
    e = idems[0]
    G = _h_class_members(e, P)
    if any(product_map(e.images)(a.images) != a.images or product_map(a.images)(e.images) != a.images for a in G):
        raise InternalConsistencyError("base idempotent is not the identity of its H-class")
    unpaired = {q.images: q for q in Q}
    index = {}
    grid = []
    for i, a in enumerate(G):
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
    patterns = tuple(block_permutation(P, a) for a in G)
    record.decomposition = RightGroupDecomposition(P, e, G, idems, patterns, tuple(grid), index)
    return record.decomposition


class _Record:
    idempotents = pairing = packed = Q = decomposition = None

    @cached_property
    def images(self) -> list[tuple[int, ...]]:
        """Q's image tuples in canonical order, cut on first read from the proved packed
        maps, sorted (bytes sort as image tuples do) and joined, which are then dropped."""
        packed, self.packed = sorted(self.packed), None
        return list(zip(*[iter(b"".join(packed))] * len(packed[0])))  # zip cuts the joined maps into n-tuples


@lru_cache(maxsize=64)
def instance(P: PartitionedSet) -> _Record:
    """``P``'s record; ``pairing`` and ``packed`` hold the R that proved Q and Q's packed maps."""
    return _Record()


for _fn in (enumerate_Q, idempotents_Q, decompose):
    _fn.cache_info, _fn.cache_clear = instance.cache_info, instance.cache_clear
del _fn
