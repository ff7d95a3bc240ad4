"""Brute-force semigroup engine.

Closures, Green's R in both guises, right-group tests, subgroup lattices,
maximality checks and group isomorphism, all by exhaustive search over
explicit multiplication tables.  Everything here is definitional, so the
structural constructions in the higher-level modules can be validated
against it.

All public containers are immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    ValidationError,
)
from .limits import DEFAULT_MAX_CLOSED_SETS, DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER
from .transformation import Transformation, kernel_partition, product_map
# Not used here; bench/test_bench.py checks that tracing restores qstar.engine.compose.
from .transformation import compose  # noqa: F401


@dataclass(frozen=True)
class SemigroupSet:
    """A finite composition-closed set of equal-degree transformations.

    Elements are deduplicated and kept in canonical order (lexicographic on
    image sequences).  ``generators`` records how the set was produced and
    does not take part in equality.
    """

    n: int
    elements: tuple[Transformation, ...]
    generators: tuple[Transformation, ...] | None = field(default=None, compare=False)

    @classmethod
    def from_elements(cls, elems: Iterable[Transformation], generators=None, verify: bool = True):
        elements = tuple(sorted(set(elems)))
        if not elements:
            raise ContractError("a semigroup needs at least one element")
        n = elements[0].n
        if any(e.n != n for e in elements):
            raise ValidationError("elements have mixed degrees")
        gens = tuple(sorted(set(generators))) if generators is not None else None
        s = cls(n, elements, gens)
        if verify:
            s.index_table  # building the table proves closure
        return s

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t) -> bool:
        return t in self.element_index

    @cached_property
    def element_index(self) -> dict:
        return {t: i for i, t in enumerate(self.elements)}

    def index_of(self, t: Transformation) -> int:
        try:
            return self.element_index[t]
        except KeyError:
            raise ContractError(f"{t!r} is not an element of this semigroup") from None

    @cached_property
    def index_table(self) -> tuple[tuple[int, ...], ...]:
        """Full multiplication table over element indices; proves closure."""
        images = [t.images for t in self.elements]
        if any(len(v) != self.n for v in images):
            raise ValidationError("elements have mixed degrees")
        position = {v: i for i, v in enumerate(images)}
        lookup = position.__getitem__
        rows = []
        for a in images:
            mul = product_map(a)
            try:
                rows.append(tuple(map(lookup, map(mul, images))))
            except KeyError:
                b = next(b for b in images if mul(b) not in position)
                raise ValidationError(f"set is not closed: {a} * {b} escapes") from None
        return tuple(rows)

    def subset(self, indices: Iterable[int]) -> tuple[Transformation, ...]:
        return tuple(self.elements[i] for i in sorted(set(indices)))


def closure(gens: Iterable[Transformation], max_size: int = DEFAULT_MAX_CLOSURE) -> SemigroupSet:
    """The semigroup generated by ``gens``.

    Worklist of known-element x generator right-products; this reaches every
    left-to-right product of generators.  A final pass confirms that
    generator-on-the-left products stay inside, guarding the non-monoid
    corner cases.  Raises :class:`ResourceLimitError` past ``max_size``.
    """
    gens = tuple(sorted(set(gens)))
    if not gens:
        raise ContractError("closure of an empty generating set")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValidationError("generators have mixed degrees")
    gen_images = [g.images for g in gens]
    known = set(gen_images)
    work = deque(gen_images)
    while work:
        for p in map(product_map(work.popleft()), gen_images):
            if p not in known:
                known.add(p)
                if len(known) > max_size:
                    raise ResourceLimitError(f"closure exceeded max_size={max_size}")
                work.append(p)
    images = sorted(known)
    for g in gen_images:
        if not known.issuperset(map(product_map(g), images)):
            raise InternalConsistencyError("left product escaped a right-product closure")
    return SemigroupSet(n, tuple(map(Transformation._unchecked, images)), gens)


def green_R_related(a: Transformation, b: Transformation) -> bool:
    """Kernel-partition form of Green's R: equal fiber partitions.

    This characterizes R inside the full transformation semigroup T(X); on a
    proper subsemigroup it can differ from :func:`green_R_definitional`.
    """
    if a.n != b.n:
        raise ValidationError(f"degree mismatch: {a.n} vs {b.n}")
    return kernel_partition(a).as_set_partition() == kernel_partition(b).as_set_partition()


def green_R_definitional(a: Transformation, b: Transformation, S: SemigroupSet) -> bool:
    """Principal right ideal form of Green's R, relative to the ambient S."""
    ia = S.index_of(a)
    ib = S.index_of(b)
    t = S.index_table
    return (ia == ib or ia in t[ib]) and (ib == ia or ib in t[ia])


def is_right_group(S: SemigroupSet) -> bool:
    """True when for every a, b there is exactly one x with a*x == b."""
    size = len(S)
    return all(len(set(row)) == size for row in S.index_table)


def is_regular_semigroup(S: SemigroupSet) -> bool:
    """True when every a has some b with a*b*a == a."""
    t = S.index_table
    size = len(S)
    return all(any(t[t[ia][ib]][ia] == ia for ib in range(size)) for ia in range(size))


def is_left_cancellative(S: SemigroupSet) -> bool:
    """True when a*x == a*y forces x == y, checked row by row."""
    for row in S.index_table:
        seen = set()
        for v in row:
            if v in seen:
                return False
            seen.add(v)
    return True


def _verify_group(table, identity: int, inverse: Sequence[int]) -> None:
    size = len(table)
    for x in range(size):
        if table[identity][x] != x or table[x][identity] != x:
            raise InternalConsistencyError("claimed identity fails exhaustive check")
    for x in range(size):
        if table[x][inverse[x]] != identity or table[inverse[x]][x] != identity:
            raise InternalConsistencyError("claimed inverse fails exhaustive check")


@dataclass(frozen=True)
class GroupTable:
    """A finite group presented by its full multiplication table.

    ``identity`` and ``inverse`` are verified by exhaustive multiplication at
    construction time.  Associativity is inherited from map composition.
    """

    elements: SemigroupSet
    identity: int
    inverse: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_semigroup(cls, S: SemigroupSet, max_order: int = DEFAULT_MAX_GROUP_ORDER):
        if len(S) > max_order:
            raise ResourceLimitError(f"group order {len(S)} exceeds bound {max_order}")
        t = S.index_table
        size = len(S)
        identity = None
        for e in range(size):
            if all(t[e][x] == x and t[x][e] == x for x in range(size)):
                identity = e
                break
        if identity is None:
            raise ContractError("not a group: no two-sided identity")
        inverse = []
        for x in range(size):
            inv = next((y for y in range(size) if t[x][y] == identity and t[y][x] == identity), None)
            if inv is None:
                raise ContractError(f"not a group: element {x} has no inverse")
            inverse.append(inv)
        _verify_group(t, identity, inverse)
        return cls(S, identity, tuple(inverse), t)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, i: int) -> int:
        t = self.table
        o = 1
        x = i
        while x != self.identity:
            x = t[x][i]
            o += 1
            if o > self.order:
                raise InternalConsistencyError("element order exceeds group order")
        return o

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(i) for i in range(self.order))

    @cached_property
    def conjugacy_class_sizes(self) -> tuple[int, ...]:
        t = self.table
        inv = self.inverse
        sizes = []
        for i in range(self.order):
            cls_ = {t[t[g][i]][inv[g]] for g in range(self.order)}
            sizes.append(len(cls_))
        return tuple(sizes)

    def subset_elements(self, indices: Iterable[int]) -> tuple[Transformation, ...]:
        return tuple(self.elements.elements[i] for i in sorted(set(indices)))


def symmetric_group_table(k: int, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> GroupTable:
    """The full symmetric group on k points, built from scratch."""
    order = math.factorial(k)
    if order > max_order:
        raise ResourceLimitError(f"group order {order} exceeds bound {max_order}")
    perms = [Transformation(p) for p in itertools.permutations(range(k))]
    S = SemigroupSet.from_elements(perms, verify=True)
    return GroupTable.from_semigroup(S, max_order=max_order)


def _close_mask(table, mask: int) -> int:
    """Closure of the index set ``mask`` under the table product."""
    if mask == 0:
        return 0
    gens = [i for i in range(len(table)) if (mask >> i) & 1]
    known = mask
    stack = list(gens)
    while stack:
        p = stack.pop()
        row = table[p]
        for g in gens:
            q = row[g]
            b = 1 << q
            if not known & b:
                known |= b
                stack.append(q)
    return known


def _mask_indices(mask: int, size: int) -> list[int]:
    return [i for i in range(size) if (mask >> i) & 1]


def subgroup_lattice(G: GroupTable, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> tuple[tuple[int, ...], ...]:
    """All subgroups, as sorted index tuples.

    Cyclic subgroups are closed first; pairwise joins are then iterated to a
    fixpoint.  Every subgroup is the join of its cyclic subgroups, so this
    is complete.
    """
    if G.order > max_order:
        raise ResourceLimitError(f"group order {G.order} exceeds bound {max_order}")
    t = G.table
    initial = {_close_mask(t, 1 << i) for i in range(G.order)}
    known = set(initial)
    work = deque(initial)
    while work:
        x = work.popleft()
        for y in list(known):
            if x | y in (x, y):
                continue
            j = _close_mask(t, x | y)
            if j not in known:
                known.add(j)
                work.append(j)
    subs = [tuple(_mask_indices(mask, G.order)) for mask in known]
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


def maximal_subgroups(G: GroupTable, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> tuple[tuple[int, ...], ...]:
    """Proper subgroups not contained in any larger proper subgroup."""
    subs = subgroup_lattice(G, max_order=max_order)
    masks = []
    for s in subs:
        mask = 0
        for i in s:
            mask |= 1 << i
        masks.append(mask)
    full = (1 << G.order) - 1
    out = []
    for s, mask in zip(subs, masks):
        if mask == full:
            continue
        if any(other != mask and other != full and mask | other == other for other in masks):
            continue
        out.append(s)
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def is_maximal_subsemigroup(T: SemigroupSet, S: SemigroupSet) -> bool:
    """True when T is proper in S and every outside element generates all of S with T."""
    if T.n != S.n:
        raise ValidationError("degree mismatch between T and S")
    indices = [S.index_of(x) for x in T]
    if len(T) >= len(S):
        raise ContractError("T must be a proper subset of S")
    t = S.index_table
    tmask = 0
    for i in indices:
        tmask |= 1 << i
    full = (1 << len(S)) - 1
    if _close_mask(t, tmask) != tmask:
        raise ContractError("T is not closed")
    for x in range(len(S)):
        if (tmask >> x) & 1:
            continue
        if _close_mask(t, tmask | (1 << x)) != full:
            return False
    return True


def all_closed_subsets(S: SemigroupSet, max_count: int = DEFAULT_MAX_CLOSED_SETS) -> tuple[int, ...]:
    """Every composition-closed subset of S, as bitmasks, in lectic order.

    Ganter-style next-closure enumeration: each closed set is visited exactly
    once using at most |S| closure calls per set, with no dependence on the
    structure theory being validated elsewhere.
    """
    t = S.index_table
    size = len(S)
    full = (1 << size) - 1
    out = [0]
    a = 0
    while a != full:
        nxt = None
        for i in range(size - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                continue
            lower = bit - 1
            b = _close_mask(t, (a & lower) | bit)
            if (b & lower) & ~a == 0:
                nxt = b
                break
        if nxt is None:
            raise InternalConsistencyError("next-closure search stalled below the full set")
        a = nxt
        out.append(a)
        if len(out) > max_count:
            raise ResourceLimitError(f"more than {max_count} closed subsets")
    return tuple(out)


def _small_generating_sequence(G: GroupTable) -> list[int]:
    t = G.table
    known = _close_mask(t, 1 << G.identity)
    gens: list[int] = []
    for i in range(G.order):
        if not (known >> i) & 1:
            gens.append(i)
            mask = known | (1 << i)
            known = _close_mask(t, mask)
            if known == (1 << G.order) - 1:
                break
    return gens


def groups_isomorphic(G1: GroupTable, G2: GroupTable, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> bool:
    """Decide group isomorphism by pruned backtracking over generator images.

    Pruning: order, element-order multiset, conjugacy-class-size multiset.
    Candidate generator images must match the (element order, class size)
    profile; each full assignment is checked as a bijective homomorphism on
    all pairs, so a True answer is certified.
    """
    if G1.order > max_order or G2.order > max_order:
        raise ResourceLimitError(f"group order exceeds bound {max_order}")
    if G1.order != G2.order:
        return False
    if G1.order == 1:
        return True
    if sorted(G1.element_orders) != sorted(G2.element_orders):
        return False
    prof1 = sorted(zip(G1.element_orders, G1.conjugacy_class_sizes))
    prof2 = sorted(zip(G2.element_orders, G2.conjugacy_class_sizes))
    if prof1 != prof2:
        return False

    gens = _small_generating_sequence(G1)
    # Express every element of G1 as a word in gens via BFS over right products.
    parent: dict[int, tuple[int, int]] = {}
    order_seen = [G1.identity]
    seen = {G1.identity}
    qi = 0
    while qi < len(order_seen):
        x = order_seen[qi]
        qi += 1
        for gpos, g in enumerate(gens):
            y = G1.table[x][g]
            if y not in seen:
                seen.add(y)
                parent[y] = (x, gpos)
                order_seen.append(y)
    if len(seen) != G1.order:
        raise InternalConsistencyError("generating sequence failed to generate")

    def profile(G, i):
        return (G.element_orders[i], G.conjugacy_class_sizes[i])

    candidates = [
        [j for j in range(G2.order) if profile(G2, j) == profile(G1, g)] for g in gens
    ]
    t1, t2 = G1.table, G2.table
    for assignment in itertools.product(*candidates):
        phi = [0] * G1.order
        phi[G1.identity] = G2.identity
        for x in order_seen:
            if x == G1.identity:
                continue
            p, gpos = parent[x]
            phi[x] = t2[phi[p]][assignment[gpos]]
        if len(set(phi)) != G1.order:
            continue
        ok = True
        for i in range(G1.order):
            row1 = t1[i]
            pi = phi[i]
            row2 = t2[pi]
            for j in range(G1.order):
                if phi[row1[j]] != row2[phi[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
