"""Brute-force semigroup engine.

Closures, Green's R in both guises, right-group tests, subgroup lattices,
maximality checks and group isomorphism, all by exhaustive search over
explicit multiplication tables.  Everything here is definitional, so the
structural constructions in the higher-level modules can be validated
against it.

Index sets are bitmasks over a table's rows and have two closure kernels.
``_close_mask`` closes an arbitrary mask from scratch.  ``_extend`` adds one
element to a set that is already closed: it multiplies the old members by
the new element only, after Froidure & Pin's one-generator step, and can
stop early when a forbidden element appears, returning it as a witness.
Fast Close-by-One closed-set enumeration (Krajca, Outrata & Vychodil), the
maximality predicate and the rank level search grow closed sets one element
at a time on ``_extend``, and so is every subgroup lattice.  The first two
prune by monotonicity of closure: if z lies in <C + x>, then <C + z> lies
inside <C + x>, and z lies in <D + x> for every D containing C.  No closure
whose outcome such a witness already decides is computed.

All public containers are immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import ContractError, InternalConsistencyError, ResourceLimitError, ValidationError
from .limits import DEFAULT_MAX_CLOSED_SETS, DEFAULT_MAX_CLOSURE, MAX_GROUP_ORDER, admit
from .transformation import Transformation, kernel_partition, product_map
# Not used here; bench/test_bench.py checks that tracing restores qstar.engine.compose.
from .transformation import compose  # noqa: F401


@dataclass(frozen=True)
class SemigroupSet:
    """A finite composition-closed set of equal-degree transformations.

    Elements are deduplicated and kept in canonical order (lexicographic on
    image sequences).
    """

    n: int
    elements: tuple[Transformation, ...]

    @classmethod
    def from_elements(cls, elems: Iterable[Transformation]):
        elements = tuple(sorted(set(elems), key=attrgetter("images")))
        if not elements:
            raise ContractError("a semigroup needs at least one element")
        n = elements[0].n
        if any(e.n != n for e in elements):
            raise ValidationError("elements have mixed degrees")
        s = cls(n, elements)
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
        """Full multiplication table over element indices; proves closure.

        Only generator rows are hashed (after Froidure & Pin).  Walking the
        elements in order, one not yet reached becomes a generator g with a
        looked-up row.  Each reached p is multiplied on the left by every
        generator, and a new q = g*p gets row_g read at row_p, as q*b = g*(p*b).
        Every element is a word in generators, so their rows prove closure.
        """
        images = [t.images for t in self.elements]
        if any(len(v) != self.n for v in images):
            raise ValidationError("elements have mixed degrees")
        position = {v: i for i, v in enumerate(images)}
        lookup = position.__getitem__
        rows: list = [None] * len(images)
        gens: list = []
        reached: list[int] = []
        for g, a in enumerate(images):
            if rows[g] is not None:
                continue
            mul = product_map(a)
            try:
                rows[g] = row_g = tuple(map(lookup, map(mul, images)))
            except KeyError:  # the first row with an escape: every row reached before it is composed inside
                b = next(b for b in images if mul(b) not in position)
                raise ValidationError(f"set is not closed: {a} * {b} escapes") from None
            gens.append(row_g)
            new = [g]
            for p in reached:  # the old elements, times the new generator only
                q = row_g[p]
                if rows[q] is None:
                    rows[q] = itemgetter(*rows[p])(row_g)
                    new.append(q)
            for p in new:  # grows while it is read
                for h in gens:
                    q = h[p]
                    if rows[q] is None:
                        rows[q] = itemgetter(*rows[p])(h)
                        new.append(q)
            reached += new
        return tuple(rows)

    def subset(self, indices: Iterable[int]) -> tuple[Transformation, ...]:
        return tuple(self.elements[i] for i in sorted(set(indices)))


def closure_images(gens: Iterable[Transformation]) -> list[tuple[int, ...]]:
    """The sorted image tuples of the semigroup generated by ``gens``.

    Worklist of known-element x generator right-products, which reach every
    word in the generators.  A final pass of generator-on-the-left products
    guards against a defective worklist.  When the worklist adds nothing, that
    pass is skipped: the worklist has then formed g*p for every pair of
    generators, which is every product the pass would form.  Raises
    :class:`ResourceLimitError` past ``DEFAULT_MAX_CLOSURE`` elements.
    """
    max_size = DEFAULT_MAX_CLOSURE
    gen_images = sorted({g.images for g in gens})
    if not gen_images:
        raise ContractError("closure of an empty generating set")
    if len(gen_images) > max_size:
        raise ResourceLimitError(f"closure exceeded max_size={max_size}")
    if len(set(map(len, gen_images))) > 1:
        raise ValidationError("generators have mixed degrees")
    known = set(gen_images)
    work = deque(gen_images)
    while work:
        for p in map(product_map(work.popleft()), gen_images):
            if p not in known:
                known.add(p)
                if len(known) > max_size:
                    raise ResourceLimitError(f"closure exceeded max_size={max_size}")
                work.append(p)
    if len(known) == len(gen_images):
        return gen_images
    images = sorted(known)
    for g in gen_images:
        if not known.issuperset(map(product_map(g), images)):
            raise InternalConsistencyError("left product escaped a right-product closure")
    return images


def closure(gens: Iterable[Transformation]) -> SemigroupSet:
    """The semigroup generated by ``gens``: :func:`closure_images`, wrapped."""
    images = closure_images(gens)
    return SemigroupSet(len(images[0]), tuple(map(Transformation._unchecked, images)))


def green_R_related(a: Transformation, b: Transformation) -> bool:
    """Kernel-partition form of Green's R: equal fiber partitions.

    This characterizes R inside the full transformation semigroup T(X); on a
    proper subsemigroup it can differ from :func:`green_R_definitional`.
    """
    if a.n != b.n:
        raise ValidationError(f"degree mismatch: {a.n} vs {b.n}")
    return kernel_partition(a).classes == kernel_partition(b).classes


def green_R_definitional(a: Transformation, b: Transformation, S: SemigroupSet) -> bool:
    """Principal right ideal form of Green's R, relative to the ambient S."""
    ia = S.index_of(a)
    ib = S.index_of(b)
    t = S.index_table
    return (ia == ib or ia in t[ib]) and (ib == ia or ib in t[ia])


def _rows_at(S: SemigroupSet, indices):
    """The index set (all of S by default) and its rows of S's table read at it."""
    if indices is None:
        return range(len(S)), S.index_table
    pick = itemgetter(*indices) if len(indices) > 1 else lambda row: (row[indices[0]],)
    return indices, map(pick, map(S.index_table.__getitem__, indices))


class RightGroupLegs(NamedTuple):
    """What one pass over an index set I's rows decides, each leg by its own definition."""

    right_group: bool  # each row's set equals the members: a*x == b has exactly one x in I
    left_cancellative: bool  # each row's set has |I| elements
    regular: bool  # each a lies in a*I*a
    right_zero: bool  # the idempotents form a right-zero band: e*f == f


def right_group_legs(S: SemigroupSet, indices=None) -> RightGroupLegs:
    """The four legs on ``indices`` (all of S by default), from S's own table.

    One streaming pass: each row is picked at the index set once, and the
    set a*I of its entries serves the first three legs, a*I*a being the x*a
    over x in a*I.  The search for such an x with x*a == a tries the last
    row's x first; in a right group that x is an idempotent, a left
    identity, so the search ends there on every later row.  No row is kept
    past its step, so the pass holds O(|I|) entries, not |I|^2.
    """
    t = S.index_table
    indices, rows = _rows_at(S, indices)
    members = set(indices)
    size = len(indices)
    right_group = cancellative = regular = True
    witness = None
    idems = []
    for a, found in zip(indices, map(set, rows)):
        if found != members:
            right_group = False
        if len(found) != size:
            cancellative = False
        if regular and not (witness in found and t[witness][a] == a):
            for witness in found:
                if t[witness][a] == a:
                    break
            else:
                regular = False
        if t[a][a] == a:
            idems.append(a)
    right_zero = all(t[e][f] == f for e in idems for f in idems)
    return RightGroupLegs(right_group, cancellative, regular, right_zero)


def is_right_group(S: SemigroupSet, indices=None) -> bool:
    """True when for every a, b there is exactly one x with a*x == b.

    With ``indices``, decide it for the subsemigroup of S on that index set
    from S's own table; a set that is not closed is no right group.
    """
    return right_group_legs(S, indices).right_group


def is_regular_semigroup(S: SemigroupSet, indices=None) -> bool:
    """True when every a has some b with a*b*a == a (on ``indices``, if given)."""
    return right_group_legs(S, indices).regular


def idempotents_right_zero(S: SemigroupSet, indices=None) -> bool:
    """True when the idempotents of S (on ``indices``, if given) form a right-zero band: e*f == f."""
    return right_group_legs(S, indices).right_zero


def is_left_cancellative(S: SemigroupSet, indices=None) -> bool:
    """True when a*x == a*y forces x == y, checked row by row (on ``indices``, if given)."""
    return right_group_legs(S, indices).left_cancellative


def is_homomorphism(phi: Sequence[int], t1, t2) -> bool:
    """True when phi[t1[i][j]] == t2[phi[i]][phi[j]] for all i and j.

    ``phi`` maps the indices of the table ``t1`` to those of ``t2``; every
    pair is checked, a row at a time.
    """
    phi_of = phi.__getitem__
    return all(
        list(map(phi_of, row1)) == list(map(t2[phi[i]].__getitem__, phi))
        for i, row1 in enumerate(t1)
    )


@dataclass(frozen=True)
class GroupTable:
    """A finite group presented by its full multiplication table.

    ``identity`` is found by exhaustive search of the table at construction
    time.  Each ``inverse`` is the first right inverse, checked two-sided: in
    an associative table it is the two-sided inverse if there is one.
    Associativity is inherited from map composition.  The order is checked
    against ``MAX_GROUP_ORDER`` where the elements are built (``h_class``,
    ``symmetric_group_table``), and nothing that takes a built group checks
    it again.
    """

    elements: SemigroupSet
    identity: int
    inverse: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_semigroup(cls, S: SemigroupSet):
        t = S.index_table
        size = len(S)
        identity = next((e for e in range(size) if all(t[e][x] == x == t[x][e] for x in range(size))), None)
        if identity is None:
            raise ContractError("not a group: no two-sided identity")
        inverse = []
        for x, row in enumerate(t):
            inv = row.index(identity) if identity in row else None
            if inv is None or t[inv][x] != identity:
                raise ContractError(f"not a group: element {x} has no inverse")
            inverse.append(inv)
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
        t, inv, indices = self.table, self.inverse, range(self.order)
        return tuple(len({t[t[g][i]][inv[g]] for g in indices}) for i in indices)


def symmetric_group_table(k: int) -> GroupTable:
    """The full symmetric group on k points, built from scratch; k! past ``MAX_GROUP_ORDER`` is refused first."""
    admit("group order", math.factorial(k), MAX_GROUP_ORDER, "MAX_GROUP_ORDER=")
    perms = [Transformation(p) for p in itertools.permutations(range(k))]
    return GroupTable.from_semigroup(SemigroupSet.from_elements(perms))


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


def _extend(table, closed: int, members: list[int], gens: list[int], x: int, stop: int = 0):
    """Closure of the closed set C plus element ``x``, with its member list.

    C = <gens> is the mask ``closed`` and lists its elements in ``members``.
    Every new element is a product whose first factor x follows a member of
    C or starts the word, so the old members are multiplied by x only and
    each new element by every generator in ``gens + [x]``.  Returns
    ``(mask, members)``, or, as soon as an element of ``stop`` (a mask
    disjoint from C) joins, that element as an ``int``: a witness that lies
    outside C and inside the closure of C plus x.
    """
    bit = 1 << x
    if closed & bit:
        return closed, members
    if stop & bit:
        return x
    known = closed | bit
    new = [x]
    for c in members:
        q = table[c][x]
        b = 1 << q
        if not known & b:
            if stop & b:
                return q
            known |= b
            new.append(q)
    gens = gens + [x]
    for p in new:  # grows while it is read
        row = table[p]
        for g in gens:
            q = row[g]
            b = 1 << q
            if not known & b:
                if stop & b:
                    return q
                known |= b
                new.append(q)
    return known, members + new


def _mask_indices(mask: int, size: int) -> list[int]:
    """The set bits of ``mask`` below ``size``, ascending: one step per set bit, not per position."""
    out, mask = [], mask & ((1 << size) - 1)
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_masks(masks: Iterable[int], full: int) -> list[int]:
    """The inclusion-maximal masks among ``masks`` other than 0 and ``full``,
    by a size-descending scan that keeps a mask unless a kept one holds it."""
    proper = sorted((m for m in masks if m not in (0, full)), key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for mask in proper:
        if not any(mask | k == k for k in kept):
            kept.append(mask)
    return kept


def subgroup_lattice(G: GroupTable) -> tuple[tuple[int, ...], ...]:
    """All subgroups, as sorted index tuples, listed by Fast Close-by-One: in a
    finite group every nonempty closed subset holds the powers of its members,
    so their inverses and the identity, and is a subgroup."""
    subs = [tuple(_mask_indices(mask, G.order)) for mask in all_closed_subsets(G.elements) if mask]
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


def maximal_subgroups(S: SemigroupSet) -> tuple[tuple[int, ...], ...]:
    """Proper subgroups of the finite group S not contained in any larger proper subgroup, by
    :func:`subgroup_lattice`'s argument, on S's own table: no group table is needed."""
    masks = _maximal_masks(all_closed_subsets(S), (1 << len(S)) - 1)
    out = [tuple(_mask_indices(mask, len(S))) for mask in masks]
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def is_maximal_subsemigroup(T: SemigroupSet, S: SemigroupSet) -> bool:
    """True when T is proper in S and every outside element generates all of S with T.

    The mask ``good`` holds the outside elements y already shown to give
    <T + y> = S, and each ``_extend`` stops as soon as one of them joins: a
    witness y in <T + x> gives S = <T + y> inside <T + x>, so x is good too
    (after Donoven, Mitchell & Wilson's one-generator test).  A maximal T
    thus needs one full closure, for its first outside element.
    """
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
    closed, members, gens = 0, [], []
    for i in indices:
        if not (closed >> i) & 1:
            closed, members = _extend(t, closed, members, gens, i)
            gens.append(i)
    if closed != tmask:  # closed is <T>
        raise ContractError("T is not closed")
    good = 0
    for x in range(len(S)):
        if (tmask >> x) & 1:
            continue
        result = _extend(t, tmask, members, gens, x, good)
        if not isinstance(result, int) and result[0] != full:
            return False
        good |= 1 << x
    return True


def all_closed_subsets(S: SemigroupSet) -> tuple[int, ...]:
    """Every composition-closed subset of S, as bitmasks, in lectic order.

    Fast Close-by-One (Krajca, Outrata & Vychodil), the depth-first form of
    Ganter's next-closure: a closed set C reached by adding element y has
    one child per i > y outside C, the closure of C plus i, kept only when
    it gains no element below i.  Each closed set is reached exactly once,
    by one ``_extend`` call that stops at the first element below i.  A
    failed call returns that element z as a witness, and C hands its
    children the map i -> z on top of the one it inherited: a descendant D
    contains C, so <D + i> holds z too, and D skips i without a call when
    z is not in D.  Visiting C before its children, and children from the
    largest i down, is lectic order (a set with a smaller element ranks
    higher).  No structure theory is used.
    """
    t = S.index_table
    size = len(S)
    full = (1 << size) - 1
    out = []
    stack = [(0, [], [], -1, {})]
    while stack:
        closed, members, gens, y, inherited = stack.pop()
        out.append(closed)
        if len(out) > DEFAULT_MAX_CLOSED_SETS:
            raise ResourceLimitError(f"more than {DEFAULT_MAX_CLOSED_SETS} closed subsets")
        # Children are popped only after this loop, so they see every failure.
        witness = dict(inherited)
        for i in range(y + 1, size):
            if (closed >> i) & 1:
                continue
            z = witness.get(i)
            if z is not None and not (closed >> z) & 1:
                continue
            child = _extend(t, closed, members, gens, i, ((1 << i) - 1) & ~closed)
            if isinstance(child, int):
                witness[i] = child
            else:
                stack.append((*child, gens + [i], i, witness))
    if out[-1] != full:
        raise InternalConsistencyError("Close-by-One enumeration missed the full set")
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


def groups_isomorphic(G1: GroupTable, G2: GroupTable) -> bool:
    """Decide group isomorphism by pruned backtracking over generator images.

    Pruning: order, element-order multiset, conjugacy-class-size multiset.
    Candidate generator images must match the (element order, class size)
    profile; each full assignment is checked as a bijective homomorphism on
    all pairs, so a True answer is certified.
    """
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
        if len(set(phi)) == G1.order and is_homomorphism(phi, t1, t2):
            return True
    return False
