"""Maximal subsemigroups of Q.

For m >= 2 every maximal subsemigroup is one of two shapes in the
right-group coordinates (group part) x (idempotents) of ``decompose``:
H x E(Q) for a maximal subgroup H of the group part, or
(group part) x (E(Q) minus one idempotent).
That yields s_k + m of them, where s_k counts the maximal subgroups of the
symmetric group on k points.  The exhaustive oracle instead searches the
closed subsets of Q by branch and cut, with no theory, for the maximal
ones, so the construction can be checked set-for-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .engine import (
    SemigroupSet,
    _extend,
    _mask_indices,
    _maximal_masks,
    is_maximal_subsemigroup,
    maximal_subgroups,
    symmetric_group_table,
)
from .errors import (
    InternalConsistencyError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .limits import DEFAULT_MAX_CLOSED_SETS
from .limits import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER, DEFAULT_ORACLE_MAX, DEFAULT_VERIFY_MAX
from .partition import PartitionedSet
from .qsemigroup import decompose, enumerate_Q
from .transformation import Transformation


@dataclass(frozen=True)
class MaximalSubsemigroupReport:
    """All maximal subsemigroups of Q, with their construction data."""

    partition: PartitionedSet
    group_type: tuple[SemigroupSet, ...]
    group_type_subgroups: tuple[tuple[Transformation, ...], ...]
    right_zero_type: tuple[SemigroupSet, ...]
    omitted_idempotents: tuple[Transformation, ...]
    s_k: int
    m: int
    verified: bool

    @property
    def total(self) -> int:
        return self.s_k + self.m

    def all_subsemigroups(self) -> tuple[SemigroupSet, ...]:
        return self.group_type + self.right_zero_type


def count_maximal(P: PartitionedSet, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> tuple[int, int, int]:
    """(s_k, m, s_k + m) for m >= 2; s_k is computed from a freshly built
    symmetric group table, never read from a stored list."""
    if P.m < 2:
        raise UnsupportedCaseError(
            "E is the identity relation, Q is a group; ask for maximal subgroups "
            "of the symmetric group on k points instead"
        )
    s_k = len(maximal_subgroups(symmetric_group_table(P.k, max_group_order)))
    return (s_k, P.m, s_k + P.m)


def maximal_subsemigroups_Q(
    P: PartitionedSet,
    max_size: int = DEFAULT_MAX_CLOSURE,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> MaximalSubsemigroupReport:
    """Construct every maximal subsemigroup of Q (m >= 2).

    Group type: (maximal subgroup of the base H-class) paired with all
    idempotents.  Right-zero type: the whole group part paired with all but
    one idempotent.  Each set is checked for maximality against the
    definitional engine predicate when |Q| <= ``DEFAULT_VERIFY_MAX``, and the
    group-type count is cross-checked against the fresh symmetric group.
    """
    if P.m < 2:
        raise UnsupportedCaseError(
            "E is the identity relation, Q is a group; ask for maximal subgroups "
            "of the symmetric group on k points instead"
        )
    dec = decompose(P, max_size, max_group_order)
    Q = enumerate_Q(P, max_size)
    G = dec.group_part
    m = P.m

    # decompose certified that its grid holds every element of Q once, so
    # these families have |H|*m and k!*(m-1) distinct members.
    subgroups = sorted(maximal_subgroups(G))
    group_type = []
    for H in subgroups:
        elems = [dec.element(i, j) for i in H for j in range(m)]
        group_type.append(SemigroupSet(P.n, tuple(sorted(elems, key=attrgetter("images")))))
    right_zero = []
    for omitted in range(m):
        elems = [dec.element(i, j) for i in range(G.order) for j in range(m) if j != omitted]
        right_zero.append(SemigroupSet(P.n, tuple(sorted(elems, key=attrgetter("images")))))

    s_k = count_maximal(P, max_group_order)[0]
    if len(group_type) != s_k:
        raise InternalConsistencyError(
            f"H-class has {len(group_type)} maximal subgroups, fresh symmetric group has {s_k}"
        )
    verified = False
    if len(Q) <= DEFAULT_VERIFY_MAX:
        for T in group_type + right_zero:
            if not is_maximal_subsemigroup(T, Q):
                raise InternalConsistencyError("constructed set fails the maximality oracle")
        verified = True
    return MaximalSubsemigroupReport(
        P,
        tuple(group_type),
        tuple(G.elements.subset(H) for H in subgroups),
        tuple(right_zero),
        dec.idempotent_part,
        s_k,
        m,
        verified,
    )


def _maximal_closed_masks(S: SemigroupSet) -> list[int]:
    """Masks of the maximal proper nonempty closed subsets of S, by branch and cut.

    A maximal M with least missing element u holds F = <0..u-1> and misses
    U = {u}.  Each state keeps closed F inside M and U outside it: a free
    element whose closure with F meets U is forbidden, and the option with the
    largest closure joins F in one branch and is forbidden in the other.  A
    state with no options records F = S - U; one whose room S - U lies in a
    record is cut.  So every maximal M is recorded (after Donoven, Mitchell &
    Wilson's one-generator idea), and :func:`_maximal_masks` keeps those.
    """
    t = S.index_table
    size = len(S)
    full = (1 << size) - 1
    found: list[int] = []
    states = 0
    F, members, gens = 0, [], []
    for u in range(size):
        if (F >> u) & 1:
            continue
        stack = [(F, members, gens, 1 << u, None)]
        while stack:
            closed, mem, gen, U, options = stack.pop()
            states += 1
            if states > DEFAULT_MAX_CLOSED_SETS:
                raise ResourceLimitError(f"more than DEFAULT_MAX_CLOSED_SETS={DEFAULT_MAX_CLOSED_SETS} search states")
            if options is None:  # F grew: close it with each free element afresh
                options = {}
                for c in range(size):
                    if not ((closed | U) >> c) & 1:
                        grown = _extend(t, closed, mem, gen, c, U)
                        if isinstance(grown, int):
                            U |= 1 << c
                        else:
                            options[c] = grown
            else:  # one pass suffices: a closure that holds a blocked c holds c's closure
                for c in [c for c, (mask, _) in options.items() if mask & U]:
                    del options[c]
                    U |= 1 << c
            if any((full & ~U) | G == G for G in found):
                continue
            if not options:
                found.append(closed)
                continue
            c = max(options, key=lambda c: options[c][0].bit_count())
            mask, grown_members = options.pop(c)
            stack.append((closed, mem, gen, U | 1 << c, options))
            stack.append((mask, grown_members, gen + [c], U, None))
        F, members = _extend(t, F, members, gens, u)
        gens = gens + [u]
    return _maximal_masks(found, full)


def exhaustive_maximal_oracle(S: SemigroupSet) -> tuple[SemigroupSet, ...]:
    """Every maximal subsemigroup of S, by a branch-and-cut search over closed subsets.

    The survivors of :func:`_maximal_closed_masks` are each re-checked with
    the definitional maximality predicate.  No structure theory is assumed
    anywhere.
    """
    if len(S) > DEFAULT_ORACLE_MAX:
        raise ResourceLimitError(f"|S| = {len(S)} exceeds oracle bound {DEFAULT_ORACLE_MAX}")
    out = []
    for mask in _maximal_closed_masks(S):
        T = SemigroupSet(S.n, S.subset(_mask_indices(mask, len(S))))
        if not is_maximal_subsemigroup(T, S):
            raise InternalConsistencyError("antichain scan kept a non-maximal closed subset")
        out.append(T)
    return tuple(sorted(out, key=lambda T: T.elements))
