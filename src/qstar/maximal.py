"""Maximal subsemigroups of Q.

For m >= 2 every maximal subsemigroup is one of two shapes under the
pairing coordinates (group part) x (idempotents): H x E(Q) for a maximal
subgroup H of the group part, or (group part) x (E(Q) minus one idempotent).
That yields s_k + m of them, where s_k counts the maximal subgroups of the
symmetric group on k points.  The exhaustive oracle enumerates every closed
subset instead and extracts the maximal ones, so the construction can be
checked set-for-set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    SemigroupSet,
    _mask_indices,
    all_closed_subsets,
    is_maximal_subsemigroup,
    maximal_subgroups,
    symmetric_group_table,
)
from .errors import (
    InternalConsistencyError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .limits import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER, DEFAULT_ORACLE_MAX, DEFAULT_VERIFY_MAX
from .partition import PartitionedSet
from .qsemigroup import decompose, enumerate_Q
from .transformation import Transformation, compose


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
    s_k = len(maximal_subgroups(symmetric_group_table(P.k, max_order=max_group_order)))
    return (s_k, P.m, s_k + P.m)


def maximal_subsemigroups_Q(
    P: PartitionedSet,
    max_size: int = DEFAULT_MAX_CLOSURE,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    verify_max: int = DEFAULT_VERIFY_MAX,
) -> MaximalSubsemigroupReport:
    """Construct every maximal subsemigroup of Q (m >= 2).

    Group type: (maximal subgroup of the base H-class) paired with all
    idempotents.  Right-zero type: the whole group part paired with all but
    one idempotent.  Each set is checked for maximality against the
    definitional engine predicate when |Q| <= ``verify_max``, and the
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
    idems = dec.idempotent_part

    subgroup_sets = [G.subset_elements(idxs) for idxs in maximal_subgroups(G, max_order=max_group_order)]
    subgroup_sets.sort()
    group_type = []
    for H in subgroup_sets:
        elems = {compose(a, f) for a in H for f in idems}
        if len(elems) != len(H) * len(idems):
            raise InternalConsistencyError("group-type pairing collapsed; expected |H|*m elements")
        group_type.append(SemigroupSet(P.n, tuple(sorted(elems)), None))

    right_zero = []
    for f in idems:
        elems = {compose(a, g) for a in G.elements for g in idems if g != f}
        if len(elems) != G.order * (len(idems) - 1):
            raise InternalConsistencyError("right-zero pairing collapsed; expected k!*(m-1) elements")
        right_zero.append(SemigroupSet(P.n, tuple(sorted(elems)), None))

    s_k, m, _total = count_maximal(P, max_group_order)
    if len(group_type) != s_k:
        raise InternalConsistencyError(
            f"H-class has {len(group_type)} maximal subgroups, fresh symmetric group has {s_k}"
        )
    verified = False
    if len(Q) <= verify_max:
        for T in group_type + right_zero:
            if not is_maximal_subsemigroup(T, Q):
                raise InternalConsistencyError("constructed set fails the maximality oracle")
        verified = True
    return MaximalSubsemigroupReport(
        P,
        tuple(group_type),
        tuple(subgroup_sets),
        tuple(right_zero),
        idems,
        s_k,
        m,
        verified,
    )


def exhaustive_maximal_oracle(S: SemigroupSet, max_size: int = DEFAULT_ORACLE_MAX) -> tuple[SemigroupSet, ...]:
    """Every maximal subsemigroup of S by complete closed-subset enumeration.

    Next-closure lists all closed subsets; a size-descending antichain scan
    keeps the inclusion-maximal proper nonempty ones, and each survivor is
    re-checked with the definitional maximality predicate.  No structure
    theory is assumed anywhere.
    """
    if len(S) > max_size:
        raise ResourceLimitError(f"|S| = {len(S)} exceeds oracle bound {max_size}")
    size = len(S)
    full = (1 << size) - 1
    proper = [mask for mask in all_closed_subsets(S) if mask not in (0, full)]
    proper.sort(key=lambda mask: (-bin(mask).count("1"), mask))
    maximal_masks = []
    for mask in proper:
        if any(mask | kept == kept for kept in maximal_masks):
            continue
        maximal_masks.append(mask)
    out = []
    for mask in maximal_masks:
        T = SemigroupSet(S.n, S.subset(_mask_indices(mask, size)), None)
        if not is_maximal_subsemigroup(T, S):
            raise InternalConsistencyError("antichain scan kept a non-maximal closed subset")
        out.append(T)
    return tuple(sorted(out, key=lambda T: T.elements))
