"""Maximal subsemigroups of Q.

For m >= 2 every maximal subsemigroup is one of two shapes in the
right-group coordinates (group part) x (idempotents) of ``decompose``:
H x E(Q) for a maximal subgroup H of the group part, or
(group part) x (E(Q) minus one idempotent).
That yields s_k + m of them, where s_k counts the maximal subgroups of the
symmetric group S_k; the construction proves its group part isomorphic to
S_k on the block patterns and counts there with ``maximal_subgroups``, and
:func:`count_maximal` counts again, for the oracle battery, on an S_k built
from scratch and by the other search: the exhaustive oracle's.  That oracle
searches the closed subsets of Q by branch and cut, with no theory, for the
maximal ones, so the construction can be checked set-for-set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

from .engine import SemigroupSet, _extend, _mask_indices, _maximal_masks
from .engine import is_maximal_subsemigroup, maximal_subgroups, symmetric_group_table
from .errors import InternalConsistencyError, ResourceLimitError, UnsupportedCaseError
from .limits import DEFAULT_MAX_CLOSED_SETS, DEFAULT_MAX_CLOSURE, DEFAULT_ORACLE_MAX, DEFAULT_VERIFY_MAX
from .limits import MAX_GROUP_ORDER, MAX_LISTED_CELLS, admit
from .partition import PartitionedSet
from .qsemigroup import RightGroupDecomposition, decompose, enumerate_Q, generates, prove_Q
from .transformation import Transformation, product_map

# Sum of |H| over the maximal subgroups H of S_k, for k = 0..7: A_k's k!/2 (k >= 2), and k! for
# each class of the others, which are not normal, so each is its own normalizer and its class
# has k!/|H| members.  The table covers every k that MAX_GROUP_ORDER admits: S_8 has order 40,320.
MAXIMAL_SUBGROUP_CELLS = (0, 0, 1, 9, 60, 420, 3960, 22680)


@dataclass(frozen=True)
class MaximalSubsemigroupReport:
    """All maximal subsemigroups of Q, with their construction data."""

    partition: PartitionedSet
    group_type: tuple[SemigroupSet, ...]
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


def _require_right_group(P: PartitionedSet) -> None:
    if P.m < 2:
        raise UnsupportedCaseError(
            "E is the identity relation, Q is a group; ask for maximal subgroups "
            "of the symmetric group on k points instead"
        )


def count_maximal(P: PartitionedSet) -> tuple[int, int, int]:
    """(s_k, m, s_k + m) for m >= 2: the oracle battery's count.  s_k is counted on a freshly built
    symmetric group table, under ``MAX_GROUP_ORDER``, by :func:`_maximal_closed_masks`, not by
    the construction's ``maximal_subgroups``: in a finite group the nonempty closed subsets are the
    subgroups, so the maximal proper ones are the maximal subgroups."""
    _require_right_group(P)
    s_k = len(_maximal_closed_masks(symmetric_group_table(P.k).elements))
    return (s_k, P.m, s_k + P.m)


def _check_symmetric(dec: RightGroupDecomposition, gens) -> None:
    """Prove the group part G isomorphic to S_k: the block patterns are the k! permutations, each
    once; the symmetric-part generators ``gens`` generate G; and for every a in G and generator g,
    a*g, looked up in ``dec.index``, lies in G with pattern(a*g) == pattern(a)*pattern(g), so by
    induction on b = b'*g on all |G|^2 pairs, as in ``build_isomorphism``."""
    P, G, patterns, index = dec.partition, dec.group_part, dec.patterns, dec.index
    if sorted(patterns) != list(itertools.permutations(range(P.k))):  # permutations() is in lex order
        raise InternalConsistencyError("block patterns are not the symmetric group, each once")
    if not generates(P, gens, G):
        raise InternalConsistencyError("symmetric part does not generate the group part")
    for g in gens:
        pattern_g = patterns[index[g.images][0]]
        for a, p in zip(G, patterns):
            i, j = index[product_map(a.images)(g.images)]
            if j or patterns[i] != product_map(p)(pattern_g):
                raise InternalConsistencyError("block pattern map is not multiplicative")


def maximal_subsemigroups_Q(P: PartitionedSet) -> MaximalSubsemigroupReport:
    """Construct every maximal subsemigroup of Q (m >= 2).

    Group type: (maximal subgroup of the base H-class) paired with all idempotents.  Right-zero
    type: the whole group part paired with all but one idempotent.  The group part is proved
    isomorphic to S_k on its block patterns, so s_k is the number of its maximal subgroups,
    searched on the one table built here, of order k! <= ``MAX_GROUP_ORDER``.  Each set is checked
    for maximality against the definitional engine predicate when |Q| <= ``DEFAULT_VERIFY_MAX``.
    The sets hold m*|H| elements for each H and k!*m*(m - 1) in the m right-zero ones, admitted
    under ``MAX_LISTED_CELLS`` before anything is built, with the sum of |H| from
    ``MAXIMAL_SUBGROUP_CELLS``; k past that table (k! > ``MAX_GROUP_ORDER``) counts the right-zero
    cells alone, and the group-order bound refuses it.
    """
    _require_right_group(P)
    k_factorial, m = math.factorial(P.k), P.m
    subgroup_cells = MAXIMAL_SUBGROUP_CELLS[P.k] if P.k < len(MAXIMAL_SUBGROUP_CELLS) else 0
    admit("listed cells", m * subgroup_cells + k_factorial * m * (m - 1), MAX_LISTED_CELLS, "MAX_LISTED_CELLS=")
    # k! is refused before decompose builds Q, and after decompose's first bound, m, so that an
    # input past several bounds still names them in the CLI's order m, k!, |Q|.
    admit("idempotent count", m, DEFAULT_MAX_CLOSURE, "DEFAULT_MAX_CLOSURE=")
    admit("H-class order", k_factorial, MAX_GROUP_ORDER, "MAX_GROUP_ORDER=")
    dec = decompose(P)
    Q = enumerate_Q(P)
    G = dec.group_part
    # The symmetric-part generators are the first column of the trace that proved Q.
    _check_symmetric(dec, [g for g, *_ in prove_Q(P).pairing.paired])

    # decompose certified that its grid holds every element of Q once, so
    # these families have |H|*m and k!*(m-1) distinct members.
    def family(cells) -> SemigroupSet:
        return SemigroupSet(P.n, tuple(sorted((dec.element(i, j) for i, j in cells), key=attrgetter("images"))))

    subgroups = sorted(maximal_subgroups(SemigroupSet(P.n, G)))
    if sum(map(len, subgroups)) != subgroup_cells:
        raise InternalConsistencyError("maximal subgroups of the group part differ in size from S_k's")
    group_type = [family((i, j) for i in H for j in range(m)) for H in subgroups]
    right_zero = [family((i, j) for i in range(len(G)) for j in range(m) if j != omitted) for omitted in range(m)]
    verified = len(Q) <= DEFAULT_VERIFY_MAX
    if verified and not all(is_maximal_subsemigroup(T, Q) for T in group_type + right_zero):
        raise InternalConsistencyError("constructed set fails the maximality oracle")
    return MaximalSubsemigroupReport(P, tuple(group_type), tuple(right_zero), dec.idempotent_part, len(group_type), m, verified)


def _maximal_closed_masks(S: SemigroupSet) -> list[int]:
    """Masks of the maximal proper nonempty closed subsets of S, by branch and cut.

    A maximal M with least missing element u holds F = <0..u-1> and misses
    U = {u}.  Each state keeps closed F inside M and U outside it: a free
    element whose closure with F meets U is forbidden, and the option with the
    largest closure joins F in one branch and is forbidden in the other.  A
    state with no options records F = S - U; one whose room S - U lies in a
    record is cut.  When F grows, a free c inside a closure <F + c'> already
    computed is not closed: <F + c'> bounds <F + c>, and c is closed (stop U)
    only once its bound meets U.  It never wins the choice while open, as c' is
    open, comes first and is as large.  So every maximal M is recorded (after
    Donoven, Mitchell & Wilson's one-generator idea), and :func:`_maximal_masks`
    keeps those.
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
            if options is None:  # F grew: close it with each free element not yet inside a closure
                options, covered = {}, 0
                for c in range(size):
                    if ((closed | U) >> c) & 1:
                        continue
                    if (covered >> c) & 1:  # <F + c> lies in that closure: keep it as c's bound
                        options[c] = (next(m for m, _ in options.values() if (m >> c) & 1), None)
                        continue
                    grown = _extend(t, closed, mem, gen, c, U)
                    if isinstance(grown, int):
                        U |= 1 << c
                    else:
                        options[c] = grown
                        covered |= grown[0]
            else:  # one pass: each c forbidden here has a closure that meets the old U
                for c, (mask, members_c) in list(options.items()):
                    if mask & U and members_c is None:  # a bound that meets U decides nothing: close c
                        grown = _extend(t, closed, mem, gen, c, U)
                        if not isinstance(grown, int):
                            options[c] = grown
                            continue
                    if mask & U:
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
    admit("|S| =", len(S), DEFAULT_ORACLE_MAX, "oracle bound ")
    out = []
    for mask in _maximal_closed_masks(S):
        T = SemigroupSet(S.n, S.subset(_mask_indices(mask, len(S))))
        if not is_maximal_subsemigroup(T, S):
            raise InternalConsistencyError("antichain scan kept a non-maximal closed subset")
        out.append(T)
    return tuple(sorted(out, key=lambda T: T.elements))
