"""Rank and minimal generating sets for Q.

For a nontrivial relation the rank is max{2, m}: a generating set must meet
every one of the m H-classes, and the group part needs at most two
generators.  The construction pairs symmetric-part generators with
idempotents and fills the remaining H-classes with the leftover idempotents,
then verifies itself against the closure oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .engine import SemigroupSet, _close_mask, closure
from .errors import ContractError, InternalConsistencyError, ResourceLimitError
from .limits import DEFAULT_BRUTE_FORCE_MAX_Q, DEFAULT_MAX_CLOSURE
from .partition import PartitionedSet
from .qsemigroup import _pattern_element, enumerate_Q, idempotents_Q
from .transformation import Transformation, compose, image


def rank_Q(P: PartitionedSet) -> int:
    """Smallest size of a generating set of Q.

    Nontrivial relation: max{2, m}.  Identity relation: Q is the symmetric
    group on k points, whose rank is 1 for k <= 2 and 2 for k >= 3.  (The
    k <= 2 value counts the single generator of a cyclic group; tests cover
    it exhaustively for n = 2.)
    """
    if P.is_identity_relation:
        return 1 if P.k <= 2 else 2
    return max(2, P.m)


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


@dataclass(frozen=True)
class GeneratingSetReport:
    """A verified minimal generating set together with its construction trace."""

    partition: PartitionedSet
    generators: tuple[Transformation, ...]
    claimed_rank: int
    paired: tuple[tuple[Transformation, Transformation, Transformation], ...]
    leftover: tuple[tuple[Transformation, Transformation], ...]
    verified: bool


def minimal_generating_set(P: PartitionedSet, max_size: int = DEFAULT_MAX_CLOSURE) -> GeneratingSetReport:
    """Construct and oracle-verify a generating set of size rank_Q(P).

    Symmetric-part generators are paired injectively with the least
    idempotents (products g*f); every idempotent outside the pairing joins
    as itself (e*f == f).  When the generators outnumber the idempotents,
    which only happens for the identity relation, the pairing becomes the
    canonical surjection.  The closure oracle must reproduce Q exactly and
    the size must equal rank_Q, otherwise an internal error is raised.
    """
    Q = enumerate_Q(P, max_size)
    idems = idempotents_Q(P, max_size)
    gens_sym = symmetric_part_generators(P)
    base = idems[0]
    paired = []
    leftover = []
    if len(gens_sym) <= len(idems):
        for g, f in zip(gens_sym, idems):
            paired.append((g, f, compose(g, f)))
        for f in idems[len(gens_sym):]:
            leftover.append((f, compose(base, f)))
    else:
        for i, g in enumerate(gens_sym):
            f = idems[i % len(idems)]
            paired.append((g, f, compose(g, f)))
    generators = tuple(sorted({p[2] for p in paired} | {l[1] for l in leftover}))
    claimed = rank_Q(P)
    if len(generators) != claimed:
        raise InternalConsistencyError(
            f"construction produced {len(generators)} generators, rank is {claimed}"
        )
    closed = closure(generators, max_size=max_size)
    if closed.elements != Q.elements:
        raise InternalConsistencyError("constructed generating set does not generate Q")
    return GeneratingSetReport(
        P, generators, claimed, tuple(paired), tuple(leftover), True
    )


def generating_set_hits_every_hclass(gens, P: PartitionedSet, max_size: int = DEFAULT_MAX_CLOSURE) -> bool:
    """Validator: a verified generating set must meet every H-class of Q.

    Precondition: ``gens`` actually generates Q; otherwise a
    :class:`ContractError` is raised.  H-classes are indexed by image
    cross-sections, so the check compares image sets.
    """
    Q = enumerate_Q(P, max_size)
    closed = closure(tuple(gens), max_size=max_size)
    if closed.elements != Q.elements:
        raise ContractError("gens do not generate Q, hit-every-H-class is undefined")
    targets = {image(f) for f in idempotents_Q(P, max_size)}
    return {image(g) for g in gens} == targets


def verify_image_right_invariance(Q: SemigroupSet) -> int:
    """Exhaustively confirm image(a*b) == image(b) over Q; returns pairs checked.

    This is the instance-level fact behind the pigeonhole minimality sweep:
    any product of members keeps the image of its last factor, so a closure
    can only reach H-classes its generators already touch.
    """
    pairs = 0
    for a in Q:
        for b in Q:
            if image(compose(a, b)) != image(b):
                raise InternalConsistencyError("image is not right-invariant on this set")
            pairs += 1
    return pairs


def minimality_certificate(P: PartitionedSet, max_size: int = DEFAULT_MAX_CLOSURE) -> dict:
    """Certify that no (rank - 1)-subset of Q generates Q, for a nontrivial relation.

    Steps: (1) exhaustively verify image right-invariance on Q; (2) note that
    rank - 1 = max{2, m} - 1 < m, so any smaller candidate set touches at
    most m - 1 of the m image classes and its closure misses a whole
    H-class.  Returns the audit numbers; raises on any failed check.
    """
    if P.is_identity_relation:
        raise ContractError("certificate covers nontrivial relations only")
    Q = enumerate_Q(P, max_size)
    pairs = verify_image_right_invariance(Q)
    r = rank_Q(P)
    m = P.m
    if not r - 1 < m:
        raise InternalConsistencyError("pigeonhole premise r - 1 < m failed")
    images_in_Q = {image(a) for a in Q}
    if len(images_in_Q) != m:
        raise InternalConsistencyError(f"Q carries {len(images_in_Q)} image classes, expected {m}")
    return {
        "method": "image-right-invariance + pigeonhole",
        "rank": r,
        "image_classes": m,
        "pairs_checked": pairs,
        "smaller_subsets_possible": False,
    }


def brute_force_no_generating_set_of_size(P: PartitionedSet, size: int, max_q: int = DEFAULT_BRUTE_FORCE_MAX_Q) -> bool:
    """Plain sweep: closure every ``size``-subset of Q, return True when none generates.

    Exponential; intended as an independent cross-check of the certificate
    on very small instances.
    """
    Q = enumerate_Q(P)
    if len(Q) > max_q:
        raise ResourceLimitError(f"|Q| = {len(Q)} exceeds brute-force bound {max_q}")
    table = Q.index_table
    full = (1 << len(Q)) - 1
    for combo in itertools.combinations(range(len(Q)), size):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if _close_mask(table, mask) == full:
            return False
    return True
