"""Rank and minimal generating sets for Q.

For a nontrivial relation the rank is max{2, m} (``formulas.rank_Q``): a
generating set must meet every one of the m H-classes, and the group part
needs at most two generators.  The construction (``qsemigroup.rank_pairing``) pairs
symmetric-part generators with idempotents and fills the remaining H-classes
with the leftover idempotents; ``prove_Q``'s closure proof verifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import SemigroupSet, _extend
from .errors import ContractError, InternalConsistencyError
from .formulas import cardinality_Q, rank_Q
from .limits import DEFAULT_BRUTE_FORCE_MAX_Q, admit
from .partition import PartitionedSet
from .qsemigroup import enumerate_Q, idempotents_Q, prove_Q
from .transformation import Transformation, image


@dataclass(frozen=True)
class GeneratingSetReport:
    """A verified minimal generating set together with its construction trace."""

    partition: PartitionedSet
    generators: tuple[Transformation, ...]
    claimed_rank: int
    paired: tuple[tuple[Transformation, Transformation, Transformation], ...]
    leftover: tuple[tuple[Transformation, Transformation], ...]
    verified: bool


def minimal_generating_set(P: PartitionedSet) -> GeneratingSetReport:
    """R with its ``rank_pairing`` trace, as ``prove_Q``'s closure proof kept them in
    P's record; its size must equal rank_Q, else an internal error is raised.
    Q's elements are not wrapped as maps for this."""
    pairing = prove_Q(P).pairing
    claimed = rank_Q(P)
    if len(pairing.generators) != claimed:
        raise InternalConsistencyError(f"construction produced {len(pairing.generators)} generators, rank is {claimed}")
    return GeneratingSetReport(P, pairing.generators, claimed, pairing.paired, pairing.leftover, True)


def _hits_every_hclass(gens, P: PartitionedSet) -> bool:
    """True when ``gens``, known to generate Q, meet every H-class of Q.

    H-classes are indexed by image cross-sections, so this compares image sets.
    """
    targets = {image(f) for f in idempotents_Q(P)}
    return {image(g) for g in gens} == targets


def verify_image_right_invariance(P: PartitionedSet, Q: SemigroupSet, gens) -> int:
    """Confirm image(s*g) == image(g) for every s in Q and g in ``gens``, maps constant on P's
    blocks; returns the pairs checked.

    image(s*g) is g's image of image(s), which for such g reads image(s) only through the blocks
    it meets.  So Q's distinct images are grouped by those blocks, and each g is checked on one
    image per group, with no product: one group when every image is a cross-section, and an
    image that is not one meets fewer than k blocks and fails in a group of its own.  For
    ``gens`` generating Q it holds on all of Q by induction on b = b'*g: image(s*b) = image(b).
    This is the instance-level fact behind the pigeonhole minimality sweep: any product of
    members keeps the image of its last factor, so a closure can only reach H-classes its
    generators already touch.
    """
    targets = [(g.images, image(g)) for g in gens]
    by_blocks = {frozenset(map(P.block_of.__getitem__, points)): points for points in set(map(image, Q))}
    for points in by_blocks.values():
        if any({g[x] for x in points} != target for g, target in targets):
            raise InternalConsistencyError("image is not right-invariant on this set")
    return len(by_blocks) * len(targets)


def minimality_certificate(P: PartitionedSet) -> dict:
    """Certify that no (rank - 1)-subset of Q generates Q, for a nontrivial relation.

    Steps: (1) verify image right-invariance on Q against the set R of
    ``prove_Q(P).pairing``, which generates Q and lies in Q, so is constant
    on blocks: |Q| image reads and |R| checks, one per g on a cross-section;
    (2) note that rank - 1 = max{2, m} - 1 < m, so any smaller candidate set
    touches at most m - 1 of the m image classes and its closure misses a
    whole H-class.  Returns the audit numbers; raises on any failed check,
    and ResourceLimitError past :func:`enumerate_Q`'s bounds.
    """
    if P.is_identity_relation:
        raise ContractError("certificate covers nontrivial relations only")
    Q = enumerate_Q(P)
    pairs = verify_image_right_invariance(P, Q, prove_Q(P).pairing.generators)
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


def brute_force_no_generating_set_of_size(P: PartitionedSet, size: int) -> bool:
    """True when no ``size``-subset of Q generates Q, by a search over closed sets.

    Uses Q's product table and nothing else, as an independent cross-check
    of the certificate on small instances.
    """
    if size < 0:
        raise ContractError(f"size must be >= 0, got {size}")
    admit("|Q| =", cardinality_Q(P), DEFAULT_BRUTE_FORCE_MAX_Q, "brute-force bound ")
    return _no_generating_set_by_levels(enumerate_Q(P).index_table, size)


def _no_generating_set_by_levels(table, size: int) -> bool:
    """Level search: level 0 is the empty set, and level j holds the closure
    of C plus x for every C in level j - 1 and every x outside C.

    Since <S + x> = <<S> + x>, every set in level j is the closure of a
    j-subset, and the closure of a j-subset lies in some level up to j
    (skip the elements its closure already holds).  A generating set can be
    padded with any other elements, so for ``size`` <= |Q| some
    ``size``-subset generates exactly when the full set appears at a level
    up to ``size``; it has no outside element, so it drops out of later
    levels.  Each closed set keeps one generator chain for ``_extend``.
    """
    if size > len(table):
        return True
    full = (1 << len(table)) - 1
    level = {0: ([], [])}
    for _ in range(size):
        nxt = {}
        for closed, (members, gens) in level.items():
            for x in range(len(table)):
                if (closed >> x) & 1:
                    continue
                mask, grown = _extend(table, closed, members, gens, x)
                if mask == full:
                    return False
                if mask not in nxt:
                    nxt[mask] = (grown, gens + [x])
        level = nxt
    return True
