"""Membership predicates for the equivalence-preserving map families.

For a partitioned set (X, E) with blocks A_1..A_k these decide, for a total
map a on X:

* ``in_TE``      membership in T_E(X): related points have related images,
* ``in_TEstar``  membership in T_{E*}(X): related points if and only if
                 related images,
* ``in_Q``       membership in Q_{E*}(X): every block collapses to a single
                 point and the image meets every block.  The construction's
                 proof tests Q at once with ``qsemigroup.all_in_Q``.
"""

from __future__ import annotations

from .errors import ContractError, InternalConsistencyError
from .partition import PartitionedSet, check_degree, is_cross_section
from .transformation import Transformation, compose, product_map


def in_TE(P: PartitionedSet, a: Transformation) -> bool:
    """True when each block of P maps into a single block."""
    check_degree(P, a)
    block_of = P.block_of
    imgs = a.images
    for block in P.blocks:
        first = block_of[imgs[block[0]]]
        if any(block_of[imgs[x]] != first for x in block):
            return False
    return True


def in_TEstar(P: PartitionedSet, a: Transformation) -> bool:
    """True when a preserves E in both directions.

    Fast form, in one pass and without :func:`in_TE`: the (block, image block)
    pairs number k, so each block maps into one block, and so do their image
    blocks, so distinct blocks map into distinct blocks.  Equivalence with the
    quantified definition is covered by :func:`in_TEstar_pairwise`.
    """
    check_degree(P, a)
    block_of = P.block_of
    pairs = set(zip(block_of, map(block_of.__getitem__, a.images)))
    return len(pairs) == P.k == len({target for _, target in pairs})


def in_TEstar_pairwise(P: PartitionedSet, a: Transformation) -> bool:
    """Quantified O(n^2) oracle: for all x, y, (x,y) in E iff (xa, ya) in E."""
    check_degree(P, a)
    block_of = P.block_of
    imgs = a.images
    for x in range(P.n):
        for y in range(x + 1, P.n):
            if (block_of[x] == block_of[y]) != (block_of[imgs[x]] == block_of[imgs[y]]):
                return False
    return True


def in_Q(P: PartitionedSet, a: Transformation) -> bool:
    """True when every block collapses to one point and the image meets every block.

    The collapse is one comparison: the block heads' images, spread back
    over the points by ``block_of``, must be the map's images.

    These two conditions force the induced block map to be a bijection, so
    members automatically lie in T_{E*}(X); the cross-section postcondition
    is re-checked defensively.
    """
    check_degree(P, a)
    imgs, block_of = a.images, P.block_of
    points = [imgs[block[0]] for block in P.blocks]
    if product_map(block_of)(points) != imgs or len(set(map(block_of.__getitem__, points))) != P.k:
        return False
    if not is_cross_section(P, points):
        raise InternalConsistencyError("accepted map whose image is not a cross-section")
    return True


def is_idempotent_Q(P: PartitionedSet, a: Transformation) -> bool:
    """For a member of Q: true iff each block maps into itself.

    Cross-checked against the definitional test a*a == a; a disagreement is
    an internal error.  Raises :class:`ContractError` when a is not in Q.
    """
    if not in_Q(P, a):
        raise ContractError("is_idempotent_Q needs a member of Q")
    block_of, imgs = P.block_of, a.images
    blockwise = all(block_of[imgs[block[0]]] == bi for bi, block in enumerate(P.blocks))
    definitional = compose(a, a) == a
    if blockwise != definitional:
        raise InternalConsistencyError("blockwise idempotence test disagrees with a*a == a")
    return definitional


def is_regular_element(a: Transformation, S) -> bool:
    """True when some b in S satisfies a*b*a == a.  Requires a in S."""
    if a not in S:
        raise ContractError("is_regular_element needs a to be a member of S")
    return any(compose(compose(a, b), a) == a for b in S)
