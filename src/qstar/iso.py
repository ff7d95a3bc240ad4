"""Explicit isomorphisms between the semigroups Q.

Two instances are isomorphic exactly when they share the block count k and
the block-size product m (:mod:`qstar.formulas`).  ``build_isomorphism``
realizes the bijection explicitly in the right-group coordinates of
``decompose``, sending (i, j) to (psi(i), j) where psi conjugates block
patterns by a block bijection, and checks it on the rank-size generating
set R of Q(P1), one element per block pattern, so a positive answer is
always certified.
"""

from __future__ import annotations

from .errors import ContractError, InternalConsistencyError
from .formulas import q_isomorphic
from .partition import PartitionedSet
from .qsemigroup import admit_Q, decompose, enumerate_Q, prove_Q
from .transformation import product_map


def build_isomorphism(P1: PartitionedSet, P2: PartitionedSet) -> dict:
    """An explicit isomorphism Q(P1) -> Q(P2) as a mapping of elements.

    Group parts are matched through the block bijection that pairs blocks
    sorted by size then index; idempotent parts are matched in canonical
    order.  The map phi is checked to be a bijection and, on image tuples,
    to satisfy phi(s*g) == phi(s)*phi(g) for every s in Q(P1) and g in the
    set R of ``prove_Q(P1).pairing``, which :func:`enumerate_Q` proved
    generates Q(P1).  By induction on b = b'*g, phi(s*b) = phi(s*b')*phi(g) =
    phi(s)*phi(b')*phi(g) = phi(s)*phi(b), so phi is a homomorphism on all
    |Q|^2 pairs, and no product table is built.  The pairs (s, g) are checked
    for one s per block pattern of P1, k! of them, after each phi(s) is
    checked to have the P2 block pattern of its class's first member: then
    s*g reads s, and phi(s)*phi(g) reads phi(s), only through those
    patterns, as g and phi(g) are members of Q, constant on blocks.  That is
    |Q| translations and k!*|R| pairs.  Raises :class:`ContractError` when
    the instances are not isomorphic, and :class:`ResourceLimitError`, before
    anything is built, past :func:`admit_Q`'s bounds on either side.
    """
    if not q_isomorphic(P1, P2):
        raise ContractError(f"not isomorphic: keys (k={P1.k}, m={P1.m}) vs (k={P2.k}, m={P2.m})")
    admit_Q(P1)
    admit_Q(P2)
    dec1 = decompose(P1)
    dec2 = decompose(P2)
    k = P1.k

    order1 = sorted(range(k), key=lambda i: (len(P1.blocks[i]), i))
    order2 = sorted(range(k), key=lambda i: (len(P2.blocks[i]), i))
    beta = [b for _, b in sorted(zip(order1, order2))]  # block index of P1 -> block index of P2
    beta_inv = sorted(range(k), key=beta.__getitem__)

    # Group element i, of pattern sigma, goes to the target group element of
    # pattern beta . sigma . beta^{-1}; idempotent j goes to idempotent j.
    target = {p: i for i, p in enumerate(dec2.patterns)}
    psi = [target[tuple(beta[sigma[beta_inv[b]]] for b in range(k))] for sigma in dec1.patterns]

    mapping = {}
    for q in enumerate_Q(P1):
        i, j = dec1.coordinates(q)
        mapping[q] = dec2.element(psi[i], j)

    values = set(mapping.values())
    if len(values) != len(mapping):
        raise InternalConsistencyError("constructed map is not injective")
    if values != set(enumerate_Q(P2).elements):
        raise InternalConsistencyError("constructed map is not onto Q(P2)")
    phi = {q.images: v.images for q, v in mapping.items()}
    classes = {}  # P1 block pattern -> (s, phi(s), phi(s)'s P2 block pattern) of its first member
    blocks1, blocks2 = bytes(P1.block_of) + bytes(256 - P1.n), bytes(P2.block_of) + bytes(256 - P2.n)
    for s, t in phi.items():
        pattern = bytes(t).translate(blocks2)
        if classes.setdefault(bytes(s).translate(blocks1), (s, t, pattern))[2] != pattern:
            raise InternalConsistencyError("constructed map is not multiplicative")
    gens = [g.images for g in prove_Q(P1).pairing.generators]
    phi_gens = [phi[g] for g in gens]
    for s, t, _ in classes.values():
        products = zip(map(product_map(s), gens), map(product_map(t), phi_gens))
        if any(phi[sg] != image for sg, image in products):  # phi(s*g) vs phi(s)*phi(g)
            raise InternalConsistencyError("constructed map is not multiplicative")
    return {
        "mapping": mapping,
        "block_bijection": tuple(beta),
        "verified": True,
        "pairs_checked": len(classes) * len(gens),
        "exhaustive": True,
    }
