"""Rank: the fewest generators Q admits.

For a nontrivial relation the rank is max(2, m).  Two elements with
symmetric-group patterns handle the k! patterns; every one of the m
image choices must be hit by its own generator because images only ever
shrink rightward (image(a*b) = image(b) inside Q), so m generators are
forced once m >= 2.

This demo also replays the audit of a tempting wrong answer: taking all
idempotents but the base one plus a single transposition-patterned
element.  Its closure stalls at a proper subsemigroup.
"""

from qstar import (
    block_permutation,
    closure,
    enumerate_Q,
    idempotents_Q,
    minimal_generating_set,
    partition_from_spec,
    q_shorthand,
    rank_Q,
    symmetric_part_generators,
)

P = partition_from_spec("1,2,3|4,5|6")
print("rank =", rank_Q(P), "= max(2, m) with m =", P.m)

report = minimal_generating_set(P)
print("verified minimal generating set:")
for g in report.generators:
    print("  ", q_shorthand(P, g), " pattern", block_permutation(P, g))
print()

gens = symmetric_part_generators(P)
print("symmetric-part generators:", [q_shorthand(P, g) for g in gens])
print("their closure is one maximal subgroup:", len(closure(gens)), "elements")
print()

# The tempting but wrong candidate.
idems = idempotents_Q(P)
candidate = list(idems[1:]) + [gens[0]]
closed = closure(candidate)
print("candidate: 5 idempotents + 1 transposition element ->", len(candidate), "maps")
print("closure size:", len(closed), "of", len(enumerate_Q(P)))
patterns = sorted({block_permutation(P, a) for a in closed})
print("block patterns reached:", patterns)
print("only", len(patterns), "of 6 patterns are reachable, so it cannot generate")
