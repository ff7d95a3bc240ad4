"""Enumerating Q and seeing its right-group shape.

Q always has exactly k! * m elements: pick a permutation pattern on the
k blocks, then pick one target point inside each block.  The idempotents
are the m pattern-identity members, they multiply as a right-zero band
(f * g = g), and Q splits into m groups of size k! glued along them.
"""

from qstar import (
    cardinality_Q,
    compose,
    decompose,
    enumerate_Q,
    h_class,
    idempotents_Q,
    is_right_group,
    partition_from_spec,
    q_shorthand,
)

P = partition_from_spec("1,2,3|4,5|6")
Q = enumerate_Q(P)
print("|Q| =", len(Q), "= 3! * 6 =", cardinality_Q(P))
print("right group:", is_right_group(Q))
print()

idems = idempotents_Q(P)
print("the", len(idems), "idempotents (block shorthand):")
for f in idems:
    print("  ", q_shorthand(P, f))
print("right-zero law, e.g. first * last =", q_shorthand(P, compose(idems[0], idems[-1])))
print()

G = h_class(idems[0], P)
print("one maximal subgroup (an H-class):", [q_shorthand(P, a) for a in G.elements])
print("its order:", G.order, "-- a copy of the symmetric group on the 3 blocks")
print()

dec = decompose(P)
print("decomposition: group part", len(dec.group_part), "x", len(dec.idempotent_part), "idempotents")
sample = list(Q)[17]
i, j = dec.coordinates(sample)
a, f = dec.group_part[i], dec.idempotent_part[j]
print("coordinates of", q_shorthand(P, sample), "=", q_shorthand(P, a), "*", q_shorthand(P, f))
assert dec.element(i, j) == compose(a, f) == sample
