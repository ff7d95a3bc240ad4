"""When are two of these semigroups the same?

Q(P1) and Q(P2) are isomorphic exactly when the block count k and the
block-size product m agree; nothing else about the shapes matters.  The
package both decides this from the key (k, m) and, for a positive
answer, builds and verifies an explicit isomorphism.

The census groups all set partitions of a ground size n by that key.
"""

from qstar import (
    build_isomorphism,
    classify_partitions,
    partition_from_sizes,
    q_isomorphic,
)

P1 = partition_from_sizes((2, 2))  # 4 points in two pairs
P2 = partition_from_sizes((4, 1))  # 5 points, one big block and a singleton
print("block sizes (2,2) vs (4,1): k = 2 both, m = 4 both")
print("isomorphic:", q_isomorphic(P1, P2))
iso = build_isomorphism(P1, P2)
print("explicit isomorphism verified on", iso["pairs_checked"], "pairs: one element per block pattern times each rank generator")
print()

for n in (3, 6):
    classes = classify_partitions(n)
    print(f"census of ground size {n}: {len(classes)} classes")
    for key, shapes in classes.items():
        print(f"  k={key.k} m={key.m}  |Q|={key.cardinality:>4}  shapes: {list(shapes)}")
    print()

print("a coincidence needs different shapes with equal k and m;")
print("the smallest ground sets with one are 4 and 5, as above")
