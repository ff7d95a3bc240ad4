"""Finite ground sets carrying an equivalence relation, stored as a block partition.

Elements are the integers 0..n-1 internally.  Every external surface (JSON,
the compact ``"1,2,3|4,5|6"`` text form) is 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class PartitionedSet:
    """A set {0..n-1} partitioned into nonempty, pairwise disjoint blocks.

    Block order is significant and caller-controlled; ``block_of[x]`` is the
    index of the block containing x.  Instances are immutable, hashable and
    safe to share across threads.  Use :func:`make_partitioned_set` instead
    of the raw constructor, so the partition axioms are actually checked.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @cached_property
    def m(self) -> int:
        """Product of the block sizes, computed exactly."""
        return math.prod(len(b) for b in self.blocks)

    @property
    def is_identity_relation(self) -> bool:
        """True when every block is a singleton."""
        return all(len(b) == 1 for b in self.blocks)

    def to_spec(self) -> str:
        """Compact 1-based text form, e.g. ``"1,2,3|4,5|6"``."""
        return "|".join(",".join(str(x + 1) for x in b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [[x + 1 for x in b] for b in self.blocks]}


def make_partitioned_set(n: int, blocks: Iterable[Iterable[int]]) -> PartitionedSet:
    """Validate and build a :class:`PartitionedSet`.

    Raises :class:`ValidationError` naming the offending element or block
    when the blocks are empty, overlap, leave elements uncovered, or contain
    out-of-range values.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"ground set size must be a positive integer, got {n!r}")
    norm: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}
    for bi, raw in enumerate(blocks):
        block = tuple(sorted(set(raw)))
        if not block:
            raise ValidationError(f"block {bi} is empty")
        for x in raw:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValidationError(f"block {bi} contains {x!r}, outside 0..{n - 1}")
            if x in owner and owner[x] != bi:
                raise ValidationError(f"element {x} appears in blocks {owner[x]} and {bi}")
            owner[x] = bi
        norm.append(block)
    if not norm:
        raise ValidationError("a partition needs at least one block")
    for x in range(n):
        if x not in owner:
            raise ValidationError(f"element {x} is not covered by any block")
    # Canonical form: blocks ordered by least element, so two descriptions
    # of the same partition compare and hash equal.
    norm.sort(key=lambda b: b[0])
    block_of_list = [0] * n
    for bi, block in enumerate(norm):
        for x in block:
            block_of_list[x] = bi
    return PartitionedSet(n, tuple(norm), tuple(block_of_list))


def identity_partition(n: int) -> PartitionedSet:
    """All blocks singletons: the identity relation on n points."""
    return make_partitioned_set(n, [(x,) for x in range(n)])


def universal_partition(n: int) -> PartitionedSet:
    """One block holding everything: the universal relation on n points."""
    return make_partitioned_set(n, [tuple(range(n))])


def partition_from_sizes(sizes: Sequence[int]) -> PartitionedSet:
    """Blocks of the given sizes over consecutive elements, e.g. (3, 2, 1)."""
    if not sizes:
        raise ValidationError("need at least one block size")
    blocks = []
    start = 0
    for s in sizes:
        if not isinstance(s, int) or s < 1:
            raise ValidationError(f"block sizes must be positive integers, got {s!r}")
        blocks.append(tuple(range(start, start + s)))
        start += s
    return make_partitioned_set(start, blocks)


def partition_from_spec(text: str) -> PartitionedSet:
    """Parse the 1-based ``"1,2,3|4,5|6"`` form."""
    if not text or not text.strip():
        raise ValidationError("empty partition text")
    blocks = []
    for part in text.split("|"):
        items = [p.strip() for p in part.split(",")]
        block = []
        for item in items:
            if not item:
                raise ValidationError(f"empty entry in block {part!r}")
            try:
                v = int(item)
            except ValueError:
                raise ValidationError(f"non-integer entry {item!r} in partition text") from None
            if v < 1:
                raise ValidationError(f"entries are 1-based, got {v}")
            block.append(v - 1)
        blocks.append(block)
    # Re-raise validation failures in the 1-based coordinates the caller used.
    for bi, block in enumerate(blocks):
        if len(set(block)) != len(block):
            dup = next(v for v in block if block.count(v) > 1)
            raise ValidationError(f"element {dup + 1} appears twice in block {bi + 1}")
    owner: dict[int, int] = {}
    for bi, block in enumerate(blocks):
        for v in block:
            if v in owner:
                raise ValidationError(
                    f"element {v + 1} appears in blocks {owner[v] + 1} and {bi + 1}"
                )
            owner[v] = bi
    # Scan for the first gap, not over range(n): a huge entry allocates nothing.
    missing = next(v for v in range(len(owner) + 1) if v not in owner)
    n = max(owner) + 1
    if missing < n:
        raise ValidationError(f"element {missing + 1} is not covered by any block")
    return make_partitioned_set(n, blocks)


def partition_from_json(obj: dict) -> PartitionedSet:
    """Parse the JSON form ``{"n": 6, "blocks": [[1,2,3],[4,5],[6]]}`` (1-based)."""
    if not isinstance(obj, dict) or "n" not in obj or "blocks" not in obj:
        raise ValidationError("partition JSON needs 'n' and 'blocks' keys")
    n = obj["n"]
    if not isinstance(n, int):
        raise ValidationError(f"'n' must be an integer, got {n!r}")
    blocks = []
    for raw in obj["blocks"]:
        block = []
        for v in raw:
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"block entries are 1-based integers, got {v!r}")
            block.append(v - 1)
        blocks.append(block)
    return make_partitioned_set(n, blocks)


def is_cross_section(P: PartitionedSet, elems: Iterable[int]) -> bool:
    """True when ``elems`` holds exactly one element of every block of P."""
    counts = [0] * P.k
    for x in elems:
        if not isinstance(x, int) or not 0 <= x < P.n:
            raise ValidationError(f"element {x!r} outside 0..{P.n - 1}")
        counts[P.block_of[x]] += 1
    return all(c == 1 for c in counts)
