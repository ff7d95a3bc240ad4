"""Finite ground sets carrying an equivalence relation, stored as a block partition.

Elements are the integers 0..n-1 internally.  Every external surface (JSON,
the compact ``"1,2,3|4,5|6"`` text form) is 1-based.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError


class _PartitionedSetFields(NamedTuple):
    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]


class PartitionedSet(_PartitionedSetFields):
    """A set {0..n-1} partitioned into nonempty, pairwise disjoint blocks.

    Block order is significant and caller-controlled; ``block_of[x]`` is the
    index of the block containing x.  Instances are immutable, hashable and
    safe to share across threads: a tuple ``(n, blocks, block_of)`` whose
    instance dict holds only the cached ``m``.  Use
    :func:`make_partitioned_set` instead of the raw constructor, so the
    partition axioms are actually checked.
    """

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @property
    def m(self) -> int:
        """Product of the block sizes, computed once into the instance dict; read-only, with no setter."""
        cache = vars(self)
        if "m" not in cache:
            cache["m"] = math.prod(len(b) for b in self.blocks)
        return cache["m"]

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
    when the blocks are empty, repeat or share an element, leave elements
    uncovered, or contain out-of-range values.
    """
    return _partition(n, blocks, 0)


def _partition(n: int, blocks: Iterable[Iterable[int]], base: int) -> PartitionedSet:
    """Check 0-based ``blocks`` of {0..n-1} and build: the one partition validator.

    Checks, in order: n, out-of-range entries and empty blocks, a point
    repeated in a block, a point in two blocks, the first uncovered point.
    Errors add ``base`` to each point and block they name, so every input
    form reports in its caller's coordinates.  A valid input costs set sizes
    and one union; an offender is searched for only after a check fails.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"ground set size must be a positive integer, got {n!r}")
    blocks = [tuple(raw) for raw in blocks]
    if not blocks:
        raise ValidationError("a partition needs at least one block")
    for bi, block in enumerate(blocks, base):
        if not block:
            raise ValidationError(f"block {bi} is empty")
        for x in block:
            if not isinstance(x, int) or not 0 <= x < n:
                shown = x + base if base else x
                raise ValidationError(f"block {bi} contains {shown!r}, outside {base}..{n - 1 + base}")
    covered = set().union(*blocks)
    if len(covered) != sum(map(len, blocks)):
        for bi, block in enumerate(blocks, base):
            if len(set(block)) != len(block):
                counts = Counter(block)
                dup = next(x for x in block if counts[x] > 1)
                raise ValidationError(f"element {dup + base} appears twice in block {bi}")
        owner: dict[int, int] = {}
        for bi, block in enumerate(blocks, base):
            for x in block:
                if x in owner:
                    raise ValidationError(f"element {x + base} appears in blocks {owner[x]} and {bi}")
                owner[x] = bi
    if len(covered) != n:
        # The first gap lies at or below len(covered), so a huge n costs nothing.
        missing = next(x for x in range(n) if x not in covered)
        raise ValidationError(f"element {missing + base} is not covered by any block")
    # Canonical form: blocks ordered by least element, so two descriptions
    # of the same partition compare and hash equal.
    norm = sorted(tuple(sorted(block)) for block in blocks)
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


def too_large(item: str) -> str | None:
    """The message for an entry that ``int`` refused for its length: more digits, after one
    leading sign and any underscores are dropped, than the int-from-str limit.  Else None."""
    item = item.strip()
    digits = (item[1:] if item[:1] in ("+", "-") else item).replace("_", "")
    if digits.isdecimal() and 0 < sys.get_int_max_str_digits() < len(digits):
        return f"entry of {len(digits)} digits is too large"
    return None


def partition_from_spec(text: str) -> PartitionedSet:
    """Parse the 1-based ``"1,2,3|4,5|6"`` form; n is its largest entry."""
    if not text or not text.strip():
        raise ValidationError("empty partition text")
    blocks = []
    for part in text.split("|"):
        block = []
        for item in part.split(","):
            item = item.strip()
            if not item:
                raise ValidationError(f"empty entry in block {part!r}")
            try:
                v = int(item)
            except ValueError:
                raise ValidationError(too_large(item) or f"non-integer entry {item!r} in partition text") from None
            if v < 1:
                raise ValidationError(f"entries are 1-based, got {v}")
            block.append(v - 1)
        blocks.append(block)
    return _partition(max(map(max, blocks)) + 1, blocks, 1)


def partition_from_json(obj: dict) -> PartitionedSet:
    """Parse the JSON form ``{"n": 6, "blocks": [[1,2,3],[4,5],[6]]}`` (1-based)."""
    if not isinstance(obj, dict) or "n" not in obj or "blocks" not in obj:
        raise ValidationError("partition JSON needs 'n' and 'blocks' keys")
    try:
        blocks = [[v - 1 for v in raw] for raw in obj["blocks"]]
    except TypeError:
        raise ValidationError("'blocks' must be lists of 1-based integers") from None
    return _partition(obj["n"], blocks, 1)


def check_degree(P: PartitionedSet, a) -> None:
    """Raise :class:`ValidationError` unless the map ``a`` acts on P's n points."""
    if a.n != P.n:
        raise ValidationError(f"degree mismatch: map on {a.n} points, partition of {P.n}")


def is_cross_section(P: PartitionedSet, elems: Iterable[int]) -> bool:
    """True when ``elems`` holds exactly one element of every block of P."""
    counts, block_of, n = [0] * P.k, P.block_of, P.n
    for x in elems:
        if not isinstance(x, int) or not 0 <= x < n:
            raise ValidationError(f"element {x!r} outside 0..{n - 1}")
        counts[block_of[x]] += 1
    return counts.count(1) == len(counts)
