"""Seeded inputs for the benchmark workloads.

Every operation is one ``qstar`` command line, run in-process through
``qstar.cli.main``.  An :class:`Op` carries the argv together with what the
output check needs to know about the input (the blocks, the map), so the
checks never ask the program under test for the ground truth.

A run is a sequence of rounds.  Every round of a workload holds the same
operations on fresh inputs: no set partition is used twice in one run, so no
operation is served from another operation's ``lru_cache`` entry.  The round
count a run can reach is bounded by the number of distinct labellings of the
scarcest shape (``max_rounds``).

Inputs depend only on the workload name and the seed, with one exception:
the ``analyze`` queries on 1,559 or more singleton blocks depend only on the
round index.  They fail today (see README.md), and keeping them independent
of the seed keeps the failed share identical in every run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

Blocks = tuple[tuple[int, ...], ...]  # canonical: 1-based, sorted, ordered by least point

# |Q| = 480: compose, validation and the |Q|^2 closure proof dominate.
GENERATE_SHAPE = (2, 2, 1, 1, 1)
# |Q| = 96, every pair isomorphic, so every iso builds and verifies a witness.
ISO_SHAPE = (2, 2, 1, 1)
GENERATE_PER_ROUND = 3
ISO_PAIRS_PER_ROUND = 1

# Instances on which run_verification runs its whole oracle battery.  The
# cost of one verify depends on the labelling (next-closure visits the
# closed sets in an order set by the element order): up to 4x on (4, 3),
# which is why it comes once per round, and 2x on (3, 2, 1).  Eight
# (3, 2, 1) per round put the median operation inside that shape and use
# 48 to 56 of its 60 labellings in a run, so op_p50_ms hardly depends on
# which labellings the seed picks.
VERIFY_SHAPES = ((3, 3), (2, 2, 1), (2, 2, 2)) + ((3, 2, 1),) * 8 + ((4, 3),)
# |Q| = 144: subgroup lattice of S_4 plus the maximality predicate.
MAXIMAL_SHAPES = ((3, 2, 1, 1),)

LOOKUP_SMALL_POINTS = (3, 12)
LOOKUP_LARGE_POINTS = (1000, 3000)
LOOKUP_MIX = {"analyze": 60, "check-map": 60, "check-q": 40, "census": 20, "analyze-large": 2}
# k! for k >= 1559 has more than 4,300 decimal digits, and the CLI turns it
# into a string with str(); KNOWN_FAULT_SINGLETONS[0] is the first failing k.
KNOWN_FAULT_SINGLETONS = (1559, 3000)
# Seeded large analyze queries stay well clear of that limit.
LARGE_COUNT_LIMIT = 10**4000


@dataclass(frozen=True)
class Op:
    """One CLI call and the facts its output check needs."""

    kind: str
    argv: tuple[str, ...]
    blocks: Blocks = ()
    right_blocks: Blocks = ()
    images: tuple[int, ...] = ()  # 0-based full map, for ``check``
    n: int = 0  # for ``census``
    known_fault: bool = False


def canonical(blocks) -> Blocks:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def spec(blocks, rng: random.Random | None = None) -> str:
    """Block text; with ``rng`` the blocks and their points come in shuffled order."""
    blocks = [list(b) for b in blocks]
    if rng is not None:
        for b in blocks:
            rng.shuffle(b)
        rng.shuffle(blocks)
    return "|".join(",".join(str(x) for x in b) for b in blocks)


def labellings(sizes) -> list[Blocks]:
    """Every set partition of {1..n} whose block sizes are ``sizes``, sorted."""
    n = sum(sizes)
    found = set()
    for perm in itertools.permutations(range(1, n + 1)):
        blocks, start = [], 0
        for s in sizes:
            blocks.append(perm[start:start + s])
            start += s
        found.add(canonical(blocks))
    return sorted(found)


def _shuffled_pools(rng: random.Random, shapes) -> dict:
    pools = {}
    for shape in sorted(set(shapes)):
        pool = labellings(shape)
        rng.shuffle(pool)
        pools[shape] = pool
    return pools


def _max_rounds(pools: dict, shapes) -> int:
    uses = {s: shapes.count(s) for s in set(shapes)}
    return min(len(pools[s]) // uses[s] for s in uses)


class _Prebuilt:
    """A workload whose rounds are all built up front from shuffled labelling pools."""

    _batches: list

    def next_batch(self) -> list[Op]:
        ops = self._batches[self._next]
        self._next += 1
        return ops


class Construct(_Prebuilt):
    """``generate`` on (2,2,1,1,1) and ``iso`` on pairs of (2,2,1,1)."""

    name = "construct"

    def __init__(self, seed: int):
        rng = random.Random(f"qstar-bench/{self.name}/{seed}")
        shapes = (GENERATE_SHAPE,) * GENERATE_PER_ROUND + (ISO_SHAPE,) * (2 * ISO_PAIRS_PER_ROUND)
        pools = _shuffled_pools(rng, shapes)
        self.max_rounds = _max_rounds(pools, shapes)
        self._batches = []
        for r in range(self.max_rounds):
            ops = []
            for i in range(GENERATE_PER_ROUND):
                blocks = pools[GENERATE_SHAPE][r * GENERATE_PER_ROUND + i]
                ops.append(Op("generate", ("generate", "--partition", spec(blocks, rng)), blocks))
            for i in range(ISO_PAIRS_PER_ROUND):
                j = 2 * (r * ISO_PAIRS_PER_ROUND + i)
                left, right = pools[ISO_SHAPE][j], pools[ISO_SHAPE][j + 1]
                argv = ("iso", "--left", spec(left, rng), "--right", spec(right, rng))
                ops.append(Op("iso", argv, left, right))
            self._batches.append(ops)
        self._next = 0


class Certify(_Prebuilt):
    """``verify`` on the fully oracle-checked instances and ``maximal`` on (3,2,1,1)."""

    name = "certify"

    def __init__(self, seed: int):
        rng = random.Random(f"qstar-bench/{self.name}/{seed}")
        shapes = VERIFY_SHAPES + MAXIMAL_SHAPES
        pools = _shuffled_pools(rng, shapes)
        self.max_rounds = _max_rounds(pools, shapes)
        taken = dict.fromkeys(pools, 0)
        self._batches = []
        for _ in range(self.max_rounds):
            ops = []
            for shape in shapes:
                blocks = pools[shape][taken[shape]]
                taken[shape] += 1
                text = spec(blocks, rng)
                if shape in VERIFY_SHAPES:
                    argv = ("verify", "--partition", text, "--seed", str(rng.randrange(10**6)))
                    ops.append(Op("verify", argv, blocks))
                else:
                    ops.append(Op("maximal", ("maximal", "--partition", text), blocks))
            self._batches.append(ops)
        self._next = 0


def _random_blocks(rng: random.Random, n: int, k: int) -> Blocks:
    """k nonempty blocks over {1..n}: shuffle the points, cut at k - 1 places."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cuts = [0] + sorted(rng.sample(range(1, n), k - 1)) + [n]
    return canonical(points[a:b] for a, b in zip(cuts, cuts[1:]))


def _map_for(rng: random.Random, blocks: Blocks, kind: str) -> tuple[int, ...]:
    """A 0-based map on the points of ``blocks``, biased towards one family.

    ``q`` lands in Q, ``testar`` in T_E* (block bijection, any points),
    ``te`` in T_E (blocks into blocks), ``any`` is unconstrained.  The check
    decides membership from the definitions, not from this label.
    """
    n = sum(len(b) for b in blocks)
    if kind == "any":
        return tuple(rng.randrange(n) for _ in range(n))
    k = len(blocks)
    if kind == "te":
        target = [rng.randrange(k) for _ in range(k)]
    else:
        target = list(range(k))
        rng.shuffle(target)
    images = [0] * n
    for bi, block in enumerate(blocks):
        dest = blocks[target[bi]]
        point = rng.choice(dest)
        for x in block:
            images[x - 1] = (point if kind == "q" else rng.choice(dest)) - 1
    return tuple(images)


class Lookup:
    """Hundreds of formula and predicate queries, plus a few huge ``analyze`` calls."""

    name = "lookup"

    def __init__(self, seed: int):
        self._rng = random.Random(f"qstar-bench/{self.name}/{seed}")
        self._seen: set = set()
        lo, hi = KNOWN_FAULT_SINGLETONS
        self.max_rounds = hi - lo + 1
        self._next = 0

    def _fresh(self, points: tuple[int, int], max_blocks: int | None = None) -> Blocks:
        rng = self._rng
        while True:
            n = rng.randint(*points)
            k = rng.randint(1, min(n, max_blocks or n))
            blocks = _random_blocks(rng, n, k)
            if blocks not in self._seen:
                self._seen.add(blocks)
                return blocks

    def _large(self) -> Blocks:
        while True:
            blocks = self._fresh(LOOKUP_LARGE_POINTS, max_blocks=1200)
            count = math.factorial(len(blocks)) * math.prod(len(b) for b in blocks)
            if count < LARGE_COUNT_LIMIT:
                return blocks

    def next_batch(self) -> list[Op]:
        rng = self._rng
        ops = []
        for _ in range(LOOKUP_MIX["analyze"]):
            blocks = self._fresh(LOOKUP_SMALL_POINTS)
            ops.append(Op("analyze", ("analyze", "--partition", spec(blocks, rng)), blocks))
        for _ in range(LOOKUP_MIX["check-map"]):
            blocks = self._fresh(LOOKUP_SMALL_POINTS)
            images = _map_for(rng, blocks, rng.choice(("q", "testar", "te", "any")))
            text = ",".join(str(v + 1) for v in images)
            argv = ("check", "--partition", spec(blocks, rng), "--map", text)
            ops.append(Op("check", argv, blocks, images=images))
        for _ in range(LOOKUP_MIX["check-q"]):
            blocks = self._fresh(LOOKUP_SMALL_POINTS)
            n = sum(len(b) for b in blocks)
            if rng.random() < 0.5:
                q = [v + 1 for v in _map_for(rng, blocks, "q")]
                vals = [q[b[0] - 1] for b in blocks]
            else:
                vals = [rng.randint(1, n) for _ in blocks]
            owner = {x: bi for bi, b in enumerate(blocks) for x in b}
            images = tuple(vals[owner[x]] - 1 for x in range(1, n + 1))
            argv = ("check", "--partition", spec(blocks, rng), "--q", ",".join(map(str, vals)))
            ops.append(Op("check", argv, blocks, images=images))
        for _ in range(LOOKUP_MIX["census"]):
            n = rng.randint(1, 12)
            ops.append(Op("census", ("census", "--n", str(n)), n=n))
        for _ in range(LOOKUP_MIX["analyze-large"]):
            blocks = self._large()
            ops.append(Op("analyze", ("analyze", "--partition", spec(blocks, rng)), blocks))
        k = KNOWN_FAULT_SINGLETONS[0] + self._next
        blocks = tuple((x,) for x in range(1, k + 1))
        ops.append(Op("analyze", ("analyze", "--partition", spec(blocks)), blocks, known_fault=True))
        self._next += 1
        return ops


WORKLOADS = {w.name: w for w in (Construct, Certify, Lookup)}
