"""Shared fixtures.

The 6-point instance with blocks {1,2,3} | {4,5} | {6} is the worked
reference: its 36 members are frozen here in block-shorthand form, in the
order idempotents first, then the five non-identity block patterns, each
over the six image choices.  Element i is available as ``alpha(i)``.
"""

import pytest

import qstar.maximal
import qstar.qsemigroup
from qstar import enumerate_Q, from_q_shorthand, make_partitioned_set

# 1-based shorthand (target of block 1, block 2, block 3) for alpha_1..alpha_36.
Q36_SHORTHANDS = (
    (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6),
    (4, 1, 6), (4, 2, 6), (4, 3, 6), (5, 1, 6), (5, 2, 6), (5, 3, 6),
    (4, 6, 1), (4, 6, 2), (4, 6, 3), (5, 6, 1), (5, 6, 2), (5, 6, 3),
    (6, 1, 4), (6, 2, 4), (6, 3, 4), (6, 1, 5), (6, 2, 5), (6, 3, 5),
    (1, 6, 4), (2, 6, 4), (3, 6, 4), (1, 6, 5), (2, 6, 5), (3, 6, 5),
    (6, 4, 1), (6, 4, 2), (6, 4, 3), (6, 5, 1), (6, 5, 2), (6, 5, 3),
)

IDEMPOTENT_INDICES = (1, 2, 3, 4, 5, 6)
BASE_H_CLASS_INDICES = (1, 7, 13, 19, 25, 31)

# The ten maximal subsemigroups, by element index.  The first four keep all
# idempotents and restrict the block patterns; the last six drop one
# H-class column each.
T_SETS = {
    "T1": tuple(range(1, 13)),
    "T2": tuple(range(1, 7)) + tuple(range(25, 31)),
    "T3": tuple(range(1, 7)) + tuple(range(31, 37)),
    "T4": tuple(range(1, 7)) + tuple(range(13, 25)),
}
for _i in range(1, 7):
    T_SETS[f"T{4 + _i}"] = tuple(j for j in range(1, 37) if (j - _i) % 6 != 0)


def shapes(n, largest=None):
    """Every block-size shape of n points, as non-increasing size tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in shapes(n - first, first):
            yield (first,) + rest


def clear_q_caches():
    """Drop every per-partition record behind enumerate_Q, idempotents_Q and decompose.

    A record keeps what it has built, so a test that patches a build must
    clear first for the build to run again under the patch.
    """
    enumerate_Q.cache_clear()


def bound_closures(monkeypatch, bound):
    """Set ``DEFAULT_MAX_CLOSURE`` to ``bound`` in the modules whose builds of Q and its
    maximal subsemigroups read it."""
    for module in (qstar.qsemigroup, qstar.maximal):
        monkeypatch.setattr(module, "DEFAULT_MAX_CLOSURE", bound)


@pytest.fixture(scope="session")
def p6():
    return make_partitioned_set(6, [(0, 1, 2), (3, 4), (5,)])


@pytest.fixture(scope="session")
def alpha(p6):
    elems = {i + 1: from_q_shorthand(p6, s) for i, s in enumerate(Q36_SHORTHANDS)}

    def get(i):
        return elems[i]

    return get


@pytest.fixture(scope="session")
def t_sets(alpha):
    return {name: frozenset(alpha(i) for i in idx) for name, idx in T_SETS.items()}
