import itertools
import random

import pytest

import qstar.membership
from qstar import (
    ContractError,
    InternalConsistencyError,
    SemigroupSet,
    Transformation,
    closure,
    enumerate_Q,
    identity_partition,
    in_Q,
    in_TE,
    in_TEstar,
    in_TEstar_pairwise,
    is_idempotent_Q,
    is_regular_element,
    make_partitioned_set,
    partition_from_sizes,
    universal_partition,
)
from qstar.qsemigroup import all_in_Q

from conftest import shapes


def all_maps(n):
    for imgs in itertools.product(range(n), repeat=n):
        yield Transformation(imgs)


def test_reference_member(p6, alpha):
    a = alpha(7)  # blocks land on 4, 1, 6
    assert in_TE(p6, a)
    assert in_TEstar(p6, a)
    assert in_Q(p6, a)


def test_constant_map_preserves_only_forward(p6):
    c = Transformation((0,) * 6)
    assert in_TE(p6, c)
    assert not in_TEstar(p6, c)
    assert not in_Q(p6, c)


def test_two_blocks_into_one_target(p6):
    # block 3 joins block 2's target: forward preserving only.
    a = Transformation((0, 0, 0, 3, 3, 3))
    assert in_TE(p6, a)
    assert not in_TEstar(p6, a)


def test_block_split_breaks_in_te(p6):
    a = Transformation((0, 3, 0, 3, 3, 5))
    assert not in_TE(p6, a)
    assert not in_TEstar(p6, a)
    assert not in_Q(p6, a)


def test_injective_on_blocks_is_not_enough_for_q(p6):
    # Each block goes into its own block, but the first is not collapsed.
    a = Transformation((0, 1, 2, 3, 3, 5))
    assert in_TEstar(p6, a)
    assert not in_Q(p6, a)


def test_image_must_reach_every_block(p6):
    # Collapsed blocks, distinct targets, still fine; this is the real thing.
    assert in_Q(p6, Transformation((5, 5, 5, 0, 0, 3)))


@pytest.mark.parametrize(
    "P",
    [
        partition_from_sizes((2, 2)),
        partition_from_sizes((3, 1)),
        identity_partition(4),
        universal_partition(3),
        partition_from_sizes((2, 1, 1)),
    ],
)
def test_fast_form_agrees_with_pairwise_form(P):
    for a in all_maps(P.n):
        assert in_TEstar(P, a) == in_TEstar_pairwise(P, a)


def test_fast_form_does_not_run_in_TE(monkeypatch):
    # membership-implications checks that in_TEstar implies in_TE, which is
    # a tautology if the fast form runs in_TE first.
    def refuse(*args):
        raise AssertionError("in_TEstar ran in_TE")

    monkeypatch.setattr(qstar.membership, "in_TE", refuse)
    for sizes in [(1,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1)]:
        P = partition_from_sizes(sizes)
        for a in all_maps(P.n):
            assert in_TEstar(P, a) == in_TEstar_pairwise(P, a)


def test_identity_relation_reduces_to_injectivity():
    P = identity_partition(3)
    for a in all_maps(3):
        assert in_TEstar(P, a) == (len(set(a.images)) == 3)
        assert in_TE(P, a)


def test_membership_chain_exhaustive():
    P = partition_from_sizes((2, 2))
    for a in all_maps(4):
        if in_Q(P, a):
            assert in_TEstar(P, a)
        if in_TEstar(P, a):
            assert in_TE(P, a)


def test_degree_mismatch_rejected(p6):
    from qstar import ValidationError

    with pytest.raises(ValidationError):
        in_TE(p6, Transformation((0, 1)))


def test_idempotent_predicate(p6, alpha):
    for i in range(1, 7):
        assert is_idempotent_Q(p6, alpha(i))
    for i in range(7, 37):
        assert not is_idempotent_Q(p6, alpha(i))


def test_idempotent_predicate_needs_membership(p6):
    with pytest.raises(ContractError):
        is_idempotent_Q(p6, Transformation((0,) * 6))


def test_regular_element():
    # a cubes down to the constant and never recovers itself.
    a = Transformation((1, 2, 2))
    S = closure([a])
    assert sorted(t.images for t in S) == [(1, 2, 2), (2, 2, 2)]
    assert not is_regular_element(a, S)
    assert is_regular_element(Transformation((2, 2, 2)), S)


def test_regular_element_in_full_transformation_semigroup():
    S = SemigroupSet.from_elements(all_maps(3))
    for a in S:
        assert is_regular_element(a, S)


def test_every_member_of_q_is_regular(p6):
    from qstar import enumerate_Q

    Q = enumerate_Q(p6)
    for a in Q:
        assert is_regular_element(a, Q)


def test_regular_element_requires_membership():
    S = closure([Transformation((1, 2, 2))])
    with pytest.raises(ContractError):
        is_regular_element(Transformation((0, 1, 2)), S)


def set_partitions(n):
    """Every set partition of {0..n-1}, by restricted growth strings."""
    def grow(labels):
        if len(labels) == n:
            yield [[x for x in range(n) if labels[x] == b] for b in range(max(labels) + 1)]
            return
        for b in range(max(labels) + 2):
            yield from grow(labels + [b])

    yield from grow([0])


def _in_Q_by_definition(P, a):
    """The paper's definition: |A a| = 1 and A meets X a, for every block A."""
    image = set(a.images)
    return all(len({a.images[x] for x in A}) == 1 and not image.isdisjoint(A) for A in P.blocks)


def test_in_Q_equals_its_definition_on_every_map_of_every_partition_up_to_five_points():
    pairs = members = 0
    for n in range(1, 6):
        maps = list(all_maps(n))
        for blocks in set_partitions(n):
            P = make_partitioned_set(n, blocks)
            for a in maps:
                member = in_Q(P, a)
                assert member == _in_Q_by_definition(P, a), (blocks, a.images)
                members += member
            pairs += len(maps)
    assert pairs == 166_484
    assert members == 1479  # the sum of k! * m over those 203 partitions


def shuffled_partition(sizes):
    """Blocks of the given sizes over a seeded shuffle of the points, so that
    blocks are not runs of consecutive points."""
    points = list(range(sum(sizes)))
    random.Random(repr(sizes)).shuffle(points)
    starts = list(itertools.accumulate((0,) + sizes))
    return make_partitioned_set(len(points), [points[a:b] for a, b in zip(starts, starts[1:])])


SHAPES_UP_TO_FIVE = [sizes for n in range(1, 6) for sizes in shapes(n)]


@pytest.mark.parametrize("sizes", SHAPES_UP_TO_FIVE, ids=str)
def test_batch_agrees_with_in_Q_on_every_map_of_a_shuffled_partition(sizes):
    P = shuffled_partition(sizes)
    members = []
    for a in all_maps(P.n):
        member = in_Q(P, a)
        assert all_in_Q(P, [bytes(a.images)]) == member, a.images
        if member:
            members.append(bytes(a.images))
    assert len(members) == len(enumerate_Q(P))
    assert all_in_Q(P, members)


def _non_members(P, q):
    """From a member q of Q: a map that breaks collapse only (a point that is
    not its block's head moves, the heads still meet every block) and, for
    k >= 2, one that breaks cover only (every block sent to one point)."""
    out = {}
    head_of = {x: block[0] for block in P.blocks for x in block}
    x = next((x for x in range(P.n) if head_of[x] != x), None)
    if x is not None:
        out["collapse"] = q[:x] + ((q[x] + 1) % P.n,) + q[x + 1:]
    if P.k >= 2:
        out["cover"] = (q[0],) * P.n
    return out


@pytest.mark.parametrize("sizes", [(2, 2, 1), (3, 1, 1), (2, 1), (1, 1, 1), (3,)], ids=str)
def test_batch_rejects_one_non_member_wherever_it_stands(sizes):
    P = shuffled_partition(sizes)
    Q = [a.images for a in enumerate_Q(P)]
    cases = _non_members(P, Q[len(Q) // 2])
    assert cases
    for broken, bad in cases.items():
        assert not in_Q(P, Transformation(bad)), broken
        for position in (0, len(Q) // 2, len(Q)):
            assert not all_in_Q(P, list(map(bytes, Q[:position] + [bad] + Q[position:]))), (broken, position)


@pytest.mark.parametrize("sizes", [sizes for n in range(1, 7) for sizes in shapes(n)], ids=str)
def test_batch_accepts_every_enumerated_Q(sizes):
    P = partition_from_sizes(sizes)
    assert all_in_Q(P, [bytes(a.images) for a in enumerate_Q(P)])


def test_batch_raises_when_accepted_images_are_not_cross_sections(monkeypatch):
    # The defensive postcondition: with the cover test made to find no two
    # heads in one block, a collapsed map whose heads all land in one block is
    # still caught by the count of hits per block.
    import qstar.qsemigroup

    P = partition_from_sizes((2, 1))
    monkeypatch.setattr(qstar.qsemigroup, "any", lambda items: False, raising=False)
    assert all_in_Q(P, [bytes((0, 0, 2)), bytes((2, 2, 0))])
    with pytest.raises(InternalConsistencyError, match="^accepted map whose image is not a cross-section$"):
        all_in_Q(P, [bytes((0, 0, 0))])
