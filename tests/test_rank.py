import itertools

import pytest

import qstar.qsemigroup
import qstar.rank
from qstar.engine import _close_mask
from qstar.qsemigroup import rank_pairing
from qstar.rank import _no_generating_set_by_levels
from qstar.verify import run_verification

from conftest import bound_closures, clear_q_caches
from qstar import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    SemigroupSet,
    Transformation,
    block_permutation,
    closure,
    compose,
    constant_map,
    enumerate_Q,
    brute_force_no_generating_set_of_size,
    identity_partition,
    idempotents_Q,
    identity_map,
    integer_partitions,
    minimal_generating_set,
    minimality_certificate,
    partition_from_sizes,
    partition_from_spec,
    rank_Q,
    symmetric_part_generators,
    universal_partition,
    verify_image_right_invariance,
)


def test_rank_values():
    assert rank_Q(partition_from_sizes((3, 2, 1))) == 6
    assert rank_Q(partition_from_sizes((2, 2))) == 4
    assert rank_Q(partition_from_sizes((2, 1))) == 2
    assert rank_Q(partition_from_sizes((2, 1, 1))) == 2
    assert rank_Q(partition_from_sizes((3, 1))) == 3
    assert rank_Q(partition_from_sizes((4, 3))) == 12
    assert rank_Q(universal_partition(4)) == 4
    assert rank_Q(universal_partition(5)) == 5


def test_rank_of_permutation_groups():
    # Identity relation: Q is the symmetric group on n points.
    assert rank_Q(identity_partition(1)) == 1
    assert rank_Q(identity_partition(2)) == 1
    assert rank_Q(identity_partition(3)) == 2
    assert rank_Q(identity_partition(4)) == 2
    assert rank_Q(identity_partition(5)) == 2


def test_symmetric_part_generators(p6, alpha):
    gens = symmetric_part_generators(p6)
    assert set(gens) == {alpha(7), alpha(13)}
    pats = sorted(block_permutation(p6, g) for g in gens)
    assert pats == [(1, 0, 2), (1, 2, 0)]


def test_symmetric_part_generates_the_base_h_class(p6):
    from qstar import decompose

    # Both generators share the base image, so their closure is exactly
    # the group part.
    dec = decompose(p6)
    gens = symmetric_part_generators(p6)
    assert set(closure(gens)) == set(dec.group_part)


def test_symmetric_part_generators_degenerate_shapes():
    assert symmetric_part_generators(identity_partition(2)) == (Transformation((1, 0)),)
    assert symmetric_part_generators(universal_partition(3)) == (constant_map(3, 0),)


@pytest.mark.parametrize(
    "sizes",
    [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1), (3, 2, 1), (4, 1)],
)
def test_minimal_generating_set_achieves_rank(sizes):
    P = partition_from_sizes(sizes)
    report = minimal_generating_set(P)
    assert len(report.generators) == rank_Q(P)
    assert set(closure(report.generators)) == set(enumerate_Q(P))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_generating_set_for_permutation_case(n):
    P = identity_partition(n)
    report = minimal_generating_set(P)
    assert len(report.generators) == rank_Q(P)
    assert set(closure(report.generators)) == set(enumerate_Q(P))


def test_minimal_generating_set_of_a_right_zero_is_all_constants():
    P = universal_partition(3)
    report = minimal_generating_set(P)
    assert set(report.generators) == {constant_map(3, v) for v in range(3)}


def test_report_structure(p6, alpha):
    report = minimal_generating_set(p6)
    assert report.claimed_rank == 6
    # Symmetric-part generators paired injectively with idempotents, the
    # leftover idempotents joining untouched.
    assert len(report.paired) == 2
    assert len(report.leftover) == 4
    for g, f, combined in report.paired:
        assert compose(g, f) == combined
        assert combined in report.generators
    # Generators take the least idempotents in order; the rest are leftovers.
    idems = idempotents_Q(p6)
    assert [f for _, f, _ in report.paired] == list(idems[:2])
    assert report.leftover == tuple((f, compose(idems[0], f)) for f in idems[2:])
    # The identity relation has one idempotent, and both generators pair with it.
    for k in (3, 4):
        P = identity_partition(k)
        shape = minimal_generating_set(P)
        (e,) = idempotents_Q(P)
        assert [(g, f) for g, f, _ in shape.paired] == [(g, e) for g in symmetric_part_generators(P)]
        assert shape.leftover == ()
    # k = 2 has one generator, which pairs with the least idempotent.
    P = partition_from_sizes((2, 2))
    shape = minimal_generating_set(P)
    idems = idempotents_Q(P)
    (g,) = symmetric_part_generators(P)
    assert shape.paired == ((g, idems[0], compose(g, idems[0])),)
    assert shape.leftover == tuple((f, compose(idems[0], f)) for f in idems[1:])


def generating_set_hits_every_hclass(gens, P):
    """The H-class test with its precondition checked: ``gens`` must generate Q."""
    if closure(tuple(gens)).elements != enumerate_Q(P).elements:
        raise ContractError("gens do not generate Q, hit-every-H-class is undefined")
    return qstar.rank._hits_every_hclass(gens, P)


def test_hits_every_h_class(p6, alpha):
    report = minimal_generating_set(p6)
    assert generating_set_hits_every_hclass(report.generators, p6)
    assert generating_set_hits_every_hclass(list(enumerate_Q(p6)), p6)
    with pytest.raises(ContractError):
        generating_set_hits_every_hclass([alpha(1)], p6)


@pytest.mark.parametrize(
    "sizes",
    [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (3, 2, 1)],
)
def test_symmetric_part_plus_idempotents_generate(sizes):
    P = partition_from_sizes(sizes)
    gens = list(symmetric_part_generators(P)) + list(idempotents_Q(P))
    assert set(closure(gens)) == set(enumerate_Q(P))


def test_pattern_homomorphism_certifies_non_generation(p6, alpha):
    # The induced pattern map is multiplicative, so the patterns of a
    # closure equal the pattern-group closure of the generator patterns.
    gens = [alpha(i) for i in (2, 3, 4, 5, 6, 7)]
    reached = set(closure(gens))
    reached_patterns = {block_permutation(p6, a) for a in reached}

    frontier = {block_permutation(p6, g) for g in gens}
    pattern_group = set(frontier)
    while True:
        new = {
            tuple(q[p[x]] for x in range(3))
            for p in pattern_group
            for q in frontier
        } - pattern_group
        if not new:
            break
        pattern_group |= new
    assert reached_patterns == pattern_group
    assert len(pattern_group) == 2
    assert len(reached) == 12


def test_image_right_invariance(p6):
    # Every image of Q is a cross-section, so each map is checked on one image.
    Q = enumerate_Q(p6)
    assert verify_image_right_invariance(p6, Q, Q) == 36
    assert verify_image_right_invariance(p6, Q, qstar.qsemigroup.prove_Q(p6).pairing.generators) == 6


def test_minimality_certificate(p6):
    cert = minimality_certificate(p6)
    assert cert["rank"] == 6
    assert cert["image_classes"] == 6
    assert cert["pairs_checked"] == 6  # one cross-section times each of the rank generators
    assert cert["smaller_subsets_possible"] is False
    with pytest.raises(ContractError):
        minimality_certificate(identity_partition(3))


@pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (3, 1), (2, 1, 1)])
def test_no_smaller_generating_set_brute_force(sizes):
    P = partition_from_sizes(sizes)
    r = rank_Q(P)
    assert brute_force_no_generating_set_of_size(P, r - 1)


def test_brute_force_finds_generating_sets_at_rank():
    P = partition_from_sizes((2, 1))
    assert not brute_force_no_generating_set_of_size(P, rank_Q(P))


def _no_generating_set_by_subsets(table, size: int) -> bool:
    """Plain sweep, one ``_close_mask`` call per ``size``-subset: the
    reference for the level search.  True when no closure is the full set."""
    full = (1 << len(table)) - 1
    for combo in itertools.combinations(range(len(table)), size):
        if _close_mask(table, sum(1 << i for i in combo)) == full:
            return False
    return True


def test_level_search_agrees_with_the_subset_sweep_at_every_size():
    covered = 0
    for n in range(1, 7):
        for sizes in integer_partitions(n):
            P = partition_from_sizes(sizes)
            Q = enumerate_Q(P)
            if len(Q) > 20:
                continue
            t = Q.index_table
            levels = [_no_generating_set_by_levels(t, size) for size in range(len(Q) + 2)]
            assert levels == [_no_generating_set_by_subsets(t, size) for size in range(len(Q) + 2)], sizes
            assert levels.index(False) == rank_Q(P), sizes
            covered += 1
    assert covered == 18


def test_level_search_finds_a_small_generating_set_on_a_mutated_table():
    # In Q for (2, 1) no single element generates; rewire element 0's
    # products so that its powers reach every element.
    t = [list(row) for row in enumerate_Q(partition_from_sizes((2, 1))).index_table]
    assert _no_generating_set_by_levels(t, 1)
    for p, q in ((0, 1), (1, 2), (2, 3), (3, 0)):
        t[p][0] = q
    for size in range(len(t) + 1):
        assert _no_generating_set_by_levels(t, size) == _no_generating_set_by_subsets(t, size) == (size == 0)


def test_brute_force_rejects_a_negative_size():
    with pytest.raises(ContractError, match="^size must be >= 0, got -1$"):
        brute_force_no_generating_set_of_size(partition_from_sizes((2, 1)), -1)


def test_brute_force_refuses_q_above_its_bound_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Q was built")

    monkeypatch.setattr(qstar.rank, "enumerate_Q", refuse)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 36 exceeds brute-force bound 24$"):
        brute_force_no_generating_set_of_size(partition_from_sizes((3, 2, 1)), 5)
    monkeypatch.undo()
    monkeypatch.setattr(qstar.rank, "DEFAULT_BRUTE_FORCE_MAX_Q", 36)  # the bound admits |Q| equal to it
    assert brute_force_no_generating_set_of_size(partition_from_sizes((3, 2, 1)), 5)


def test_verification_closes_the_rank_generators_once_per_check(monkeypatch):
    calls = []
    real = qstar.qsemigroup.packed_closure

    def counting(P, gens, *args, **kwargs):
        calls.append(tuple(gens))
        return real(P, gens, *args, **kwargs)

    monkeypatch.setattr(qstar.qsemigroup, "packed_closure", counting)
    P = partition_from_spec("1,2|3,4|5")
    clear_q_caches()
    assert run_verification(P).all_passed
    # enumerate_Q's closure proof, on which minimal_generating_set and the H-class check stand,
    # then maximal's proof that the symmetric-part generators generate the group part.
    assert calls == [rank_pairing(P).generators, symmetric_part_generators(P)]


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_generators_are_the_reported_set_and_their_factors_lie_in_q(n):
    for sizes in integer_partitions(n):
        P = partition_from_sizes(sizes)
        R = rank_pairing(P)[0]
        assert R == minimal_generating_set(P).generators
        assert len(R) == rank_Q(P)
        Q = enumerate_Q(P)
        assert all(g in Q for g in symmetric_part_generators(P) + idempotents_Q(P))


def test_minimality_certificate_reads_no_product_table(monkeypatch):
    def no_table(self):
        raise AssertionError("built a product table")

    P = partition_from_sizes((2, 2, 1, 1, 1))  # |Q| = 480, past the battery's oracle bound of 200
    clear_q_caches()
    monkeypatch.setattr(SemigroupSet, "index_table", property(no_table))
    cert = minimality_certificate(P)
    assert (cert["rank"], cert["image_classes"], cert["pairs_checked"]) == (4, 4, 4)


def test_minimality_certificate_refuses_only_past_the_bounds_of_q(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built Q past its bounds")

    P = partition_from_sizes((2, 2, 1, 1, 1))  # |Q| = 480
    clear_q_caches()
    bound_closures(monkeypatch, 480)
    assert minimality_certificate(P)["pairs_checked"] == 4
    clear_q_caches()
    bound_closures(monkeypatch, 479)
    monkeypatch.setattr(qstar.qsemigroup, "_built", no_build)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 480 exceeds DEFAULT_MAX_CLOSURE=479$"):
        minimality_certificate(P)


def test_idempotents_alone_never_generate(p6):
    closed = closure(idempotents_Q(p6))
    assert len(closed) == 6


def test_image_right_invariance_raises_when_images_move():
    S = closure([identity_map(2), constant_map(2, 0)])
    assert len(S) == 2
    with pytest.raises(InternalConsistencyError, match="image is not right-invariant on this set"):
        verify_image_right_invariance(identity_partition(2), S, S)
