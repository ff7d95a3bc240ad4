import itertools
import json
import time

import pytest

import qstar.cli
import qstar.iso
from qstar.engine import GroupTable, SemigroupSet, is_homomorphism
from qstar.limits import DEFAULT_VERIFY_MAX
from qstar import (
    ContractError,
    InternalConsistencyError,
    IsoClassKey,
    ResourceLimitError,
    RightGroupDecomposition,
    Transformation,
    ValidationError,
    build_isomorphism,
    cardinality_Q,
    classify_partitions,
    compose,
    decompose,
    enumerate_Q,
    identity_partition,
    idempotents_Q,
    integer_partitions,
    iso_key,
    partition_from_sizes,
    q_isomorphic,
    rank_Q,
)

from conftest import bound_closures, clear_q_caches


def test_iso_key():
    assert iso_key(partition_from_sizes((3, 2, 1))) == IsoClassKey(3, 6)
    assert iso_key(identity_partition(4)) == IsoClassKey(4, 1)
    assert IsoClassKey(2, 4).cardinality == 8
    assert IsoClassKey(3, 6).rank == 6
    assert IsoClassKey(3, 1).rank == 2
    assert IsoClassKey(2, 1).rank == 1


def test_isomorphic_across_different_ground_sets():
    assert q_isomorphic(partition_from_sizes((2, 2)), partition_from_sizes((4, 1)))
    assert q_isomorphic(partition_from_sizes((3, 2, 1)), partition_from_sizes((6, 1, 1)))
    assert not q_isomorphic(partition_from_sizes((2, 2)), partition_from_sizes((2, 1, 1)))
    assert not q_isomorphic(partition_from_sizes((2, 1)), partition_from_sizes((3, 1)))


def test_not_isomorphic_to_its_permutation_group_twin(p6):
    # Same ground set, same |Q| would need m to match; here m is 6 vs 1.
    assert not q_isomorphic(p6, identity_partition(6))


def test_reflexive(p6):
    assert q_isomorphic(p6, p6)


def test_build_isomorphism_verified():
    P1 = partition_from_sizes((2, 2))
    P2 = partition_from_sizes((4, 1))
    iso = build_isomorphism(P1, P2)
    assert iso["verified"]
    assert iso["exhaustive"]
    assert iso["pairs_checked"] == 2 * 4  # one element per block pattern times each rank generator
    mapping = iso["mapping"]
    assert len(mapping) == 8
    assert len(set(mapping.values())) == 8
    assert set(mapping.values()) == set(enumerate_Q(P2))


def test_isomorphism_is_multiplicative_by_hand():
    P1 = partition_from_sizes((3, 2, 1))
    P2 = partition_from_sizes((6, 1, 1))
    mapping = build_isomorphism(P1, P2)["mapping"]
    Q1 = list(enumerate_Q(P1))
    for a in Q1[::4]:
        for b in Q1[::5]:
            assert mapping[compose(a, b)] == compose(mapping[a], mapping[b])


def test_isomorphism_between_reordered_size_multisets():
    iso = build_isomorphism(
        partition_from_sizes((3, 2, 1)), partition_from_sizes((1, 2, 3))
    )
    assert iso["verified"] and iso["exhaustive"]
    assert iso["pairs_checked"] == 6 * 6


def test_isomorphism_between_two_element_right_zeros():
    from qstar import constant_map

    iso = build_isomorphism(partition_from_sizes((2,)), partition_from_sizes((2,)))
    assert iso["verified"]
    assert iso["mapping"] == {
        constant_map(2, 0): constant_map(2, 0),
        constant_map(2, 1): constant_map(2, 1),
    }


def test_build_isomorphism_rejects_non_isomorphic():
    with pytest.raises(ContractError, match="not isomorphic"):
        build_isomorphism(partition_from_sizes((2, 1)), partition_from_sizes((3, 1)))


def test_self_isomorphism_is_identity(p6):
    mapping = build_isomorphism(p6, p6)["mapping"]
    assert all(mapping[q] == q for q in mapping)


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(integer_partitions(6))) == 11
    assert len(list(integer_partitions(7))) == 15
    with pytest.raises(ValidationError):
        list(integer_partitions(0))


def recursive_integer_partitions(remaining, cap):
    """The nested-generator reference: a first part, then the partitions of the rest capped by it."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in recursive_integer_partitions(remaining - first, first):
            yield (first,) + rest


def test_integer_partitions_match_the_recursive_reference_up_to_24():
    for n in range(1, 25):
        assert list(integer_partitions(n)) == list(recursive_integer_partitions(n, n)), n


def test_census_n6():
    classes = classify_partitions(6)
    assert len(classes) == 11
    # Every shape of 6 appears exactly once and no key repeats.
    shapes = [s for profile in classes.values() for s in profile]
    assert sorted(shapes) == sorted(integer_partitions(6))
    assert all(len(profile) == 1 for profile in classes.values())


def test_census_n3_keys():
    classes = classify_partitions(3)
    assert [(key.k, key.m) for key in classes] == [(1, 3), (2, 2), (3, 1)]


def test_census_n1_has_one_class():
    classes = classify_partitions(1)
    assert [(key.k, key.m) for key in classes] == [(1, 1)]
    assert list(classes.values()) == [((1,),)]


def test_equal_m_does_not_force_isomorphism():
    # [6] and [3,2,1] share m = 6 but have different block counts.
    assert iso_key(partition_from_sizes((6,))) == IsoClassKey(1, 6)
    assert iso_key(partition_from_sizes((3, 2, 1))) == IsoClassKey(3, 6)
    assert not q_isomorphic(partition_from_sizes((6,)), partition_from_sizes((3, 2, 1)))


def test_census_keys_are_sorted():
    keys = list(classify_partitions(7))
    assert keys == sorted(keys)


def test_census_bound():
    with pytest.raises(ResourceLimitError, match="^n = 13 exceeds DEFAULT_CENSUS_MAX_N=12$"):
        classify_partitions(13)


def classify_by_built_partitions(n):
    """The census route that builds a partitioned set per integer partition."""
    buckets = {}
    for sizes in integer_partitions(n):
        buckets.setdefault(iso_key(partition_from_sizes(sizes)), []).append(sizes)
    return {key: tuple(buckets[key]) for key in sorted(buckets)}


@pytest.mark.parametrize("n", range(1, 13))
def test_census_classes_match_the_partition_built_route(n):
    assert list(classify_partitions(n).items()) == list(classify_by_built_partitions(n).items())


@pytest.mark.parametrize("n", range(1, 13))
def test_census_output_matches_the_partition_built_route(n, monkeypatch, capsys):
    assert qstar.cli.main(["census", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(qstar.cli, "classify_partitions", classify_by_built_partitions)
    monkeypatch.setattr(qstar.cli, "json_text", lambda payload: json.dumps(payload, sort_keys=True, indent=2))
    assert qstar.cli.main(["census", "--n", str(n)]) == 0
    assert capsys.readouterr().out == out


def test_key_equality_matches_structure_route():
    # Same key must mean equal |Q| and equal idempotent counts.
    for sizes1 in integer_partitions(5):
        for sizes2 in integer_partitions(5):
            P1 = partition_from_sizes(sizes1)
            P2 = partition_from_sizes(sizes2)
            same_key = q_isomorphic(P1, P2)
            same_counts = (
                len(enumerate_Q(P1)) == len(enumerate_Q(P2)) and P1.m == P2.m and P1.k == P2.k
            )
            assert same_key == same_counts


def test_iso_class_key_uses_the_formulas_of_q():
    for sizes in integer_partitions(6):
        P = partition_from_sizes(sizes)
        key = iso_key(P)
        assert key.cardinality == cardinality_Q(P) == len(enumerate_Q(P))
        assert key.rank == rank_Q(P)


def _patch_target_elements(monkeypatch, wrap):
    # build_isomorphism reads every image from the target's coordinates.
    real = RightGroupDecomposition.element
    monkeypatch.setattr(RightGroupDecomposition, "element", lambda self, i, j: wrap(real(self, i, j)))


def test_build_isomorphism_reports_a_map_that_is_not_injective(monkeypatch):
    P = partition_from_sizes((2, 1))
    first = enumerate_Q(P).elements[0]
    _patch_target_elements(monkeypatch, lambda q: first)
    with pytest.raises(InternalConsistencyError, match="^constructed map is not injective$"):
        build_isomorphism(P, P)


def test_build_isomorphism_reports_a_map_that_is_not_onto(monkeypatch):
    # Injective, but every value has one point more than the maps of Q(P2).
    P = partition_from_sizes((2, 1))
    _patch_target_elements(monkeypatch, lambda q: Transformation(q.images + (0,)))
    with pytest.raises(InternalConsistencyError, match=r"^constructed map is not onto Q\(P2\)$"):
        build_isomorphism(P, P)


def test_build_isomorphism_reports_a_map_that_is_not_multiplicative(monkeypatch):
    # A bijection onto Q(P2) that swaps an idempotent with a non-idempotent.
    P = partition_from_sizes((2, 1))
    e = idempotents_Q(P)[0]
    g = next(q for q in enumerate_Q(P) if compose(q, q) != q)
    swap = {e: g, g: e}
    _patch_target_elements(monkeypatch, lambda q: swap.get(q, q))
    with pytest.raises(InternalConsistencyError, match="^constructed map is not multiplicative$"):
        build_isomorphism(P, P)


def test_build_isomorphism_at_k_7_builds_no_product_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a product table")

    P1 = partition_from_sizes((2, 1, 1, 1, 1, 1, 1))  # |Q| = 7! * 2 = 10,080
    P2 = partition_from_sizes((1, 1, 1, 1, 1, 1, 2))
    clear_q_caches()
    monkeypatch.setattr(GroupTable, "from_semigroup", no_table)
    monkeypatch.setattr(SemigroupSet, "index_table", property(no_table))
    iso = build_isomorphism(P1, P2)
    assert iso["verified"] and iso["block_bijection"] == (6, 0, 1, 2, 3, 4, 5)
    assert iso["pairs_checked"] == 5_040 * 2  # one element per block pattern times each of the two rank generators


def run_iso(capsys, left, right):
    assert qstar.cli.main(["iso", "--left", left, "--right", right]) == 0
    return json.loads(capsys.readouterr().out)


def test_iso_builds_its_witness_past_the_battery_bound(capsys):
    payload = run_iso(capsys, "1,2|3|4|5|6", "1|2|3|4,6|5")  # |Q| = 5! * 2 = 240 > DEFAULT_VERIFY_MAX
    assert payload["witness_verified"] is True and payload["isomorphism"]["block_bijection"] == [4, 1, 2, 3, 5]


def test_iso_builds_no_witness_past_a_bound_of_its_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built Q past its bounds")

    monkeypatch.setattr(qstar.iso, "decompose", no_build)
    monkeypatch.setattr(qstar.iso, "enumerate_Q", no_build)
    past_size = run_iso(capsys, "1,2|3,4|5|6|7|8|9|10", "1|2|3|4|5|6|7,8|9,10")  # |Q| = 8! * 4 = 161,280
    one_block = ",".join(map(str, range(1, 301)))  # n = 300 > MAX_DEGREE, while |Q| = m = 300
    past_degree = run_iso(capsys, one_block, one_block)
    for payload in (past_size, past_degree):
        assert payload["isomorphic"] is True and payload["witness_verified"] is False
        assert "isomorphism" not in payload


def test_build_isomorphism_refuses_only_past_the_bounds_of_q(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built Q past its bounds")

    P1 = partition_from_sizes((3, 2, 1))  # |Q| = 36
    P2 = partition_from_sizes((6, 1, 1))
    clear_q_caches()
    bound_closures(monkeypatch, 36)
    assert build_isomorphism(P1, P2)["pairs_checked"] == 6 * 6
    clear_q_caches()
    bound_closures(monkeypatch, 35)
    monkeypatch.setattr(qstar.iso, "decompose", no_build)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 36 exceeds DEFAULT_MAX_CLOSURE=35$"):
        build_isomorphism(P1, P2)


def test_iso_verifies_its_witness_on_blocks_32_32_1_within_3_s(capsys):
    # |Q| = 6,144 and |R| = 1,024: the check takes 3! * 1,024 pairs, where
    # every element times every generator took 6.3 million and 20 s.
    start = time.perf_counter()
    payload = run_iso(capsys, partition_from_sizes((32, 32, 1)).to_spec(), partition_from_sizes((1, 32, 32)).to_spec())
    assert time.perf_counter() - start < 3.0
    assert payload["isomorphic"] is True and payload["witness_verified"] is True
    assert payload["isomorphism"]["block_bijection"] == [2, 3, 1]


def _multiplicative_on_tables(P1, P2, mapping):
    """Reference route: the map checked on all |Q|^2 pairs of both product tables."""
    Q1, Q2 = enumerate_Q(P1), enumerate_Q(P2)
    phi = [Q2.index_of(mapping[q]) for q in Q1]
    return is_homomorphism(phi, Q1.index_table, Q2.index_table)


def test_both_routes_accept_the_witness_on_every_isomorphic_pair():
    shapes = [partition_from_sizes(s) for n in range(1, 7) for s in integer_partitions(n)]
    pairs = [
        (P1, P2)
        for P1 in shapes
        for P2 in shapes
        if q_isomorphic(P1, P2) and cardinality_Q(P1) <= DEFAULT_VERIFY_MAX
    ]
    assert len(pairs) == 31
    for P1, P2 in pairs:
        iso = build_isomorphism(P1, P2)  # the generator route raises on a bad map
        assert iso["verified"] and iso["exhaustive"]
        assert _multiplicative_on_tables(P1, P2, iso["mapping"])


@pytest.mark.parametrize("sizes1, sizes2", [((2, 2, 1), (4, 1, 1)), ((3, 2, 1), (6, 1, 1))])
def test_both_routes_agree_on_every_swap_of_two_targets(monkeypatch, sizes1, sizes2):
    P1, P2 = partition_from_sizes(sizes1), partition_from_sizes(sizes2)
    witness = build_isomorphism(P1, P2)["mapping"]
    swap = {}
    _patch_target_elements(monkeypatch, lambda q: swap.get(q, q))
    verdicts = []
    for t1, t2 in itertools.combinations(sorted(witness.values()), 2):
        swap.clear()
        swap.update({t1: t2, t2: t1})
        try:
            build_isomorphism(P1, P2)
            accepted = True
        except InternalConsistencyError as e:
            assert str(e) == "constructed map is not multiplicative"
            accepted = False
        swapped = {q: swap.get(v, v) for q, v in witness.items()}
        assert accepted == _multiplicative_on_tables(P1, P2, swapped), (t1, t2)
        verdicts.append(accepted)
    assert len(verdicts) == len(witness) * (len(witness) - 1) // 2
    assert not all(verdicts)


@pytest.mark.parametrize("sizes1, sizes2", [((2, 2, 1), (4, 1, 1)), ((3, 2, 1), (6, 1, 1))])
def test_both_routes_agree_on_every_relabelling_of_the_target_group_part(monkeypatch, sizes1, sizes2):
    # The witness followed by (i, j) -> (alpha(i), j) on Q(P2), for every
    # permutation alpha of the 3! group coordinates.  The right-group law
    # (i, j)(i', j') = (i i', j') makes that a homomorphism exactly when alpha
    # is an automorphism of S_3, which has 6.  A check that leaves out one
    # symmetric-part generator accepts more of them.
    P1, P2 = partition_from_sizes(sizes1), partition_from_sizes(sizes2)
    witness = build_isomorphism(P1, P2)["mapping"]
    dec2 = decompose(P2)
    grid = [[dec2.element(i, j) for j in range(P2.m)] for i in range(6)]
    alpha = list(range(6))

    def relabel(q):
        i, j = dec2.coordinates(q)
        return grid[alpha[i]][j]

    _patch_target_elements(monkeypatch, relabel)
    accepted = 0
    for alpha[:] in itertools.permutations(range(6)):
        try:
            build_isomorphism(P1, P2)
            generator_route = True
        except InternalConsistencyError as e:
            assert str(e) == "constructed map is not multiplicative"
            generator_route = False
        relabelled = {q: relabel(v) for q, v in witness.items()}
        assert generator_route == _multiplicative_on_tables(P1, P2, relabelled), alpha
        accepted += generator_route
    assert accepted == 6


@pytest.mark.parametrize("sizes1, sizes2", [((2, 2, 1), (4, 1, 1)), ((3, 2, 1), (6, 1, 1))])
def test_both_routes_reject_a_relabelling_of_one_idempotent_column_only(monkeypatch, sizes1, sizes2):
    # The witness followed by (i, j) -> (alpha(i), j) in the last column only,
    # j = m - 1 != 0: no such map with alpha other than the identity is a
    # homomorphism, since (i, j)(i', 0) = (i i', 0) must go to alpha(i) i'.
    # The faulty values lie off the first member of each block-pattern class,
    # so the check of each phi(s)'s block pattern, or of phi(s*g) for one s
    # per pattern, must see them.
    P1, P2 = partition_from_sizes(sizes1), partition_from_sizes(sizes2)
    witness = build_isomorphism(P1, P2)["mapping"]
    dec2 = decompose(P2)
    last = P2.m - 1
    alpha = list(range(6))

    def relabel(q):
        i, j = dec2.coordinates(q)
        return dec2.grid[alpha[i]][j] if j == last else q

    _patch_target_elements(monkeypatch, relabel)
    for alpha[:] in itertools.islice(itertools.permutations(range(6)), 1, None):
        with pytest.raises(InternalConsistencyError, match="^constructed map is not multiplicative$"):
            build_isomorphism(P1, P2)
        assert not _multiplicative_on_tables(P1, P2, {q: relabel(v) for q, v in witness.items()}), alpha
