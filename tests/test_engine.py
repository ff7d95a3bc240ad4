import itertools

import pytest

import qstar.engine
from qstar import (
    ContractError,
    GroupTable,
    InternalConsistencyError,
    ResourceLimitError,
    SemigroupSet,
    Transformation,
    ValidationError,
    all_closed_subsets,
    closure,
    constant_map,
    enumerate_Q,
    green_R_definitional,
    green_R_related,
    groups_isomorphic,
    identity_map,
    is_left_cancellative,
    is_maximal_subsemigroup,
    is_regular_semigroup,
    is_right_group,
    kernel_partition,
    maximal_subgroups,
    subgroup_lattice,
    symmetric_group_table,
)


def full_transformation_semigroup(n):
    return SemigroupSet.from_elements(
        Transformation(imgs) for imgs in itertools.product(range(n), repeat=n)
    )


def test_semigroup_set_rejects_unclosed():
    a = Transformation((1, 2, 0))  # 3-cycle, closure has 3 elements
    with pytest.raises(ValidationError, match=r"not closed: \(1, 2, 0\) \* \(1, 2, 0\) escapes"):
        SemigroupSet.from_elements([a]).index_table
    half = SemigroupSet.from_elements([identity_map(3), a], verify=False)
    with pytest.raises(ValidationError, match="not closed"):
        half.index_table


def test_index_table_rejects_mixed_degrees():
    S = SemigroupSet(2, (identity_map(2), identity_map(3)), None)
    with pytest.raises(ValidationError, match="mixed degrees"):
        S.index_table


def test_closure_left_product_check_fires(monkeypatch, alpha):
    # The worklist only multiplies by generators on the right; corrupt every
    # other product so that only the final left-product pass can see it.
    real = qstar.engine.product_map
    gens = {alpha(7).images}

    def corrupt(a_images):
        mul = real(a_images)
        return lambda b_images: mul(b_images) if b_images in gens else (0,) * len(b_images)

    monkeypatch.setattr(qstar.engine, "product_map", corrupt)
    with pytest.raises(InternalConsistencyError, match="left product escaped"):
        closure([alpha(7)])


def test_closure_of_one_transposition_pattern(p6, alpha):
    S = closure([alpha(7)])
    assert set(S) == {alpha(1), alpha(7)}


def test_closure_of_identity_singleton():
    S = closure([identity_map(3)])
    assert set(S) == {identity_map(3)}


def test_closure_records_generators(alpha):
    S = closure([alpha(7)])
    assert S.generators == (alpha(7),)


def test_corrected_generating_set_reaches_everything(p6, alpha):
    gens = [alpha(i) for i in (2, 3, 4, 5, 6, 7, 13)]
    S = closure(gens)
    assert len(S) == 36
    assert set(S) == set(enumerate_Q(p6))


def test_closure_resource_limit(alpha):
    with pytest.raises(ResourceLimitError):
        closure([alpha(i) for i in (2, 3, 4, 5, 6, 7, 13)], max_size=10)


def test_green_r_forms_agree_on_full_transformation_semigroup():
    S = full_transformation_semigroup(2)
    for a in S:
        for b in S:
            assert green_R_related(a, b) == green_R_definitional(a, b, S)


def test_green_r_is_kernel_equality():
    a = Transformation((0, 0, 1))
    b = Transformation((2, 2, 0))
    c = Transformation((0, 1, 1))
    assert kernel_partition(a).as_set_partition() == kernel_partition(b).as_set_partition()
    assert green_R_related(a, b)
    assert not green_R_related(a, c)


def test_green_r_inside_q_is_universal(p6, alpha):
    # Every member collapses exactly the given classes, so kernels agree;
    # and a*Q = Q for each a, so the definitional form agrees too.
    Q = enumerate_Q(p6)
    for i in (1, 2, 7, 13, 36):
        assert green_R_related(alpha(1), alpha(i))
        assert green_R_definitional(alpha(1), alpha(i), Q)
    assert green_R_definitional(alpha(7), alpha(20), Q)


def test_right_group_recognition(p6):
    assert is_right_group(enumerate_Q(p6))
    assert not is_right_group(full_transformation_semigroup(2))
    constants = SemigroupSet.from_elements([constant_map(2, 0), constant_map(2, 1)])
    assert is_right_group(constants)
    assert is_regular_semigroup(constants)
    assert is_left_cancellative(constants)


def test_regularity_and_cancellativity():
    T2 = full_transformation_semigroup(2)
    assert is_regular_semigroup(T2)
    assert not is_left_cancellative(T2)
    S = closure([Transformation((1, 2, 2))])
    assert not is_regular_semigroup(S)
    G = closure([Transformation((1, 2, 0))])
    assert is_regular_semigroup(G) and is_left_cancellative(G)
    assert is_right_group(G)


@pytest.mark.parametrize("sizes,q_size", [((2, 1, 1), 12), ((4, 2), 16)])
def test_right_group_iff_regular_and_left_cancellative_exhaustive(sizes, q_size):
    # The closure of any subset is a closed subset and vice versa, so
    # sweeping closed subsets covers the closures of all 2^|Q| subsets.
    from qstar import partition_from_sizes

    Q = enumerate_Q(partition_from_sizes(sizes))
    assert len(Q) == q_size
    for mask in all_closed_subsets(Q):
        if mask == 0:
            continue
        indices = [i for i in range(len(Q)) if (mask >> i) & 1]
        sub = SemigroupSet(Q.n, Q.subset(indices), None)
        assert is_right_group(sub) == (is_regular_semigroup(sub) and is_left_cancellative(sub))
        assert is_right_group(sub)


def test_group_table_from_symmetric_group():
    G = symmetric_group_table(3)
    assert G.order == 6
    assert sorted(G.element_orders) == [1, 2, 2, 2, 3, 3]
    assert sorted(G.conjugacy_class_sizes) == [1, 2, 2, 3, 3, 3]
    assert G.inverse[G.identity] == G.identity


def test_group_table_rejects_non_group():
    T2 = full_transformation_semigroup(2)
    with pytest.raises(ContractError):
        GroupTable.from_semigroup(T2)


def test_symmetric_group_orders():
    for k, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
        assert symmetric_group_table(k).order == order
    with pytest.raises(ResourceLimitError):
        symmetric_group_table(6, max_order=120)


def test_symmetric_group_bound_is_checked_before_any_map_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a group past its order bound")

    monkeypatch.setattr(qstar.engine.SemigroupSet, "from_elements", refuse)
    with pytest.raises(ResourceLimitError, match="group order 5040 exceeds bound 120"):
        symmetric_group_table(7, max_order=120)


def test_subgroup_lattice_of_s3():
    G = symmetric_group_table(3)
    subs = subgroup_lattice(G)
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]
    maxima = maximal_subgroups(G)
    assert len(maxima) == 4
    assert sorted(len(s) for s in maxima) == [2, 2, 2, 3]


def test_subgroup_lattice_of_tiny_groups():
    assert len(subgroup_lattice(symmetric_group_table(1))) == 1
    assert len(subgroup_lattice(symmetric_group_table(2))) == 2


def test_subgroup_counts_of_s4():
    G = symmetric_group_table(4)
    assert len(subgroup_lattice(G)) == 30
    maxima = maximal_subgroups(G)
    assert sorted(len(s) for s in maxima) == [6, 6, 6, 6, 8, 8, 8, 12]
    assert len(maxima) == 8


def test_subgroup_lattice_matches_exhaustive_filter():
    G = symmetric_group_table(3)
    S = G.elements
    table = S.index_table
    expected = set()
    for r in range(1, 7):
        for combo in itertools.combinations(range(6), r):
            chosen = set(combo)
            closed = all(table[i][j] in chosen for i in combo for j in combo)
            if closed and G.identity in chosen:
                # Closed and nonempty in a finite group means subgroup.
                expected.add(combo)
    assert expected == set(subgroup_lattice(G))


def test_cyclic_four_subgroups():
    s = Transformation((1, 2, 3, 0))
    G = GroupTable.from_semigroup(closure([s]))
    assert G.order == 4
    assert sorted(len(sub) for sub in subgroup_lattice(G)) == [1, 2, 4]


def test_cyclic_four_is_not_klein_four():
    c4 = GroupTable.from_semigroup(closure([Transformation((1, 2, 3, 0))]))
    klein = GroupTable.from_semigroup(
        closure([Transformation((1, 0, 3, 2)), Transformation((2, 3, 0, 1))])
    )
    assert c4.order == klein.order == 4
    assert not groups_isomorphic(c4, klein)
    assert groups_isomorphic(c4, GroupTable.from_semigroup(closure([Transformation((3, 0, 1, 2))])))
    assert groups_isomorphic(klein, klein)


def test_groups_isomorphic_on_symmetric_groups():
    assert groups_isomorphic(symmetric_group_table(3), symmetric_group_table(3))
    assert not groups_isomorphic(symmetric_group_table(3), symmetric_group_table(2))


def test_all_closed_subsets_of_right_zero():
    S = SemigroupSet.from_elements([constant_map(2, 0), constant_map(2, 1)])
    assert set(all_closed_subsets(S)) == {0b00, 0b01, 0b10, 0b11}


def test_all_closed_subsets_of_cyclic_group():
    S = closure([Transformation((1, 2, 3, 0))])
    masks = all_closed_subsets(S)
    # Nonempty closed subsets of a finite group are its subgroups.
    assert len([m for m in masks if m]) == 3


def test_all_closed_subsets_count_matches_brute_force():
    Q = enumerate_Q(__import__("qstar").partition_from_sizes((2, 1)))
    table = Q.index_table
    brute = 0
    for r in range(len(Q) + 1):
        for combo in itertools.combinations(range(len(Q)), r):
            chosen = set(combo)
            if all(table[i][j] in chosen for i in combo for j in combo):
                brute += 1
    assert brute == len(all_closed_subsets(Q))


def test_is_maximal_subsemigroup(p6, alpha, t_sets):
    Q = enumerate_Q(p6)
    T1 = SemigroupSet.from_elements(t_sets["T1"])
    assert is_maximal_subsemigroup(T1, Q)
    idems = SemigroupSet.from_elements(alpha(i) for i in range(1, 7))
    assert not is_maximal_subsemigroup(idems, Q)
    with pytest.raises(ContractError):
        is_maximal_subsemigroup(Q, Q)
    with pytest.raises(ContractError):
        is_maximal_subsemigroup(SemigroupSet.from_elements([identity_map(6)]), Q)


def test_dropping_any_element_of_a_right_zero_is_maximal():
    S = SemigroupSet.from_elements(constant_map(3, v) for v in range(3))
    for x in range(3):
        kept = [constant_map(3, v) for v in range(3) if v != x]
        assert is_maximal_subsemigroup(SemigroupSet.from_elements(kept), S)


def test_one_element_short_subsets_are_maximal_when_closed():
    # A proper subsemigroup missing exactly one element has no room for
    # an intermediate subsemigroup.
    S = full_transformation_semigroup(2)
    table = S.index_table
    found = 0
    for x in range(len(S)):
        keep = [i for i in range(len(S)) if i != x]
        if all(table[i][j] != x for i in keep for j in keep):
            sub = SemigroupSet(S.n, S.subset(keep), None)
            assert is_maximal_subsemigroup(sub, S)
            found += 1
    assert found == 1
