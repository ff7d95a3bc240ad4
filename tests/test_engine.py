import itertools
import random
from collections import deque

import pytest

import qstar.engine
from qstar.engine import _close_mask, _extend, _mask_indices, is_homomorphism
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
    h_class,
    idempotents_Q,
    idempotents_right_zero,
    identity_map,
    integer_partitions,
    is_left_cancellative,
    is_maximal_subsemigroup,
    is_regular_semigroup,
    is_right_group,
    kernel_partition,
    maximal_subgroups,
    maximal_subsemigroups_Q,
    partition_from_sizes,
    subgroup_lattice,
    symmetric_group_table,
    symmetric_part_generators,
)


def full_transformation_semigroup(n):
    return SemigroupSet.from_elements(
        Transformation(imgs) for imgs in itertools.product(range(n), repeat=n)
    )


def test_semigroup_set_rejects_unclosed():
    a = Transformation((1, 2, 0))  # 3-cycle, closure has 3 elements
    with pytest.raises(ValidationError, match=r"not closed: \(1, 2, 0\) \* \(1, 2, 0\) escapes"):
        SemigroupSet.from_elements([a]).index_table
    half = SemigroupSet(3, (identity_map(3), a))  # canonical order, table not built
    with pytest.raises(ValidationError, match="not closed"):
        half.index_table


INDEX_SET_PREDICATES = (is_right_group, is_regular_semigroup, is_left_cancellative, idempotents_right_zero)


def test_predicates_on_an_index_set_equal_them_on_the_restriction():
    # T(2) and the semilattice hold closed sets that are not right groups.
    # The last set has a closed subset that is not regular, although each of
    # its elements is regular in the whole set.  So both answers occur.
    sets = [
        full_transformation_semigroup(2),
        SemigroupSet.from_elements([identity_map(2), constant_map(2, 0)]),
        enumerate_Q(partition_from_sizes((2, 1))),
        closure([Transformation((0, 0, 1)), Transformation((0, 2, 0))]),
    ]
    answers = {predicate: set() for predicate in INDEX_SET_PREDICATES}
    for S in sets:
        for predicate in INDEX_SET_PREDICATES:
            assert predicate(S) == predicate(S, list(range(len(S))))
        for mask in all_closed_subsets(S):
            if mask:
                ix = _mask_indices(mask, len(S))
                sub = SemigroupSet.from_elements(S.subset(ix))
                for predicate in INDEX_SET_PREDICATES:
                    assert predicate(S, ix) == predicate(sub), (predicate.__name__, S.elements, ix)
                    answers[predicate].add(predicate(sub))
    assert all(seen == {True, False} for seen in answers.values())


def test_right_group_test_on_an_index_set_rejects_a_set_that_is_not_closed():
    S = full_transformation_semigroup(2)
    swap = S.index_of(Transformation((1, 0)))
    assert not is_right_group(S, [swap])  # swap * swap is the identity


def test_a_duplicated_row_entry_fails_the_row_tests_on_an_index_set():
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    ix = next(_mask_indices(m, len(Q)) for m in all_closed_subsets(Q) if 1 < m.bit_count() < len(Q))
    a, b, c = ix[0], ix[0], ix[1]
    assert is_right_group(Q, ix) and is_left_cancellative(Q, ix)
    rows = [list(row) for row in Q.index_table]
    rows[a][b] = rows[a][c]
    mutated = SemigroupSet(Q.n, Q.elements)
    mutated.__dict__["index_table"] = tuple(map(tuple, rows))
    assert not is_right_group(mutated, ix)
    assert not is_left_cancellative(mutated, ix)


def test_index_table_rejects_mixed_degrees():
    S = SemigroupSet(2, (identity_map(2), identity_map(3)))
    with pytest.raises(ValidationError, match="mixed degrees"):
        S.index_table


def _table_row_by_row(S):
    """Every product a*b looked up, row by row, with the first escape named."""
    images = [t.images for t in S.elements]
    position = {v: i for i, v in enumerate(images)}
    rows = []
    for a in images:
        row = []
        for b in images:
            p = tuple(b[x] for x in a)
            if p not in position:
                raise ValidationError(f"set is not closed: {a} * {b} escapes")
            row.append(position[p])
        rows.append(tuple(row))
    return tuple(rows)


def _cold(S):
    """The same elements with no table built yet."""
    return SemigroupSet(S.n, S.elements)


def _table_sets():
    for n in range(1, 7):
        for sizes in integer_partitions(n):
            yield enumerate_Q(partition_from_sizes(sizes))
    for k in range(1, 6):
        yield symmetric_group_table(k).elements
    rng = random.Random(11)
    for n in (3, 4):
        for _ in range(60):
            yield closure([Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(rng.randint(1, 3))])
    yield SemigroupSet.from_elements([constant_map(3, 1)])
    # (a*b)(x) = b(a(x)) = a(x): idempotents with one image form a left-zero
    # band, where g*p == g, so no product reaches a new element.
    yield SemigroupSet.from_elements([Transformation(v) for v in ((0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 1, 1))])


def test_index_table_equals_the_row_by_row_table():
    checked = 0
    for S in _table_sets():
        assert _cold(S).index_table == _table_row_by_row(S), S.elements
        checked += 1
    assert checked == 29 + 5 + 120 + 2


def test_index_table_names_the_escape_the_row_by_row_table_names():
    # Q minus one element, a two-element set, and random subsets of T(3), a
    # sixth of which first escape in a row after their first.
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    cases = [SemigroupSet(Q.n, Q.elements[:i] + Q.elements[i + 1 :]) for i in range(len(Q))]
    cases.append(SemigroupSet(3, (Transformation((0, 0, 1)), Transformation((1, 2, 0)))))
    T3 = full_transformation_semigroup(3).elements
    rng = random.Random(3)
    cases += [SemigroupSet(3, tuple(sorted(rng.sample(T3, rng.randint(2, 20)), key=lambda t: t.images))) for _ in range(200)]
    for S in cases:
        with pytest.raises(ValidationError) as expected:
            _table_row_by_row(S)
        with pytest.raises(ValidationError, match="^set is not closed: ") as raised:
            S.index_table
        assert str(raised.value) == str(expected.value)


def test_a_cold_table_hashes_only_the_generator_rows(monkeypatch):
    # (3, 2, 1, 1) has |Q| = 144: 9 rows are looked up, the other 135 composed.
    Q = enumerate_Q(partition_from_sizes((3, 2, 1, 1)))
    real = qstar.engine.product_map
    rows = []
    monkeypatch.setattr(qstar.engine, "product_map", lambda a: rows.append(a) or real(a))
    table = _cold(Q).index_table
    assert len(Q) == 144 and len(rows) == 9
    assert table == _table_row_by_row(Q)


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


def test_closure_lists_its_elements_in_canonical_order(alpha):
    S = closure([alpha(7), alpha(7)])
    assert S.elements == tuple(sorted({alpha(1), alpha(7)}))


def test_corrected_generating_set_reaches_everything(p6, alpha):
    gens = [alpha(i) for i in (2, 3, 4, 5, 6, 7, 13)]
    S = closure(gens)
    assert len(S) == 36
    assert set(S) == set(enumerate_Q(p6))


def test_closure_resource_limit(alpha, monkeypatch):
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSURE", 10)
    with pytest.raises(ResourceLimitError):
        closure([alpha(i) for i in (2, 3, 4, 5, 6, 7, 13)])


BOUND_CASES = [
    [(1, 2, 0)],
    [(0, 0, 1)],
    [(1, 0, 2), (1, 2, 0)],
    [(1, 2, 0), (1, 0, 2), (0, 0, 2)],  # all of T(3)
]


@pytest.mark.parametrize("gens", [[Transformation(g) for g in case] for case in BOUND_CASES] + ["Q(2,2,1)"])
def test_closure_stops_exactly_at_its_bound(gens, monkeypatch):
    if gens == "Q(2,2,1)":
        P = partition_from_sizes((2, 2, 1))
        gens = symmetric_part_generators(P) + idempotents_Q(P)
    S = closure(gens)
    assert len(S) > len(set(gens))
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSURE", len(S))
    assert closure(gens).elements == S.elements
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSURE", len(S) - 1)
    with pytest.raises(ResourceLimitError, match=f"^closure exceeded max_size={len(S) - 1}$"):
        closure(gens)


def test_closure_bound_counts_generators_that_are_already_closed(monkeypatch):
    # Every product of S is known from the start, so no element is added.
    S = enumerate_Q(partition_from_sizes((2, 1)))
    assert len(S) == 4
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSURE", 3)
    with pytest.raises(ResourceLimitError, match="^closure exceeded max_size=3$"):
        closure(S.elements)
    with pytest.raises(ResourceLimitError, match="^closure exceeded max_size=3$"):
        closure(S.elements + S.elements)
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSURE", 4)
    assert closure(S.elements + S.elements).elements == S.elements
    assert closure(S.elements).elements == S.elements


def _closure_one_product_at_a_time(gens):
    """Each known element times each generator, one product at a time."""
    gen_images = sorted({g.images for g in gens})
    known = set(gen_images)
    work = deque(gen_images)
    while work:
        a = work.popleft()
        for g in gen_images:
            p = tuple(g[v] for v in a)
            if p not in known:
                known.add(p)
                work.append(p)
    return sorted(known)


@pytest.mark.parametrize("n", [3, 4])
def test_closure_equals_a_one_product_at_a_time_worklist(n):
    rng = random.Random(n)
    sizes = set()
    for _ in range(150):
        gens = [Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(rng.randint(1, 3))]
        expected = _closure_one_product_at_a_time(gens)
        assert [a.images for a in closure(gens)] == expected, [g.images for g in gens]
        assert qstar.engine.closure_images(gens) == expected
        sizes.add(len(expected))
    assert len(sizes) > 10


def _two_sided_fixpoint(gens):
    """Every product x*y of known elements, repeated until nothing new appears."""
    known = {g.images for g in gens}
    while True:
        products = {tuple(y[v] for v in x) for x in known for y in known}
        if products <= known:
            return sorted(known)
        known |= products


@pytest.mark.parametrize("n", [3, 4])
def test_closure_images_equals_the_two_sided_fixpoint_on_open_and_closed_generators(n):
    rng = random.Random(30 + n)
    closed = 0
    for _ in range(60):
        gens = [Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(rng.randint(1, 3))]
        expected = _two_sided_fixpoint(gens)
        assert qstar.engine.closure_images(gens) == expected
        # The closure is closed: fed back, it gives itself.
        generated = [Transformation(v) for v in expected]
        assert qstar.engine.closure_images(generated) == expected
        closed += len(expected) == len({g.images for g in gens})
    assert closed > 0
    # Closed subsets of Q for (3, 2, 1), which lie in T(6).
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    for mask in all_closed_subsets(Q)[1::7]:
        members = [Q.elements[i] for i in _mask_indices(mask, len(Q))]
        assert qstar.engine.closure_images(members) == [a.images for a in members]


def test_closure_of_closed_generators_makes_no_left_product(monkeypatch):
    calls = []
    real = qstar.engine.product_map

    def counting(a_images):
        calls.append(a_images)
        return real(a_images)

    monkeypatch.setattr(qstar.engine, "product_map", counting)
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    images = [a.images for a in Q]
    assert qstar.engine.closure_images(reversed(Q.elements)) == images
    assert calls == images  # one right pass over the worklist, nothing after it
    calls.clear()
    gens = [Q.elements[0], Q.elements[7]]
    generated = qstar.engine.closure_images(gens)
    assert len(generated) > len(gens)
    assert calls[len(generated):] == [g.images for g in gens]  # an open set still gets its left pass


def test_mask_indices_equals_a_scan_of_every_position():
    rng = random.Random(7)
    for size in (1, 2, 63, 64, 65, 200, 5040):
        full = (1 << size) - 1
        for mask in (0, 1, full, 1 << (size - 1), rng.getrandbits(size), rng.getrandbits(size) & rng.getrandbits(size)):
            assert _mask_indices(mask, size) == [i for i in range(size) if (mask >> i) & 1]
        assert _mask_indices(full << 1 | 1, size) == list(range(size))  # bits from size up are left out


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


def test_regular_with_right_zero_idempotents_is_false_on_a_semilattice():
    # {identity, constant 0} of T(2): both idempotent and regular, but
    # constant * identity == constant, not identity.
    S = SemigroupSet.from_elements([identity_map(2), constant_map(2, 0)])
    assert is_regular_semigroup(S)
    assert not idempotents_right_zero(S)
    assert not is_right_group(S)


def test_right_group_iff_regular_with_right_zero_idempotents_on_t3():
    # Closures of every one or two maps of T(3): many are regular without
    # being right groups, and the second leg must tell them apart.
    maps = [Transformation(images) for images in itertools.product(range(3), repeat=3)]
    subs = {S.elements: S for S in map(closure, itertools.combinations_with_replacement(maps, 2))}
    regular_only = 0
    for S in subs.values():
        regular = is_regular_semigroup(S)
        assert is_right_group(S) == (regular and idempotents_right_zero(S))
        regular_only += regular and not is_right_group(S)
    assert regular_only > 0


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
        sub = SemigroupSet.from_elements(Q.subset(_mask_indices(mask, len(Q))))
        regular = is_regular_semigroup(sub)
        assert is_right_group(sub) == (regular and is_left_cancellative(sub))
        # The leg above holds on every finite table; this one does not.
        assert is_right_group(sub) == (regular and idempotents_right_zero(sub))
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


def test_group_table_rejects_a_right_zero_band_for_lacking_an_identity():
    band = SemigroupSet.from_elements([constant_map(2, 0), constant_map(2, 1)])
    with pytest.raises(ContractError, match="^not a group: no two-sided identity$"):
        GroupTable.from_semigroup(band)


def test_group_table_checks_a_right_inverse_from_the_left():
    # A forged, non-associative table: 1 * 2 is the identity 0, but 2 * 1 is not.
    # In an associative table a right inverse is always two-sided.
    S = SemigroupSet(2, (identity_map(2), constant_map(2, 0), constant_map(2, 1)))
    S.__dict__["index_table"] = ((0, 1, 2), (1, 2, 0), (2, 2, 1))
    with pytest.raises(ContractError, match="^not a group: element 1 has no inverse$"):
        GroupTable.from_semigroup(S)


def test_group_table_rejects_an_element_without_an_inverse():
    monoid = SemigroupSet.from_elements([identity_map(2), constant_map(2, 0)])
    with pytest.raises(ContractError, match="^not a group: element 0 has no inverse$"):
        GroupTable.from_semigroup(monoid)


def test_symmetric_group_orders(monkeypatch):
    for k, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
        assert symmetric_group_table(k).order == order
    monkeypatch.setattr(qstar.engine, "MAX_GROUP_ORDER", 120)
    with pytest.raises(ResourceLimitError):
        symmetric_group_table(6)


def test_symmetric_group_bound_is_checked_before_any_map_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a group past its order bound")

    monkeypatch.setattr(qstar.engine, "Transformation", refuse)
    monkeypatch.setattr(qstar.engine.SemigroupSet, "from_elements", refuse)
    with pytest.raises(ResourceLimitError, match="^group order 40320 exceeds MAX_GROUP_ORDER=5040$"):
        symmetric_group_table(8)
    monkeypatch.setattr(qstar.engine, "MAX_GROUP_ORDER", 120)
    with pytest.raises(ResourceLimitError, match="^group order 5040 exceeds MAX_GROUP_ORDER=120$"):
        symmetric_group_table(7)


def test_subgroup_lattice_of_s3():
    G = symmetric_group_table(3)
    subs = subgroup_lattice(G)
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]
    maxima = maximal_subgroups(G.elements)
    assert len(maxima) == 4
    assert sorted(len(s) for s in maxima) == [2, 2, 2, 3]


def test_subgroup_lattice_of_tiny_groups():
    assert len(subgroup_lattice(symmetric_group_table(1))) == 1
    assert len(subgroup_lattice(symmetric_group_table(2))) == 2


def _subgroup_lattice_reference(G):
    """Cyclic subgroups, then pairwise joins iterated to a fixpoint: the
    reference lattice for ``subgroup_lattice``.  Every subgroup is the join
    of its cyclic subgroups, so this is complete."""
    t = G.table
    initial = {_close_mask(t, 1 << i) for i in range(G.order)}
    known = set(initial)
    work = deque(initial)
    while work:
        x = work.popleft()
        for y in list(known):
            if x | y in (x, y):
                continue
            j = _close_mask(t, x | y)
            if j not in known:
                known.add(j)
                work.append(j)
    subs = [tuple(_mask_indices(mask, G.order)) for mask in known]
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


def test_subgroup_lattice_equals_the_pairwise_join_fixpoint():
    groups = [symmetric_group_table(k) for k in range(1, 5)]
    for sizes in ((2, 2, 1), (3, 2, 1, 1)):
        P = partition_from_sizes(sizes)
        groups.append(h_class(idempotents_Q(P)[0], P))
    for G in groups:
        assert subgroup_lattice(G) == _subgroup_lattice_reference(G)


def test_subgroup_counts_of_s4():
    G = symmetric_group_table(4)
    assert len(subgroup_lattice(G)) == 30
    maxima = maximal_subgroups(G.elements)
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


def _next_closure_reference(S):
    """Ganter's next-closure, one ``_close_mask`` call per candidate: the
    reference order for ``all_closed_subsets``."""
    t = S.index_table
    size = len(S)
    full = (1 << size) - 1
    out = [0]
    a = 0
    while a != full:
        for i in range(size - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                continue
            lower = bit - 1
            b = _close_mask(t, (a & lower) | bit)
            if (b & lower) & ~a == 0:
                break
        else:
            raise AssertionError("next-closure stalled below the full set")
        a = b
        out.append(a)
    return tuple(out)


def test_all_closed_subsets_equals_next_closure_in_order():
    covered = 0
    for n in range(1, 7):
        for sizes in integer_partitions(n):
            Q = enumerate_Q(partition_from_sizes(sizes))
            if len(Q) > 48:
                continue
            assert all_closed_subsets(Q) == _next_closure_reference(Q), sizes
            covered += 1
    assert covered == 24


def _closed_sets_with_chains(sizes):
    """(table, C, members, gens) for every closed set C of Q, with C = <gens>."""
    Q = enumerate_Q(partition_from_sizes(sizes))
    t = Q.index_table
    for C in all_closed_subsets(Q):
        members = _mask_indices(C, len(Q))
        gens, closed = [], 0
        for i in members:
            if not (closed >> i) & 1:
                gens.append(i)
                closed = _close_mask(t, sum(1 << g for g in gens))
        assert closed == C
        yield t, C, members, gens


@pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 1), (3, 2, 1), (4, 3)])
def test_extend_equals_close_mask_on_every_closed_set(sizes):
    for t, C, members, gens in _closed_sets_with_chains(sizes):
        for x in range(len(t)):
            if (C >> x) & 1:
                assert _extend(t, C, members, gens, x) == (C, members)
                continue
            expected = _close_mask(t, C | (1 << x))
            mask, grown = _extend(t, C, members, gens, x)
            assert mask == expected
            assert sorted(grown) == _mask_indices(expected, len(t))


@pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 1), (3, 2, 1)])
def test_extend_returns_a_witness_exactly_when_the_closure_meets_stop(sizes):
    for t, C, members, gens in _closed_sets_with_chains(sizes):
        full = (1 << len(t)) - 1
        for x in range(len(t)):
            if (C >> x) & 1:
                continue
            expected = _close_mask(t, C | (1 << x))
            # Stop masks disjoint from C: the whole outside, what the closure
            # misses, and the lowest and highest element it gains besides x.
            gained = expected & ~C & ~(1 << x)
            stops = [full & ~C, full & ~expected]
            if gained:
                stops += [gained & -gained, 1 << (gained.bit_length() - 1)]
            for stop in stops:
                result = _extend(t, C, members, gens, x, stop)
                if stop & expected:
                    assert isinstance(result, int)
                    assert (stop >> result) & 1 and (expected >> result) & 1
                else:
                    mask, grown = result
                    assert mask == expected
                    assert sorted(grown) == _mask_indices(expected, len(t))


def test_oracles_close_from_scratch_only_to_test_closedness(monkeypatch, p6, t_sets):
    calls = []
    real = qstar.engine._close_mask

    def counting(table, mask):
        calls.append(mask)
        return real(table, mask)

    monkeypatch.setattr(qstar.engine, "_close_mask", counting)
    Q = enumerate_Q(p6)
    assert len(all_closed_subsets(Q)) > 2
    assert calls == []
    assert is_maximal_subsemigroup(SemigroupSet.from_elements(t_sets["T1"]), Q)
    assert calls == []


def test_maximality_predicate_rejects_a_set_that_is_not_closed(p6, alpha):
    Q = enumerate_Q(p6)
    T = SemigroupSet(p6.n, (alpha(13),))  # a 3-cycle pattern: its square is missing
    with pytest.raises(ContractError, match="^T is not closed$"):
        is_maximal_subsemigroup(T, Q)


def test_all_closed_subsets_raises_when_the_full_set_is_missed(monkeypatch):
    Q = enumerate_Q(partition_from_sizes((2, 1)))
    full = (1 << len(Q)) - 1
    real = qstar.engine._extend

    def drop_full(table, closed, members, gens, x, stop=0):
        result = real(table, closed, members, gens, x, stop)
        # Claim the full set stopped, with x as its witness.
        return x if not isinstance(result, int) and result[0] == full else result

    monkeypatch.setattr(qstar.engine, "_extend", drop_full)
    with pytest.raises(InternalConsistencyError, match="^Close-by-One enumeration missed the full set$"):
        all_closed_subsets(Q)


def test_all_closed_subsets_skips_the_extensions_a_witness_decides(monkeypatch):
    Q = enumerate_Q(partition_from_sizes((3, 3)))
    real = qstar.engine._extend
    results = []

    def counting(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(qstar.engine, "_extend", counting)
    closed = all_closed_subsets(Q)
    stopped = sum(isinstance(r, int) for r in results)
    # One call reaches each nonempty closed set.  Plain Close-by-One makes
    # 5,890 calls that stop below i; the inherited witnesses leave 511.
    assert len(results) - stopped == len(closed) - 1 == 1022
    assert stopped == 511


def test_all_closed_subsets_count_bound(monkeypatch):
    Q = enumerate_Q(partition_from_sizes((2, 2)))
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSED_SETS", 31)
    assert len(all_closed_subsets(Q)) == 31
    monkeypatch.setattr(qstar.engine, "DEFAULT_MAX_CLOSED_SETS", 30)
    with pytest.raises(ResourceLimitError, match="^more than 30 closed subsets$"):
        all_closed_subsets(Q)


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


@pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 1), (3, 2, 1)])
def test_is_maximal_subsemigroup_equals_the_rule_from_scratch(sizes):
    Q = enumerate_Q(partition_from_sizes(sizes))
    t = Q.index_table
    full = (1 << len(Q)) - 1
    verdicts = []
    for T in all_closed_subsets(Q):
        if T in (0, full):
            continue
        outside = [x for x in range(len(Q)) if not (T >> x) & 1]
        expected = all(_close_mask(t, T | (1 << x)) == full for x in outside)
        sub = SemigroupSet(Q.n, Q.subset(_mask_indices(T, len(Q))))
        assert is_maximal_subsemigroup(sub, Q) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_each_maximal_set_gets_one_full_closure(monkeypatch):
    Q = enumerate_Q(partition_from_sizes((3, 2, 1, 1)))
    full = (1 << len(Q)) - 1
    real = qstar.engine._extend
    full_results = []

    def counting(table, closed, members, gens, x, stop=0):
        result = real(table, closed, members, gens, x, stop)
        if not (closed >> x) & 1 and not isinstance(result, int) and result[0] == full:
            full_results.append(closed)
        return result

    monkeypatch.setattr(qstar.engine, "_extend", counting)
    report = maximal_subsemigroups_Q(partition_from_sizes((3, 2, 1, 1)))
    assert report.verified and report.total == 14  # s_4 = 8, m = 6
    # One full closure per set, for its first outside element; every later
    # outside element stops at an element already known to generate.
    assert len(full_results) == len(set(full_results)) == 14


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
            sub = SemigroupSet(S.n, S.subset(keep))
            assert is_maximal_subsemigroup(sub, S)
            found += 1
    assert found == 1


def test_is_homomorphism_rejects_two_swapped_images():
    G = symmetric_group_table(3)
    t = G.table
    phi = list(range(G.order))
    assert is_homomorphism(phi, t, t)
    transposition = G.element_orders.index(2)
    three_cycle = G.element_orders.index(3)
    phi[transposition], phi[three_cycle] = three_cycle, transposition
    assert not is_homomorphism(phi, t, t)
