import itertools
import json
import math
import sys
import time

import pytest

import qstar.engine
import qstar.maximal
import qstar.qsemigroup
import qstar.transformation
from qstar import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    Transformation,
    block_permutation,
    build_isomorphism,
    cardinality_Q,
    compose,
    decompose,
    enumerate_Q,
    enumerate_Q_bruteforce,
    h_class,
    identity_partition,
    idempotents_Q,
    image,
    in_Q,
    is_group_Q,
    maximal_subsemigroups_Q,
    minimal_generating_set,
    partition_from_sizes,
    partition_from_spec,
    q_shorthand,
    symmetric_group_table,
    symmetric_part_generators,
    universal_partition,
)
from qstar.cli import main
from qstar.engine import GroupTable, SemigroupSet, groups_isomorphic
from qstar.qsemigroup import prove_Q, rank_pairing

from conftest import BASE_H_CLASS_INDICES, IDEMPOTENT_INDICES, Q36_SHORTHANDS, bound_closures, clear_q_caches, shapes

SMALL_PARTITIONS = [
    (1,),
    (2,),
    (3,),
    (1, 1),
    (2, 1),
    (3, 1),
    (2, 2),
    (1, 1, 1),
    (2, 1, 1),
    (2, 2, 1),
    (4, 1),
]


def test_cardinality_formula():
    assert cardinality_Q(partition_from_sizes((3, 2, 1))) == 36
    assert cardinality_Q(partition_from_sizes((2, 2))) == 8
    assert cardinality_Q(identity_partition(3)) == 6
    assert cardinality_Q(partition_from_sizes((4, 3))) == 24
    assert cardinality_Q(universal_partition(5)) == 5


@pytest.mark.parametrize("sizes", SMALL_PARTITIONS)
def test_enumeration_matches_brute_force(sizes):
    P = partition_from_sizes(sizes)
    fast = enumerate_Q(P)
    brute = enumerate_Q_bruteforce(P)
    assert tuple(fast) == tuple(brute)
    assert len(fast) == cardinality_Q(P)


def test_enumeration_and_membership_on_one_point():
    # product_map wraps the bare int that itemgetter returns on one point.
    P = partition_from_sizes((1,))
    clear_q_caches()  # so the build runs here
    assert enumerate_Q(P).elements == (Transformation((0,)),)
    assert in_Q(P, Transformation((0,)))


def test_brute_force_enumeration_stops_at_the_map_bound(monkeypatch):
    P = partition_from_sizes((2, 1))  # 3^3 = 27 candidate maps
    monkeypatch.setattr(qstar.qsemigroup, "DEFAULT_MAX_MAPS", 26)
    with pytest.raises(ResourceLimitError, match="^27 candidate maps exceed DEFAULT_MAX_MAPS=26$"):
        enumerate_Q_bruteforce(P)
    monkeypatch.setattr(qstar.qsemigroup, "DEFAULT_MAX_MAPS", 27)
    assert len(enumerate_Q_bruteforce(P)) == 4


def test_reference_instance_is_exactly_the_frozen_table(p6, alpha):
    Q = enumerate_Q(p6)
    assert len(Q) == 36
    assert set(Q) == {alpha(i) for i in range(1, 37)}
    assert all(in_Q(p6, a) for a in Q)
    assert len(set(Q36_SHORTHANDS)) == 36


def test_idempotents(p6, alpha):
    idems = idempotents_Q(p6)
    assert set(idems) == {alpha(i) for i in IDEMPOTENT_INDICES}
    assert len(idems) == p6.m
    for f in idems:
        for g in idems:
            assert compose(f, g) == g


@pytest.mark.parametrize("sizes", SMALL_PARTITIONS)
def test_idempotent_count_is_m(sizes):
    P = partition_from_sizes(sizes)
    assert len(idempotents_Q(P)) == P.m


def test_group_iff_identity_relation():
    assert is_group_Q(identity_partition(4))
    assert is_group_Q(identity_partition(1))
    assert not is_group_Q(partition_from_sizes((2, 1)))
    Q = enumerate_Q(identity_partition(3))
    assert len(Q) == math.factorial(3)
    assert len(idempotents_Q(identity_partition(3))) == 1


def test_identity_relation_h_class_is_the_whole_group():
    P = identity_partition(3)
    e = idempotents_Q(P)[0]
    G = h_class(e, P)
    assert set(G.elements) == set(enumerate_Q(P))
    assert groups_isomorphic(G, symmetric_group_table(3))


def test_decompose_degenerate_shapes():
    dec = decompose(identity_partition(3))
    assert len(dec.group_part) == 6
    assert len(dec.idempotent_part) == 1
    one_block = decompose(universal_partition(4))
    assert len(one_block.group_part) == 1
    assert len(one_block.idempotent_part) == 4


def test_block_permutation(p6, alpha):
    assert block_permutation(p6, alpha(1)) == (0, 1, 2)
    assert block_permutation(p6, alpha(7)) == (1, 0, 2)
    assert block_permutation(p6, alpha(13)) == (1, 2, 0)
    assert block_permutation(p6, alpha(25)) == (0, 2, 1)
    with pytest.raises(ContractError):
        block_permutation(p6, Transformation((0,) * 6))


def test_block_permutation_is_multiplicative(p6, alpha):
    for i in (2, 7, 13, 20, 28, 33):
        for j in (1, 8, 16, 24, 30, 36):
            a, b = alpha(i), alpha(j)
            pa = block_permutation(p6, a)
            pb = block_permutation(p6, b)
            composed = tuple(pb[pa[x]] for x in range(3))
            assert block_permutation(p6, compose(a, b)) == composed


def test_h_class_of_base_idempotent(p6, alpha):
    G = h_class(alpha(1), p6)
    assert G.order == 6
    assert set(G.elements) == {alpha(i) for i in BASE_H_CLASS_INDICES}
    assert G.elements.elements[G.identity] == alpha(1)
    assert groups_isomorphic(G, symmetric_group_table(3))


def test_h_class_shared_by_members(p6, alpha):
    assert h_class(alpha(7), p6).elements == h_class(alpha(1), p6).elements
    assert h_class(alpha(2), p6).elements != h_class(alpha(1), p6).elements


def test_h_classes_partition_q(p6):
    Q = enumerate_Q(p6)
    seen = []
    for f in idempotents_Q(p6):
        members = set(h_class(f, p6).elements)
        assert members == {a for a in Q if image(a) == image(f)}
        seen.append(members)
    assert sum(len(s) for s in seen) == len(Q)


def test_decomposition_round_trip(p6, alpha):
    dec = decompose(p6)
    assert dec.base_idempotent == alpha(1)
    assert len(dec.group_part) == 6
    assert len(dec.idempotent_part) == 6
    G = dec.group_part
    Q = enumerate_Q(p6)
    for q in Q:
        i, j = dec.coordinates(q)
        assert dec.element(i, j) is Q.elements[Q.index_of(q)]
        assert dec.patterns[i] == block_permutation(p6, G[i])
    assert dec.coordinates(alpha(8)) == (G.index(alpha(7)), dec.idempotent_part.index(alpha(2)))
    with pytest.raises(ContractError, match="not an element of Q"):
        dec.coordinates(Transformation((0,) * 6))


def test_decomposition_product_law():
    # (i, j)(i', j') = (i * i', j') on every pair, and (i, j) is G[i] * idems[j].
    for sizes in ((3, 2, 1), (2, 2, 1, 1), (1, 1, 1), (4,)):
        P = partition_from_sizes(sizes)
        dec = decompose(P)
        G = dec.group_part
        idems = dec.idempotent_part
        Q = enumerate_Q(P)
        coords = [dec.coordinates(q) for q in Q]
        times = [[G.index(compose(a, b)) for b in G] for a in G]  # the group part's own products
        for q, (i, j) in zip(Q, coords):
            assert compose(G[i], idems[j]) == q
        for q1, (i1, _) in zip(Q, coords):
            for q2, (i2, j2) in zip(Q, coords):
                assert dec.coordinates(compose(q1, q2)) == (times[i1][i2], j2)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda idems: idems[:-1],  # too few products: some of Q is never reached
        lambda idems: idems[:-1] + idems[:1],  # a product is reached twice
        lambda idems: idems[:-1] + (Transformation((0,) * 4),),  # a product outside Q
    ],
    ids=["dropped", "duplicated", "foreign"],
)
def test_decompose_reports_a_pairing_that_is_not_a_bijection(monkeypatch, corrupt):
    P = partition_from_sizes((2, 1, 1))
    clear_q_caches()
    enumerate_Q(P)  # built from the true idempotents: on a cold cache it would be built from the corrupted ones
    real = qstar.qsemigroup.idempotents_Q
    monkeypatch.setattr(qstar.qsemigroup, "idempotents_Q", lambda *args: corrupt(real(*args)))
    with pytest.raises(InternalConsistencyError, match=r"^pairing \(a, f\) -> a\*f is not a bijection onto Q$"):
        decompose(P)


@pytest.mark.parametrize("sizes", [(2, 2, 1, 1), (3, 2, 1, 1)])
def test_constructions_on_coordinates_make_no_compose_calls(monkeypatch, sizes):
    P = partition_from_sizes(sizes)
    clear_q_caches()
    idempotents_Q(P)
    enumerate_Q(P)
    real = qstar.transformation.compose
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qstar" and getattr(module, "compose", None) is real:
            monkeypatch.setattr(module, "compose", counting)
    assert Transformation((1, 0)) * Transformation((1, 0)) == Transformation((0, 1))
    assert len(calls) == 1  # the counter sees compose, also through Transformation.__mul__
    calls.clear()
    decompose(P)
    build_isomorphism(P, P)
    maximal_subsemigroups_Q(P)
    assert calls == []


def test_enumerate_q_resource_limit(monkeypatch):
    P = partition_from_sizes((3, 3, 2, 1, 1, 1, 1))  # |Q| = 7! * 18 = 90720
    bound_closures(monkeypatch, 1000)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 90720 exceeds DEFAULT_MAX_CLOSURE=1000$"):
        enumerate_Q(P)


def test_enumeration_is_cached(p6):
    assert enumerate_Q(p6) is enumerate_Q(p6)
    assert idempotents_Q(p6) is idempotents_Q(p6)


@pytest.mark.parametrize("cleared", [enumerate_Q, idempotents_Q, decompose], ids=lambda fn: fn.__name__)
def test_clearing_any_one_cache_leaves_no_object_of_an_older_build(monkeypatch, cleared):
    # The grid, the idempotent part and the reported generators must all be
    # the objects of the Q that is served now, whichever name was cleared.
    P = partition_from_sizes((3, 2, 1))
    closed = []
    real = qstar.qsemigroup.packed_closure

    def recording(P, generators, max_size):
        closed.append(tuple(generators))
        return real(P, generators, max_size=max_size)

    monkeypatch.setattr(qstar.qsemigroup, "packed_closure", recording)
    clear_q_caches()
    decompose(P)
    cleared.cache_clear()
    dec, Q = decompose(P), enumerate_Q(P)
    served = {q.images: q for q in Q}
    cells = [dec.element(i, j) for i in range(len(dec.group_part)) for j in range(P.m)]
    assert len(cells) == len(Q) and all(q is served[q.images] for q in cells)
    assert dec.idempotent_part is idempotents_Q(P)
    generators = minimal_generating_set(P).generators
    assert len(generators) == len(closed[-1]) and all(g is h for g, h in zip(generators, closed[-1]))


def test_bounds_refuse_a_smaller_bound_against_a_cached_record(monkeypatch):
    P = partition_from_sizes((3, 2, 1))  # |Q| = 36, m = 6, k! = 6
    enumerate_Q(P)
    decompose(P)
    bound_closures(monkeypatch, 35)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 36 exceeds DEFAULT_MAX_CLOSURE=35$"):
        enumerate_Q(P)
    with pytest.raises(ResourceLimitError, match=r"^\|Q\| = 36 exceeds DEFAULT_MAX_CLOSURE=35$"):
        decompose(P)
    monkeypatch.setattr(qstar.maximal, "MAX_GROUP_ORDER", 5)
    with pytest.raises(ResourceLimitError, match="^H-class order 6 exceeds MAX_GROUP_ORDER=5$"):
        maximal_subsemigroups_Q(P)
    # decompose refuses in build order: m, then |Q| = k!*m.  The maximal
    # construction refuses k! between them, before it decomposes.
    bound_closures(monkeypatch, 5)
    with pytest.raises(ResourceLimitError, match="^idempotent count 6 exceeds DEFAULT_MAX_CLOSURE=5$"):
        idempotents_Q(P)
    with pytest.raises(ResourceLimitError, match="^idempotent count 6 exceeds DEFAULT_MAX_CLOSURE=5$"):
        decompose(P)
    with pytest.raises(ResourceLimitError, match="^idempotent count 6 exceeds DEFAULT_MAX_CLOSURE=5$"):
        maximal_subsemigroups_Q(P)


@pytest.mark.parametrize(
    "argv, closure, group_order, message",
    [
        (["maximal", "--partition", "1,2|3"], 1, None, "idempotent count 2 exceeds DEFAULT_MAX_CLOSURE=1"),
        (["maximal", "--partition", "1,2|3,4|5"], 5, 2, "H-class order 6 exceeds MAX_GROUP_ORDER=2"),
        (["maximal", "--partition", "1,2|3|4"], 3, None, "|Q| = 12 exceeds DEFAULT_MAX_CLOSURE=3"),
    ],
    ids=["idempotents", "h-class", "q"],
)
def test_cli_bounds_hold_after_the_instance_is_cached(capsys, monkeypatch, argv, closure, group_order, message):
    assert main(argv) == 0  # builds and keeps the records under the default bounds
    capsys.readouterr()
    bound_closures(monkeypatch, closure)
    if group_order is not None:
        monkeypatch.setattr(qstar.maximal, "MAX_GROUP_ORDER", group_order)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"resource limit: {message}\n")


def test_a_failed_closure_proof_keeps_nothing(monkeypatch):
    P = partition_from_sizes((2, 1, 1))
    escaping = (Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3)))  # generate all 24 permutations
    monkeypatch.setattr(qstar.qsemigroup, "symmetric_part_generators", lambda P: escaping)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="not closed"):
        enumerate_Q(P)
    monkeypatch.undo()
    assert tuple(enumerate_Q(P)) == tuple(enumerate_Q_bruteforce(P))  # no clear in between
    assert minimal_generating_set(P).generators == rank_pairing(P)[0]
    assert all(g in enumerate_Q(P) for g in symmetric_part_generators(P))


def _plant_in_built_set(monkeypatch, P, corrupt):
    """Make enumerate_Q build ``corrupt(images)`` in place of its least
    element that is not a factor of R; returns the list that records the
    replaced element's image tuple."""
    factors = {bytes(a.images) for a in symmetric_part_generators(P) + idempotents_Q(P)}
    real = qstar.qsemigroup._built
    planted = []

    def planting(P):
        built = real(P)
        replaced = min(built - factors)
        planted.append(tuple(replaced))
        return built - {replaced} | {bytes(corrupt(tuple(replaced)))}

    monkeypatch.setattr(qstar.qsemigroup, "_built", planting)
    return planted


def test_closure_proof_catches_a_corrupted_element(monkeypatch):
    # With the membership filter switched off, a corrupted element keeps the
    # count right, so only the closure proof can notice it: the closure of
    # the symmetric part and the idempotents reaches the element it replaced.
    P = partition_from_sizes((2, 1, 1))
    planted = _plant_in_built_set(monkeypatch, P, lambda images: tuple(range(P.n)))  # the identity map, not in Q
    monkeypatch.setattr(qstar.qsemigroup, "all_in_Q", lambda P, images: True)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="not closed"):
        enumerate_Q(P)
    assert planted


def test_membership_is_checked_in_one_batch_not_per_element(monkeypatch):
    P = partition_from_sizes((2, 2, 1, 1, 1))
    per_element, batches = [], []
    real_in_Q, real_all_in_Q = qstar.qsemigroup.in_Q, qstar.qsemigroup.all_in_Q
    monkeypatch.setattr(qstar.qsemigroup, "in_Q", lambda P, a: per_element.append(a) or real_in_Q(P, a))
    monkeypatch.setattr(qstar.qsemigroup, "all_in_Q", lambda P, images: batches.append(len(images)) or real_all_in_Q(P, images))
    clear_q_caches()
    assert len(enumerate_Q(P)) == 480
    assert per_element == []
    assert batches == [P.m, 480]  # the idempotents, then the built set


def test_membership_batch_catches_a_non_member_that_passes_the_closure_proof(monkeypatch):
    # The closure is made to report the planted identity map in place of the
    # element it replaced, so the count, the factors and the closure
    # equality all pass, and only the membership batch is left to see it.
    P = partition_from_sizes((2, 1, 1))
    identity = tuple(range(P.n))
    planted = _plant_in_built_set(monkeypatch, P, lambda images: identity)
    real = qstar.qsemigroup.packed_closure

    def passing(P, generators, max_size):
        return {bytes(identity) if tuple(p) == planted[0] else p for p in real(P, generators, max_size=max_size)}

    monkeypatch.setattr(qstar.qsemigroup, "packed_closure", passing)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="^constructed element fails the membership predicate$"):
        enumerate_Q(P)
    assert planted


@pytest.mark.parametrize(
    "wrong, member",
    [
        # The identity map is idempotent and sends each block into itself,
        # but not to one point, so it is not in Q.
        (lambda P: tuple(range(P.n)), False),
        # A member of Q that sends block {0, 1} to 2: with a*a == a switched
        # off, only the blockwise test sees it.
        (lambda P: (2, 2, 3, 0), True),
    ],
    ids=["identity", "moves-a-block"],
)
def test_idempotents_reject_a_wrong_build_before_it_is_cached(monkeypatch, wrong, member):
    P = partition_from_sizes((2, 1, 1))
    real = qstar.qsemigroup.product_map
    planted = []

    def planting(a_images):
        spread = real(a_images)
        if a_images is not P.block_of:
            return spread

        def faulty(choice):
            if planted:
                return spread(choice)
            planted.append(wrong(P))
            return planted[0]

        return faulty

    monkeypatch.setattr(qstar.qsemigroup, "product_map", planting)
    if member:
        monkeypatch.setattr(qstar.qsemigroup, "compose", lambda a, b: a)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="^constructed idempotent does not send each block to one of its own points$"):
        idempotents_Q(P)
    assert in_Q(P, Transformation(planted[0])) == member
    monkeypatch.undo()
    idems = idempotents_Q(P)
    assert len(idems) == P.m
    assert all(in_Q(P, e) and e * e == e and e.images != planted[0] for e in idems)


def test_closure_proof_reports_escaping_generators_as_not_closed(monkeypatch):
    # A 4-cycle and a transposition generate all 24 permutations of 4 points,
    # twice |Q| = 12: the bounded closure stops at |Q| and the proof fails as
    # an internal inconsistency, not as a resource limit.
    P = partition_from_sizes((2, 1, 1))
    escaping = (Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3)))
    monkeypatch.setattr(qstar.qsemigroup, "symmetric_part_generators", lambda P: escaping)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="not closed"):
        enumerate_Q(P)


def test_closure_proof_reports_generators_that_fall_short(monkeypatch):
    # The idempotents alone close to the right-zero band on them, a proper
    # subset of the built set.
    P = partition_from_sizes((2, 1, 1))
    monkeypatch.setattr(qstar.qsemigroup, "symmetric_part_generators", lambda P: ())
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="do not generate the constructed Q"):
        enumerate_Q(P)


def test_closure_proof_computes_products_on_the_generators_only(monkeypatch):
    # The closure of R goes through block patterns: it closes H, of k! maps,
    # by right products with R's two patterns, adds H*g for the one generator
    # g with g*e != g, and pads each of its |Q| maps once for the left
    # products; a pairwise proof would need |Q|^2, the closure of R alone
    # |Q|*|R|.  Each right product, and each padded map, reads its table from
    # one ``repeat``, so counting the items drawn counts them all.
    P = partition_from_sizes((2, 1, 1, 1, 1))  # k = 5, m = 2, |Q| = 240, |R| = 2
    products = []

    def counting(table):
        for item in itertools.repeat(table):
            products.append(None)
            yield item

    monkeypatch.setattr(qstar.qsemigroup, "repeat", counting)
    clear_q_caches()
    Q = enumerate_Q(P)
    assert len(products) == math.factorial(P.k) * (2 + 1) + len(Q) == 600


@pytest.mark.parametrize("sizes", [sizes for n in range(1, 7) for sizes in shapes(n)], ids=str)
def test_closure_bound_admits_exactly_the_generated_set(sizes):
    # packed_closure returns None once more than max_size maps are known, so
    # R closes onto Q at |Q| and not below, and the symmetric-part generators,
    # as maximal's ``generates`` asks, onto the base H-class at k! and not below.
    P = partition_from_sizes(sizes)
    closure, built = qstar.qsemigroup.packed_closure, qstar.qsemigroup._built(P)
    R = rank_pairing(P).generators
    assert closure(P, R, len(built) - 1) is None
    assert closure(P, R, len(built)) == built
    base = {min(block) for block in P.blocks}
    group = {p for p in built if set(p) == base}
    assert len(group) == math.factorial(P.k)
    assert closure(P, symmetric_part_generators(P), len(group) - 1) is None
    assert closure(P, symmetric_part_generators(P), len(group)) == group


@pytest.mark.parametrize("sizes", [(2, 1), (2, 1, 1), (3, 2, 1)], ids=str)
def test_a_closure_outside_the_base_h_class_leaves_that_class_out(sizes):
    # The symmetric-part generators moved to the H-class of the second idempotent f
    # lie outside the group H of block patterns, so the closure is H*g alone, f's
    # H-class, and H itself is no part of it.
    P = partition_from_sizes(sizes)
    f = idempotents_Q(P)[1]
    gens = [compose(g, f) for g in symmetric_part_generators(P)]
    target = {p for p in qstar.qsemigroup._built(P) if set(p) == set(f.images)}
    assert len(target) == math.factorial(P.k)
    assert qstar.qsemigroup.packed_closure(P, gens, len(target)) == target


def test_generate_proves_blocks_50_50_within_3_s(capsys):
    # |Q| = 5,000 and |R| = 2,500: the closure through block patterns takes
    # about 2! * 2,500 right products, where one per element and generator
    # took 12.5 million and 4 s.
    clear_q_caches()
    start = time.perf_counter()
    assert main(["generate", "--partition", partition_from_sizes((50, 50)).to_spec()]) == 0
    assert time.perf_counter() - start < 3.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2_500 and len(payload["generators"]) == 2_500 and payload["verified"] is True


def test_generate_leaves_q_packed_until_its_image_tuples_are_first_read(capsys):
    # generate reads only R's pairing, so it never sorts or unpacks Q; the
    # first read of the record's images does, and drops the packed maps.
    P = partition_from_spec("1,2|3,4|5|6|7")
    clear_q_caches()
    assert main(["generate", "--partition", "1,2|3,4|5|6|7"]) == 0
    record = qstar.qsemigroup.instance(P)
    packed = record.packed
    assert "images" not in vars(record) and len(packed) == 480
    Q = enumerate_Q(P)
    assert record.packed is None
    assert vars(record)["images"] == sorted(map(tuple, packed)) == [q.images for q in Q]


def test_decompose_builds_no_group_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a product table")

    P = partition_from_spec("1,2|3|4|5|6|7|8")  # k = 7: H_e has 5,040 members
    clear_q_caches()
    monkeypatch.setattr(GroupTable, "from_semigroup", no_table)
    monkeypatch.setattr(SemigroupSet, "index_table", property(no_table))
    dec = decompose(P)
    assert (len(dec.group_part), len(dec.idempotent_part), len(dec.index)) == (5040, 2, 10080)
    assert sorted(dec.patterns) == list(itertools.permutations(range(7)))


def test_maximal_passes_the_group_order_bound_before_decomposing(monkeypatch):
    P = partition_from_sizes((2, 1, 1, 1, 1))  # k = 5, H-class order 120
    monkeypatch.setattr(qstar.maximal, "MAX_GROUP_ORDER", 119)
    with pytest.raises(ResourceLimitError, match="^H-class order 120 exceeds MAX_GROUP_ORDER=119$"):
        maximal_subsemigroups_Q(P)
    monkeypatch.setattr(qstar.maximal, "MAX_GROUP_ORDER", 120)
    assert maximal_subsemigroups_Q(P).s_k == 22


def test_h_class_bound_is_checked_before_any_map_is_built(p6, alpha, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an H-class past its order bound")

    monkeypatch.setattr(qstar.qsemigroup, "_pattern_element", refuse)
    monkeypatch.setattr(qstar.qsemigroup, "MAX_GROUP_ORDER", 5)
    with pytest.raises(ResourceLimitError, match="^H-class order 6 exceeds MAX_GROUP_ORDER=5$"):
        h_class(alpha(1), p6)


def test_shorthand_table_is_the_canonical_presentation(p6, alpha):
    for i, sh in enumerate(Q36_SHORTHANDS, start=1):
        assert q_shorthand(p6, alpha(i)) == sh


@pytest.mark.parametrize(
    "wrong, message",
    [
        (lambda P: Transformation(tuple(range(P.n))), "not closed"),  # the identity map is not in Q
        (lambda P: idempotents_Q(P)[1], "do not generate the constructed Q"),
    ],
    ids=["outside", "short"],
)
def test_closure_proof_catches_a_wrong_pairing_product(monkeypatch, wrong, message):
    # R for (2,1,1) is two products g*f; one product replaced either leaves
    # the built set or, as an idempotent, leaves one block-pattern generator.
    P = partition_from_sizes((2, 1, 1))
    real = qstar.qsemigroup.rank_pairing

    def patched(P):
        pairing = real(P)
        return pairing._replace(generators=(wrong(P),) + pairing.generators[1:])

    monkeypatch.setattr(qstar.qsemigroup, "rank_pairing", patched)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match=message):
        enumerate_Q(P)


def test_closure_proof_catches_an_idempotent_outside_the_built_set(monkeypatch):
    # x sends the block {1, 2} to two points, so it is not in Q, but e*x is the
    # least idempotent e: R still closes onto Q, and only the check that R's
    # factors lie in the built set sees x.
    P = partition_from_sizes((2, 1, 1))
    x = Transformation((0, 3, 2, 3))
    real = qstar.qsemigroup.idempotents_Q
    monkeypatch.setattr(qstar.qsemigroup, "idempotents_Q", lambda *args: real(*args) + (x,))
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="not closed"):
        enumerate_Q(P)


def test_generate_closes_once_and_iso_once_per_enumerated_q(monkeypatch, capsys):
    # Counts the packed kernel of Q's proof; no command here runs the tuple kernel.
    calls = []
    real = qstar.qsemigroup.packed_closure

    def counting(P, gens, *args, **kwargs):
        calls.append(tuple(gens))
        return real(P, gens, *args, **kwargs)

    monkeypatch.setattr(qstar.qsemigroup, "packed_closure", counting)
    monkeypatch.setattr(qstar.engine, "closure_images", None)
    clear_q_caches()
    assert main(["generate", "--partition", "1,2|3,4|5|6|7"]) == 0
    assert calls == [rank_pairing(partition_from_spec("1,2|3,4|5|6|7"))[0]]
    calls.clear()
    assert main(["iso", "--left", "1,2|3,4|5|6", "--right", "1|2,3|4|5,6"]) == 0
    assert len(calls) == 2
    assert '"witness_verified": true' in capsys.readouterr().out


def test_enumeration_validates_only_the_generator_factors(monkeypatch):
    # The closure equality proves every built tuple a product of validated
    # maps, so only the m idempotents and the (at most two) symmetric-part
    # generators go through the validating constructor, not the |Q| = 480
    # elements.
    P = partition_from_sizes((2, 2, 1, 1, 1))
    validations = []
    real = Transformation.__post_init__

    def counting(self):
        validations.append(self.images)
        real(self)

    clear_q_caches()
    monkeypatch.setattr(Transformation, "__post_init__", counting)
    Q = enumerate_Q(P)
    assert len(Q) == 480
    assert 0 < len(validations) <= P.m + 2


def test_a_built_tuple_outside_the_closure_is_caught_before_any_element_is_wrapped(monkeypatch):
    # One built tuple that is not a factor of R gets the image n, which no
    # map of degree n has: the count stays k!*m and the factors stay in the
    # built set, so only the closure proof can see it, and it must see it
    # before the unvalidated wrap that would trust it.
    P = partition_from_sizes((2, 1, 1))
    planted = _plant_in_built_set(monkeypatch, P, lambda images: (P.n,) + images[1:])
    wrapped = []
    real_unchecked = Transformation._unchecked.__func__

    def recording(cls, images):
        wrapped.append(images)
        return real_unchecked(cls, images)

    monkeypatch.setattr(Transformation, "_unchecked", classmethod(recording))
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="not closed"):
        enumerate_Q(P)
    assert planted and not any(P.n in images for images in wrapped)


def test_left_product_guard_catches_a_defective_right_closure(monkeypatch):
    # Right products by the 3-cycle pattern c = g*e of R's second generator g
    # come out as the factor itself (the identity table), so the group loop
    # closes the transposition t and c on t alone, to {t, c, e, c*t}, 4 of
    # the 6 maps of H; only the left products, t*c among them, leave them.
    P = partition_from_sizes((2, 1, 1))
    e = bytes(idempotents_Q(P)[0].images)
    c = bytes(rank_pairing(P)[0][1].images).translate(e + bytes(256 - P.n))
    assert c == bytes((2, 2, 3, 0))

    def skipping(table):
        return itertools.repeat(bytes(range(256)) if table[:P.n] == c and len(table) == 256 else table)

    monkeypatch.setattr(qstar.qsemigroup, "repeat", skipping)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="^left product escaped a right-product closure$"):
        enumerate_Q(P)


@pytest.mark.parametrize("sizes", [s for n in range(3, 7) for s in shapes(n) if len(s) >= 3], ids=str)
def test_a_group_loop_that_stops_at_its_first_level_is_caught(monkeypatch, sizes):
    # Every right product of the group loop comes out as the factor itself, so
    # H is only R's at most three patterns, short of the k! >= 6 maps of H_e:
    # the left-product guard or the count of the closure must see it.
    P = partition_from_sizes(sizes)
    e = bytes(idempotents_Q(P)[0].images) + bytes(256 - P.n)
    patterns = {bytes(g.images).translate(e) for g in rank_pairing(P)[0]}

    def stalling(table):
        return itertools.repeat(bytes(range(256)) if table[:P.n] in patterns and len(table) == 256 else table)

    monkeypatch.setattr(qstar.qsemigroup, "repeat", stalling)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="^left product escaped a right-product closure$|^symmetric part"):
        enumerate_Q(P)


def test_cross_section_count_catches_what_a_fooled_cover_test_lets_through(monkeypatch):
    # A constant map is planted in the built set and reported by the closure,
    # and the cover test is made to find no two heads in one block: the map
    # collapses every block, so only the count of hits per block is left.
    P = partition_from_sizes((2, 1, 1))
    planted = _plant_in_built_set(monkeypatch, P, lambda images: (0,) * P.n)
    real = qstar.qsemigroup.packed_closure

    def passing(P, generators, max_size):
        return {bytes(P.n) if tuple(p) == planted[0] else p for p in real(P, generators, max_size=max_size)}

    monkeypatch.setattr(qstar.qsemigroup, "packed_closure", passing)
    monkeypatch.setattr(qstar.qsemigroup, "any", lambda items: False, raising=False)
    clear_q_caches()
    with pytest.raises(InternalConsistencyError, match="^accepted map whose image is not a cross-section$"):
        enumerate_Q(P)
    assert planted


@pytest.mark.parametrize("sizes", [sizes for n in range(1, 7) for sizes in shapes(n)], ids=str)
def test_packed_proof_equals_the_brute_force_filter(sizes):
    P = partition_from_sizes(sizes)
    clear_q_caches()
    assert prove_Q(P).images == [a.images for a in enumerate_Q_bruteforce(P)]


TUPLE_KERNEL_SHAPES = [s for n in range(1, 9) for s in shapes(n) if cardinality_Q(partition_from_sizes(s)) <= 20_000]


def test_the_tuple_kernel_shapes_are_every_small_shape_up_to_eight_points():
    assert len(TUPLE_KERNEL_SHAPES) == 65


@pytest.mark.parametrize("sizes", TUPLE_KERNEL_SHAPES, ids=str)
def test_packed_proof_equals_the_tuple_kernel(sizes):
    P = partition_from_sizes(sizes)
    clear_q_caches()
    record = prove_Q(P)
    assert record.pairing == rank_pairing(P)
    assert record.images == qstar.engine.closure_images(record.pairing.generators)
