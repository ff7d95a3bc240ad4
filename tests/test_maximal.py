import dataclasses
import itertools
import random

import pytest

import qstar.engine
import qstar.maximal
from qstar import (
    ResourceLimitError,
    SemigroupSet,
    Transformation,
    UnsupportedCaseError,
    closure,
    count_maximal,
    enumerate_Q,
    exhaustive_maximal_oracle,
    identity_partition,
    idempotents_Q,
    is_maximal_subsemigroup,
    make_partitioned_set,
    maximal_subgroups,
    maximal_subsemigroups_Q,
    partition_from_sizes,
    symmetric_group_table,
)
from qstar.cli import main
from qstar.engine import _maximal_masks, all_closed_subsets
from qstar.errors import InternalConsistencyError
from qstar.formulas import integer_partitions
from qstar.limits import DEFAULT_ORACLE_MAX
from qstar.maximal import _maximal_closed_masks
from qstar.qsemigroup import prove_Q

from conftest import clear_q_caches


def test_counts_on_reference_instance(p6):
    report = count_maximal(p6)
    assert report == (4, 6, 10)


def test_counts_on_degenerate_shapes():
    assert count_maximal(partition_from_sizes((4, 1))) == (1, 4, 5)
    assert count_maximal(partition_from_sizes((5,))) == (0, 5, 5)


def test_s_k_under_the_order_bound_720():
    counts = [count_maximal(partition_from_sizes((2,) + (1,) * (k - 1)))[0] for k in range(1, 6)]
    counts.append(len(maximal_subgroups(symmetric_group_table(6).elements)))
    assert counts == [0, 1, 4, 8, 22, 53]


def test_construction_counts_s_k_as_the_fresh_symmetric_group_does():
    # Every block-size shape with n <= 7, k <= 5 and m >= 2, then k = 6 under the default order bound.
    shapes = [s for n in range(2, 8) for s in integer_partitions(n) if len(s) <= 5 and max(s) > 1]
    assert len(shapes) == 36
    for sizes in shapes:
        P = partition_from_sizes(sizes)
        assert maximal_subsemigroups_Q(P).s_k == count_maximal(P)[0], sizes
    P = partition_from_sizes((2, 1, 1, 1, 1, 1))
    assert maximal_subsemigroups_Q(P).s_k == len(maximal_subgroups(symmetric_group_table(6).elements)) == 53


@pytest.mark.parametrize(
    "sizes, swap",
    [((2, 1), (0, 1)), ((2, 1, 1), (0, 1)), ((2, 1, 1), (2, 5)), ((3, 2, 1, 1), (0, 23)), ((3, 2, 1, 1), (5, 17))],
)
def test_swapped_block_patterns_are_caught(monkeypatch, sizes, swap):
    P = partition_from_sizes(sizes)
    clear_q_caches()
    real = qstar.maximal.decompose

    def swapped(*args):
        dec = real(*args)
        patterns = list(dec.patterns)
        a, b = swap
        patterns[a], patterns[b] = patterns[b], patterns[a]
        return dataclasses.replace(dec, patterns=tuple(patterns))

    monkeypatch.setattr(qstar.maximal, "decompose", swapped)
    with pytest.raises(InternalConsistencyError, match="^block pattern map is not multiplicative$"):
        maximal_subsemigroups_Q(P)


@pytest.mark.parametrize("sizes", [(2, 1, 1), (3, 2, 1, 1), (2, 1, 1, 1, 1)])
def test_a_symmetric_part_cut_to_one_generator_is_caught(monkeypatch, sizes):
    P = partition_from_sizes(sizes)
    clear_q_caches()
    enumerate_Q(P)
    record = prove_Q(P)  # _check_symmetric gets the generators from the first column of paired
    monkeypatch.setattr(record, "pairing", record.pairing._replace(paired=record.pairing.paired[:1]))
    with pytest.raises(InternalConsistencyError, match="^symmetric part does not generate the group part$"):
        maximal_subsemigroups_Q(P)


def test_block_patterns_must_be_the_symmetric_group(monkeypatch):
    P = partition_from_sizes((3, 2, 1, 1))
    real = qstar.maximal.decompose

    def one_pattern(*args):
        dec = real(*args)
        return dataclasses.replace(dec, patterns=dec.patterns[:1] * len(dec.patterns))

    monkeypatch.setattr(qstar.maximal, "decompose", one_pattern)
    with pytest.raises(InternalConsistencyError, match="^block patterns are not the symmetric group, each once$"):
        maximal_subsemigroups_Q(P)


def test_construction_lists_subgroups_once_and_builds_no_second_symmetric_group(monkeypatch):
    clear_q_caches()
    calls = []
    real = qstar.engine.all_closed_subsets

    def counting(S):
        calls.append(len(S))
        return real(S)

    def refuse(*args, **kwargs):
        raise AssertionError("a second symmetric group was built")

    monkeypatch.setattr(qstar.engine, "all_closed_subsets", counting)
    for module in (qstar.engine, qstar.maximal):
        monkeypatch.setattr(module, "symmetric_group_table", refuse)
    monkeypatch.setattr(qstar.maximal, "count_maximal", refuse)
    report = maximal_subsemigroups_Q(partition_from_sizes((3, 2, 1, 1)))
    assert (report.s_k, report.total) == (8, 14)
    assert calls == [24]


def test_right_zero_case_drops_one_constant_each():
    P = partition_from_sizes((3,))
    report = maximal_subsemigroups_Q(P)
    assert report.s_k == 0
    assert report.total == 3
    Q = set(enumerate_Q(P))
    assert len(Q) == 3
    for T in report.right_zero_type:
        members = set(T)
        assert len(members) == 2
        assert len(Q - members) == 1


def test_construction_matches_frozen_sets(p6, t_sets):
    report = maximal_subsemigroups_Q(p6)
    assert report.s_k == 4
    assert report.m == 6
    assert report.total == 10
    assert report.verified
    constructed = {frozenset(T) for T in report.all_subsemigroups()}
    assert constructed == set(t_sets.values())


def test_group_type_keeps_all_idempotents(p6):
    report = maximal_subsemigroups_Q(p6)
    idems = set(idempotents_Q(p6))
    for T in report.group_type:
        assert idems <= set(T)
    assert sorted(len(T) for T in report.group_type) == [12, 12, 12, 18]


def test_right_zero_type_drops_one_h_class(p6):
    report = maximal_subsemigroups_Q(p6)
    assert len(report.right_zero_type) == 6
    assert {len(T) for T in report.right_zero_type} == {30}
    assert len(report.omitted_idempotents) == 6
    assert set(report.omitted_idempotents) == set(idempotents_Q(p6))
    for T, f in zip(report.right_zero_type, report.omitted_idempotents):
        assert f not in set(T)


def test_every_reported_subsemigroup_is_maximal(p6):
    Q = enumerate_Q(p6)
    report = maximal_subsemigroups_Q(p6)
    for T in report.all_subsemigroups():
        assert is_maximal_subsemigroup(T, Q)


def test_two_blocks_two_points():
    # k=2, m=2: one maximal subgroup of S_2 plus two right-zero drops.
    P = partition_from_sizes((2, 1))
    report = maximal_subsemigroups_Q(P)
    assert report.total == 3
    Q = enumerate_Q(P)
    table = Q.index_table
    by_definition = []
    for r in range(1, len(Q)):
        for combo in itertools.combinations(range(len(Q)), r):
            chosen = set(combo)
            if not all(table[i][j] in chosen for i in combo for j in combo):
                continue
            sub = SemigroupSet(P.n, Q.subset(sorted(chosen)))
            if is_maximal_subsemigroup(sub, Q):
                by_definition.append(frozenset(sub))
    assert {frozenset(T) for T in report.all_subsemigroups()} == set(by_definition)


@pytest.mark.parametrize("sizes", [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2, 1)])
def test_construction_matches_exhaustive_oracle(sizes):
    P = partition_from_sizes(sizes)
    Q = enumerate_Q(P)
    report = maximal_subsemigroups_Q(P)
    oracle = exhaustive_maximal_oracle(Q)
    assert {T.elements for T in report.all_subsemigroups()} == {T.elements for T in oracle}
    assert len(oracle) == report.s_k + report.m


def test_oracle_on_raw_right_zero():
    from qstar import constant_map

    S = SemigroupSet.from_elements(constant_map(3, v) for v in range(3))
    found = exhaustive_maximal_oracle(S)
    assert sorted(len(T) for T in found) == [2, 2, 2]
    assert {frozenset(T) for T in found} == {
        frozenset({constant_map(3, a), constant_map(3, b)})
        for a in range(3)
        for b in range(a + 1, 3)
    }


def test_oracle_on_two_element_group():
    from qstar import Transformation, closure, identity_map

    G = closure([Transformation((1, 0))])
    found = exhaustive_maximal_oracle(G)
    assert [set(T) for T in found] == [{identity_map(2)}]


def test_equal_trace_and_idempotents_forces_equality():
    # A closed subset with the full base column and all idempotents is Q.
    from qstar import compose, decompose, idempotents_Q
    from qstar.engine import all_closed_subsets

    P = partition_from_sizes((2, 1, 1))
    Q = enumerate_Q(P)
    dec = decompose(P)
    e = dec.base_idempotent
    elems = list(Q)
    q_trace = {compose(a, e) for a in elems}
    q_idems = set(idempotents_Q(P))
    hits = 0
    for mask in all_closed_subsets(Q):
        members = [elems[i] for i in range(len(elems)) if (mask >> i) & 1]
        if not members:
            continue
        if {compose(a, e) for a in members} == q_trace and q_idems <= set(members):
            hits += 1
            assert set(members) == set(elems)
    assert hits == 1


def test_group_case_is_not_covered():
    with pytest.raises(UnsupportedCaseError, match="maximal subgroups"):
        count_maximal(identity_partition(3))
    with pytest.raises(UnsupportedCaseError):
        maximal_subsemigroups_Q(identity_partition(4))


def test_maximality_is_not_checked_past_the_verify_bound(p6, monkeypatch):
    assert maximal_subsemigroups_Q(p6).verified is True
    monkeypatch.setattr(qstar.maximal, "DEFAULT_VERIFY_MAX", 35)  # |Q| = 36
    report = maximal_subsemigroups_Q(p6)
    assert report.verified is False
    assert report.total == 10


def test_oracle_respects_size_bound(p6, monkeypatch):
    monkeypatch.setattr(qstar.maximal, "DEFAULT_ORACLE_MAX", 10)
    with pytest.raises(ResourceLimitError, match=r"^\|S\| = 36 exceeds oracle bound 10$"):
        exhaustive_maximal_oracle(enumerate_Q(p6))


def _labellings(sizes):
    n = sum(sizes)
    found = set()
    for perm in itertools.permutations(range(n)):
        cuts = list(itertools.accumulate(sizes, initial=0))
        found.add(make_partitioned_set(n, [perm[a:b] for a, b in zip(cuts, cuts[1:])]))
    return sorted(found, key=lambda P: P.blocks)


def _close_by_one_reference(S):
    return _maximal_masks(all_closed_subsets(S), (1 << len(S)) - 1)


@pytest.mark.parametrize("sizes, count", [((2, 2, 1), 15), ((3, 3), 10), ((3, 2, 1), 60), ((4, 3), 35)])
def test_search_matches_close_by_one_on_every_labelling(sizes, count):
    labellings = _labellings(sizes)
    assert len(labellings) == count
    for P in labellings:
        Q = enumerate_Q(P)
        assert _maximal_closed_masks(Q) == _close_by_one_reference(Q), P.blocks


def test_search_matches_close_by_one_on_symmetric_groups():
    for k in range(1, 6):
        S = symmetric_group_table(k).elements
        assert _maximal_closed_masks(S) == _close_by_one_reference(S), k


def test_search_matches_close_by_one_on_random_closures():
    # Closures above the oracle bound are skipped: Close-by-One lists
    # hundreds of thousands of closed sets there.
    rng = random.Random(7)
    checked = 0
    for n in (3, 4):
        for _ in range(80):
            gens = [Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(rng.randint(1, 3))]
            S = closure(gens)
            if len(S) <= DEFAULT_ORACLE_MAX:
                assert _maximal_closed_masks(S) == _close_by_one_reference(S), gens
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("sizes, total", [((5, 3), 16), ((4, 4), 17), ((2, 2, 2), 12), ((3, 3, 1), 13), ((2, 2, 2, 1), 16)])
def test_search_finds_the_constructed_sets_past_close_by_one(sizes, total):
    P = partition_from_sizes(sizes)
    Q = enumerate_Q(P)
    report = maximal_subsemigroups_Q(P)
    constructed = {sum(1 << Q.index_of(a) for a in T) for T in report.all_subsemigroups()}
    assert len(constructed) == total
    assert set(_maximal_closed_masks(Q)) == constructed


def test_search_closes_an_option_only_when_its_bound_cannot_decide_it(monkeypatch):
    # A free element inside a closure already computed for the same F is kept
    # bounded by it: 428 closures on (3, 2, 1), against 563 with one per
    # free element at every join.
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    real = qstar.maximal._extend
    calls = []
    monkeypatch.setattr(qstar.maximal, "_extend", lambda *args: calls.append(args) or real(*args))
    assert _maximal_closed_masks(Q) == _close_by_one_reference(Q)
    assert len(calls) <= 428


def test_search_stops_at_the_state_bound(monkeypatch, capsys):
    # The search on (3, 2, 1) visits 86 states.  Without the forbid pass, the
    # cut or the largest-closure choice it visits more.
    Q = enumerate_Q(partition_from_sizes((3, 2, 1)))
    monkeypatch.setattr(qstar.maximal, "DEFAULT_MAX_CLOSED_SETS", 86)
    assert len(_maximal_closed_masks(Q)) == 10
    monkeypatch.setattr(qstar.maximal, "DEFAULT_MAX_CLOSED_SETS", 85)
    with pytest.raises(ResourceLimitError, match="^more than DEFAULT_MAX_CLOSED_SETS=85 search states$"):
        _maximal_closed_masks(Q)
    capsys.readouterr()
    assert main(["verify", "--partition", "1,2,3|4,5|6"]) == 3
    assert capsys.readouterr().err == "resource limit: more than DEFAULT_MAX_CLOSED_SETS=85 search states\n"
