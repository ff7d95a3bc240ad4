import ast
import dataclasses
import inspect
import itertools
import random
import sys
import types

import pytest

import qstar.engine
import qstar.transformation
import qstar.verify
from qstar.engine import GroupTable, _close_mask, _mask_indices
from qstar import SemigroupSet, closure, constant_map, enumerate_Q, identity_map, identity_partition
from qstar import make_partitioned_set, partition_from_sizes
from qstar.qsemigroup import h_class, idempotents_Q
from qstar.transformation import image
from qstar.membership import is_idempotent_Q
from qstar.verify import (
    check_closure_idempotence,
    check_group_criterion,
    check_h_class_structure,
    check_idempotent_criterion,
    check_idempotents_right_zero,
    check_kernel_cross_section,
    check_maximal,
    check_partition_invariants,
    check_q_counts,
    check_right_group_battery,
    run_verification,
)


@pytest.mark.parametrize("sizes", [(3, 2, 1), (2, 2, 2)])
def test_sampled_closures_read_q_table_and_compute_no_product(monkeypatch, sizes):
    P = partition_from_sizes(sizes)
    Q = enumerate_Q(P)
    Q.index_table
    calls = []
    real = qstar.transformation.product_map

    def counting(a_images):
        calls.append(a_images)
        return real(a_images)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("qstar") and hasattr(module, "product_map"):
            monkeypatch.setattr(module, "product_map", counting)
    rng = random.Random(5)
    assert check_kernel_cross_section(P, Q).status == "pass"
    assert check_right_group_battery(P, Q, rng).status == "pass"
    assert calls == []


def test_check_maximal_fails_when_the_oracle_misses_a_maximal_set(monkeypatch, p6):
    Q = enumerate_Q(p6)
    assert check_maximal(p6, Q).status == "pass"
    real = qstar.verify._maximal_closed_masks
    monkeypatch.setattr(qstar.verify, "_maximal_closed_masks", lambda S: real(S)[1:])
    check = check_maximal(p6, Q)
    assert (check.status, check.detail) == ("fail", "construction differs from the exhaustive oracle")


def test_check_maximal_counts_s_k_apart_from_the_construction(monkeypatch, p6):
    Q = enumerate_Q(p6)
    real = qstar.verify.count_maximal
    monkeypatch.setattr(qstar.verify, "count_maximal", lambda P: tuple(v + 1 for v in real(P)))
    check = check_maximal(p6, Q)
    assert (check.status, check.detail) == ("fail", "10 constructed, count formula says 11")


def test_check_maximal_fails_on_an_unverified_construction(monkeypatch, p6):
    real = qstar.verify.maximal_subsemigroups_Q
    monkeypatch.setattr(
        qstar.verify,
        "maximal_subsemigroups_Q",
        lambda P: dataclasses.replace(real(P), verified=False),
    )
    check = check_maximal(p6, enumerate_Q(p6))
    assert (check.status, check.detail) == ("fail", "constructed sets were not checked for maximality")


@pytest.mark.parametrize(
    "k, detail",
    [
        (1, "0 = s_k, set-equal to the exhaustive oracle"),
        (2, "1 = s_k, set-equal to the exhaustive oracle"),
        (3, "4 = s_k, set-equal to the exhaustive oracle"),
        (4, "8 = s_k, set-equal to the exhaustive oracle"),
        (5, "22 = s_k constructed and verified"),  # |Q| = 120, past DEFAULT_ORACLE_MAX
    ],
)
def test_verify_passes_the_maximal_row_when_q_is_a_group(k, detail):
    report = run_verification(identity_partition(k))
    check = next(check for check in report.checks if check.name == "maximal-subsemigroups")
    assert (check.status, check.detail) == ("pass", detail)
    assert report.all_passed


SEMILATTICE = SemigroupSet.from_elements([identity_map(2), constant_map(2, 0)])

# The leg of engine.right_group_legs that each right-group predicate reads.
LEG = {
    "is_right_group": "right_group",
    "is_left_cancellative": "left_cancellative",
    "is_regular_semigroup": "regular",
    "idempotents_right_zero": "right_zero",
}


def force_predicates(monkeypatch, value, predicates):
    """Patch the battery's one right-group pass so the legs of ``predicates`` always read ``value``."""
    real = qstar.verify.right_group_legs
    forced = {LEG[name]: value for name in predicates}
    monkeypatch.setattr(qstar.verify, "right_group_legs", lambda S, indices=None: real(S, indices)._replace(**forced))


@pytest.mark.parametrize(
    "patched, detail",
    [
        (("is_right_group",), "right group != regular + left cancellative"),
        (("is_right_group", "is_left_cancellative"), "right group != regular + right-zero idempotents"),
    ],
)
def test_right_group_battery_fails_when_the_right_group_test_says_yes_to_everything(monkeypatch, patched, detail):
    # The row test and left cancellativity are one predicate on a finite
    # table, so the second leg must catch the fault with both patched.
    P = partition_from_sizes((2,))
    check = check_right_group_battery(P, SEMILATTICE, random.Random(0))
    assert check.detail == "a subsemigroup of Q failed the right-group test"
    force_predicates(monkeypatch, True, patched)
    check = check_right_group_battery(P, SEMILATTICE, random.Random(0))
    assert (check.status, check.detail) == ("fail", detail)


@pytest.mark.parametrize(
    "predicate, check, detail",
    [
        ("is_right_group", check_right_group_battery, "right group != regular + left cancellative"),
        ("is_regular_semigroup", check_right_group_battery, "right group != regular + left cancellative"),
        ("is_left_cancellative", check_right_group_battery, "right group != regular + left cancellative"),
        ("idempotents_right_zero", check_right_group_battery, "right group != regular + right-zero idempotents"),
    ],
)
def test_sampled_checks_fail_when_a_predicate_always_fails(monkeypatch, p6, predicate, check, detail):
    Q = enumerate_Q(p6)
    force_predicates(monkeypatch, False, [predicate])
    result = check(p6, Q, random.Random(0))
    assert (result.status, result.detail) == ("fail", detail)


def test_sampled_closures_check_each_distinct_closed_set_once(monkeypatch, p6):
    Q = enumerate_Q(p6)
    reference = random.Random(7)
    masks = []
    for _ in range(125):
        picks = reference.sample(range(len(Q)), min(reference.randint(1, 3), len(Q)))
        masks.append(_close_mask(Q.index_table, sum(1 << i for i in picks)))
    distinct = list(dict.fromkeys(masks))
    assert len(distinct) < len(masks)
    checked = []
    real = qstar.verify.right_group_legs

    def recording(S, indices=None):
        assert S is Q
        checked.append(list(indices))
        return real(S, indices)

    monkeypatch.setattr(qstar.verify, "right_group_legs", recording)
    monkeypatch.setattr(qstar.verify, "VERIFY_SAMPLES", 125)
    rng = random.Random(7)
    assert check_right_group_battery(p6, Q, rng).status == "pass"
    assert checked == [_mask_indices(m, len(Q)) for m in distinct]
    assert rng.getstate() == reference.getstate()


def test_each_check_reads_the_sampling_arguments_it_takes():
    unread = []
    for node in ast.parse(inspect.getsource(qstar.verify)).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if "rng" in [a.arg for a in node.args.args] and "rng" not in read:
                unread.append(f"{node.name}.rng")
    assert unread == []


def test_only_the_sampled_checks_draw_and_the_battery_checks_its_own_draws(monkeypatch):
    # The battery is the one check that samples closed subsets: it starts
    # from the state the checks before it left, and checks each distinct
    # closure of its draws with one right_group_legs call.
    P = partition_from_sizes((3, 2, 1))
    made = []

    def recording_random(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr(qstar.verify, "random", types.SimpleNamespace(Random=recording_random))
    drew, battery_start = [], []

    def watched(real):
        def wrapper(*args, **kwargs):
            before = made[0].getstate()
            if real is check_right_group_battery:
                battery_start.append(before)
            result = real(*args, **kwargs)
            if made[0].getstate() != before:
                drew.append(result.name)
            return result

        return wrapper

    for name in dir(qstar.verify):
        if name.startswith("check_"):
            monkeypatch.setattr(qstar.verify, name, watched(getattr(qstar.verify, name)))
    checked = []
    real = qstar.verify.right_group_legs

    def recording(S, indices=None):
        checked.append(list(indices))
        return real(S, indices)

    monkeypatch.setattr(qstar.verify, "right_group_legs", recording)
    assert run_verification(P, seed=3).all_passed
    assert drew == ["membership-implications", "right-group-battery", "green-r", "closure-idempotence"]
    rng = random.Random()
    rng.setstate(battery_start[0])
    assert checked == list(qstar.verify._sampled_closures(enumerate_Q(P), rng, qstar.verify.VERIFY_SAMPLES))


@pytest.mark.parametrize("sizes, classes", [((3, 2, 1), 6), ((2, 2, 2), 8), ((4, 3), 12)])
def test_h_class_structure_matches_each_class_with_the_first(monkeypatch, sizes, classes):
    # One table, for the base class, and no isomorphism search, whatever m: every
    # other class is matched with the first by the translation h -> h*f.
    P = partition_from_sizes(sizes)
    calls = []
    real = qstar.verify.h_class
    monkeypatch.setattr(qstar.verify, "h_class", lambda *args: calls.append(args) or real(*args))
    tables = []
    real_from_semigroup = qstar.engine.GroupTable.from_semigroup.__func__
    monkeypatch.setattr(
        qstar.engine.GroupTable,
        "from_semigroup",
        classmethod(lambda cls, S: tables.append(S) or real_from_semigroup(cls, S)),
    )
    check = check_h_class_structure(P, enumerate_Q(P))
    assert check.status == "pass"
    assert check.detail == f"{classes} H-classes of order {len(enumerate_Q(P)) // classes}, pairwise isomorphic"
    assert [e for e, _ in calls] == [idempotents_Q(P)[0]]
    assert len(tables) == 1  # so no second table for an isomorphism search


def test_h_class_structure_fails_when_the_last_h_class_is_not_isomorphic(monkeypatch):
    # The last idempotent f is swapped for a member a of its class that is not
    # idempotent: h -> h*a is a bijection onto that class but not multiplicative.
    P = partition_from_sizes((3, 2, 1))
    *rest, last = idempotents_Q(P)
    a = next(b for b in enumerate_Q(P) if image(b) == image(last) and b != last)
    monkeypatch.setattr(qstar.verify, "idempotents_Q", lambda P: (*rest, a))
    check = check_h_class_structure(P, enumerate_Q(P))
    assert (check.status, check.detail) == ("fail", "two H-classes are not isomorphic by h -> h*f")


def test_h_class_structure_fails_when_a_translation_is_not_onto_the_class(monkeypatch):
    # The product kernel sends the last member of H_e where it sends the first.
    P = partition_from_sizes((3, 2, 1))
    H = h_class(idempotents_Q(P)[0], P).elements.elements
    real = qstar.verify.product_map
    monkeypatch.setattr(qstar.verify, "product_map", lambda a: real(H[0].images if a == H[-1].images else a))
    check = check_h_class_structure(P, enumerate_Q(P))
    assert (check.status, check.detail) == ("fail", "h -> h*f is not a bijection onto H_f")


def test_h_class_structure_fails_when_the_base_class_has_the_wrong_order(monkeypatch):
    P = partition_from_sizes((3, 2, 1))
    trivial = GroupTable.from_semigroup(closure([idempotents_Q(P)[0]]))
    monkeypatch.setattr(qstar.verify, "h_class", lambda e, P: trivial)
    check = check_h_class_structure(P, enumerate_Q(P))
    assert (check.status, check.detail) == ("fail", "H-class order 1, expected 6")


def test_kernel_cross_section_fails_when_a_kernel_merges_two_classes(monkeypatch, p6):
    Q = enumerate_Q(p6)
    odd = Q.elements[3]
    real = qstar.verify.kernel_partition

    def merged(a):
        ker = real(a)
        if a != odd:
            return ker
        first, second, *rest = ker.classes
        return ker._replace(classes=(tuple(sorted(first + second)), *rest))

    monkeypatch.setattr(qstar.verify, "kernel_partition", merged)
    check = check_kernel_cross_section(p6, Q)
    assert (check.status, check.detail) == ("fail", f"kernel of {odd.images} is not X/E")


def test_h_class_structure_fails_when_the_pattern_gives_another_idempotents_class(monkeypatch, p6):
    idems = idempotents_Q(p6)
    real = qstar.verify._h_class_members
    # Each H-class has order k!, so only the elements tell the classes apart.  The base
    # class, whose table is built, is left alone: the second idempotent gets the third's.
    monkeypatch.setattr(qstar.verify, "_h_class_members", lambda f, P: real(idems[2] if f == idems[1] else f, P))
    check = check_h_class_structure(p6, enumerate_Q(p6))
    assert (check.status, check.detail) == ("fail", "pattern construction differs from searching Q")


def test_sampled_closures_match_the_from_scratch_kernel_on_every_labelling():
    # All 60 labellings of block sizes (3, 2, 1): the same draws and the same
    # index lists, in order, as closing each draw's mask with _close_mask.
    labellings = [
        (big, pair, tuple(sorted(set(range(6)) - set(big) - set(pair))))
        for big in itertools.combinations(range(6), 3)
        for pair in itertools.combinations(sorted(set(range(6)) - set(big)), 2)
    ]
    assert len(labellings) == 60
    for blocks in labellings:
        Q = enumerate_Q(make_partitioned_set(6, blocks))
        rng, reference = random.Random(11), random.Random(11)
        masks = []
        for _ in range(100):
            picks = reference.sample(range(len(Q)), min(reference.randint(1, 3), len(Q)))
            masks.append(_close_mask(Q.index_table, sum(1 << i for i in picks)))
        expected = [_mask_indices(m, len(Q)) for m in dict.fromkeys(masks)]
        assert list(qstar.verify._sampled_closures(Q, rng, 100)) == expected
        assert rng.getstate() == reference.getstate()


def _counting_passes(monkeypatch, module):
    calls = []
    real = qstar.engine.right_group_legs

    def counting(S, indices=None):
        calls.append(list(indices))
        return real(S, indices)

    monkeypatch.setattr(module, "right_group_legs", counting)
    return calls


@pytest.mark.parametrize("sizes", [(3, 2, 1), (2, 2, 2)])
def test_battery_reads_the_rows_of_each_distinct_closed_set_once(monkeypatch, sizes):
    # One right_group_legs pass decides all four legs of each distinct set.
    P = partition_from_sizes(sizes)
    Q = enumerate_Q(P)
    distinct = list(qstar.verify._sampled_closures(Q, random.Random(7), 125))
    calls = _counting_passes(monkeypatch, qstar.verify)
    monkeypatch.setattr(qstar.verify, "VERIFY_SAMPLES", 125)
    assert check_right_group_battery(P, Q, random.Random(7)).status == "pass"
    assert calls == distinct


def test_predicates_on_a_plain_index_list_each_make_their_own_pass(monkeypatch, p6):
    Q = enumerate_Q(p6)
    indices = list(range(len(Q)))
    calls = _counting_passes(monkeypatch, qstar.engine)
    assert qstar.engine.is_right_group(Q, indices) and qstar.engine.is_regular_semigroup(Q, indices)
    assert calls == [indices, indices]


def test_closure_idempotence_fails_when_the_second_closure_drops_an_element(monkeypatch, p6):
    Q = enumerate_Q(p6)
    calls = []
    real = qstar.verify.closure

    def dropping(gens):
        calls.append(gens)
        S = real(gens)
        return SemigroupSet(S.n, S.elements[:-1]) if len(calls) == 2 else S

    monkeypatch.setattr(qstar.verify, "closure", dropping)
    result = check_closure_idempotence(p6, Q, random.Random(0))
    assert (result.status, result.detail) == ("fail", "closure(closure(G)) != closure(G)")
    assert len(calls) == 2


def test_checks_fail_when_no_image_is_a_cross_section(monkeypatch, p6):
    Q = enumerate_Q(p6)
    monkeypatch.setattr(qstar.verify, "is_cross_section", lambda P, subset: False)
    result = check_kernel_cross_section(p6, Q)
    assert (result.status, result.detail) == ("fail", f"image of {Q.elements[0].images} is not a cross-section")
    result = check_partition_invariants(p6)
    assert (result.status, result.detail) == ("fail", "0 cross-sections, expected m=6")


@pytest.mark.parametrize(
    "name, fake, detail",
    [
        ("is_group_Q", lambda P: True, "is_group_Q = True but right-group test says False"),
        ("is_right_group", lambda S, indices=None: False, "Q fails the definitional right-group test"),
    ],
)
def test_group_criterion_fails_on_a_planted_fault(monkeypatch, p6, name, fake, detail):
    Q = enumerate_Q(p6)
    assert check_group_criterion(p6, Q).status == "pass"
    monkeypatch.setattr(qstar.verify, name, fake)
    check = check_group_criterion(p6, Q)
    assert (check.status, check.detail) == ("fail", detail)


def test_idempotent_criterion_fails_on_inverted_flags(p6):
    Q = enumerate_Q(p6)
    flags = [is_idempotent_Q(p6, a) for a in Q]
    assert check_idempotent_criterion(p6, Q, flags).status == "pass"
    check = check_idempotent_criterion(p6, Q, [not flag for flag in flags])
    assert (check.status, check.detail) == ("fail", f"criterion mismatch on {Q.elements[0].images}")


@pytest.mark.parametrize(
    "name, fault, keep_flags, detail",
    [
        ("cardinality_Q", lambda real: lambda P: real(P) + 1, True, "|Q| = 36, formula says 37"),
        ("idempotents_Q", lambda real: lambda P: real(P)[:-1], True, "constructed idempotents differ from the filtered ones"),
        ("idempotents_Q", lambda real: lambda P: (), False, "0 idempotents, expected m = 6"),
    ],
)
def test_q_counts_fails_on_a_planted_fault(monkeypatch, p6, name, fault, keep_flags, detail):
    Q = enumerate_Q(p6)
    flags = [is_idempotent_Q(p6, a) for a in Q]
    assert check_q_counts(p6, Q, flags).status == "pass"
    monkeypatch.setattr(qstar.verify, name, fault(getattr(qstar.verify, name)))
    check = check_q_counts(p6, Q, flags if keep_flags else [False] * len(Q))
    assert (check.status, check.detail) == ("fail", detail)


def test_idempotents_right_zero_fails_when_a_product_keeps_its_left_factor(monkeypatch, p6):
    # The second idempotent is replaced by the identity map, so first*identity
    # keeps its left factor.
    assert check_idempotents_right_zero(p6).status == "pass"
    first, _, *rest = idempotents_Q(p6)
    identity = identity_map(p6.n)
    monkeypatch.setattr(qstar.verify, "idempotents_Q", lambda P: (first, identity, *rest))
    check = check_idempotents_right_zero(p6)
    assert (check.status, check.detail) == ("fail", f"f*g != g for {first.images}, {identity.images}")
