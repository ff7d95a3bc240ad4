import itertools
import math
import re
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qstar import (
    ValidationError,
    identity_partition,
    is_cross_section,
    make_partitioned_set,
    partition_from_json,
    partition_from_sizes,
    partition_from_spec,
    universal_partition,
)
from qstar.formulas import cardinality_Q
from qstar.partition import too_large


def test_blocks_are_normalized():
    P = make_partitioned_set(5, [(3, 4), (2, 0, 1)])
    assert P.blocks == ((0, 1, 2), (3, 4))
    assert P.k == 2
    assert P.m == 6
    assert P.block_of == (0, 0, 0, 1, 1)


def test_m_is_the_block_size_product():
    assert partition_from_sizes((3, 2, 1)).m == 6
    assert partition_from_sizes((4, 3)).m == 12
    assert partition_from_sizes((1, 1, 1, 1)).m == 1


def test_identity_and_universal():
    I = identity_partition(4)
    assert I.is_identity_relation
    assert I.k == 4 and I.m == 1
    U = universal_partition(3)
    assert not U.is_identity_relation
    assert U.k == 1 and U.m == 3
    assert identity_partition(1).is_identity_relation


def test_rejects_empty_block():
    with pytest.raises(ValidationError, match="empty"):
        make_partitioned_set(2, [(0, 1), ()])


def test_rejects_overlap():
    with pytest.raises(ValidationError, match="appears in blocks"):
        make_partitioned_set(3, [(0, 1), (1, 2)])


def test_rejects_uncovered_element():
    with pytest.raises(ValidationError, match="not covered"):
        make_partitioned_set(4, [(0, 1), (3,)])


def test_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_partitioned_set(3, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        make_partitioned_set(0, [])


def test_spec_form_round_trip(p6):
    assert partition_from_spec("1,2,3|4,5|6") == p6
    assert p6.to_spec() == "1,2,3|4,5|6"
    assert partition_from_spec(" 3 , 1 ,2 | 4,5 |6 ") == p6


def test_spec_form_errors():
    with pytest.raises(ValidationError, match="appears in blocks 1 and 2"):
        partition_from_spec("1,2|2,3")
    with pytest.raises(ValidationError, match="appears twice in block 1"):
        partition_from_spec("1,1|2")
    with pytest.raises(ValidationError, match="not covered"):
        partition_from_spec("1,2|4,5")
    with pytest.raises(ValidationError, match="1-based"):
        partition_from_spec("0,1|2")
    with pytest.raises(ValidationError, match="non-integer"):
        partition_from_spec("1,x|2")
    with pytest.raises(ValidationError, match="empty"):
        partition_from_spec("")


def test_spec_with_a_huge_entry_is_rejected_without_allocating_for_it():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^element 2 is not covered by any block$"):
            partition_from_spec("1|1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_json_form_round_trip(p6):
    obj = p6.to_json()
    assert obj == {"n": 6, "blocks": [[1, 2, 3], [4, 5], [6]]}
    assert partition_from_json(obj) == p6
    with pytest.raises(ValidationError):
        partition_from_json({"blocks": [[1]]})


def test_cross_section_predicate(p6):
    assert is_cross_section(p6, (0, 3, 5))
    assert is_cross_section(p6, (2, 4, 5))
    assert not is_cross_section(p6, (0, 1, 5))
    assert not is_cross_section(p6, (0, 3))
    assert not is_cross_section(p6, (0, 1, 3, 5))
    # Singleton classes leave exactly one choice: the whole ground set.
    assert is_cross_section(identity_partition(3), (0, 1, 2))
    # A bool is an int, so True names the point 1.
    assert is_cross_section(p6, (True, 3, 5))
    assert not is_cross_section(p6, (True, 0, 5))


@pytest.mark.parametrize("x", [-1, 6, 1.0, "1"])
def test_cross_section_rejects_an_element_outside_the_ground_set(p6, x):
    with pytest.raises(ValidationError, match=r"^element .* outside 0\.\.5$"):
        is_cross_section(p6, (0, 3, x))


@pytest.mark.parametrize("sizes", [(2, 1), (3, 2), (2, 2, 1), (1, 1, 1)])
def test_cross_section_count_is_m(sizes):
    P = partition_from_sizes(sizes)
    count = sum(
        1
        for r in range(P.n + 1)
        for sub in itertools.combinations(range(P.n), r)
        if is_cross_section(P, sub)
    )
    assert count == P.m


def test_hashable_and_cacheable(p6):
    assert p6 == make_partitioned_set(6, [(5,), (4, 3), (1, 0, 2)])
    assert hash(p6) == hash(make_partitioned_set(6, [(5,), (4, 3), (1, 0, 2)]))


def test_duplicate_entry_names_the_first_repeated_element_in_block_order():
    with pytest.raises(ValidationError, match="^element 3 appears twice in block 1$"):
        partition_from_spec("3,5,5,3")
    with pytest.raises(ValidationError, match="^element 4 appears twice in block 2$"):
        partition_from_spec("1|4,2,3,2,4")


def test_duplicate_check_is_linear_in_the_block_length():
    n = 20_000
    spec = ",".join(str(v) for v in range(1, n + 1)) + f",{n}"
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"^element {n} appears twice in block 1$"):
        partition_from_spec(spec)
    assert time.perf_counter() - start < 1.0


def test_make_partitioned_set_rejects_a_point_repeated_in_a_block():
    with pytest.raises(ValidationError, match="^element 0 appears twice in block 0$"):
        make_partitioned_set(3, [(0, 0, 1), (2,)])


@pytest.mark.parametrize(
    "blocks, n",
    [
        ([[1, 2], [2, 3]], 3),  # overlap
        ([[1, 2], [4]], 4),  # uncovered point
        ([[1, 1], [2, 3]], 3),  # repeated entry
        ([[3, 5, 5, 3], [1, 2, 4]], 5),  # the first repeated point in block order
    ],
)
def test_json_form_errors_match_the_spec_form(blocks, n):
    spec = "|".join(",".join(map(str, b)) for b in blocks)
    with pytest.raises(ValidationError) as from_spec:
        partition_from_spec(spec)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(from_spec.value))}$"):
        partition_from_json({"n": n, "blocks": blocks})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 3, "blocks": [[1, 2], [4]]}, "block 2 contains 4, outside 1..3"),
        ({"n": 3, "blocks": [[0, 1], [2, 3]]}, "block 1 contains 0, outside 1..3"),
        ({"n": 2, "blocks": [[1, 2.0]]}, "block 1 contains 2.0, outside 1..2"),
        ({"n": 3, "blocks": [[1, 2], []]}, "block 2 is empty"),
        ({"n": 2, "blocks": [[1, "2"]]}, "'blocks' must be lists of 1-based integers"),
    ],
)
def test_json_form_range_errors_are_1_based(obj, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        partition_from_json(obj)


@st.composite
def perturbed_block_lists(draw):
    """Blocks of a partition of {1..n}, then up to two entries added or dropped."""
    n = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    grouped: dict[int, list[int]] = {}
    for x, label in enumerate(labels, 1):
        grouped.setdefault(label, []).append(x)
    blocks = [draw(st.permutations(b)) for b in grouped.values()]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        block = blocks[draw(st.integers(min_value=0, max_value=len(blocks) - 1))]
        if draw(st.booleans()):
            block.append(draw(st.integers(min_value=1, max_value=n + 2)))
        elif len(block) > 1:
            block.pop(draw(st.integers(min_value=0, max_value=len(block) - 1)))
    return blocks


def _outcome(parse, arg):
    try:
        return parse(arg)
    except ValidationError as exc:
        return str(exc)


@given(perturbed_block_lists())
def test_spec_and_json_forms_agree(blocks):
    spec = "|".join(",".join(map(str, b)) for b in blocks)
    json_form = {"n": max(map(max, blocks)), "blocks": blocks}
    assert _outcome(partition_from_spec, spec) == _outcome(partition_from_json, json_form)


def test_too_large_counts_digits_without_sign_or_underscores(monkeypatch):
    grouped = "1_000" * 1100  # valid int syntax, 4,400 digits: int refuses it only for its length
    with pytest.raises(ValueError):
        int(grouped)
    assert too_large(" -" + grouped + " ") == "entry of 4400 digits is too large"
    assert too_large("1__0") is too_large("+") is too_large("1" * 100) is None
    # With the limit switched off (0), int refuses only malformed text, so nothing is too large.
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)
    assert too_large(grouped) is None


def test_m_is_computed_once_and_cannot_be_assigned(monkeypatch):
    calls = []
    real = math.prod
    monkeypatch.setattr(math, "prod", lambda sizes: calls.append(None) or real(sizes))
    P = partition_from_sizes((2, 3))
    assert P.m == 6 and P.m == 6 and len(calls) == 1
    before = cardinality_Q(P)
    with pytest.raises(AttributeError):
        P.m = 7
    with pytest.raises(AttributeError):
        del P.m
    assert P.m == 6 and vars(P) == {"m": 6} and cardinality_Q(P) == before == 12
