import itertools
import tracemalloc

import pytest

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
