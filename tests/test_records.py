"""The four records every command loads keep their frozen-dataclass contract.

``Transformation``, ``KernelPartition``, ``PartitionedSet`` and
``IsoClassKey`` are tuples of their fields.  Each must hash, print and
order as the frozen dataclass it replaces, because set and dict order, and
so every output byte, follow the hash.  ``Transformation`` still validates
through ``__post_init__`` alone, which ``bench/tracing.py`` wraps, and only
``_unchecked`` skips it.  Being tuples is the declared change: a record now
has a length, equals the plain tuple of its fields and repeats under ``*``.
"""

import copy
import dataclasses
import functools
import pickle
import re

import pytest

from qstar.errors import ValidationError
from qstar.formulas import IsoClassKey
from qstar.partition import PartitionedSet, partition_from_sizes
from qstar.transformation import KernelPartition, Transformation, kernel_partition

P6 = partition_from_sizes((3, 2, 1))
T = Transformation((3, 3, 3, 0, 0, 5))

# Each record, a second one of its class, and whether the dataclass generated an ordering.
RECORDS = [
    (T, Transformation((0, 0, 0, 3, 3, 5)), True),
    (kernel_partition(T), kernel_partition(Transformation((0, 1, 1, 1, 2, 2))), False),
    (P6, partition_from_sizes((2, 2, 1, 1)), False),
    (IsoClassKey(3, 6), IsoClassKey(2, 6), True),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]
ORDERED = [(record, other) for record, other, order in RECORDS if order]


@functools.cache
def dataclass_class(cls, order):
    """The frozen dataclass ``cls`` was: same name and fields."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True, order=order)


def dataclass_twin(record, order):
    """The record as the frozen dataclass it was, with the same field values."""
    return dataclass_class(type(record), order)(*(getattr(record, name) for name in record._fields))


@pytest.mark.parametrize("record, other, order", RECORDS, ids=IDS)
def test_hash_and_repr_are_the_dataclass_ones(record, other, order):
    twin = dataclass_twin(record, order)
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, name) for name in record._fields))
    assert repr(record) == repr(twin)
    assert record != other and twin != dataclass_twin(other, order)
    assert record == type(record)(*record) and hash(record) == hash(type(record)(*record))


@pytest.mark.parametrize("record, other", ORDERED, ids=lambda r: type(r).__name__)
def test_ordering_is_the_dataclass_one(record, other):
    twins = {dataclass_twin(r, True): r for r in (record, other)}
    assert sorted([record, other]) == [twins[t] for t in sorted(twins)] != [record, other]
    assert (record < other) == (dataclass_twin(record, True) < dataclass_twin(other, True))


@pytest.mark.parametrize("record, other, order", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, other, order):
    before = tuple(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
    assert tuple(record) == before


@pytest.mark.parametrize("record, other, order", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, other, order):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def test_partitioned_set_keeps_its_cached_m_through_pickle():
    P = partition_from_sizes((3, 2, 2))
    assert P.m == 12 and vars(P) == {"m": 12}
    back = pickle.loads(pickle.dumps(P))
    assert vars(back) == {"m": 12} and back.m == 12 and hash(back) == hash(P)


@pytest.mark.parametrize(
    "images, message",
    [
        ((), "a transformation needs degree at least 1"),
        ((0, 2), "image of 1 is 2, outside 0..1"),
        ((0, -1, 1), "image of 1 is -1, outside 0..2"),
        ((0, "1"), "image of 1 is '1', outside 0..1"),
        ((0.0,), "image of 0 is 0.0, outside 0..0"),
    ],
)
def test_transformation_validation_messages(images, message):
    for build in (lambda: Transformation(images), lambda: Transformation(images=list(images))):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()


def test_transformation_stores_its_images_as_a_tuple():
    t = Transformation(images=iter([1, 0, 1]))
    assert type(t.images) is tuple and t.images == (1, 0, 1)
    assert t.n == 3 and t(0) == 1 and t * t == Transformation((0, 1, 0))


def test_post_init_is_the_only_validation_hook(monkeypatch):
    # A hook that records and does not validate lets an out-of-range map
    # through every route that builds a map from its images.
    seen = []
    monkeypatch.setattr(Transformation, "__post_init__", lambda self: seen.append(self.images))
    bad = Transformation((5, 5))
    assert bad.images == (5, 5) and seen == [(5, 5)]
    routes = {
        "pickle": lambda: pickle.loads(pickle.dumps(bad)),
        "copy": lambda: copy.copy(bad),
        "deepcopy": lambda: copy.deepcopy(bad),
        "_replace": lambda: bad._replace(images=(6, 6)),
        "_make": lambda: Transformation._make([(7, 7)]),
    }
    for name, route in routes.items():
        seen.clear()
        made = route()
        assert type(made) is Transformation and seen == [made.images], name


def test_every_rebuilding_route_validates():
    bad = Transformation._unchecked((5, 5))
    message = f"^{re.escape('image of 0 is 5, outside 0..1')}$"
    for rebuild in (
        lambda: pickle.loads(pickle.dumps(bad)),
        lambda: copy.copy(bad),
        lambda: copy.deepcopy(bad),
        lambda: T._replace(images=(5, 5)),
        lambda: Transformation._make([(5, 5)]),
    ):
        with pytest.raises(ValidationError, match=message):
            rebuild()


def test_unchecked_does_not_validate(monkeypatch):
    def refuse(self):
        raise AssertionError("validated")

    monkeypatch.setattr(Transformation, "__post_init__", refuse)
    images = (5, 5)
    t = Transformation._unchecked(images)
    assert type(t) is Transformation and t.images is images


def test_records_are_tuples_of_their_fields():
    assert len(T) == 1 and T == (T.images,) and tuple(T) == (T.images,)
    assert 2 * T == (T.images, T.images)
    assert T < ((4,),) and not T < ((3, 3, 3, 0, 0, 5),)  # no TypeError against a plain tuple
    assert P6 == (6, P6.blocks, P6.block_of) and len(P6) == 3
    assert IsoClassKey(3, 6) == (3, 6) and IsoClassKey(3, 6) < (3, 7)
    assert kernel_partition(T) == (((0, 1, 2), (3, 4), (5,)), (3, 0, 5))
    assert issubclass(PartitionedSet, tuple) and issubclass(KernelPartition, tuple)
