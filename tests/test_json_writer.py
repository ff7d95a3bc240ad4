"""``cli.json_text`` writes exactly what ``json.dumps(value, sort_keys=True,
indent=2)`` writes, for every type a payload holds, and refuses the rest."""

import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

from qstar.cli import json_text

# Quote, backslash, control, non-ASCII, astral and lone-surrogate characters.
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "\ud800"])
TEXT = st.text(st.one_of(SPECIAL, st.characters()), max_size=8)
INTS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1]),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
INT_LISTS = st.one_of(st.lists(INTS), st.lists(st.one_of(INTS, st.booleans())), st.lists(INTS).map(tuple))
PAYLOADS = st.recursive(
    st.one_of(SCALARS, INT_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_matches_json_dumps_on_generated_payloads(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [1, True],
        (0, False, -3),
        [],
        {},
        (),
        {"b": [], "a": {}, "": [[]], "c": [1, [2, 3], {"d": None}]},
        {"z": 1, "Z": 2, "é": 3, "\x00": 4},
        [2**53 + 1, -(2**64)],
        "tab\there \"quoted\" back\\slash",
    ],
)
def test_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == reference(value)


class Small(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [1.5, [0.0], {1: "one"}, {"a": 1, 2: "b"}, {True: 1}, {None: 1}, [1, Small.ONE], Small.ONE, Label("x")],
)
def test_refuses_types_no_payload_holds(value):
    with pytest.raises(TypeError):
        json_text(value)
