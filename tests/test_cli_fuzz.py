"""Fuzz ``cli.main`` with random and malformed arguments.

The exit-code contract: every input ends in 0 (ok), 2 (bad input, including
argparse's own ``SystemExit(2)``) or 3 (resource limit), never in a
traceback, and every exit 0 prints JSON that the output schema accepts.
Specs cover at most 8 points, at most 6 for ``generate``, at most 5 for
``maximal`` and at most 3 for ``verify``.
"""

import contextlib
import io
import json
import pathlib

import jsonschema
from hypothesis import given, settings, strategies as st

from qstar.cli import main

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schemas" / "qstar-output.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


@st.composite
def valid_blocks(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    blocks = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(x + 1)
    return list(blocks.values())


def spec_of(blocks):
    return "|".join(",".join(map(str, block)) for block in blocks)


# Random text is kept short, so it covers at most 6 points.
TEXT = st.text(alphabet="0123456789,| x-", max_size=12)
SPECS = st.one_of(valid_blocks().map(spec_of), TEXT)


@st.composite
def check_commands(draw):
    blocks = draw(valid_blocks())
    flag = draw(st.sampled_from(["map", "q"]))
    n = sum(map(len, blocks))
    length = n if flag == "map" else len(blocks)
    values = st.lists(st.integers(min_value=1, max_value=n), min_size=length, max_size=length)
    value = draw(st.one_of(values.map(lambda v: ",".join(map(str, v))), TEXT))
    spec = draw(st.one_of(st.just(spec_of(blocks)), TEXT))
    return ["check", f"--partition={spec}", f"--{flag}={value}"]


@st.composite
def iso_commands(draw):
    left = draw(SPECS)
    # Half the pairs relabel the left spec, so many are isomorphic.
    right = draw(st.one_of(SPECS, st.permutations(left.split("|")).map("|".join)))
    return ["iso", f"--left={left}", f"--right={right}"]


SEED_TEXT = st.text(alphabet="0123456789-x_ +", max_size=4)


@st.composite
def verify_commands(draw):
    # At most 3 points, so the whole battery stays cheap; the seed may be negative or not an int.
    spec = spec_of(draw(valid_blocks(max_n=3)))
    seed = draw(st.one_of(st.integers(min_value=-2**16, max_value=2**16).map(str), SEED_TEXT))
    return ["verify", f"--partition={spec}", f"--seed={seed}"]


@st.composite
def maximal_commands(draw):
    # At most 5 points, so the largest group searched is S_5 (about 25 ms);
    # nine characters of text hold at most 5 entries.
    spec = draw(st.one_of(valid_blocks(max_n=5).map(spec_of), st.text(alphabet="0123456789,| x-", max_size=9)))
    return ["maximal", f"--partition={spec}"]


NS = st.one_of(st.integers(min_value=-2, max_value=14).map(str), st.text(alphabet="0123456789-x", max_size=4))
COMMANDS = st.one_of(
    SPECS.map(lambda p: ["analyze", f"--partition={p}"]),
    check_commands(),
    NS.map(lambda n: ["census", f"--n={n}"]),
    iso_commands(),
    verify_commands(),
    st.one_of(valid_blocks(max_n=6).map(spec_of), TEXT).map(lambda p: ["generate", f"--partition={p}"]),  # |Q| <= 720
    maximal_commands(),
)


def run(argv, err=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err or io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(COMMANDS)
def test_main_keeps_the_exit_code_contract(command):
    code, out = run(command)
    assert code in (0, 2, 3)
    if code == 0:
        VALIDATOR.validate(json.loads(out))


@settings(max_examples=100, deadline=None)
@given(verify_commands())
def test_verify_exits_2_exactly_on_a_bad_seed(command):
    try:
        int(command[2].removeprefix("--seed="))
        expected = 0  # every int seeds the battery, negative ones too
    except ValueError:
        expected = 2  # argparse rejects it
    code, out = run(command)
    assert code == expected
    if code == 0:
        VALIDATOR.validate(json.loads(out))


@st.composite
def check_map_commands(draw):
    blocks = draw(valid_blocks())
    n = sum(map(len, blocks))
    images = draw(st.lists(st.integers(min_value=0, max_value=n + 2), min_size=n, max_size=n))
    return ["check", f"--partition={spec_of(blocks)}", f"--map={','.join(map(str, images))}"], images


@settings(max_examples=200, deadline=None)
@given(check_map_commands())
def test_check_map_range_errors_use_1_based_points(case):
    command, images = case
    err = io.StringIO()
    code, out = run(command, err)
    if all(1 <= v <= len(images) for v in images):
        assert code == 0
        VALIDATOR.validate(json.loads(out))
    else:
        assert code == 2
        assert "outside 0.." not in err.getvalue()
