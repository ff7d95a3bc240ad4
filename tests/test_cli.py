import argparse
import ast
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import qstar.cli
import qstar.engine
import qstar.qsemigroup
import qstar.verify
from qstar import limits, partition_from_spec
from qstar.cli import build_parser, json_int, main
from qstar.qsemigroup import enumerate_Q, idempotents_Q, prove_Q

from conftest import clear_q_caches

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schemas" / "qstar-output.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return payload


def test_analyze_reference_instance(capsys):
    payload = run_json(capsys, "analyze", "--partition", "1,2,3|4,5|6")
    assert payload["cardinality"] == 36
    assert payload["idempotents"] == 6
    assert payload["rank"] == 6
    assert payload["is_group"] is False
    assert payload["k"] == 3 and payload["m"] == 6
    assert payload["h_class_order"] == 6


def test_analyze_identity_relation(capsys):
    payload = run_json(capsys, "analyze", "--partition", "1|2|3")
    assert payload["is_group"] is True
    assert payload["cardinality"] == 6
    assert payload["rank"] == 2


def test_analyze_handles_huge_instances(capsys):
    blocks = "|".join(",".join(str(i * 10 + j + 1) for j in range(10)) for i in range(30))
    payload = run_json(capsys, "analyze", "--partition", blocks)
    assert payload["m"] == str(10**30)
    assert isinstance(payload["cardinality"], str)
    assert int(payload["cardinality"]) > 2**53


def test_analyze_counts_past_the_int_to_str_digit_limit(capsys):
    blocks = "|".join(str(i) for i in range(1, 1601))
    payload = run_json(capsys, "analyze", "--partition", blocks)
    digits = payload["cardinality"]
    assert len(digits) > 4300 and digits.isdigit() and digits[0] != "0"
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == math.factorial(1600)
    assert payload["h_class_order"] == digits


def test_analyze_writes_the_shared_count_once_when_m_is_one(capsys, monkeypatch):
    # With m = 1, |Q| and the H-class order are the same k!: one conversion.
    calls = []
    real = qstar.cli.decimal_string
    monkeypatch.setattr(qstar.cli, "decimal_string", lambda value: calls.append(value) or real(value))
    payload = run_json(capsys, "analyze", "--partition", "|".join(map(str, range(1, 1601))))
    assert calls == [math.factorial(1600)]
    assert payload["h_class_order"] == payload["cardinality"]


def test_json_int_keeps_every_digit():
    for value in (2**53, 10**1000, 10**1000 - 1, 10**2000 + 7, -(10**3000) - 1):
        assert json_int(value) == str(value)
    assert json_int(2**53 - 1) == 2**53 - 1


def test_verify_enumerates_q_once(capsys):
    clear_q_caches()
    code, _ = run(capsys, "verify", "--partition", "1,2,3,4|5,6,7")
    assert code == 0
    assert enumerate_Q.cache_info().misses == 1


def test_output_is_byte_deterministic(capsys):
    _, first = run(capsys, "analyze", "--partition", "1,2,3|4,5|6")
    _, second = run(capsys, "analyze", "--partition", "1,2,3|4,5|6")
    assert first == second
    assert first.endswith("\n")


def test_check_map_and_shorthand_agree(capsys):
    by_map = run_json(capsys, "check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6")
    by_q = run_json(capsys, "check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6")
    assert by_map == by_q
    assert by_map["in_q"] is True
    assert by_map["q"] == [4, 1, 6]
    assert by_map["is_idempotent"] is False


def test_check_non_member(capsys):
    payload = run_json(capsys, "check", "--partition", "1,2,3|4,5|6", "--map", "1,1,1,1,1,1")
    assert payload["in_te"] is True
    assert payload["in_te_star"] is False
    assert payload["in_q"] is False
    assert "q" not in payload


def test_generate(capsys):
    payload = run_json(capsys, "generate", "--partition", "1,2,3|4,5|6")
    assert payload["rank"] == 6
    assert len(payload["generators"]) == 6
    assert payload["verified"] is True


def test_maximal(capsys):
    payload = run_json(capsys, "maximal", "--partition", "1,2,3|4,5|6")
    assert payload["mode"] == "right-group"
    assert payload["s_k"] == 4
    assert payload["m"] == 6
    assert payload["total"] == 10
    assert sorted(payload["group_type_sizes"]) == [12, 12, 12, 18]
    assert payload["right_zero_type_sizes"] == [30] * 6
    assert payload["verified"] is True
    rows = payload["subsemigroups"]
    assert [r["label"] for r in rows] == [f"T{i}" for i in range(1, 11)]
    assert [r["size"] for r in rows] == [len(r["elements"]) for r in rows]
    assert [r["type"] for r in rows] == ["group"] * 4 + ["right-zero"] * 6
    for r in rows[4:]:
        assert r["omitted_idempotent"] not in r["elements"]


def test_maximal_table_lists_one_row_per_subsemigroup(capsys):
    code, out = run(
        capsys, "maximal", "--partition", "1,2,3|4,5|6", "--format", "table"
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("T")]
    assert len(rows) == 10
    assert rows[0].startswith("T1 ") and rows[9].startswith("T10")


def test_maximal_group_mode(capsys):
    payload = run_json(capsys, "maximal", "--partition", "1|2|3")
    assert payload["mode"] == "group"
    assert payload["group_order"] == 6
    assert payload["s_k"] == 4
    assert payload["maximal_subgroup_orders"] == [2, 2, 2, 3]
    assert "listing its maximal subgroups" in payload["note"]


def test_maximal_group_mode_lists_the_maximal_subgroups_of_the_symmetric_group(capsys):
    # The construction's subgroups, read off Q, against the engine's search on a fresh S_k.
    for k in range(1, 7):
        payload = run_json(capsys, "maximal", "--partition", "|".join(map(str, range(1, k + 1))))
        reference = qstar.engine.maximal_subgroups(qstar.engine.symmetric_group_table(k).elements)
        assert (payload["s_k"], payload["maximal_subgroup_orders"]) == (len(reference), sorted(map(len, reference))), k


def test_maximal_group_mode_uses_the_bound_the_group_was_built_with(capsys):
    payload = run_json(capsys, "maximal", "--partition", "1|2|3|4|5|6")
    assert payload["group_order"] == 720
    assert payload["s_k"] == 53


def test_iso_positive_and_negative(capsys):
    yes = run_json(capsys, "iso", "--left", "1,2|3,4", "--right", "1,2,3,4|5")
    assert yes["isomorphic"] is True
    assert yes["isomorphism"]["verified"] is True
    assert yes["witness_verified"] is True
    no = run_json(capsys, "iso", "--left", "1,2|3", "--right", "1,2,3|4")
    assert no["isomorphic"] is False
    assert "isomorphism" not in no
    assert no["witness_verified"] is False


def test_census(capsys):
    payload = run_json(capsys, "census", "--n", "6")
    assert payload["class_count"] == 11
    small = run_json(capsys, "census", "--n", "3")
    assert [(c["k"], c["m"]) for c in small["classes"]] == [(1, 3), (2, 2), (3, 1)]


def test_census_past_its_bound_is_a_resource_limit_and_n_0_is_bad_input(capsys):
    assert main(["census", "--n", str(limits.DEFAULT_CENSUS_MAX_N + 1)]) == 3
    assert capsys.readouterr() == ("", "resource limit: n = 13 exceeds DEFAULT_CENSUS_MAX_N=12\n")
    assert main(["census", "--n", "0"]) == 2
    assert capsys.readouterr() == ("", "error: need a positive integer, got 0\n")


def test_verify(capsys):
    payload = run_json(capsys, "verify", "--partition", "1,2|3")
    assert payload["all_passed"] is True
    assert payload["seed"] == 0
    audit = payload["generating_candidate_audit"]
    assert audit["applicable"] is True


def test_table_format(capsys):
    code, out = run(capsys, "analyze", "--partition", "1,2,3|4,5|6", "--format", "table")
    assert code == 0
    assert "cardinality" in out
    assert "{" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6"],
        ["generate", "--partition", "1,2|3"],
        ["iso", "--left", "1,2|3,4", "--right", "1,2,3,4|5"],
        ["census", "--n", "4"],
        ["verify", "--partition", "1,2|3"],
    ],
)
def test_table_format_prints_one_aligned_line_per_key(capsys, argv):
    payload = run_json(capsys, *argv)
    code, out = run(capsys, *argv, "--format", "table")
    assert code == 0
    width = max(map(len, payload))
    text = {key: json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else str(value)
            for key, value in payload.items()}
    assert out.splitlines() == [f"{key.ljust(width)}  {text[key]}" for key in sorted(payload)]


def test_exit_code_on_bad_partition(capsys):
    assert main(["analyze", "--partition", "1,2|2,3"]) == 2
    err = capsys.readouterr().err
    assert "appears in blocks" in err


def test_exit_code_on_resource_limit(capsys):
    blocks = "|".join(",".join(str(i * 3 + j + 1) for j in range(3)) for i in range(8))
    assert main(["generate", "--partition", blocks]) == 3


def test_exit_code_on_failed_verification(capsys, monkeypatch):
    from qstar import partition_from_spec
    from qstar.verify import Check, VerificationReport

    def forced_failure(P, seed=0):
        return VerificationReport(
            partition=partition_from_spec("1,2|3"),
            seed=seed,
            checks=(Check("q-counts", "fail", "forced for the exit-code path"),),
            audit={"applicable": False},
        )

    monkeypatch.setattr("qstar.verify.run_verification", forced_failure)
    assert main(["verify", "--partition", "1,2|3"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False


def test_argparse_defaults_are_the_library_limits():
    # No option defaults to a qstar.limits constant: every size and coverage
    # bound is read by the library when it runs, and none has a flag.
    parser = build_parser()
    values = {value for name, value in vars(limits).items() if name.isupper()}
    defaulted = sorted(
        (name, action.dest)
        for name, sub in parser.subcommands.items()
        for action in sub._actions
        if type(action.default) is int and action.default in values
    )
    assert defaulted == []
    # The walk sees the int defaults there are: --seed's 0.
    assert parser.parse_args(["verify", "--partition", "1"]).seed == 0


def args_read(fn):
    """The ``args.<name>`` attributes ``fn`` reads, also through the ``qstar.cli`` helpers it hands ``args``."""
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and "args" in [
            arg.id for arg in node.args if isinstance(arg, ast.Name)
        ]:
            names |= args_read(getattr(qstar.cli, node.func.id))
    return names


def test_each_subcommand_declares_only_the_options_its_command_reads():
    # main reads --format itself; every other option is read by the subcommand's cmd_* function.
    mismatched = sorted(
        (name, dest)
        for name, sub in build_parser().subcommands.items()
        for dest in {a.dest for a in sub._actions if a.dest != "help"} ^ ({"format"} | args_read(sub.get_default("fn")))
    )
    assert mismatched == []


REMOVED_OPTIONS = [
    (["analyze", "--partition", "1,2|3"], "--max-closure"),
    (["analyze", "--partition", "1,2|3"], "--group-order-bound"),
    (["check", "--partition", "1,2|3", "--q", "1,2"], "--max-closure"),
    (["check", "--partition", "1,2|3", "--q", "1,2"], "--group-order-bound"),
    (["census", "--n", "3"], "--max-closure"),
    (["census", "--n", "3"], "--group-order-bound"),
    (["verify", "--partition", "1,2|3"], "--max-closure"),
    (["verify", "--partition", "1,2|3"], "--group-order-bound"),
    (["generate", "--partition", "1,2|3"], "--group-order-bound"),
    (["iso", "--left", "1,2|3", "--right", "1|2,3"], "--max-closure"),
    (["iso", "--left", "1,2|3", "--right", "1|2,3"], "--group-order-bound"),
    (["maximal", "--partition", "1,2|3"], "--group-order-bound"),
    (["generate", "--partition", "1,2|3"], "--max-closure"),
    (["maximal", "--partition", "1,2|3"], "--max-closure"),
    (["verify", "--partition", "1,2|3"], "--samples"),
]


@pytest.mark.parametrize("argv, option", REMOVED_OPTIONS)
def test_a_bound_the_subcommand_does_not_read_is_an_unrecognized_argument(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"\nqstar: error: unrecognized arguments: {option} 5\n")


def test_max_closure_is_not_read_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSTAR_MAX_CLOSURE", "abc")
    assert main(["analyze", "--partition", "1,2|3"]) == 0
    monkeypatch.setenv("QSTAR_MAX_CLOSURE", "5")
    assert main(["generate", "--partition", "1,2,3|4,5|6"]) == 0  # |Q| = 36


def refuse_any_map(*args, **kwargs):
    raise AssertionError("built a map past the group-order bound")


@pytest.mark.parametrize("spec", ["1|2|3|4|5|6|7|8", "1,9|2|3|4|5|6|7|8"], ids=["group", "right-group"])
def test_maximal_on_eight_blocks_refuses_before_any_map(capsys, monkeypatch, spec):
    # S_8 has order 40,320, past MAX_GROUP_ORDER; both modes run the one construction,
    # which refuses before the symmetric group, Q or an H-class member is built.
    monkeypatch.setattr(qstar.engine, "Transformation", refuse_any_map)
    monkeypatch.setattr(qstar.qsemigroup, "_built", refuse_any_map)
    monkeypatch.setattr(qstar.qsemigroup, "_pattern_element", refuse_any_map)
    assert main(["maximal", "--partition", spec]) == 3
    assert capsys.readouterr() == ("", "resource limit: H-class order 40320 exceeds MAX_GROUP_ORDER=5040\n")


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_runs():
    # main(None) reads sys.argv, as the console script calls it.
    argv = [sys.executable, "-m", "qstar.cli", "analyze", "--partition", "1,2|3"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["cardinality"] == 4
    proc = subprocess.run(argv + ["extra"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\nqstar: error: unrecognized arguments: extra\n")


FAILING_VERIFY = """
import sys
import qstar.cli
import qstar.verify
from qstar.verify import Check, VerificationReport

def forced_failure(P, seed):
    return VerificationReport(P, seed, (Check("q-counts", "fail", "forced"),), {"applicable": False})

qstar.verify.run_verification = forced_failure
sys.exit(qstar.cli.main(["verify", "--partition", "1,2|3"]))
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "qstar.cli", "analyze", "--partition", "1,2|3"], 0),
        (["-m", "qstar.cli", "maximal", "--format", "table", "--partition", "1,2|3|4"], 0),
        (["-c", FAILING_VERIFY], 4),
    ],
)
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(argv, code, unbuffered):
    # Buffered, the write fails at the final flush; unbuffered, at once.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the command prints
    try:
        proc = subprocess.run(
            [sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=20
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""


def test_generate_on_ten_thousand_elements():
    # |Q| = 7! * 2 = 10080: a pairwise closure proof would compose 10080^2
    # (about 10^8) products; the generator closure needs about 8 * 10080.
    proc = subprocess.run(
        [sys.executable, "-m", "qstar.cli", "generate", "--partition", "1,2|3|4|5|6|7|8"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["rank"] == 2
    assert payload["verified"] is True


def test_every_command_output_validates_against_schema(capsys):
    # run_json already validates; this exercises the remaining branches.
    run_json(capsys, "verify", "--partition", "1|2|3")
    run_json(capsys, "check", "--partition", "1|2|3", "--map", "2,1,3")
    run_json(capsys, "maximal", "--partition", "1,2|3,4")
    run_json(capsys, "generate", "--partition", "1|2|3")
    run_json(capsys, "census", "--n", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--partition=1", "--map=--"],
        ["check", "--partition=1", "--q=--"],
        ["census", "--n=--"],
        ["verify", "--seed=--", "--partition=1"],
        ["verify", "--partition=1", "--seed=--"],
    ],
)
def test_option_value_of_a_bare_double_dash_is_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# Every subcommand, interleaved with usage errors and help, so a parse that
# left state behind in the parser would change a later call's outcome.
REUSE_ARGV = [
    ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6"],
    ["check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6"],
    ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6", "--q", "4,1,6"],
    ["check", "--partition", "1,2,3|4,5|6"],
    ["check", "--partition", "1,2,3|4,5|6", "--map", "1,1,1,1,1,1"],
    ["analyze", "--partition", "1,2,3|4,5|6"],
    ["analyze"],
    ["analyze", "--partition", "1,2|3", "--format", "xml"],
    ["analyze", "--partition", "1,2|3", "--format", "table"],
    ["check", "--partition=1", "--map=--"],
    ["census", "--n=--"],
    ["generate", "--partition", "1,2|3"],
    ["--help"],
    ["maximal", "--partition", "1,2|3|4"],
    ["verify", "--help"],
    ["iso", "--left", "1,2|3,4", "--right", "1,2,3,4|5"],
    ["iso", "--left", "1,2|3"],
    ["census", "--n", "4"],
    ["verify", "--partition", "1,2|3", "--seed", "5"],
    ["analyze", "--partition", "1,2|2,3"],
    ["frobnicate"],
    ["check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6"],
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_gives_the_outcome_of_a_fresh_one(capsys):
    from qstar.cli import _parser

    warm = [outcome(capsys, argv) for argv in REUSE_ARGV]
    fresh = []
    for argv in REUSE_ARGV:
        _parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert warm == fresh
    codes = [code for code, _, _ in warm]
    assert codes[:4] == [0, 0, ("SystemExit", 2), ("SystemExit", 2)]
    assert codes[12] == codes[14] == ("SystemExit", 0)
    assert "not allowed with argument" in warm[2][2]
    assert "one of the arguments --map --q is required" in warm[3][2]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    from qstar import cli

    builds, maps = [], []
    real, real_add_subparsers = cli.build_parser, argparse.ArgumentParser.add_subparsers

    def counting():
        builds.append(1)
        return real()

    def counting_add_subparsers(self, **kwargs):
        maps.append(1)
        return real_add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting_add_subparsers)
    cli._parser.cache_clear()
    outcome(capsys, ["analyze", "--partition", "1,2|3"])
    subcommands = cli._parser().subcommands
    assert len(builds) == len(maps) == 1
    for argv in REUSE_ARGV:
        outcome(capsys, argv)
    assert len(builds) == len(maps) == 1
    assert cli._parser().subcommands is subcommands


def test_a_valid_call_is_parsed_once(capsys, monkeypatch):
    qstar.cli._parser()  # built outside the count
    parses = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, args=None, namespace=None):
        parses.append(self.prog)
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, "analyze", "--partition", "1,2|3")[0] == 0
    assert parses == []  # the plain form is read from the parser's table
    assert run(capsys, "analyze", "--partition=1,2|3")[0] == 0
    assert parses == ["qstar", "qstar analyze"]  # one top-level parse, which hands argv on to the subcommand's parser


class Parsed(Exception):
    """Raised in place of running a command; carries the namespace main would run it on."""


def stop(fn, args):
    args.fn = fn
    raise Parsed(vars(args))


def parse_outcome(argv, dispatch):
    """main's outcome on argv with every command stopped before it runs: the namespace, or the
    SystemExit code, with stdout and stderr.  Without ``dispatch`` main finds no subcommand map,
    so a fresh ``build_parser().parse_args(argv)`` parses all of argv."""
    parser = build_parser()
    for sub in parser.subcommands.values():
        sub.set_defaults(fn=functools.partial(stop, sub.get_default("fn")))
    if not dispatch:
        parser.subcommands = {}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(qstar.cli, "_parser", lambda: parser), redirect_stdout(out), redirect_stderr(err):
        try:
            result = main(list(argv))
        except Parsed as exc:
            result = exc.args[0]
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


PARSE_ARGV = REUSE_ARGV + [
    ["analyze", "--partition=1,2|3"],
    ["analyze", "--partition=--"],
    ["analyze", "--part", "1,2|3"],
    ["analyze", "--partition", "1", "--partition", "1,2|3"],
    ["check", "-h"],
    ["-h"],
    [],
    ["frobnicate", "--partition", "1"],
    ["check", "--partition", "1,2", "--map", "1,1", "extra"],
    ["verify", "--partition", "1,2|3", "--seed", "-3"],
    ["census", "--n", "x"],
    ["maximal", "--partition", "1,2|3", "--max-closure", "0"],
    ["generate", "--partition", "1,2|3", "--max-closure"],
    ["iso", "--left", "1,2|3", "--right", "1|2,3", "--format", "table"],
    ["analyze", "--partition", "-h"],
    ["analyze", "--partition", "--"],
    ["analyze", "--partition", "1,2|3", "-h", "x"],
]


@pytest.mark.parametrize("argv", PARSE_ARGV)
def test_the_subcommand_parse_matches_a_fresh_top_level_parse(argv):
    fresh = parse_outcome(argv, dispatch=False)
    assert parse_outcome(argv, dispatch=True) == fresh
    if isinstance(fresh[0], dict):
        assert fresh[0]["subcommand"] == argv[0]


SUBCOMMANDS = ["analyze", "check", "census", "iso", "generate", "maximal", "verify"]
ARGV_TOKENS = st.sampled_from(
    [*SUBCOMMANDS, "frobnicate", "--partition", "--part", "--partition=1,2|3", "--partition=--", "--map",
     "--q", "--map=1,1", "--n", "--n=3", "--left", "--right", "--format", "table", "xml", "--max-closure",
     "--seed", "--samples", "0", "5", "-3", "1", "1,2|3", "-h", "--h", "--help",
     "--", "-", "extra", ""]
)
# Option and value pairs, so that many argv are in the plain form or one token away from it.
ARGV_PAIRS = st.sampled_from(
    [("--partition", "1,2|3"), ("--format", "table"), ("--map", "1,1,3"), ("--q", "1,2"), ("--n", "3"),
     ("--left", "1|2"), ("--right", "1,2"), ("--seed", "7"), ("--samples", "-3"), ("--max-closure", "5"),
     ("--max-closure", "0"), ("--format", "xml"), ("--partition", "-h"), ("--map", "--"), ("-h", "x")]
)
ARGV = st.lists(st.one_of(ARGV_TOKENS.map(lambda token: [token]), ARGV_PAIRS.map(list)), max_size=5).map(
    lambda items: [token for item in items for token in item]
)
# A plain argv for each subcommand, which the random tokens then extend.
PLAIN_ARGV = {
    "analyze": ["--partition", "1,2|3"],
    "check": ["--partition", "1,2|3", "--q", "1,2"],
    "census": ["--n", "3"],
    "iso": ["--left", "1|2", "--right", "1,2"],
    "generate": ["--partition", "1,2|3"],
    "maximal": ["--format", "table", "--partition", "1,2|3"],
    "verify": ["--partition", "1,2|3", "--seed", "7"],
}


@settings(max_examples=150, deadline=None)
@given(ARGV, st.sampled_from(SUBCOMMANDS))
def test_the_subcommand_parse_matches_a_fresh_one_on_random_argv(tokens, name):
    for argv in (tokens, [name, *tokens], [name, *PLAIN_ARGV[name], *tokens]):
        assert parse_outcome(argv, dispatch=True) == parse_outcome(argv, dispatch=False)


# One argv per subcommand, shaped as the benchmark's operations are.
BENCHMARK_ARGV = [
    ["analyze", "--partition", "3,1|2,5,4|6"],
    ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6"],
    ["check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6"],
    ["census", "--n", "7"],
    ["generate", "--partition", "1,2|3,4|5|6|7"],
    ["iso", "--left", "1,2|3,4|5|6", "--right", "1|2,3|4|5,6"],
    ["maximal", "--partition", "1,2,3|4,5|6|7"],
    ["verify", "--partition", "1,2,3|4,5|6", "--seed", "123456"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGV)
def test_the_plain_form_is_read_from_the_table(argv):
    parsed = qstar.cli._parse_plain(build_parser().subcommands[argv[0]], argv)
    assert parsed is not None
    assert vars(parsed) == vars(build_parser().parse_args(argv))


HUGE = "1" + "0" * 5000  # 5,001 digits, past the default int-from-str limit of 4,300


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--partition", HUGE],
        ["check", "--partition", "1", "--map", HUGE],
        ["check", "--partition", "1", "--q", HUGE],
        ["analyze", "--partition", "+" + HUGE],
        ["check", "--partition", "1", "--map", "+" + HUGE],
        ["check", "--partition", "1", "--q", "-" + HUGE],
    ],
)
def test_an_entry_past_the_digit_limit_is_named_too_large(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: entry of 5001 digits is too large\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify"], "--seed"),  # named before the missing --partition
        (["verify", "--seed", "1"], "--seed"),  # the later of a repeated option
        (["census", "--format", "table"], "--n"),
        (["census"], "--n"),
        (["verify", "--partition", "1"], "--seed"),
        (["verify", "--partition", "1", "--seed", "1"], "--seed"),
    ],
)
def test_an_int_option_past_the_digit_limit_is_named_too_large(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, HUGE])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) < 400
    assert captured.err.endswith(f": error: argument {option}: entry of 5001 digits is too large\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--n", "1__0"], "argument --n: invalid int value: '1__0'"),
        (["census", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["analyze", "--partition", "1__0"], "non-integer entry '1__0' in partition text"),
        (["check", "--partition", "1", "--map", "+_1"], "expected comma-separated integers, got '+_1'"),
    ],
)
def test_a_short_malformed_integer_keeps_its_message(capsys, argv, message):
    code, out, err = outcome(capsys, argv)
    assert code in (2, ("SystemExit", 2)) and out == ""
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["verify", "--partition", "1,2,3|4,5|6"], ["maximal", "--partition", "1,2,3|4,5|6|7"]]
)
def test_the_symmetric_part_is_built_once_per_cold_instance(capsys, monkeypatch, argv):
    calls = []
    real = qstar.qsemigroup.symmetric_part_generators

    def counting(P):
        calls.append(P)
        return real(P)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("qstar") and hasattr(module, "symmetric_part_generators"):
            monkeypatch.setattr(module, "symmetric_part_generators", counting)
    clear_q_caches()
    assert run(capsys, *argv)[0] == 0
    assert calls == [partition_from_spec(argv[-1])]


def test_verify_exits_4_when_the_audit_finds_no_transposition_first(capsys, monkeypatch):
    P = partition_from_spec("1,2|3|4")
    clear_q_caches()
    e = idempotents_Q(P)[0]
    real = qstar.verify.minimal_generating_set

    def planted(P):  # build_audit reads the transposition from the report's copy of the trace's paired rows
        report = real(P)
        return dataclasses.replace(report, paired=((e, e, e),) + report.paired[1:])

    monkeypatch.setattr(qstar.verify, "minimal_generating_set", planted)
    assert main(["verify", "--partition", "1,2|3|4"]) == 4
    assert capsys.readouterr() == ("", "internal consistency: expected a transposition-patterned generator first\n")


def test_verify_exits_4_when_the_audit_closure_outruns_its_block_patterns(capsys, monkeypatch):
    P = partition_from_spec("1,2|3|4")
    clear_q_caches()
    Q = enumerate_Q(P)
    transposition = prove_Q(P).pairing.paired[0][0]
    candidate = tuple(sorted({*idempotents_Q(P)[1:], transposition}))
    real = qstar.verify.closure
    monkeypatch.setattr(qstar.verify, "closure", lambda gens: Q if tuple(gens) == candidate else real(gens))
    assert main(["verify", "--partition", "1,2|3|4"]) == 4
    assert capsys.readouterr() == ("", "internal consistency: closure reached Q although its block patterns cannot\n")
