import json
import math
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from qstar import limits
from qstar.cli import build_parser, json_int, main
from qstar.qsemigroup import decompose, enumerate_Q, idempotents_Q

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


def test_json_int_keeps_every_digit():
    for value in (2**53, 10**1000, 10**1000 - 1, 10**2000 + 7, -(10**3000) - 1):
        assert json_int(value) == str(value)
    assert json_int(2**53 - 1) == 2**53 - 1


def test_verify_enumerates_q_once(capsys):
    for fn in (enumerate_Q, idempotents_Q, decompose):
        fn.cache_clear()
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

    def forced_failure(P, seed=0, samples=100):
        return VerificationReport(
            partition=partition_from_spec("1,2|3"),
            seed=seed,
            checks=(Check("q-counts", "fail", "forced for the exit-code path"),),
            audit={"applicable": False},
        )

    monkeypatch.setattr("qstar.cli.run_verification", forced_failure)
    assert main(["verify", "--partition", "1,2|3"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False


def test_argparse_defaults_are_the_library_limits():
    parser = build_parser()
    for argv in (
        ["analyze", "--partition", "1"],
        ["check", "--partition", "1", "--map", "1"],
        ["generate", "--partition", "1"],
        ["maximal", "--partition", "1"],
        ["iso", "--left", "1", "--right", "1"],
        ["census", "--n", "1"],
        ["verify", "--partition", "1"],
    ):
        args = parser.parse_args(argv)
        assert args.max_closure == limits.DEFAULT_MAX_CLOSURE
        assert args.group_order_bound == limits.DEFAULT_MAX_GROUP_ORDER
    assert args.samples == limits.DEFAULT_SAMPLES


def test_max_closure_is_not_read_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSTAR_MAX_CLOSURE", "abc")
    assert main(["analyze", "--partition", "1,2|3"]) == 0
    monkeypatch.setenv("QSTAR_MAX_CLOSURE", "5")
    assert main(["generate", "--partition", "1,2,3|4,5|6"]) == 0  # |Q| = 36


@pytest.mark.parametrize("spec", ["1|2|3|4|5|6", "1,7|2|3|4|5|6"])
def test_maximal_on_six_blocks_stops_at_the_default_group_order_bound(spec):
    # S_6 has order 720; without the bound its subgroup lattice runs for minutes.
    proc = subprocess.run(
        [sys.executable, "-m", "qstar.cli", "maximal", "--partition", spec],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert proc.returncode == 3
    assert "order 720 exceeds bound 120" in proc.stderr


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qstar.cli", "analyze", "--partition", "1,2|3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["cardinality"] == 4


def test_every_command_output_validates_against_schema(capsys):
    # run_json already validates; this exercises the remaining branches.
    run_json(capsys, "verify", "--partition", "1|2|3")
    run_json(capsys, "check", "--partition", "1|2|3", "--map", "2,1,3")
    run_json(capsys, "maximal", "--partition", "1,2|3,4")
    run_json(capsys, "generate", "--partition", "1|2|3")
    run_json(capsys, "census", "--n", "1")
