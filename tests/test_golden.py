"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case's expected stdout is ``golden/<name>.stdout``; its stderr is
``golden/<name>.stderr`` when that file exists, and empty otherwise.  A
change that is meant to keep every CLI output passes these unedited.
"""

import json
import pathlib

import pytest

import qstar.cli
from qstar.cli import json_text, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze": (["analyze", "--partition", "1,2,3|4,5|6"], 0),
    "check_q": (["check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6"], 0),
    "census_6": (["census", "--n", "6"], 0),
    "generate": (["generate", "--partition", "1,2|3,4|5"], 0),
    "generate_leftover": (["generate", "--partition", "1,2|3,4|5|6|7"], 0),
    "maximal_right_group": (["maximal", "--partition", "1,2|3|4"], 0),
    "maximal_group": (["maximal", "--partition", "1|2|3"], 0),
    "iso": (["iso", "--left", "1,2|3,4", "--right", "1|2,3|4"], 0),
    "iso_witness": (["iso", "--left", "1,2|3,4|5|6", "--right", "1|2,3|4|5,6"], 0),
    "iso_past_bound": (["iso", "--left", "1,2|3,4|5|6|7|8|9|10", "--right", "1|2|3|4|5|6|7,8|9,10"], 0),
    "verify": (["verify", "--partition", "1,2|3,4|5", "--seed", "0"], 0),
    "maximal_past_group_bound": (["maximal", "--partition", "1,9|2|3|4|5|6|7|8"], 3),
    "check_map_out_of_range": (["check", "--partition", "1,2,3", "--map", "4,1,1"], 2),
    "census_12": (["census", "--n", "12"], 0),
    "analyze_big_counts": (["analyze", "--partition", "|".join(str(i) for i in range(1, 26))], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    stderr_file = GOLDEN / f"{name}.stderr"
    assert err == (stderr_file.read_text() if stderr_file.exists() else "")


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.iterdir()} == set(CASES)


@pytest.mark.parametrize("name", sorted(name for name, (argv, code) in CASES.items() if code == 0))
def test_writer_matches_json_dumps_on_golden_payloads(name, monkeypatch):
    payloads = []
    monkeypatch.setattr(qstar.cli, "_emit", lambda payload, fmt: payloads.append(payload))
    assert main(CASES[name][0]) == 0
    [payload] = payloads
    assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)
