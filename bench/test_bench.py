"""Quick tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import CheckFailure, check_output, decimal_int  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, labellings  # noqa: E402

from qstar import cli  # noqa: E402


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def batches(name: str, seed: int, rounds: int):
    workload = WORKLOADS[name](seed)
    return [workload.next_batch() for _ in range(min(rounds, workload.max_rounds))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    assert batches(name, 7, 4) == batches(name, 7, 4)
    assert batches(name, 7, 4) != batches(name, 8, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_partition_repeats_within_a_run(name):
    seen = []
    for ops in batches(name, 3, 40):
        for op in ops:
            seen.extend(b for b in (op.blocks, op.right_blocks) if b)
    assert len(seen) == len(set(seen))


def test_every_round_holds_the_same_operations():
    for name in WORKLOADS:
        shapes = {
            tuple((op.kind, op.known_fault) for op in ops) for ops in batches(name, 5, 10)
        }
        assert len(shapes) == 1, name


def test_labellings_count_set_partitions_of_a_shape():
    # 7! / (2!^2 * 2! * 3!) set partitions of 7 points into blocks 2,2,1,1,1.
    assert len(labellings((2, 2, 1, 1, 1))) == 105
    assert len(labellings((3, 3))) == 10


def test_known_fault_inputs_do_not_depend_on_the_seed():
    faults = [[op for op in ops if op.known_fault] for ops in batches("lookup", 1, 3)]
    others = [[op for op in ops if op.known_fault] for ops in batches("lookup", 2, 3)]
    assert faults == others and all(len(f) == 1 for f in faults)


def test_decimal_int_reads_counts_past_the_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    value = 7**9000  # 7,606 digits
    text = "".join(str(value // 10**i % 10**1000).zfill(1000) for i in range(8000, -1, -1000)).lstrip("0")
    assert decimal_int(text) == value
    assert decimal_int("-" + text) == -value
    assert sys.get_int_max_str_digits() == limit


def _op(kind, blocks, **kw):
    return Op(kind, (), tuple(tuple(b) for b in blocks), **kw)


def _flip(key):
    def corrupt(payload):
        payload[key] = not payload[key]
    return corrupt


def _bump(key):
    def corrupt(payload):
        payload[key] = payload[key] + 1
    return corrupt


def _drop_generator(payload):
    payload["generator_images"].pop()
    payload["generators"].pop()


def _weak_generators(payload):
    payload["generator_images"] = [payload["generator_images"][0]] * len(payload["generator_images"])
    payload["generators"] = [payload["generators"][0]] * len(payload["generators"])


def _fail_a_check(payload):
    payload["checks"][0]["status"] = "fail"


def _audit(key, value):
    def corrupt(payload):
        payload["generating_candidate_audit"][key] = value
    return corrupt


def _drop_element(payload):
    row = payload["subsemigroups"][0]
    row["elements"].pop()
    row["size"] -= 1


def _swap_element(payload):
    # Replace a member of a group-type set by a member outside it, same size.
    rows = payload["subsemigroups"]
    inside = set(map(tuple, rows[0]["elements"]))
    outside = next(e for r in rows for e in r["elements"] if tuple(e) not in inside)
    rows[0]["elements"][-1] = outside


def _drop_class(payload):
    payload["classes"].pop()


HUGE = [[x] for x in range(1, 1401)]  # 1400! has 3,804 digits

CASES = [
    (_op("analyze", [[1, 2, 3], [4, 5], [6]]), ["analyze", "--partition", "6|4,5|3,2,1"],
     [_bump("cardinality"), _bump("rank"), _bump("h_class_order"), _flip("is_group")]),
    (_op("analyze", HUGE), ["analyze", "--partition", "|".join(str(x) for x in range(1, 1401))],
     [lambda p: p.update(cardinality=p["cardinality"][:-1] + "1"), _bump("k")]),
    (_op("check", [[1, 2, 3], [4, 5], [6]], images=(3, 3, 3, 0, 0, 5)),
     ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6"],
     [_flip("in_q"), _flip("in_te_star"), _flip("in_te"), _flip("is_idempotent")]),
    (_op("check", [[1, 2], [3]], images=(1, 0, 2)),
     ["check", "--partition", "1,2|3", "--map", "2,1,3"],
     [_flip("in_te"), _flip("in_q")]),
    (_op("census", [], n=6), ["census", "--n", "6"], [_bump("class_count"), _drop_class]),
    (_op("generate", [[1, 2], [3, 4], [5]]), ["generate", "--partition", "1,2|3,4|5"],
     [_bump("rank"), _drop_generator, _weak_generators]),
    (Op("iso", (), ((1, 2), (3,)), ((1,), (2, 3))), ["iso", "--left", "1,2|3", "--right", "1|2,3"],
     [_flip("isomorphic"), _flip("witness_verified")]),
    (Op("iso", (), ((1, 2), (3,)), ((1, 2, 3),)), ["iso", "--left", "1,2|3", "--right", "1,2,3"],
     [_flip("isomorphic")]),
    (_op("verify", [[1, 2], [3, 4], [5]]), ["verify", "--partition", "1,2|3,4|5"],
     [_fail_a_check, _flip("all_passed"), _audit("closure_size", 9), _audit("generates", True),
      _audit("q_size", 25)]),
    (_op("maximal", [[1, 2], [3], [4]]), ["maximal", "--partition", "1,2|3|4"],
     [_bump("total"), _drop_element, _swap_element]),
]


@pytest.mark.parametrize("op,argv,corruptions", CASES, ids=[c[1][0] + str(i) for i, c in enumerate(CASES)])
def test_checks_accept_real_output_and_reject_corrupted_output(op, argv, corruptions):
    text = run(argv)
    check_output(op, text)
    payload = json.loads(text)
    for corrupt in corruptions:
        bad = copy.deepcopy(payload)
        corrupt(bad)
        with pytest.raises(CheckFailure):
            check_output(op, json.dumps(bad))
    with pytest.raises(CheckFailure):
        check_output(op, text[: len(text) // 2])


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_tracer_counts_repeat_and_uninstall_restores_the_package():
    import qstar.engine
    import qstar.qsemigroup
    import qstar.transformation

    original = qstar.transformation.compose
    counts = []
    for _ in range(2):
        for cached in ("enumerate_Q", "idempotents_Q", "decompose"):
            getattr(qstar.qsemigroup, cached).cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            run(["verify", "--partition", "1,2|3|4"])
        finally:
            tracer.uninstall()
        assert not tracer.missing
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))})
    assert counts[0] == counts[1]
    assert counts[0]["transformation.compose.calls"] > 0
    assert counts[0]["engine._close_mask.calls"] > 0
    assert counts[0]["engine.all_closed_subsets.closed_sets"] > 0
    assert qstar.transformation.compose is original
    assert qstar.engine.compose is original
    assert "__post_init__" in vars(qstar.transformation.Transformation)
    assert set(metrics) == {name for name, _ in PER_LAYER} - {"trace.overhead_s"}
