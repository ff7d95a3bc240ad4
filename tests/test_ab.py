"""``tools/ab.py``'s summary, on fixed numbers: no benchmark is run."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1},
]


def result(wall, hits, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}, "hits": {"value": hits, "unit": "count"}}}


def runs(walls, hits):
    return {"w": [result(wall, hit) for wall, hit in zip(walls, hits)]}


def test_quartiles_of_five_values_and_of_one():
    assert ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize(
    "walls, hits, status",
    [
        ([1.0, 1.0, 1.1, 1.1, 1.2], [100] * 5, ["ok", "ok"]),  # +10% on wall_s, inside its 20% bound
        ([1.3, 1.3, 1.3, 1.3, 1.3], [100] * 5, ["worse", "ok"]),  # +30%
        ([0.5] * 5, [89] * 5, ["ok", "worse"]),  # faster, but 11% fewer of a higher-is-better metric
        ([0.5] * 5, [120] * 5, ["ok", "ok"]),
    ],
)
def test_a_metric_is_worse_only_past_its_bound_in_its_own_direction(walls, hits, status):
    parent = runs([1.0] * 5, [100] * 5)
    rows, failures = ab.summarize(parent, runs(walls, hits), METRICS)
    assert [row["status"] for row in rows] == status
    assert failures == []


def test_the_relative_change_compares_medians_and_the_row_holds_both_quartiles():
    parent = runs([0.8, 0.9, 1.0, 1.1, 1.2], [100] * 5)
    change = runs([0.9, 1.0, 1.05, 1.1, 1.2], [100] * 5)
    row = ab.summarize(parent, change, METRICS)[0][0]
    assert row["parent"] == (0.9, 1.0, 1.1) and row["change"] == (1.0, 1.05, 1.1)
    assert row["relative"] == pytest.approx(0.05)
    assert row["bound"] == 0.2


def test_wins_count_the_pairs_where_the_change_beats_the_parent_in_the_metric_direction():
    # Pair i holds run i of each side: wall_s is better lower, hits higher, and a tie is no win.
    parent = runs([1.0, 1.0, 1.0, 1.0, 1.0], [100, 100, 100, 100, 100])
    change = runs([0.9, 0.9, 1.0, 1.1, 0.8], [101, 99, 100, 120, 100])
    rows, _ = ab.summarize(parent, change, METRICS)
    assert [row["wins"] for row in rows] == [(3, 5), (2, 5)]
    assert "wins 3/5" in ab.render(rows[:1], [])


def test_a_parent_spread_past_the_bound_is_unresolved():
    parent = runs([0.6, 0.8, 1.0, 1.2, 1.4], [100] * 5)  # quartiles 0.8 and 1.2: 40% of the median
    rows, _ = ab.summarize(parent, runs([1.0] * 5, [100] * 5), METRICS)
    assert rows[0]["status"] == "unresolved"


def test_failed_or_incorrect_runs_are_reported_on_either_side():
    parent = {"w": [result(1.0, 100), result(1.0, 100, failed=2)]}
    change = {"w": [result(1.0, 100, correct=False), result(1.0, 100)]}
    rows, failures = ab.summarize(parent, change, METRICS)
    assert failures == ["parent w run 1: failed 2, correct True", "change w run 0: failed 0, correct False"]
    text = ab.render(rows, failures)
    assert text.splitlines()[0].split() == [
        "w", "wall_s", "parent", "1", "[1,", "1]", "change", "1", "[1,", "1]", "+0.0%", "wins", "0/2", "bound", "20%",
        "gain", "-", "OK",
    ]
    assert text.splitlines()[-1] == "FAILED change w run 0: failed 0, correct False"


PARENT_WALLS = [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]  # quartiles 0.9625 and 1.0375


@pytest.mark.parametrize(
    "change_walls, gain",
    [
        ([0.8] * 9 + [1.2], "met"),  # 9 of 10 pairs, and the median 0.2 below, past the spread of 0.075
        ([0.8] * 8 + [1.2] * 2, "-"),  # 8 of 10 pairs
        ([wall - 0.01 for wall in PARENT_WALLS], "-"),  # every pair, but the median only 0.01 below
        ([1.2] * 10, "-"),  # every pair lost
    ],
)
def test_a_gain_is_met_on_nine_tenths_of_the_pairs_and_past_the_parent_spread(change_walls, gain):
    row = ab.summarize(runs(PARENT_WALLS, [100] * 10), runs(change_walls, [100] * 10), METRICS)[0][0]
    assert row["parent"][2] - row["parent"][0] == pytest.approx(0.075)
    assert row["gain"] == gain
    assert f"gain {gain}" in ab.render([row], [])


def test_a_gain_on_a_higher_is_better_metric_is_a_larger_median():
    parent = runs([1.0] * 10, [100] * 10)
    rows, _ = ab.summarize(parent, runs([1.0] * 10, [110] * 10), METRICS)
    assert [row["gain"] for row in rows] == ["-", "met"]
    rows, _ = ab.summarize(parent, runs([1.0] * 10, [90] * 10), METRICS)
    assert [row["gain"] for row in rows] == ["-", "-"]
