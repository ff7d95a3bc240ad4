"""Bounds are ``qstar.limits`` constants, not parameters.

No function of the package gives a parameter a ``qstar.limits`` default:
each reads its bound when it is called, so tests vary it with monkeypatch.

``MAX_DEGREE`` caps the degree n of every Q that is built; the commands
that build Q name it when it trips.  A size past its bound is refused
through ``qstar.limits.admit``, with one text; other modules import
neither Q's record cache nor its packed kernel from ``qsemigroup``.
"""

import ast
import json
import math
import pathlib
import random

import pytest

import qstar.limits
import qstar.maximal
import qstar.qsemigroup
import qstar.verify
from qstar import ResourceLimitError, partition_from_sizes
from qstar.cli import main
from qstar.engine import maximal_subgroups, symmetric_group_table
from qstar.qsemigroup import prove_Q

from conftest import bound_closures

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qstar"
LIMITS = {name for name in vars(qstar.limits) if name.isupper()}


def bounded_parameters(tree):
    """``function.parameter`` for each parameter in ``tree`` whose default is a limits constant."""
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        spec = fn.args
        positional = spec.posonlyargs + spec.args
        defaulted = list(zip(positional[len(positional) - len(spec.defaults):], spec.defaults))
        defaulted += zip(spec.kwonlyargs, spec.kw_defaults)
        yield from (f"{fn.name}.{arg.arg}" for arg, default in defaulted
                    if isinstance(default, ast.Name) and default.id in LIMITS)


def test_every_bound_parameter_is_varied_by_some_caller():
    # The one rule left: there is no such parameter, so no caller gets a bound by default.
    assert [found for path in sorted(PACKAGE.glob("*.py")) for found in bounded_parameters(ast.parse(path.read_text()))] == []
    # The walk finds positional and keyword-only ones, so the empty list is not vacuous.
    probe = ast.parse("def f(a, b=MAX_DEGREE, c=1, *, d=VERIFY_SAMPLES, e=None): pass")
    assert list(bounded_parameters(probe)) == ["f.b", "f.d"]


# One block of MAX_DEGREE + 1 points: |Q| = n and m = n stay far inside every
# size bound, so only the degree bound can refuse it.
PAST_MAX_DEGREE = ",".join(map(str, range(1, qstar.limits.MAX_DEGREE + 2)))


@pytest.mark.parametrize("command", ["generate", "maximal"])
def test_the_commands_that_build_q_refuse_a_degree_past_max_degree(capsys, command):
    assert main([command, "--partition", PAST_MAX_DEGREE]) == 3
    assert capsys.readouterr() == ("", f"resource limit: n = 257 exceeds MAX_DEGREE={qstar.limits.MAX_DEGREE}\n")


def test_verify_skips_its_enumeration_past_max_degree(capsys):
    assert main(["verify", "--partition", PAST_MAX_DEGREE]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1] == {"name": "enumeration", "status": "skipped", "detail": "n = 257 exceeds MAX_DEGREE=256"}


def test_a_block_of_max_degree_points_still_proves_q():
    n = qstar.limits.MAX_DEGREE
    record = prove_Q(partition_from_sizes((n,)))
    assert record.images == [(x,) * n for x in range(n)]


def package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def with_functions(tree):
    """(name of the innermost function holding it or None, node) for every node of ``tree``."""
    owner = {}
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):  # outer ones first
        owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    return ((owner.get(node), node) for node in ast.walk(tree))


# The ResourceLimitError raises outside ``qstar.limits``, each for a reason that
# ``limits.admit``'s "{what} {size} exceeds {name}{bound}" does not fit.
RAISED_OUTSIDE_LIMITS = {
    # "closure exceeded max_size=N", pinned by tests/test_engine.py: a closure
    # that grew past its bound, not a closed-form size checked before building.
    ("engine.py", "closure_images"): 2,
    # Work counters, which trip while the search runs.
    ("engine.py", "all_closed_subsets"): 1,
    ("maximal.py", "_maximal_closed_masks"): 1,
    # "N candidate maps exceed DEFAULT_MAX_MAPS=M", pinned by tests/test_qsemigroup.py.
    ("qsemigroup.py", "enumerate_Q_bruteforce"): 1,
}
# What only qsemigroup may import: Q's record cache and its packed kernel.
PRIVATE_TO_QSEMIGROUP = {"instance", "packed_closure", "_built", "all_in_Q"}


def test_size_refusals_go_through_limits_and_q_record_stays_in_qsemigroup():
    trees = package_trees()
    raised, admitted = {}, set()
    for name, tree in trees.items():
        for function, node in with_functions(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ResourceLimitError" and name != "limits.py":
                raised[name, function] = raised.get((name, function), 0) + 1
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "admit":
                admitted.add(name)
    assert raised == RAISED_OUTSIDE_LIMITS
    # Every module that refused a size by hand now refuses it through admit.
    assert admitted == {"engine.py", "formulas.py", "maximal.py", "qsemigroup.py", "rank.py"}
    imported = sorted(
        f"{name}: {alias.name}"
        for name, tree in trees.items() if name != "qsemigroup.py"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in PRIVATE_TO_QSEMIGROUP
    )
    assert imported == []
    subscripted = sorted(
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "pairing"
    )
    assert subscripted == []


def test_only_the_group_builders_build_a_group_table():
    # decompose, the iso witness and the rank certificate read products through
    # Q's coordinates and generators; the maximal construction searches one
    # SemigroupSet.  A group table is built only where a group is asked for.
    callers = sorted(
        (name, function)
        for name, tree in package_trees().items()
        for function, node in with_functions(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "from_semigroup"
    )
    assert callers == [("engine.py", "symmetric_group_table"), ("qsemigroup.py", "h_class")]


def test_admit_and_exceeds_share_one_text():
    assert qstar.limits.exceeds("|Q| =", 36, 36, "DEFAULT_MAX_CLOSURE=") is None
    assert qstar.limits.exceeds("|Q| =", 37, 36, "DEFAULT_MAX_CLOSURE=") == "|Q| = 37 exceeds DEFAULT_MAX_CLOSURE=36"
    qstar.limits.admit("n =", 256, 256, "MAX_DEGREE=")
    with pytest.raises(ResourceLimitError, match="^n = 257 exceeds MAX_DEGREE=256$"):
        qstar.limits.admit("n =", 257, 256, "MAX_DEGREE=")


def right_zero_cells(sizes):
    P = partition_from_sizes(sizes)
    return math.factorial(P.k) * P.m * (P.m - 1)


def test_the_right_zero_cell_bound_admits_the_ladder_and_refuses_blocks_30_30():
    bound = qstar.limits.MAX_LISTED_CELLS
    # maximal at k = 7 (m = 2), the bench's (3,2,1,1), the tests' one block of MAX_DEGREE + 1 points, blocks (20, 20).
    assert max(map(right_zero_cells, [(2, 1, 1, 1, 1, 1, 1), (3, 2, 1, 1), (257,), (20, 20)])) <= bound
    assert right_zero_cells((30, 30)) == 1_618_200 > bound


def refuse_any_build(*args, **kwargs):
    raise AssertionError("decompose ran past a refused admission check")


# Blocks (2, 2, 1): k = 3, m = 4, |Q| = 24.  S_3's maximal subgroups have orders
# 2, 2, 2 and 3, so maximal lists 4 * 9 + 3! * 4 * 3 = 108 cells, 72 of them right-zero.
SMALL_LISTING = ["maximal", "--partition", "1,2|3,4|5"]


def test_maximal_refuses_right_zero_cells_past_the_bound_before_building(capsys, monkeypatch):
    # The right-zero cells are counted with the group-type ones, as listed cells.
    monkeypatch.setattr(qstar.maximal, "decompose", refuse_any_build)
    # Blocks (30, 30): k = 2, m = 900, so 900 * 1 + 2! * 900 * 899 cells.
    assert main(["maximal", "--partition", ",".join(map(str, range(1, 31))) + "|" + ",".join(map(str, range(31, 61)))]) == 3
    assert capsys.readouterr() == ("", "resource limit: listed cells 1619100 exceeds MAX_LISTED_CELLS=500000\n")
    monkeypatch.setattr(qstar.maximal, "MAX_LISTED_CELLS", 71)  # one short of the 72 right-zero cells
    assert main(SMALL_LISTING) == 3
    assert capsys.readouterr() == ("", "resource limit: listed cells 108 exceeds MAX_LISTED_CELLS=71\n")


def test_maximal_refuses_a_listing_past_the_bound_before_the_subgroup_search(capsys, monkeypatch):
    # Blocks (5, 2, 1, 1, 1, 1, 1): k = 7 and m = 10 pass every other bound, and only
    # 453,600 of the 10 * 22,680 + 7! * 10 * 9 listed cells are right-zero ones.
    monkeypatch.setattr(qstar.maximal, "decompose", refuse_any_build)
    assert main(["maximal", "--partition", "1,2,3,4,5|6,7|8|9|10|11|12"]) == 3
    assert capsys.readouterr() == ("", "resource limit: listed cells 680400 exceeds MAX_LISTED_CELLS=500000\n")


def test_the_listed_cell_table_sums_the_maximal_subgroups_of_s_k():
    table = qstar.maximal.MAXIMAL_SUBGROUP_CELLS
    assert [sum(map(len, maximal_subgroups(symmetric_group_table(k).elements))) for k in range(1, 7)] == list(table[1:7])
    # It covers every k whose S_k the group-order bound admits.
    assert math.factorial(len(table) - 1) <= qstar.limits.MAX_GROUP_ORDER < math.factorial(len(table))


def refuse_any_family(*args, **kwargs):
    raise AssertionError("built a family past the listed-cell bound")


def test_maximal_lists_cells_up_to_the_bound_and_refuses_past_it_before_any_family(capsys, monkeypatch):
    monkeypatch.setattr(qstar.maximal, "MAX_LISTED_CELLS", 108)
    assert main(SMALL_LISTING) == 0
    rows = json.loads(capsys.readouterr().out)["subsemigroups"]
    assert (len(rows), sum(row["size"] for row in rows)) == (8, 108)
    # On maximal's path only its families read the decomposition's cells.
    monkeypatch.setattr(qstar.qsemigroup.RightGroupDecomposition, "element", refuse_any_family)
    monkeypatch.setattr(qstar.maximal, "MAX_LISTED_CELLS", 107)
    assert main(SMALL_LISTING) == 3
    assert capsys.readouterr() == ("", "resource limit: listed cells 108 exceeds MAX_LISTED_CELLS=107\n")


def test_maximal_refuses_in_order_listed_cells_m_group_order_then_q(capsys, monkeypatch):
    # Each bound is set one short of its size, then raised to it, so the next one trips.
    monkeypatch.setattr(qstar.maximal, "MAX_GROUP_ORDER", 5)
    bound_closures(monkeypatch, 3)
    steps = [
        ("MAX_LISTED_CELLS", 107, "listed cells 108 exceeds MAX_LISTED_CELLS=107"),
        ("MAX_LISTED_CELLS", 108, "idempotent count 4 exceeds DEFAULT_MAX_CLOSURE=3"),
        ("DEFAULT_MAX_CLOSURE", 23, "H-class order 6 exceeds MAX_GROUP_ORDER=5"),
        ("MAX_GROUP_ORDER", 6, "|Q| = 24 exceeds DEFAULT_MAX_CLOSURE=23"),
    ]
    for name, value, message in steps:
        if name == "DEFAULT_MAX_CLOSURE":
            bound_closures(monkeypatch, value)
        else:
            monkeypatch.setattr(qstar.maximal, name, value)
        assert main(SMALL_LISTING) == 3
        assert capsys.readouterr() == ("", f"resource limit: {message}\n")
    bound_closures(monkeypatch, 24)
    assert main(SMALL_LISTING) == 0


@pytest.mark.parametrize("budget, legs", [(75, 3), (1, 1)])
def test_the_pairwise_leg_runs_on_the_maps_its_budget_affords(monkeypatch, budget, legs):
    P = partition_from_sizes((3, 2))  # n = 5: each pairwise call costs n^2 = 25
    calls = []
    real = qstar.verify.in_TEstar_pairwise
    monkeypatch.setattr(qstar.verify, "in_TEstar_pairwise", lambda P, a: calls.append(a) or real(P, a))
    monkeypatch.setattr(qstar.verify, "PAIRWISE_WORK_BUDGET", budget)
    monkeypatch.setattr(qstar.verify, "VERIFY_SAMPLES", 10)
    check = qstar.verify.check_membership_implications(P, random.Random(0))
    assert (check.status, len(calls)) == ("pass", legs)
    assert check.detail == (
        f"implication chain holds, 10 sampled maps, the pairwise form on {legs} of them (PAIRWISE_WORK_BUDGET={budget})"
    )
    monkeypatch.setattr(qstar.verify, "PAIRWISE_WORK_BUDGET", 250)  # affords all ten maps: the detail is unchanged
    assert qstar.verify.check_membership_implications(P, random.Random(0)).detail == (
        "implication chain holds, 10 sampled maps"
    )


def test_the_pairwise_budget_covers_the_default_samples_at_the_largest_built_degree():
    assert qstar.limits.PAIRWISE_WORK_BUDGET // (qstar.limits.MAX_DEGREE + 1) ** 2 >= qstar.limits.VERIFY_SAMPLES
