"""Bounds that no caller varies are ``qstar.limits`` constants, not parameters.

A function of the package that takes a ``PartitionedSet`` may give a
parameter a ``qstar.limits`` default only when some call site in the
package passes that parameter, by position or by keyword: otherwise every
caller gets the default, and the parameter is a constant in disguise.

``MAX_DEGREE`` caps the degree n of every Q that is built; the commands
that build Q name it when it trips.
"""

import ast
import json
import pathlib

import pytest

import qstar.limits
from qstar import partition_from_sizes
from qstar.cli import main
from qstar.qsemigroup import prove_Q

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qstar"
LIMITS = {name for name in vars(qstar.limits) if name.isupper()}


def bounded_parameters(trees):
    """(function, parameter, position or None) for each parameter with a limits default
    of a function that takes a ``PartitionedSet``."""
    for fn in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        spec = fn.args
        positional = spec.posonlyargs + spec.args
        if not any(arg.annotation and "PartitionedSet" in ast.unparse(arg.annotation)
                   for arg in positional + spec.kwonlyargs):
            continue
        defaulted = [(arg, positional.index(arg), default)
                     for arg, default in zip(positional[len(positional) - len(spec.defaults):], spec.defaults)]
        defaulted += [(arg, None, default) for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)]
        for arg, position, default in defaulted:
            if isinstance(default, ast.Name) and default.id in LIMITS:
                yield fn.name, arg.arg, position


def unvaried_bounds(package):
    """``function.parameter`` for each limits-defaulted parameter that no call in ``package``
    passes, and the set of all such parameters."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passed(function, parameter, position):
        return any(
            getattr(call.func, "id", getattr(call.func, "attr", None)) == function
            and (any(keyword.arg == parameter for keyword in call.keywords)
                 or position is not None and len(call.args) > position)
            for call in calls
        )

    bounded = {(function, parameter): position for function, parameter, position in bounded_parameters(trees)}
    unvaried = sorted(f"{f}.{p}" for (f, p), position in bounded.items() if not passed(f, p, position))
    return unvaried, {f"{f}.{p}" for f, p in bounded}


def test_every_bound_parameter_is_varied_by_some_caller():
    unvaried, bounded = unvaried_bounds(PACKAGE)
    assert unvaried == []
    # The walk finds the bounds the commands pass, so an empty list is not vacuous.
    assert {"decompose.max_group_order", "maximal_subsemigroups_Q.max_size", "prove_Q.max_size"} <= bounded


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
