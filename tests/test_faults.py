"""Planted faults reach the ``InternalConsistencyError`` raises that guard the constructions.

Each fault is a ``monkeypatch`` of one ``qstar`` name, never a source edit.
The function that raises is called directly, or through the construction
that calls it when it takes no partition, and the traceback must end in it.  Where a command reaches the raise, ``cli.main`` must also exit 4 with
the message on stderr and nothing on stdout.  A fault that no raise guards
must fail a check of the ``verify`` battery instead.
"""

import dataclasses
import math
import re

import pytest

import qstar.maximal
import qstar.qsemigroup
import qstar.rank
from qstar.cli import main
from qstar.engine import SemigroupSet
from qstar.errors import InternalConsistencyError
from qstar.partition import PartitionedSet, partition_from_spec
from qstar.transformation import constant_map, identity_map
from qstar.verify import run_verification

from conftest import clear_q_caches

# k = 2 and m = 2, so |Q| = 4: every check of ``verify`` runs, the rank certificate included.
SPEC = "1,2|3"


@pytest.fixture(autouse=True)
def fresh_records():
    # A record keeps what it built: clear before, so the build runs under the
    # fault, and after, so nothing built under it outlives the test.
    clear_q_caches()
    yield
    clear_q_caches()


def count_off_by_one(monkeypatch):
    real = qstar.qsemigroup.cardinality_Q
    monkeypatch.setattr(qstar.qsemigroup, "cardinality_Q", lambda P: real(P) + 1)


def compose_to_identity(monkeypatch):
    monkeypatch.setattr(qstar.qsemigroup, "compose", lambda a, b: identity_map(a.n))


def m_off_by_one(monkeypatch):
    # No command reaches this raise: each proves Q, of k! * m elements, first.
    monkeypatch.setattr(PartitionedSet, "m", property(lambda P: math.prod(map(len, P.blocks)) + 1))


def h_class_of_the_last_idempotent(monkeypatch):
    real = qstar.qsemigroup._h_class_members
    monkeypatch.setattr(
        qstar.qsemigroup, "_h_class_members", lambda e, P: real(qstar.qsemigroup.idempotents_Q(P)[-1], P)
    )


def two_block_patterns_swapped(monkeypatch):
    real = qstar.maximal.decompose

    def swapped(*args):
        dec = real(*args)
        return dataclasses.replace(dec, patterns=dec.patterns[1::-1] + dec.patterns[2:])

    monkeypatch.setattr(qstar.maximal, "decompose", swapped)


def rank_above_m(monkeypatch):
    # No command reaches this raise: minimal_generating_set, which reads the
    # same rank_Q, finds too few generators first.
    monkeypatch.setattr(qstar.rank, "rank_Q", lambda P: P.m + 1)


def one_image_class(monkeypatch):
    monkeypatch.setattr(qstar.rank, "image", lambda a: frozenset())


def one_product_moves_its_image(monkeypatch):
    # Q is read with its last map replaced by a constant one, whose product
    # with each generator has one point of image, not a cross-section.
    real = qstar.rank.enumerate_Q
    monkeypatch.setattr(
        qstar.rank, "enumerate_Q", lambda P: SemigroupSet(P.n, (*real(P).elements[:-1], constant_map(P.n, 0)))
    )


def maximality_oracle_refuses(monkeypatch):
    monkeypatch.setattr(qstar.maximal, "is_maximal_subsemigroup", lambda T, Q: False)


def subgroup_cells_off_by_one(monkeypatch):
    table = list(qstar.maximal.MAXIMAL_SUBGROUP_CELLS)
    table[2] += 1
    monkeypatch.setattr(qstar.maximal, "MAXIMAL_SUBGROUP_CELLS", tuple(table))


# (fault, the function that raises, its message, a command that reaches the raise or None)
FAULTS = [
    (count_off_by_one, qstar.qsemigroup.prove_Q, "built 4 elements of Q, expected 5", "generate"),
    (compose_to_identity, qstar.qsemigroup.idempotents_Q, "constructed idempotent fails a*a == a", "generate"),
    (m_off_by_one, qstar.qsemigroup.idempotents_Q, "built 2 idempotents, expected 3", None),
    (
        h_class_of_the_last_idempotent,
        qstar.qsemigroup.decompose,
        "base idempotent is not the identity of its H-class",
        "maximal",
    ),
    (two_block_patterns_swapped, qstar.maximal._check_symmetric, "block pattern map is not multiplicative", "maximal"),
    (rank_above_m, qstar.rank.minimality_certificate, "pigeonhole premise r - 1 < m failed", None),
    (one_image_class, qstar.rank.minimality_certificate, "Q carries 1 image classes, expected 2", "verify"),
    (
        one_product_moves_its_image,
        qstar.rank.verify_image_right_invariance,
        "image is not right-invariant on this set",
        "verify",
    ),
    (
        maximality_oracle_refuses,
        qstar.maximal.maximal_subsemigroups_Q,
        "constructed set fails the maximality oracle",
        "maximal",
    ),
    (
        subgroup_cells_off_by_one,
        qstar.maximal.maximal_subsemigroups_Q,
        "maximal subgroups of the group part differ in size from S_k's",
        "maximal",
    ),
]
IDS = [fault.__name__ for fault, *_ in FAULTS]
# Raises in helpers that take no partition, reached through the construction that calls them.
CALLED_THROUGH = {
    qstar.maximal._check_symmetric: qstar.maximal.maximal_subsemigroups_Q,
    qstar.rank.verify_image_right_invariance: qstar.rank.minimality_certificate,
}


@pytest.mark.parametrize("fault, function, message, command", FAULTS, ids=IDS)
def test_a_planted_fault_trips_its_consistency_check(monkeypatch, fault, function, message, command):
    fault(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$") as caught:
        CALLED_THROUGH.get(function, function)(partition_from_spec(SPEC))
    assert caught.traceback[-1].name == function.__name__


@pytest.mark.parametrize(
    "fault, message, command",
    [(fault, message, command) for fault, _, message, command in FAULTS if command],
    ids=[name for name, (*_, command) in zip(IDS, FAULTS) if command],
)
def test_a_command_that_reaches_the_raise_exits_4(monkeypatch, capsys, fault, message, command):
    fault(monkeypatch)
    assert main([command, "--partition", SPEC]) == 4
    assert capsys.readouterr() == ("", f"internal consistency: {message}\n")


@pytest.mark.parametrize("spec", ["1,2|3|4|5", "1,2,3|4|5|6", "1,2|3,4|5|6", "1|2|3|4"])
def test_verify_fails_a_maximal_construction_that_drops_a_subgroup(monkeypatch, spec):
    # The construction drops A_4, the one maximal subgroup of S_4 of order 12, and
    # its 12 cells from the table it sums the subgroups against.  Every set it keeps
    # is still maximal, so only the count can catch the fault: count_maximal
    # searches S_4 apart from maximal_subgroups.
    real = qstar.maximal.maximal_subgroups
    monkeypatch.setattr(qstar.maximal, "maximal_subgroups", lambda G: [H for H in real(G) if len(H) != 12])
    table = list(qstar.maximal.MAXIMAL_SUBGROUP_CELLS)
    table[4] -= 12
    monkeypatch.setattr(qstar.maximal, "MAXIMAL_SUBGROUP_CELLS", tuple(table))
    P = partition_from_spec(spec)
    check = next(check for check in run_verification(P).checks if check.name == "maximal-subsemigroups")
    total = 8 + P.m if P.m > 1 else 8  # s_4 + m, or s_4 when Q is S_4
    assert (check.status, check.detail) == ("fail", f"{total - 1} constructed, count formula says {total}")
