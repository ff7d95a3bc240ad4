"""Acceptance criteria.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line on the real
stdout (so it survives pytest capture) and enforces its wall-clock
budget.  The criteria pin the package to independently derived ground
truth: the frozen 36-element reference instance, definitional sweeps
over every small partition, and byte-stable committed artifacts.
"""

import contextlib
import itertools
import json
import pathlib
import random
import time

import pytest

import qstar.rank
from qstar import (
    SemigroupSet,
    Transformation,
    brute_force_no_generating_set_of_size,
    build_isomorphism,
    cardinality_Q,
    closure,
    enumerate_Q,
    exhaustive_maximal_oracle,
    green_R_definitional,
    green_R_related,
    groups_isomorphic,
    h_class,
    idempotents_Q,
    idempotents_right_zero,
    image,
    integer_partitions,
    is_left_cancellative,
    is_maximal_subsemigroup,
    is_regular_semigroup,
    is_right_group,
    maximal_subsemigroups_Q,
    minimal_generating_set,
    minimality_certificate,
    partition_from_sizes,
    q_isomorphic,
    rank_Q,
)
from qstar.cli import main
from qstar.engine import _close_mask

from conftest import BASE_H_CLASS_INDICES, IDEMPOTENT_INDICES

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture
def criterion(capsys):
    """Context manager factory: time a block, print its verdict uncaptured."""

    def announce(line):
        with capsys.disabled():
            print(line, flush=True)

    @contextlib.contextmanager
    def _criterion(num, label, limit):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            announce(f"ACCEPTANCE {num} FAIL {label}")
            raise
        elapsed = time.perf_counter() - start
        if elapsed >= limit:
            announce(f"ACCEPTANCE {num} FAIL {label} (took {elapsed:.1f}s, budget {limit}s)")
            raise AssertionError(f"criterion {num} exceeded its {limit}s budget")
        announce(f"ACCEPTANCE {num} PASS {label} ({elapsed:.2f}s)")

    return _criterion


def all_partitions_up_to(n_max):
    for n in range(1, n_max + 1):
        for sizes in integer_partitions(n):
            yield partition_from_sizes(sizes)


def test_acceptance_1_reference_enumeration(criterion, p6, alpha):
    with criterion(1, "reference instance enumerated exactly", 1.0):
        Q = enumerate_Q(p6)
        assert set(Q) == {alpha(i) for i in range(1, 37)}
        assert set(idempotents_Q(p6)) == {alpha(i) for i in IDEMPOTENT_INDICES}
        base = h_class(alpha(1), p6)
        assert set(base.elements) == {alpha(i) for i in BASE_H_CLASS_INDICES}


def test_acceptance_2_reference_maximal_subsemigroups(criterion, p6, t_sets):
    with criterion(2, "the ten maximal subsemigroups, each re-verified", 10.0):
        Q = enumerate_Q(p6)
        report = maximal_subsemigroups_Q(p6)
        constructed = {frozenset(T) for T in report.all_subsemigroups()}
        assert constructed == set(t_sets.values())
        for T in report.all_subsemigroups():
            assert is_maximal_subsemigroup(T, Q)


def test_acceptance_3_counting_formulas_small_census(criterion):
    with criterion(3, "cardinality and idempotent counts, all partitions n <= 7", 60.0):
        covered = 0
        for P in all_partitions_up_to(7):
            if cardinality_Q(P) > 5000:
                continue
            Q = enumerate_Q(P)
            assert len(Q) == cardinality_Q(P)
            assert len(idempotents_Q(P)) == P.m
            assert is_right_group(Q) or len(Q) > 200
            covered += 1
        assert covered >= 28


def test_acceptance_4_rank_achieved_and_minimal(criterion, monkeypatch):
    monkeypatch.setattr(qstar.rank, "DEFAULT_BRUTE_FORCE_MAX_Q", 40)  # the sweep below covers |Q| <= 40
    with criterion(4, "rank max(2, m) achieved, smaller sets ruled out", 300.0):
        for P in all_partitions_up_to(7):
            if P.is_identity_relation:
                continue
            report = minimal_generating_set(P)
            assert len(report.generators) == max(2, P.m) == rank_Q(P)
            assert set(closure(report.generators)) == set(enumerate_Q(P))
            if cardinality_Q(P) <= 40:
                cert = minimality_certificate(P)
                assert cert["smaller_subsets_possible"] is False
                assert brute_force_no_generating_set_of_size(P, rank_Q(P) - 1)


def test_acceptance_5_maximal_construction_vs_exhaustive_oracle(criterion):
    with criterion(5, "maximal subsemigroups equal the exhaustive oracle", 300.0):
        covered = 0
        for P in all_partitions_up_to(7):
            if P.k > 4 or P.m < 2 or cardinality_Q(P) > 40:
                continue
            Q = enumerate_Q(P)
            report = maximal_subsemigroups_Q(P)
            oracle = exhaustive_maximal_oracle(Q)
            assert {T.elements for T in report.all_subsemigroups()} == {
                T.elements for T in oracle
            }
            assert len(oracle) == report.s_k + report.m
            covered += 1
        assert covered >= 15


def test_acceptance_6_right_group_battery(criterion):
    with criterion(6, "500 sampled subsemigroups: right group iff regular + right-zero idempotents", 300.0):
        rng = random.Random(20260818)
        instances = [P for P in all_partitions_up_to(5)]
        violations = 0
        runs = 0
        while runs < 500:
            P = rng.choice(instances)
            Q = enumerate_Q(P)
            table = Q.index_table
            picks = rng.sample(range(len(Q)), min(rng.randint(1, 3), len(Q)))
            mask = 0
            for i in picks:
                mask |= 1 << i
            closed = _close_mask(table, mask)
            indices = [i for i in range(len(Q)) if (closed >> i) & 1]
            sub = SemigroupSet.from_elements(Q.subset(indices))
            rg = is_right_group(sub)
            regular = is_regular_semigroup(sub)
            triangle = regular and is_left_cancellative(sub)
            # Left cancellation is the row test of is_right_group itself, so
            # only this leg can tell a right group from a regular semigroup.
            right_zero = regular and idempotents_right_zero(sub)
            if rg != triangle or rg != right_zero or not rg:
                violations += 1
            runs += 1
        assert runs == 500 and violations == 0


def test_acceptance_7_green_r_forms_agree_on_t3(criterion):
    with criterion(7, "both R-class tests agree on all 729 pairs of T(3)", 1.0):
        T3 = SemigroupSet.from_elements(
            Transformation(imgs) for imgs in itertools.product(range(3), repeat=3)
        )
        pairs = 0
        for a in T3:
            for b in T3:
                assert green_R_related(a, b) == green_R_definitional(a, b, T3)
                pairs += 1
        assert pairs == 729


def test_acceptance_8_isomorphism_classification(criterion):
    with criterion(8, "k and m classify: key test matches the structural route", 300.0):
        instances = list(all_partitions_up_to(5))
        for P1 in instances:
            G1 = h_class(idempotents_Q(P1)[0], P1)
            for P2 in instances:
                G2 = h_class(idempotents_Q(P2)[0], P2)
                structural = groups_isomorphic(G1, G2) and P1.m == P2.m
                assert q_isomorphic(P1, P2) == structural
                if structural and cardinality_Q(P1) <= 200:
                    build_isomorphism(P1, P2)  # raises unless the map is checked multiplicative


def test_acceptance_9_audit_of_published_generating_claim(criterion, p6, capsys):
    with criterion(9, "six generators verified; the textbook candidate falls short", 60.0):
        committed = json.loads((REPORTS / "p6_audit.json").read_text())
        code = main(["verify", "--partition", "1,2,3|4,5|6", "--seed", "0"])
        regenerated = json.loads(capsys.readouterr().out)
        assert code == 0
        assert regenerated == committed

        assert regenerated["all_passed"] is True
        audit = regenerated["generating_candidate_audit"]
        assert audit["applicable"] is True
        assert audit["rank"] == 6
        assert len(audit["minimal_generating_set"]) == 6
        assert audit["minimal_generating_set_verified"] is True
        # The candidate modeled on the published description does not
        # generate: its closure stops at 12 of 36 and its block patterns
        # only reach 2 of the 6 permutations.
        assert audit["generates"] is False
        assert audit["candidate_size"] == 6
        assert audit["closure_size"] == 12
        assert audit["q_size"] == 36
        assert audit["block_pattern_group_order"] == 2
        assert audit["symmetric_part_order"] == 6
        assert audit["unreachable_pattern"] is not None
