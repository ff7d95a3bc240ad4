"""Instance-level cross-validation battery.

``run_verification`` replays every structural claim the package relies on
against the definitional engine for one partitioned set: membership
implication chains, counting formulas, right-group criteria, Green's R
agreement, H-class structure, rank, maximal subsemigroups and
self-isomorphism.  Checks that need enumerated data are skipped, not
silently passed, when the instance exceeds the configured bounds.

The battery ends with an audit of the textbook-style generating candidate
(all idempotents except the base one, plus a transposition-patterned
element).  That candidate generates Q only when k <= 2; for k >= 3 the
closure is a proper subsemigroup, certified by the induced block
permutations generating a proper subgroup of the symmetric part.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .engine import (
    SemigroupSet,
    _close_mask,
    _mask_indices,
    closure,
    green_R_definitional,
    green_R_related,
    groups_isomorphic,
    is_left_cancellative,
    is_regular_semigroup,
    is_right_group,
)
from .errors import QstarError
from .iso import build_isomorphism, q_isomorphic
from .limits import DEFAULT_ORACLE_MAX, DEFAULT_SAMPLES, ENUM_BOUND, EXHAUSTIVE_MAPS_BOUND, ORACLE_BOUND
from .maximal import exhaustive_maximal_oracle, maximal_subsemigroups_Q
from .membership import (
    in_Q,
    in_TE,
    in_TEstar,
    in_TEstar_pairwise,
    is_idempotent_Q,
)
from .partition import PartitionedSet, is_cross_section
from .qsemigroup import (
    block_permutation,
    cardinality_Q,
    decompose,
    enumerate_Q,
    h_class,
    idempotents_Q,
    is_group_Q,
)
from .rank import (
    generating_set_hits_every_hclass,
    minimal_generating_set,
    minimality_certificate,
    rank_Q,
    symmetric_part_generators,
)
from .transformation import (
    Transformation,
    compose,
    image,
    kernel_partition,
    q_shorthand,
)


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass", "fail" or "skipped"
    detail: str


def _sub_table(table, indices):
    pos = {i: p for p, i in enumerate(indices)}
    return [[pos[table[i][j]] for j in indices] for i in indices]


def _random_maps(P: PartitionedSet, rng: random.Random, count: int):
    for _ in range(count):
        yield Transformation(tuple(rng.randrange(P.n) for _ in range(P.n)))


def _all_maps(n: int):
    for imgs in itertools.product(range(n), repeat=n):
        yield Transformation(imgs)


def _sampled_closures(P: PartitionedSet, Q, rng, count: int):
    """Closures of ``count`` random 1-3 element subsets of Q, as (indices, subsemigroup)."""
    table = Q.index_table
    for _ in range(count):
        picks = rng.sample(range(len(Q)), min(rng.randint(1, 3), len(Q)))
        indices = _mask_indices(_close_mask(table, sum(1 << i for i in picks)), len(Q))
        yield indices, SemigroupSet(P.n, Q.subset(indices), None)


def check_partition_invariants(P: PartitionedSet, rng) -> Check:
    for x in range(P.n):
        if x not in P.blocks[P.block_of[x]]:
            return Check("partition-invariants", "fail", f"block_of[{x}] points at the wrong block")
    if P.n <= 12:
        count = sum(
            1
            for r in range(P.n + 1)
            for subset in itertools.combinations(range(P.n), r)
            if is_cross_section(P, subset)
        )
        if count != P.m:
            return Check("partition-invariants", "fail", f"{count} cross-sections, expected m={P.m}")
        return Check("partition-invariants", "pass", f"{count} cross-sections == m, block_of consistent")
    return Check("partition-invariants", "pass", "block_of consistent (cross-section sweep skipped for n > 12)")


def check_membership_implications(P: PartitionedSet, rng, samples: int) -> Check:
    if P.n <= EXHAUSTIVE_MAPS_BOUND:
        maps = _all_maps(P.n)
        label = f"exhaustive over {P.n ** P.n} maps"
    else:
        maps = _random_maps(P, rng, samples)
        label = f"{samples} sampled maps"
    checked = 0
    for a in maps:
        fast = in_TEstar(P, a)
        if fast != in_TEstar_pairwise(P, a):
            return Check("membership-implications", "fail", f"fast and pairwise forms disagree on {a.images}")
        if in_Q(P, a) and not fast:
            return Check("membership-implications", "fail", f"in_Q without in_TEstar on {a.images}")
        if fast and not in_TE(P, a):
            return Check("membership-implications", "fail", f"in_TEstar without in_TE on {a.images}")
        if P.is_identity_relation and fast != (len(set(a.images)) == P.n):
            return Check("membership-implications", "fail", "identity relation: in_TEstar != injectivity")
        checked += 1
    return Check("membership-implications", "pass", f"implication chain holds, {label}")


def check_idempotent_criterion(P: PartitionedSet, Q) -> Check:
    hits = 0
    for a in Q:
        blockwise = all(
            P.block_of[a.images[block[0]]] == bi for bi, block in enumerate(P.blocks)
        )
        if is_idempotent_Q(P, a) != blockwise:
            return Check("idempotent-criterion", "fail", f"criterion mismatch on {a.images}")
        hits += blockwise
    return Check("idempotent-criterion", "pass", f"{hits} idempotents match the self-map criterion")


def check_q_counts(P: PartitionedSet, Q) -> Check:
    expected = cardinality_Q(P)
    idems = idempotents_Q(P)
    filtered = tuple(a for a in Q if is_idempotent_Q(P, a))
    if len(Q) != expected:
        return Check("q-counts", "fail", f"|Q| = {len(Q)}, formula says {expected}")
    if filtered != idems:
        return Check("q-counts", "fail", "constructed idempotents differ from the filtered ones")
    if len(idems) != P.m:
        return Check("q-counts", "fail", f"{len(idems)} idempotents, expected m = {P.m}")
    return Check("q-counts", "pass", f"|Q| = {expected} = k!*m and {P.m} idempotents")


def check_idempotents_right_zero(P: PartitionedSet) -> Check:
    idems = idempotents_Q(P)
    for f in idems:
        for g in idems:
            if compose(f, g) != g:
                return Check("idempotents-right-zero", "fail", f"f*g != g for {f.images}, {g.images}")
    return Check("idempotents-right-zero", "pass", f"f*g == g over all {len(idems)}^2 idempotent pairs")


def check_group_criterion(P: PartitionedSet, Q) -> Check:
    right_group = is_right_group(Q)
    claim = is_group_Q(P)
    derived = right_group and len(idempotents_Q(P)) == 1
    if claim != derived:
        return Check("group-criterion", "fail", f"is_group_Q = {claim} but right-group test says {derived}")
    if not right_group:
        return Check("group-criterion", "fail", "Q fails the definitional right-group test")
    return Check("group-criterion", "pass", f"Q is a right group; group iff single idempotent ({claim})")


def check_kernel_cross_section(P: PartitionedSet, Q, rng, samples: int) -> Check:
    target = frozenset(frozenset(b) for b in P.blocks)
    for a in Q:
        if kernel_partition(a).as_set_partition() != target:
            return Check("kernel-cross-section", "fail", f"kernel of {a.images} is not X/E")
        if not is_cross_section(P, image(a)):
            return Check("kernel-cross-section", "fail", f"image of {a.images} is not a cross-section")
    for indices, sub in _sampled_closures(P, Q, rng, min(samples, 25)):
        kernels = {kernel_partition(a).as_set_partition() for a in sub}
        if len(kernels) != 1 or next(iter(kernels)) != target:
            return Check("kernel-cross-section", "fail", "a closed subset mixes kernel partitions")
        if not all(len(set(row)) == len(indices) for row in _sub_table(Q.index_table, indices)):
            return Check("kernel-cross-section", "fail", "a closed subset is not a right group")
    return Check("kernel-cross-section", "pass", "same kernel X/E, cross-section images, closed subsets right groups")


def check_right_group_battery(P: PartitionedSet, Q, rng, samples: int) -> Check:
    for _indices, sub in _sampled_closures(P, Q, rng, samples):
        rg = is_right_group(sub)
        triangle = is_regular_semigroup(sub) and is_left_cancellative(sub)
        if rg != triangle:
            return Check("right-group-battery", "fail", "right group != regular + left cancellative")
        if not rg:
            return Check("right-group-battery", "fail", "a subsemigroup of Q failed the right-group test")
    return Check("right-group-battery", "pass", f"{samples} sampled closures: triangle and heredity hold")


def check_green_r(P: PartitionedSet, Q, rng, samples: int) -> Check:
    if P.n <= 3:
        TX = SemigroupSet.from_elements(_all_maps(P.n), verify=True)
        for a in TX:
            for b in TX:
                if green_R_related(a, b) != green_R_definitional(a, b, TX):
                    return Check("green-r", "fail", f"forms disagree on {a.images}, {b.images} in T(X)")
        extra = f"all {len(TX) ** 2} pairs of T({P.n}) agree; "
    else:
        extra = f"T(X) sweep skipped for n > 3; "
    elems = list(Q)
    for _ in range(min(samples, 50)):
        a = rng.choice(elems)
        b = rng.choice(elems)
        if not green_R_related(a, b) or not green_R_definitional(a, b, Q):
            return Check("green-r", "fail", "R is not universal on Q in one of the two forms")
    return Check("green-r", "pass", extra + "R universal on Q in both forms")


def check_closure_idempotence(P: PartitionedSet, Q, rng, samples: int) -> Check:
    elems = list(Q)
    for _ in range(min(samples, 10)):
        gens = rng.sample(elems, min(rng.randint(1, 3), len(elems)))
        once = closure(gens)
        twice = closure(once.elements)
        if once.elements != twice.elements:
            return Check("closure-idempotence", "fail", "closure(closure(G)) != closure(G)")
    return Check("closure-idempotence", "pass", "closure is idempotent on sampled generating sets")


def check_h_class_structure(P: PartitionedSet, Q) -> Check:
    idems = idempotents_Q(P)
    expected = math.factorial(P.k)
    tables = []
    for e in idems:
        G = h_class(e, P)
        if G.order != expected:
            return Check("h-class-structure", "fail", f"H-class order {G.order}, expected {expected}")
        searched = tuple(sorted(a for a in Q if image(a) == image(e)))
        if searched != G.elements.elements:
            return Check("h-class-structure", "fail", "pattern construction differs from searching Q")
        tables.append(G)
    if P.k <= 4:
        for G1, G2 in itertools.combinations(tables, 2):
            if not groups_isomorphic(G1, G2):
                return Check("h-class-structure", "fail", "two H-classes are not isomorphic")
    return Check("h-class-structure", "pass", f"{len(idems)} H-classes of order {expected}, pairwise isomorphic")


def check_decomposition(P: PartitionedSet) -> Check:
    dec = decompose(P)
    return Check(
        "decomposition",
        "pass",
        f"group part {dec.group_part.order} x idempotent part {len(dec.idempotent_part)} pairs onto Q",
    )


def check_rank_and_generators(P: PartitionedSet, Q) -> Check:
    report = minimal_generating_set(P)
    r = rank_Q(P)
    if len(report.generators) != r or not report.verified:
        return Check("rank-and-generators", "fail", f"construction gave {len(report.generators)}, rank {r}")
    if not generating_set_hits_every_hclass(report.generators, P):
        return Check("rank-and-generators", "fail", "verified generating set misses an H-class")
    gens_sym = symmetric_part_generators(P)
    idems = idempotents_Q(P)
    theorem_gen = closure(tuple(sorted(set(gens_sym) | set(idems))))
    if theorem_gen.elements != Q.elements:
        return Check("rank-and-generators", "fail", "symmetric part + idempotents fail to generate Q")
    detail = f"rank {r} achieved and verified; symmetric part + idempotents generate"
    if not P.is_identity_relation and len(Q) <= DEFAULT_ORACLE_MAX:
        minimality_certificate(P)
        detail += f"; no {r - 1}-subset generates (certified)"
    return Check("rank-and-generators", "pass", detail)


def check_maximal(P: PartitionedSet, Q) -> Check:
    if P.m < 2:
        return Check("maximal-subsemigroups", "skipped", "m = 1: Q is a group, case not covered")
    report = maximal_subsemigroups_Q(P)
    expected = report.s_k + report.m
    got = len(report.all_subsemigroups())
    if got != expected:
        return Check("maximal-subsemigroups", "fail", f"{got} constructed, count formula says {expected}")
    if len(Q) <= DEFAULT_ORACLE_MAX:
        oracle = exhaustive_maximal_oracle(Q)
        constructed = {T.elements for T in report.all_subsemigroups()}
        if constructed != {T.elements for T in oracle}:
            return Check("maximal-subsemigroups", "fail", "construction differs from the exhaustive oracle")
        return Check("maximal-subsemigroups", "pass", f"{got} = s_k + m, set-equal to the exhaustive oracle")
    return Check("maximal-subsemigroups", "pass", f"{got} = s_k + m constructed" + (" and verified" if report.verified else ""))


def check_self_isomorphism(P: PartitionedSet) -> Check:
    if not q_isomorphic(P, P):
        return Check("self-isomorphism", "fail", "instance not isomorphic to itself")
    build_isomorphism(P, P)
    return Check("self-isomorphism", "pass", "identity-class isomorphism built and verified")


def build_audit(P: PartitionedSet) -> dict:
    """Audit the textbook-style generating candidate for this instance.

    Candidate: every idempotent except the base one, plus the
    transposition-patterned element of the base H-class.  The closure is
    computed honestly; the induced block permutations give an independent
    certificate, since patterns multiply homomorphically and a closure can
    only realize patterns from the subgroup its generators' patterns
    generate.
    """
    if P.k < 2 or P.m < 2:
        return {"applicable": False, "reason": "needs k >= 2 and m >= 2"}
    idems = idempotents_Q(P)
    transposition = symmetric_part_generators(P)[0]
    if block_permutation(P, transposition) == tuple(range(P.k)):
        raise QstarError("expected a transposition-patterned generator first")
    candidate = tuple(sorted(set(idems[1:]) | {transposition}))
    Q = enumerate_Q(P)
    closed = closure(candidate)
    generates = closed.elements == Q.elements

    pattern_gens = [Transformation(block_permutation(P, a)) for a in candidate]
    pattern_group = closure(pattern_gens)
    full_order = math.factorial(P.k)
    proper_patterns = len(pattern_group) < full_order
    if proper_patterns and generates:
        raise QstarError("closure reached Q although its block patterns cannot")
    missing = None
    if proper_patterns:
        reached = {a.images for a in pattern_group}
        for p in itertools.permutations(range(P.k)):
            if p not in reached:
                missing = [v + 1 for v in p]
                break
    rank_report = minimal_generating_set(P)
    return {
        "applicable": True,
        "candidate": [list(q_shorthand(P, a)) for a in candidate],
        "candidate_size": len(candidate),
        "closure_size": len(closed),
        "q_size": len(Q),
        "generates": generates,
        "block_pattern_group_order": len(pattern_group),
        "symmetric_part_order": full_order,
        "unreachable_pattern": missing,
        "rank": rank_Q(P),
        "minimal_generating_set": [list(q_shorthand(P, g)) for g in rank_report.generators],
        "minimal_generating_set_verified": rank_report.verified,
    }


@dataclass(frozen=True)
class VerificationReport:
    partition: PartitionedSet
    seed: int
    checks: tuple[Check, ...]
    audit: dict

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def run_verification(P: PartitionedSet, seed: int = 0, samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Run the full battery on one instance with a deterministic seed."""
    rng = random.Random(seed)
    checks = [
        check_partition_invariants(P, rng),
        check_membership_implications(P, rng, samples),
    ]
    audit: dict = {"applicable": False, "reason": "enumeration bound exceeded"}
    if cardinality_Q(P) <= ENUM_BOUND:
        Q = enumerate_Q(P)
        small = len(Q) <= ORACLE_BOUND
        checks.append(check_idempotent_criterion(P, Q))
        checks.append(check_q_counts(P, Q))
        checks.append(check_idempotents_right_zero(P))
        if small:
            checks.append(check_group_criterion(P, Q))
            checks.append(check_kernel_cross_section(P, Q, rng, samples))
            checks.append(check_right_group_battery(P, Q, rng, samples))
            checks.append(check_green_r(P, Q, rng, samples))
            checks.append(check_closure_idempotence(P, Q, rng, samples))
            checks.append(check_h_class_structure(P, Q))
            checks.append(check_decomposition(P))
            checks.append(check_rank_and_generators(P, Q))
            checks.append(check_maximal(P, Q))
            checks.append(check_self_isomorphism(P))
            if P.k >= 2 and P.m >= 2:
                audit = build_audit(P)
            else:
                audit = {"applicable": False, "reason": "needs k >= 2 and m >= 2"}
        else:
            checks.append(Check("oracle-battery", "skipped", f"|Q| = {len(Q)} exceeds oracle bound {ORACLE_BOUND}"))
    else:
        checks.append(Check("enumeration", "skipped", f"|Q| = {cardinality_Q(P)} exceeds bound {ENUM_BOUND}"))
    return VerificationReport(P, seed, tuple(checks), audit)
