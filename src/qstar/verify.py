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

from .engine import SemigroupSet, _extend, _small_generating_sequence, closure, green_R_definitional, green_R_related
from .engine import is_right_group, right_group_legs
from .errors import InternalConsistencyError
from .formulas import cardinality_Q, is_group_Q, q_isomorphic, rank_Q
from .iso import build_isomorphism
from .limits import CLOSURE_IDEMPOTENCE_SAMPLES, CROSS_SECTION_SWEEP_MAX_N, DEFAULT_ORACLE_MAX, DEFAULT_VERIFY_MAX
from .limits import ENUM_BOUND, EXHAUSTIVE_MAPS_BOUND, GREEN_R_SAMPLES, GREEN_R_SWEEP_MAX_N, MAX_DEGREE
from .limits import PAIRWISE_WORK_BUDGET, VERIFY_SAMPLES, exceeds
from .maximal import _maximal_closed_masks, count_maximal, maximal_subsemigroups_Q
from .membership import in_Q, in_TE, in_TEstar, in_TEstar_pairwise, is_idempotent_Q
from .partition import PartitionedSet, is_cross_section
from .qsemigroup import _h_class_members, block_permutation, decompose, enumerate_Q, h_class, idempotents_Q
from .rank import GeneratingSetReport, _hits_every_hclass, minimal_generating_set, minimality_certificate
from .transformation import Transformation, image, kernel_partition, product_map, q_shorthand


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass", "fail" or "skipped"
    detail: str


def _random_maps(P: PartitionedSet, rng: random.Random, count: int):
    for _ in range(count):
        yield Transformation(tuple(rng.randrange(P.n) for _ in range(P.n)))


def _all_maps(n: int):
    for imgs in itertools.product(range(n), repeat=n):
        yield Transformation(imgs)


def _sampled_closures(Q, rng, count: int):
    """Closures of ``count`` random 1-3 element subsets of Q, as sorted index lists into Q.
    All are drawn and closed, a pick at a time with ``_extend`` from the first pick's closure <x>, which is
    computed once per call for each x; each distinct closed set is yielded once."""
    table = Q.index_table
    seen, single = set(), {}  # single: x -> <x>, closed once per call
    for _ in range(count):
        picks = rng.sample(range(len(Q)), min(rng.randint(1, 3), len(Q)))
        if picks[0] not in single:
            single[picks[0]] = _extend(table, 0, [], [], picks[0])
        mask, members = single[picks[0]]
        for i in range(1, len(picks)):
            mask, members = _extend(table, mask, members, picks[:i], picks[i])
        if mask not in seen:
            seen.add(mask)
            yield sorted(members)


def check_partition_invariants(P: PartitionedSet) -> Check:
    for x in range(P.n):
        if x not in P.blocks[P.block_of[x]]:
            return Check("partition-invariants", "fail", f"block_of[{x}] points at the wrong block")
    if P.n <= CROSS_SECTION_SWEEP_MAX_N:
        count = sum(
            1
            for r in range(P.n + 1)
            for subset in itertools.combinations(range(P.n), r)
            if is_cross_section(P, subset)
        )
        if count != P.m:
            return Check("partition-invariants", "fail", f"{count} cross-sections, expected m={P.m}")
        return Check("partition-invariants", "pass", f"{count} cross-sections == m, block_of consistent")
    return Check("partition-invariants", "pass", f"block_of consistent (cross-section sweep skipped for n > {CROSS_SECTION_SWEEP_MAX_N})")


def check_membership_implications(P: PartitionedSet, rng) -> Check:
    if P.n <= EXHAUSTIVE_MAPS_BOUND:
        count, maps = P.n ** P.n, _all_maps(P.n)
        label = f"exhaustive over {count} maps"
    else:
        count, maps = VERIFY_SAMPLES, _random_maps(P, rng, VERIFY_SAMPLES)
        label = f"{count} sampled maps"
    pairwise = max(1, PAIRWISE_WORK_BUDGET // P.n ** 2)  # the first maps the O(n^2) pairwise leg can afford
    if pairwise < count:
        label += f", the pairwise form on {pairwise} of them (PAIRWISE_WORK_BUDGET={PAIRWISE_WORK_BUDGET})"
    for i, a in enumerate(maps):
        fast = in_TEstar(P, a)
        if i < pairwise and fast != in_TEstar_pairwise(P, a):
            return Check("membership-implications", "fail", f"fast and pairwise forms disagree on {a.images}")
        if in_Q(P, a) and not fast:
            return Check("membership-implications", "fail", f"in_Q without in_TEstar on {a.images}")
        if fast and not in_TE(P, a):
            return Check("membership-implications", "fail", f"in_TEstar without in_TE on {a.images}")
        if P.is_identity_relation and fast != (len(set(a.images)) == P.n):
            return Check("membership-implications", "fail", "identity relation: in_TEstar != injectivity")
    return Check("membership-implications", "pass", f"implication chain holds, {label}")


def check_idempotent_criterion(P: PartitionedSet, Q, flags) -> Check:
    """``flags`` holds ``is_idempotent_Q`` of each member of Q, in Q's order."""
    hits = 0
    for a, flag in zip(Q, flags):
        blockwise = all(
            P.block_of[a.images[block[0]]] == bi for bi, block in enumerate(P.blocks)
        )
        if flag != blockwise:
            return Check("idempotent-criterion", "fail", f"criterion mismatch on {a.images}")
        hits += blockwise
    return Check("idempotent-criterion", "pass", f"{hits} idempotents match the self-map criterion")


def check_q_counts(P: PartitionedSet, Q, flags) -> Check:
    """``flags`` as for :func:`check_idempotent_criterion`."""
    expected = cardinality_Q(P)
    idems = idempotents_Q(P)
    filtered = tuple(a for a, flag in zip(Q, flags) if flag)
    if len(Q) != expected:
        return Check("q-counts", "fail", f"|Q| = {len(Q)}, formula says {expected}")
    if filtered != idems:
        return Check("q-counts", "fail", "constructed idempotents differ from the filtered ones")
    if len(idems) != P.m:
        return Check("q-counts", "fail", f"{len(idems)} idempotents, expected m = {P.m}")
    return Check("q-counts", "pass", f"|Q| = {expected} = k!*m and {P.m} idempotents")


def check_idempotents_right_zero(P: PartitionedSet) -> Check:
    """f*g == g on every pair, composed as packed maps: f*g is ``f.translate(g + pad)``."""
    idems = idempotents_Q(P)
    pad = bytes(256 - P.n)
    packed = [(bytes(g.images), bytes(g.images) + pad) for g in idems]
    for f, (f_packed, _) in zip(idems, packed):
        for g, (g_packed, table) in zip(idems, packed):
            if f_packed.translate(table) != g_packed:
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


def check_kernel_cross_section(P: PartitionedSet, Q) -> Check:
    target = tuple(sorted(tuple(sorted(b)) for b in P.blocks))
    for a in Q:
        if kernel_partition(a).classes != target:
            return Check("kernel-cross-section", "fail", f"kernel of {a.images} is not X/E")
        if not is_cross_section(P, image(a)):
            return Check("kernel-cross-section", "fail", f"image of {a.images} is not a cross-section")
    return Check("kernel-cross-section", "pass", "same kernel X/E, cross-section images")


def check_right_group_battery(P: PartitionedSet, Q, rng) -> Check:
    for indices in _sampled_closures(Q, rng, VERIFY_SAMPLES):
        rg, cancellative, regular, right_zero = right_group_legs(Q, indices)
        if rg != (regular and cancellative):
            return Check("right-group-battery", "fail", "right group != regular + left cancellative")
        # A second leg that does not reduce to the row test: a finite
        # semigroup is a right group iff it is regular and its idempotents
        # form a right-zero band (then a(a'b) = b, so it is right simple).
        if rg != (regular and right_zero):
            return Check("right-group-battery", "fail", "right group != regular + right-zero idempotents")
        if not rg:
            return Check("right-group-battery", "fail", "a subsemigroup of Q failed the right-group test")
    return Check("right-group-battery", "pass", f"{VERIFY_SAMPLES} sampled closures: triangle and heredity hold")


def check_green_r(P: PartitionedSet, Q, rng) -> Check:
    if P.n <= GREEN_R_SWEEP_MAX_N:
        TX = SemigroupSet.from_elements(_all_maps(P.n))
        for a in TX:
            for b in TX:
                if green_R_related(a, b) != green_R_definitional(a, b, TX):
                    return Check("green-r", "fail", f"forms disagree on {a.images}, {b.images} in T(X)")
        detail = f"all {len(TX) ** 2} pairs of T({P.n}) agree"
    else:
        detail = f"T(X) sweep skipped for n > {GREEN_R_SWEEP_MAX_N}"
    elems = list(Q)
    for _ in range(GREEN_R_SAMPLES):
        a = rng.choice(elems)
        b = rng.choice(elems)
        if not green_R_related(a, b) or not green_R_definitional(a, b, Q):
            return Check("green-r", "fail", "R is not universal on Q in one of the two forms")
    return Check("green-r", "pass", detail + "; R universal on Q in both forms")


def check_closure_idempotence(P: PartitionedSet, Q, rng) -> Check:
    elems = list(Q)
    for _ in range(CLOSURE_IDEMPOTENCE_SAMPLES):
        gens = rng.sample(elems, min(rng.randint(1, 3), len(elems)))
        once = closure(gens)
        twice = closure(once.elements)
        if once.elements != twice.elements:
            return Check("closure-idempotence", "fail", "closure(closure(G)) != closure(G)")
    return Check("closure-idempotence", "pass", "closure is idempotent on sampled generating sets")


def check_h_class_structure(P: PartitionedSet, Q) -> Check:
    """Each H-class of Q, built from the block patterns, is the class found by searching Q, has
    order k!, and all are pairwise isomorphic.  One table is built, for the base class H_e.  Each
    H_f is matched with H_e by the translation h -> h*f: it must be a bijection onto H_f, and
    phi(h*g) == phi(h)*phi(g) for every h in H_e and each g of H_e's generating sequence, which
    by induction on b = b'*g covers all pairs, as in ``build_isomorphism``: k!*|gens| products
    per class, and no table."""
    idems = idempotents_Q(P)
    expected = math.factorial(P.k)
    searched: dict = {}  # Q is sorted, so each image's elements are in canonical order
    for a in Q:
        searched.setdefault(image(a), []).append(a.images)
    H = h_class(idems[0], P)
    if H.order != expected:
        return Check("h-class-structure", "fail", f"H-class order {H.order}, expected {expected}")
    base = [h.images for h in H.elements]
    if searched.get(image(idems[0])) != base:
        return Check("h-class-structure", "fail", "pattern construction differs from searching Q")
    others = idems[1:]  # h -> h*e is the identity of H_e: only the other classes need the witness
    gens = (_small_generating_sequence(H) or [H.identity]) if others else []  # a trivial H_e: the identity
    products = [(i, g, H.table[i][g]) for i in range(expected) for g in gens]
    for f in others:
        members = [a.images for a in _h_class_members(f, P)]  # k! of them, one per pattern
        if searched.get(image(f)) != members:
            return Check("h-class-structure", "fail", "pattern construction differs from searching Q")
        phi = [product_map(h)(f.images) for h in base]
        if sorted(phi) != members:
            return Check("h-class-structure", "fail", "h -> h*f is not a bijection onto H_f")
        times = list(map(product_map, phi))
        if any(phi[hg] != times[h](phi[g]) for h, g, hg in products):
            return Check("h-class-structure", "fail", "two H-classes are not isomorphic by h -> h*f")
    return Check("h-class-structure", "pass", f"{len(idems)} H-classes of order {expected}, pairwise isomorphic")


def check_decomposition(P: PartitionedSet) -> Check:
    dec = decompose(P)
    detail = f"group part {len(dec.group_part)} x idempotent part {len(dec.idempotent_part)} pairs onto Q"
    return Check("decomposition", "pass", detail)


def check_rank_and_generators(P: PartitionedSet, report: GeneratingSetReport) -> Check:
    r = rank_Q(P)
    if len(report.generators) != r:
        return Check("rank-and-generators", "fail", f"construction gave {len(report.generators)}, rank {r}")
    # prove_Q has closed these generators onto Q and found their factors, symmetric part + idempotents, in Q.
    if not _hits_every_hclass(report.generators, P):
        return Check("rank-and-generators", "fail", "verified generating set misses an H-class")
    detail = f"rank {r} achieved and verified; symmetric part + idempotents generate"
    if not P.is_identity_relation:
        minimality_certificate(P)
        detail += f"; no {r - 1}-subset generates (certified)"
    return Check("rank-and-generators", "pass", detail)


def check_maximal(P: PartitionedSet, Q) -> Check:
    report = maximal_subsemigroups_Q(P)
    expected = count_maximal(P)[2]  # a second S_k, built from scratch and searched by the oracle's branch and cut
    got = len(report.all_subsemigroups())
    if got != expected:
        return Check("maximal-subsemigroups", "fail", f"{got} constructed, count formula says {expected}")
    count = "s_k + m" if P.m > 1 else "s_k"  # m = 1: Q is a group, with no right-zero family
    if len(Q) <= DEFAULT_ORACLE_MAX:
        # Each constructed set has passed the maximality predicate, so equal
        # sets prove every maximal closed subset the oracle kept maximal too.
        if not report.verified:
            return Check("maximal-subsemigroups", "fail", "constructed sets were not checked for maximality")
        constructed = {sum(1 << Q.index_of(a) for a in T) for T in report.all_subsemigroups()}
        if constructed != set(_maximal_closed_masks(Q)):
            return Check("maximal-subsemigroups", "fail", "construction differs from the exhaustive oracle")
        return Check("maximal-subsemigroups", "pass", f"{got} = {count}, set-equal to the exhaustive oracle")
    return Check("maximal-subsemigroups", "pass", f"{got} = {count} constructed" + (" and verified" if report.verified else ""))


def check_self_isomorphism(P: PartitionedSet) -> Check:
    if not q_isomorphic(P, P):
        return Check("self-isomorphism", "fail", "instance not isomorphic to itself")
    build_isomorphism(P, P)
    return Check("self-isomorphism", "pass", "identity-class isomorphism built and verified")


def build_audit(P: PartitionedSet, rank_report: GeneratingSetReport) -> dict:
    """Audit the textbook-style generating candidate for this instance.

    ``rank_report`` is ``minimal_generating_set(P)``, whose generators the
    audit lists beside the candidate.

    Candidate: every idempotent except the base one, plus the
    transposition-patterned element of the base H-class, the first
    symmetric-part generator of the report's trace.  The closure is
    computed honestly; the induced block permutations give an independent
    certificate, since patterns multiply homomorphically and a closure can
    only realize patterns from the subgroup its generators' patterns
    generate.
    """
    if P.k < 2 or P.m < 2:
        return {"applicable": False, "reason": "needs k >= 2 and m >= 2"}
    idems = idempotents_Q(P)
    Q = enumerate_Q(P)
    transposition = rank_report.paired[0][0]
    if block_permutation(P, transposition) == tuple(range(P.k)):
        raise InternalConsistencyError("expected a transposition-patterned generator first")
    candidate = tuple(sorted(set(idems[1:]) | {transposition}))
    closed = closure(candidate)
    generates = closed.elements == Q.elements

    pattern_gens = [Transformation(block_permutation(P, a)) for a in candidate]
    pattern_group = closure(pattern_gens)
    full_order = math.factorial(P.k)
    proper_patterns = len(pattern_group) < full_order
    if proper_patterns and generates:
        raise InternalConsistencyError("closure reached Q although its block patterns cannot")
    reached = {a.images for a in pattern_group}
    missing = next(([v + 1 for v in p] for p in itertools.permutations(range(P.k)) if p not in reached), None)
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
        "minimal_generating_set_verified": True,
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


def run_verification(P: PartitionedSet, seed: int = 0) -> VerificationReport:
    """Run the full battery on one instance with a deterministic seed."""
    rng = random.Random(seed)
    checks = [
        check_partition_invariants(P),
        check_membership_implications(P, rng),
    ]
    audit: dict = {"applicable": False, "reason": "enumeration bound exceeded"}
    unenumerated = exceeds("n =", P.n, MAX_DEGREE, "MAX_DEGREE=") or exceeds("|Q| =", cardinality_Q(P), ENUM_BOUND, "bound ")
    if unenumerated:
        checks.append(Check("enumeration", "skipped", unenumerated))
    else:
        Q = enumerate_Q(P)
        unverified = exceeds("|Q| =", len(Q), DEFAULT_VERIFY_MAX, "oracle bound ")
        flags = [is_idempotent_Q(P, a) for a in Q]  # one sweep, read by both checks
        checks.append(check_idempotent_criterion(P, Q, flags))
        checks.append(check_q_counts(P, Q, flags))
        checks.append(check_idempotents_right_zero(P))
        if unverified:
            checks.append(Check("oracle-battery", "skipped", unverified))
        else:
            checks.append(check_group_criterion(P, Q))
            checks.append(check_kernel_cross_section(P, Q))
            checks.append(check_right_group_battery(P, Q, rng))
            checks.append(check_green_r(P, Q, rng))
            checks.append(check_closure_idempotence(P, Q, rng))
            checks.append(check_h_class_structure(P, Q))
            checks.append(check_decomposition(P))
            rank_report = minimal_generating_set(P)
            checks.append(check_rank_and_generators(P, rank_report))
            checks.append(check_maximal(P, Q))
            checks.append(check_self_isomorphism(P))
            audit = build_audit(P, rank_report)
    return VerificationReport(P, seed, tuple(checks), audit)
