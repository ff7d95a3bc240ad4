"""Output checks, computed apart from the program under test.

Each check takes an :class:`~workloads.Op` and the parsed JSON the command
printed, and raises :class:`CheckFailure` naming the first wrong field.  The
expected values come from the definitions of T_E, T_E* and Q, from this
module's own composition and closure on plain tuples, or from facts the
paper proves (|Q| = k!·m, rank max(2, m), s_k + m maximal subsemigroups,
isomorphism exactly when (k, m) agree).  Nothing here imports ``qstar``.

Counts beyond 2**53 - 1 arrive as decimal strings and may have more digits
than Python converts with ``int()``; :func:`decimal_int` builds them from
chunks instead, so the interpreter's digit limit stays as it is.
"""

from __future__ import annotations

import json
import math

MAX_SAFE_INT = 2**53 - 1
CHUNK_DIGITS = 1000

# Maximal subgroups of the symmetric group S_k, by order (s_k = their number).
# S_2: the trivial group; S_3: three of order 2, A_3; S_4: four S_3, three
# D_4, A_4; S_5: ten S_3 x S_2, six AGL(1,5), five S_4, A_5.
MAXIMAL_SUBGROUP_ORDERS = {
    2: (1,),
    3: (2, 2, 2, 3),
    4: (6, 6, 6, 6, 8, 8, 8, 12),
    5: (12,) * 10 + (20,) * 6 + (24,) * 5 + (60,),
}


class CheckFailure(Exception):
    """An operation's output contradicts the expected value."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def decimal_int(text: str) -> int:
    """Parse a decimal integer of any length without ``int(str)`` on all of it."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    if not digits.isdigit():
        raise CheckFailure(f"not a decimal integer: {text[:40]!r}")
    if len(digits) <= CHUNK_DIGITS:
        return sign * int(digits)
    value = 0
    for i in range(0, len(digits), CHUNK_DIGITS):
        chunk = digits[i:i + CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_output(text: str) -> dict:
    try:
        payload = json.loads(text, parse_int=decimal_int)
    except ValueError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None
    expect(isinstance(payload, dict), "output is not a JSON object")
    return payload


def count_field(payload: dict, key: str, want: int) -> None:
    """A count is an int up to 2**53 - 1 and a decimal string beyond."""
    got = payload.get(key)
    if want <= MAX_SAFE_INT:
        expect(type(got) is int and got == want, f"{key}: got {str(got)[:40]}, want {want}")
    else:
        expect(isinstance(got, str), f"{key}: a count beyond 2**53 - 1 must be a string")
        expect(decimal_int(got) == want, f"{key}: wrong value ({len(got)} digits)")


# --- the structure, from its definitions -------------------------------------


def spec_of(blocks) -> str:
    return "|".join(",".join(str(x) for x in b) for b in blocks)


def block_index(blocks) -> dict:
    return {x: bi for bi, b in enumerate(blocks) for x in b}


def shape_numbers(blocks) -> tuple[int, int]:
    return len(blocks), math.prod(len(b) for b in blocks)


def rank_rule(k: int, m: int) -> int:
    """max(2, m) for a nontrivial relation; the symmetric group's rank otherwise."""
    if m == 1:
        return 1 if k <= 2 else 2
    return max(2, m)


def in_te(blocks, images) -> bool:
    """Related points have related images (0-based images of 1-based points)."""
    owner = block_index(blocks)
    return all(len({owner[images[x - 1] + 1] for x in b}) == 1 for b in blocks)


def in_te_star(blocks, images) -> bool:
    """For all x, y: x E y exactly when xa E ya."""
    owner = block_index(blocks)
    n = len(images)
    return all(
        (owner[x] == owner[y]) == (owner[images[x - 1] + 1] == owner[images[y - 1] + 1])
        for x in range(1, n + 1)
        for y in range(1, n + 1)
    )


def in_q(blocks, images) -> bool:
    """Constant on every block, and the image meets every block."""
    owner = block_index(blocks)
    if any(len({images[x - 1] for x in b}) != 1 for b in blocks):
        return False
    return {owner[v + 1] for v in images} == set(range(len(blocks)))


def shorthand_product(owner: dict, a, b) -> tuple:
    """a then b on block shorthand: block i goes to a[i], then to b[block of a[i]]."""
    return tuple(b[owner[p]] for p in a)


def is_q_shorthand(blocks, owner: dict, q) -> bool:
    return len(q) == len(blocks) and {owner.get(v) for v in q} == set(range(len(blocks)))


def closure(gens, limit: int) -> set:
    """The semigroup the 0-based maps ``gens`` generate; stops past ``limit`` elements."""
    gens = [tuple(g) for g in gens]
    known = set(gens)
    work = list(known)
    while work and len(known) <= limit:
        x = work.pop()
        for g in gens:
            p = tuple(g[v] for v in x)
            if p not in known:
                known.add(p)
                work.append(p)
    return known


# --- one check per subcommand -------------------------------------------------


def check_analyze(op, payload: dict) -> None:
    k, m = shape_numbers(op.blocks)
    expect(payload.get("command") == "analyze", "command is not analyze")
    expect(payload.get("partition") == spec_of(op.blocks), "partition is not the canonical form")
    expect(payload.get("n") == sum(len(b) for b in op.blocks), "n is wrong")
    expect(payload.get("k") == k, "k is wrong")
    expect(payload.get("block_sizes") == [len(b) for b in op.blocks], "block_sizes are wrong")
    fk = math.factorial(k)
    count_field(payload, "m", m)
    count_field(payload, "cardinality", fk * m)
    count_field(payload, "idempotents", m)
    count_field(payload, "h_classes", m)
    count_field(payload, "h_class_order", fk)
    count_field(payload, "rank", rank_rule(k, m))
    expect(payload.get("is_group") is (m == 1), "is_group is wrong")


def check_check(op, payload: dict) -> None:
    blocks, images = op.blocks, op.images
    expect(payload.get("command") == "check", "command is not check")
    expect(payload.get("partition") == spec_of(blocks), "partition is not the canonical form")
    expect(payload.get("images") == [v + 1 for v in images], "images are wrong")
    expect(payload.get("in_te") is in_te(blocks, images), "in_te is wrong")
    expect(payload.get("in_te_star") is in_te_star(blocks, images), "in_te_star is wrong")
    member = in_q(blocks, images)
    expect(payload.get("in_q") is member, "in_q is wrong")
    if member:
        expect(payload.get("q") == [images[b[0] - 1] + 1 for b in blocks], "q shorthand is wrong")
        square = tuple(images[v] for v in images)
        expect(payload.get("is_idempotent") is (square == images), "is_idempotent is wrong")
    else:
        expect("q" not in payload and "is_idempotent" not in payload, "non-member carries q fields")


def integer_partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def check_census(op, payload: dict) -> None:
    shapes = list(integer_partitions(op.n))
    keys = {(len(s), math.prod(s)) for s in shapes}
    expect(payload.get("command") == "census", "command is not census")
    expect(payload.get("n") == op.n, "n is wrong")
    expect(payload.get("class_count") == len(keys), f"class_count is not {len(keys)}")
    rows = payload.get("classes")
    expect(isinstance(rows, list) and len(rows) == len(keys), "classes has the wrong length")
    seen = []
    for row in rows:
        k, m = row.get("k"), row.get("m")
        expect((k, m) in keys, f"class ({k}, {m}) is not a (k, m) of any partition")
        count_field(row, "cardinality", math.factorial(k) * m)
        count_field(row, "rank", rank_rule(k, m))
        for profile in row.get("block_size_profiles", ()):
            expect((len(profile), math.prod(profile)) == (k, m), "profile in the wrong class")
            seen.append(tuple(profile))
    expect(sorted(seen) == sorted(shapes), "profiles do not cover the partitions of n once each")


def _check_maps_generate_q(blocks, maps, what: str) -> None:
    """Own closure of 1-based full maps is Q: k!·m members, each in Q."""
    k, m = shape_numbers(blocks)
    size = math.factorial(k) * m
    closed = closure([tuple(v - 1 for v in g) for g in maps], size)
    expect(len(closed) == size, f"{what}: closure does not have k!*m = {size} elements")
    expect(all(in_q(blocks, a) for a in closed), f"{what}: closure leaves Q")


def check_generate(op, payload: dict) -> None:
    blocks = op.blocks
    k, m = shape_numbers(blocks)
    rank = rank_rule(k, m)
    expect(payload.get("command") == "generate", "command is not generate")
    expect(payload.get("partition") == spec_of(blocks), "partition is not the canonical form")
    count_field(payload, "rank", rank)
    maps = payload.get("generator_images")
    gens = payload.get("generators")
    expect(isinstance(maps, list) and len(maps) == rank, f"generator count is not the rank {rank}")
    expect(isinstance(gens, list) and len(gens) == rank, "shorthand list has the wrong length")
    for q, images in zip(gens, maps):
        expect(q == [images[b[0] - 1] for b in blocks], "shorthand disagrees with generator_images")
    expect(payload.get("verified") is True, "verified is not true")
    _check_maps_generate_q(blocks, maps, "generate")


def check_iso(op, payload: dict) -> None:
    left, right = op.blocks, op.right_blocks
    kl, ml = shape_numbers(left)
    kr, mr = shape_numbers(right)
    iso = (kl, ml) == (kr, mr)
    expect(payload.get("command") == "iso", "command is not iso")
    expect(payload.get("left") == spec_of(left), "left is not the canonical form")
    expect(payload.get("right") == spec_of(right), "right is not the canonical form")
    expect(payload.get("left_key") == {"k": kl, "m": ml}, "left_key is wrong")
    expect(payload.get("right_key") == {"k": kr, "m": mr}, "right_key is wrong")
    expect(payload.get("isomorphic") is iso, "isomorphic does not match equal (k, m)")
    witness = iso and math.factorial(kl) * ml <= 200
    expect(payload.get("witness_verified") is witness, f"witness_verified is not {witness}")
    if witness:
        found = payload.get("isomorphism", {})
        expect(sorted(found.get("block_bijection", ())) == list(range(1, kl + 1)),
               "block_bijection is not a permutation of the blocks")
        expect(found.get("verified") is True, "isomorphism.verified is not true")


def check_verify(op, payload: dict) -> None:
    blocks = op.blocks
    k, m = shape_numbers(blocks)
    expect(payload.get("command") == "verify", "command is not verify")
    expect(payload.get("partition") == spec_of(blocks), "partition is not the canonical form")
    expect(payload.get("all_passed") is True, "all_passed is not true")
    checks = payload.get("checks")
    expect(isinstance(checks, list) and checks, "no checks reported")
    failed = [c.get("name") for c in checks if c.get("status") not in ("pass", "skipped")]
    expect(not failed, f"checks not passed: {failed}")
    audit = payload.get("generating_candidate_audit", {})
    expect(audit.get("applicable") is True, "audit is not applicable")
    count_field(audit, "q_size", math.factorial(k) * m)
    count_field(audit, "rank", rank_rule(k, m))
    expect(audit.get("generates") is (k <= 2), f"audit generates is not {k <= 2}")
    count_field(audit, "closure_size", 2 * m)
    owner = block_index(blocks)
    gens = audit.get("minimal_generating_set", [])
    expect(len(gens) == rank_rule(k, m), "audit generating set size is not the rank")
    expect(audit.get("minimal_generating_set_verified") is True, "audit generating set unverified")
    maps = [[q[owner[x]] for x in range(1, len(owner) + 1)] for q in gens]
    _check_maps_generate_q(blocks, maps, "verify audit")


def check_maximal(op, payload: dict) -> None:
    blocks = op.blocks
    k, m = shape_numbers(blocks)
    orders = MAXIMAL_SUBGROUP_ORDERS[k]
    s_k = len(orders)
    fk = math.factorial(k)
    owner = block_index(blocks)
    expect(payload.get("command") == "maximal", "command is not maximal")
    expect(payload.get("partition") == spec_of(blocks), "partition is not the canonical form")
    expect(payload.get("mode") == "right-group", "mode is not right-group")
    count_field(payload, "s_k", s_k)
    count_field(payload, "m", m)
    count_field(payload, "total", s_k + m)
    rows = payload.get("subsemigroups")
    expect(isinstance(rows, list) and len(rows) == s_k + m, f"not s_k + m = {s_k + m} subsemigroups")
    group_sizes = []
    omitted = []
    seen_sets = set()
    for row in rows:
        elems = [tuple(e) for e in row.get("elements", ())]
        members = set(elems)
        expect(len(members) == len(elems) == row.get("size"), f"{row.get('label')}: size is wrong")
        expect(all(is_q_shorthand(blocks, owner, e) for e in members), f"{row.get('label')}: element outside Q")
        for a in members:
            for b in members:
                expect(shorthand_product(owner, a, b) in members, f"{row.get('label')}: not closed")
        if row.get("type") == "group":
            expect(row.get("size") % m == 0, f"{row.get('label')}: size is not |H|*m")
            group_sizes.append(row["size"] // m)
        else:
            expect(row.get("type") == "right-zero", f"{row.get('label')}: unknown type")
            expect(row.get("size") == fk * (m - 1), f"{row.get('label')}: size is not k!*(m-1)")
            f = tuple(row.get("omitted_idempotent") or ())
            expect(all(owner.get(v) == bi for bi, v in enumerate(f)) and len(f) == k,
                   f"{row.get('label')}: omitted element is not an idempotent")
            expect(all(set(e) != set(f) for e in members), f"{row.get('label')}: keeps the omitted H-class")
            omitted.append(f)
        seen_sets.add(frozenset(members))
    expect(len(seen_sets) == len(rows), "a subsemigroup is listed twice")
    expect(tuple(sorted(group_sizes)) == orders, f"group-type |H| are not the maximal subgroup orders {orders}")
    expect(len(set(omitted)) == m, "right-zero type does not omit each idempotent once")


CHECKS = {
    "analyze": check_analyze,
    "check": check_check,
    "census": check_census,
    "generate": check_generate,
    "iso": check_iso,
    "verify": check_verify,
    "maximal": check_maximal,
}


def check_output(op, text: str) -> None:
    """Raise :class:`CheckFailure` unless ``text`` is the right answer for ``op``."""
    CHECKS[op.kind](op, parse_output(text))
