"""Command line interface.

Subcommands:

* ``analyze``  - closed-form structure numbers for one partitioned set
* ``check``    - membership predicates for one transformation
* ``generate`` - a verified minimal generating set
* ``maximal``  - the maximal subsemigroups
* ``iso``      - compare two partitioned sets up to isomorphism
* ``census``   - isomorphism classes over all set partitions of n
* ``verify``   - the full cross-validation battery

All output is deterministic: JSON with sorted keys, or an aligned text
table with ``--format table``.  Counts that can exceed 2**53 - 1 are
emitted as strings so the JSON survives float-based parsers.

Exit codes: 0 success, 2 bad input or unsupported case, 3 resource limit
exceeded, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .engine import maximal_subgroups, symmetric_group_table
from .errors import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    ValidationError,
)
from .iso import build_isomorphism, classify_partitions, q_isomorphic
from .limits import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_GROUP_ORDER, DEFAULT_SAMPLES, DEFAULT_VERIFY_MAX
from .maximal import maximal_subsemigroups_Q
from .membership import in_Q, in_TE, in_TEstar, is_idempotent_Q
from .partition import PartitionedSet, partition_from_spec
from .qsemigroup import cardinality_Q, is_group_Q
from .rank import minimal_generating_set, rank_Q
from .transformation import q_shorthand, transformation_from_json
from .verify import run_verification

MAX_SAFE_INT = 2**53 - 1


# Decimal digits per piece when writing a huge int: well below the
# interpreter's int-to-str digit limit (4300 by default).
DECIMAL_CHUNK_DIGITS = 1000


def decimal_string(value: int) -> str:
    """``str(value)`` for an int of any size, written in pieces so that no
    single conversion reaches the int-to-str digit limit."""
    if value < 0:
        return "-" + decimal_string(-value)
    base = 10**DECIMAL_CHUNK_DIGITS
    pieces = []
    while value >= base:
        value, low = divmod(value, base)
        pieces.append(str(low).zfill(DECIMAL_CHUNK_DIGITS))
    pieces.append(str(value))
    return "".join(reversed(pieces))


def json_int(value: int):
    """Ints beyond the double-precision safe range go out as strings."""
    return value if abs(value) <= MAX_SAFE_INT else decimal_string(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    rows = payload.get("subsemigroups")
    scalars = {k: v for k, v in payload.items() if k != "subsemigroups"}
    width = max(len(k) for k in scalars)
    for key in sorted(scalars):
        value = scalars[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        sys.stdout.write(f"{key.ljust(width)}  {value}\n")
    if rows is None:
        return
    sys.stdout.write("\n")
    for row in rows:
        omits = row["omitted_idempotent"]
        omits = "-" if omits is None else "(" + ",".join(str(v) for v in omits) + ")"
        elems = " ".join("(" + ",".join(str(v) for v in e) + ")" for e in row["elements"])
        sys.stdout.write(
            f"{row['label']:<4} {row['type']:<10} size={row['size']:<4} "
            f"omits={omits:<10} {elems}\n"
        )


def _partition(args) -> PartitionedSet:
    return partition_from_spec(args.partition)


def _parse_map(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def cmd_analyze(args) -> dict:
    P = _partition(args)
    return {
        "command": "analyze",
        "partition": P.to_spec(),
        "n": P.n,
        "k": P.k,
        "m": json_int(P.m),
        "block_sizes": [len(b) for b in P.blocks],
        "cardinality": json_int(cardinality_Q(P)),
        "idempotents": json_int(P.m),
        "h_classes": json_int(P.m),
        "h_class_order": json_int(cardinality_Q(P) // P.m),
        "rank": json_int(rank_Q(P)),
        "is_group": is_group_Q(P),
    }


def cmd_check(args) -> dict:
    P = _partition(args)
    if args.map is not None:
        a = transformation_from_json({"images": _parse_map(args.map)})
    else:
        a = transformation_from_json({"q": _parse_map(args.q)}, P)
    if a.n != P.n:
        raise ValidationError(f"map has degree {a.n}, partition has degree {P.n}")
    member = in_Q(P, a)
    payload = {
        "command": "check",
        "partition": P.to_spec(),
        "images": [v + 1 for v in a.images],
        "in_te": in_TE(P, a),
        "in_te_star": in_TEstar(P, a),
        "in_q": member,
    }
    if member:
        payload["q"] = list(q_shorthand(P, a))
        payload["is_idempotent"] = is_idempotent_Q(P, a)
    return payload


def cmd_generate(args) -> dict:
    P = _partition(args)
    report = minimal_generating_set(P, max_size=args.max_closure)
    return {
        "command": "generate",
        "partition": P.to_spec(),
        "rank": json_int(report.claimed_rank),
        "generators": [list(q_shorthand(P, g)) for g in report.generators],
        "generator_images": [[v + 1 for v in g.images] for g in report.generators],
        "verified": report.verified,
    }


def cmd_maximal(args) -> dict:
    P = _partition(args)
    if P.m == 1:
        # Q is the symmetric group on the blocks; the right-group theorem
        # needs at least two idempotents, so report maximal subgroups instead.
        G = symmetric_group_table(P.k, max_order=args.group_order_bound)
        maxima = maximal_subgroups(G, max_order=args.group_order_bound)
        return {
            "command": "maximal",
            "partition": P.to_spec(),
            "mode": "group",
            "note": (
                "every class is a singleton, so the semigroup is a group; "
                "listing its maximal subgroups instead of maximal subsemigroups "
                "of a right group"
            ),
            "k": P.k,
            "group_order": json_int(math.factorial(P.k)),
            "s_k": json_int(len(maxima)),
            "maximal_subgroup_orders": sorted(len(s) for s in maxima),
        }
    report = maximal_subsemigroups_Q(
        P, max_size=args.max_closure, max_group_order=args.group_order_bound
    )
    rows = []
    for T in report.group_type:
        rows.append(
            {
                "label": f"T{len(rows) + 1}",
                "type": "group",
                "size": len(T),
                "omitted_idempotent": None,
                "elements": [list(q_shorthand(P, a)) for a in T],
            }
        )
    for T, f in zip(report.right_zero_type, report.omitted_idempotents):
        rows.append(
            {
                "label": f"T{len(rows) + 1}",
                "type": "right-zero",
                "size": len(T),
                "omitted_idempotent": list(q_shorthand(P, f)),
                "elements": [list(q_shorthand(P, a)) for a in T],
            }
        )
    return {
        "command": "maximal",
        "partition": P.to_spec(),
        "mode": "right-group",
        "s_k": json_int(report.s_k),
        "m": json_int(report.m),
        "total": json_int(report.total),
        "group_type_sizes": [len(T) for T in report.group_type],
        "right_zero_type_sizes": [len(T) for T in report.right_zero_type],
        "omitted_idempotents": [list(q_shorthand(P, f)) for f in report.omitted_idempotents],
        "subsemigroups": rows,
        "verified": report.verified,
    }


def cmd_iso(args) -> dict:
    P1 = partition_from_spec(args.left)
    P2 = partition_from_spec(args.right)
    isomorphic = q_isomorphic(P1, P2)
    payload = {
        "command": "iso",
        "left": P1.to_spec(),
        "right": P2.to_spec(),
        "left_key": {"k": P1.k, "m": json_int(P1.m)},
        "right_key": {"k": P2.k, "m": json_int(P2.m)},
        "isomorphic": isomorphic,
        "witness_verified": False,
    }
    if isomorphic and cardinality_Q(P1) <= DEFAULT_VERIFY_MAX:
        iso = build_isomorphism(
            P1, P2, max_size=args.max_closure, max_group_order=args.group_order_bound
        )
        payload["isomorphism"] = {
            "block_bijection": [b + 1 for b in iso["block_bijection"]],
            "verified": iso["verified"],
        }
        payload["witness_verified"] = iso["verified"]
    return payload


def cmd_census(args) -> dict:
    classes = classify_partitions(args.n)
    rows = []
    for key, shapes in classes.items():
        rows.append(
            {
                "k": key.k,
                "m": json_int(key.m),
                "cardinality": json_int(key.cardinality),
                "rank": json_int(key.rank),
                "block_size_profiles": [list(s) for s in shapes],
            }
        )
    return {
        "command": "census",
        "n": args.n,
        "class_count": len(rows),
        "classes": rows,
    }


def cmd_verify(args) -> dict:
    P = _partition(args)
    report = run_verification(P, seed=args.seed, samples=args.samples)
    return {
        "command": "verify",
        "partition": P.to_spec(),
        "seed": report.seed,
        "all_passed": report.all_passed,
        "checks": [asdict(c) for c in report.checks],
        "generating_candidate_audit": report.audit,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="Structure of the semigroup of double-class-preserving transformations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument(
        "--max-closure",
        type=int,
        default=DEFAULT_MAX_CLOSURE,
        help="abort closures beyond this many elements",
    )
    common.add_argument(
        "--group-order-bound",
        type=int,
        default=DEFAULT_MAX_GROUP_ORDER,
        help="largest group order subgroup searches will accept",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(fn=fn)
        return p

    p = add("analyze", cmd_analyze, "closed-form structure numbers")
    p.add_argument("--partition", required=True, help='blocks as "1,2,3|4,5|6"')

    p = add("check", cmd_check, "membership predicates for one map")
    p.add_argument("--partition", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", help='full image list, one value per point: "4,1,6"')
    group.add_argument("--q", help='block shorthand, one value per block: "4,1,6"')

    p = add("generate", cmd_generate, "verified minimal generating set")
    p.add_argument("--partition", required=True)

    p = add("maximal", cmd_maximal, "maximal subsemigroups")
    p.add_argument("--partition", required=True)

    p = add("iso", cmd_iso, "compare two partitioned sets")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("census", cmd_census, "isomorphism classes for all partitions of n")
    p.add_argument("--n", type=int, required=True)

    p = add("verify", cmd_verify, "cross-validation battery")
    p.add_argument("--partition", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.fn(args)
    except (ValidationError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency: {exc}\n")
        return 4
    _emit(payload, args.format)
    if not payload.get("all_passed", True):
        # verify reports every check before failing the run.
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
