"""Command line interface.

Subcommands:

* ``analyze``  - closed-form structure numbers for one partitioned set
* ``check``    - membership predicates for one transformation
* ``generate`` - a verified minimal generating set
* ``maximal``  - the maximal subsemigroups
* ``iso``      - compare two partitioned sets up to isomorphism
* ``census``   - isomorphism classes over all set partitions of n
* ``verify``   - the full cross-validation battery

``main`` reads an argv in the plain form, ``<subcommand> --option value ...``,
from the subcommand parser's own option table; argparse parses every other
argv (help, usage errors, ``--option=value``, abbreviations, repeats) once,
with the top-level parser.  Both give the same namespace.

Each subcommand takes only the options it reads, and none takes a bound:
|Q| (``DEFAULT_MAX_CLOSURE``), the order of a group built as a table
(``MAX_GROUP_ORDER``), the cells ``maximal`` lists (``MAX_LISTED_CELLS``),
the bounds of ``iso``'s witness build and the battery's coverage bounds,
its sample count ``VERIFY_SAMPLES`` among them, are :mod:`qstar.limits`
constants.  The commands that build Q (``generate``,
``maximal``, ``verify`` and ``iso``'s witness) import the modules that
build it when they run, so the closed-form commands (``analyze``,
``check``, ``census``) load none of them.

All output is deterministic: JSON with sorted keys, or an aligned text
table with ``--format table``.  Counts that can exceed 2**53 - 1 are
emitted as strings so the JSON survives float-based parsers.

Exit codes: 0 success, 2 bad input or unsupported case, 3 resource limit
exceeded, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import (
    ContractError,
    InternalConsistencyError,
    ResourceLimitError,
    ValidationError,
)
from .formulas import cardinality_Q, classify_partitions, is_group_Q, q_isomorphic, rank_Q
from .limits import MAX_GROUP_ORDER
from .membership import in_Q, in_TE, in_TEstar, is_idempotent_Q
from .partition import partition_from_spec, too_large
from .transformation import q_shorthand, transformation_from_json

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


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, written directly: with an indent the
    standard library never uses its C encoder.  Floats, subclasses and non-str keys raise ``TypeError``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind not in (dict, list, tuple):
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    sep = "," + inner
    if kind is dict:  # the escaper raises TypeError on a key that is not a str; an int value is written inline
        items = [
            encode_basestring_ascii(key) + ": " + (int.__repr__(item) if type(item) is int else json_text(item, inner))
            for key, item in sorted(value.items())
        ]
        return "{" + inner + sep.join(items) + newline + "}"
    if set(map(type, value)) == {int}:
        return "[" + inner + sep.join(map(int.__repr__, value)) + newline + "]"
    return "[" + inner + sep.join([json_text(item, inner) for item in value]) + newline + "]"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json_text(payload) + "\n")
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


def _parse_map(text: str) -> list[int]:
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError as exc:
            raise ValidationError(too_large(part) or f"expected comma-separated integers, got {text!r}") from exc
    return values


def cmd_analyze(args) -> dict:
    P = partition_from_spec(args.partition)
    size, m = cardinality_Q(P), json_int(P.m)  # each big number is computed and written once
    cardinality = json_int(size)  # |Q| = k! * m is the H-class order k! when m = 1
    return {
        "command": "analyze",
        "partition": P.to_spec(),
        "n": P.n,
        "k": P.k,
        "m": m,
        "block_sizes": [len(b) for b in P.blocks],
        "cardinality": cardinality,
        "idempotents": m,
        "h_classes": m,
        "h_class_order": cardinality if P.m == 1 else json_int(size // P.m),
        "rank": json_int(rank_Q(P)),
        "is_group": is_group_Q(P),
    }


def cmd_check(args) -> dict:
    P = partition_from_spec(args.partition)
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
    from .rank import minimal_generating_set

    P = partition_from_spec(args.partition)
    report = minimal_generating_set(P)
    return {
        "command": "generate",
        "partition": P.to_spec(),
        "rank": json_int(report.claimed_rank),
        "generators": [list(q_shorthand(P, g)) for g in report.generators],
        "generator_images": [[v + 1 for v in g.images] for g in report.generators],
        "verified": report.verified,
    }


def cmd_maximal(args) -> dict:
    from .engine import maximal_subgroups, symmetric_group_table
    from .maximal import maximal_subsemigroups_Q
    from .qsemigroup import enumerate_Q

    P = partition_from_spec(args.partition)
    if P.m == 1:
        # Q is the symmetric group on the blocks; the right-group theorem
        # needs at least two idempotents, so report maximal subgroups instead.
        maxima = maximal_subgroups(symmetric_group_table(P.k).elements)
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
    report = maximal_subsemigroups_Q(P)
    short = {a: list(q_shorthand(P, a)) for a in enumerate_Q(P)}
    families = [(T, "group", None) for T in report.group_type]
    families += [(T, "right-zero", f) for T, f in zip(report.right_zero_type, report.omitted_idempotents)]
    rows = [
        {
            "label": f"T{label}",
            "type": kind,
            "size": len(T),
            "omitted_idempotent": None if f is None else short[f],
            "elements": [short[a] for a in T],
        }
        for label, (T, kind, f) in enumerate(families, start=1)
    ]
    return {
        "command": "maximal",
        "partition": P.to_spec(),
        "mode": "right-group",
        "s_k": json_int(report.s_k),
        "m": json_int(report.m),
        "total": json_int(report.total),
        "group_type_sizes": [len(T) for T in report.group_type],
        "right_zero_type_sizes": [len(T) for T in report.right_zero_type],
        "omitted_idempotents": [short[f] for f in report.omitted_idempotents],
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
    if isomorphic:
        from .iso import build_isomorphism

        try:
            iso = build_isomorphism(P1, P2)
        except ResourceLimitError:  # refused before building: no witness
            return payload
        payload["isomorphism"] = {
            "block_bijection": [b + 1 for b in iso["block_bijection"]],
            "verified": iso["verified"],
        }
        payload["witness_verified"] = iso["verified"]
    return payload


def cmd_census(args) -> dict:
    rows = [
        {
            "k": key.k,
            "m": json_int(key.m),
            "cardinality": json_int(key.cardinality),
            "rank": json_int(key.rank),
            "block_size_profiles": [list(s) for s in shapes],
        }
        for key, shapes in classify_partitions(args.n).items()
    ]
    return {
        "command": "census",
        "n": args.n,
        "class_count": len(rows),
        "classes": rows,
    }


def cmd_verify(args) -> dict:
    from dataclasses import asdict

    from .verify import run_verification

    P = partition_from_spec(args.partition)
    report = run_verification(P, seed=args.seed)
    return {
        "command": "verify",
        "partition": P.to_spec(),
        "seed": report.seed,
        "all_passed": report.all_passed,
        "checks": [asdict(c) for c in report.checks],
        "generating_candidate_audit": report.audit,
    }


def _int(text: str) -> int:
    """An int option's value; argparse's own message, or a short one past the digit limit."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(too_large(text) or f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="Structure of the semigroup of double-class-preserving transformations",
    )

    def option(*args, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring one option, for the subcommands that read it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    common = option("--format", choices=("json", "table"), default="json", help="output format")
    partition = option("--partition", required=True, help='blocks as "1,2,3|4,5|6"')
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # main runs these directly

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "closed-form structure numbers", partition)

    p = add("check", cmd_check, "membership predicates for one map", partition)
    maps = p.add_mutually_exclusive_group(required=True)
    maps.add_argument("--map", help='full image list, one value per point: "4,1,6"')
    maps.add_argument("--q", help='block shorthand, one value per block: "4,1,6"')

    add("generate", cmd_generate, "verified minimal generating set", partition)
    p = add("maximal", cmd_maximal, "maximal subsemigroups", partition)
    p.description = f"k blocks with k! > qstar.limits.MAX_GROUP_ORDER ({MAX_GROUP_ORDER}) exit 3 before any map is built."

    p = add("iso", cmd_iso, "compare two partitioned sets")
    p.description = "An isomorphism is built and checked when the sides are isomorphic and within qstar.limits."
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("census", cmd_census, "isomorphism classes for all partitions of n")
    p.add_argument("--n", type=_int, required=True)

    p = add("verify", cmd_verify, "cross-validation battery", partition)
    p.add_argument("--seed", type=_int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call and kept for the
    process: nothing in it depends on argv or the environment, and every
    parse returns a fresh namespace."""
    return build_parser()


def _parse_plain(sub: argparse.ArgumentParser, argv: list[str]):
    """The namespace ``parse_args(argv)`` gives when argv is ``<subcommand> --option value ...``
    in the plain form, read from the subcommand's own option table: exact option names, each
    given once, no value starting with "-", each value accepted by its type and choices, and each
    required option or group given.  None for any other argv, which the full parse handles."""
    if not len(argv) % 2:  # an option without a value, or a word without an option
        return None
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        action = sub._option_string_actions.get(flag)
        if action is None or action.nargs is not None or action in given or text[:1] == "-":
            return None  # -h, an unknown or repeated option, or a value argparse reads as an option
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    args = argparse.Namespace(subcommand=argv[0], **sub._defaults)
    for action in sub._actions:
        if action.required and action not in given:
            return None
        if action.default is not argparse.SUPPRESS:  # every option but -h
            setattr(args, action.dest, given.get(action, action.default))
    for group in sub._mutually_exclusive_groups:  # at most one of each, and one if it is required
        if not group.required <= len(given.keys() & set(group._group_actions)) <= 1:
            return None
    return args


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # The plain form is read from the parser's table; argparse parses every other argv, once.
    sub = parser.subcommands.get(argv[0]) if argv else None
    args = _parse_plain(sub, argv) if sub else None
    if args is None:
        args = parser.parse_args(argv)
        # argparse drops a "--" given as "--option=--" and stores [] as the value.
        for name, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
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
    code = 0 if payload.get("all_passed", True) else 4  # verify fails after reporting every check
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to /dev/null, so the final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
