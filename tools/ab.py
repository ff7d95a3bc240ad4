"""A/B comparison of two checkouts on the benchmark's end-to-end metrics.

    python3 tools/ab.py PARENT CHANGE [--pairs 10] [--seconds S] [--seed-base N]

PARENT and CHANGE are checkout directories, each holding ``bench/run.py``
and ``src/qstar``.  For each workload in PARENT's ``BENCHMARK.json`` and each
of ``--pairs`` seeds, the benchmark command runs once on each side, with
``--trace 0``, as a subprocess in that side's directory; the side that runs
first alternates from pair to pair, so a drift in the host's speed falls on
both.  For each workload and metric the summary prints each side's median
with its quartiles, the change's median relative to the parent's, the
pairs the change wins (its run of the pair beats the parent's in the
metric's direction), the metric's bound, a fraction of the parent's
median, and whether a gain is shown: ``gain met`` when the change wins at
least nine tenths of the pairs and its median beats the parent's, in the
metric's direction, by more than the parent's spread between quartiles,
else ``gain -``.  A metric is ``WORSE``
when the change's median is worse than the parent's by more than its bound,
and ``UNRESOLVED`` when the parent's spread between quartiles, relative to
its median, exceeds the bound, so the runs cannot tell.  The exit is 1 on
any such metric, or on any run that reports ``failed`` > 0 or
``correct: false``; else 0.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: dict, change: dict, metrics: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows comparing the two sides, and the runs that failed.

    ``parent`` and ``change`` map each workload to its runs' result objects,
    as the last line of ``bench/run.py --trace 0`` prints them; ``metrics``
    is ``BENCHMARK.json``'s ``end_to_end`` list.  A row holds the workload,
    the metric, each side's (q1, median, q3), the relative change of the
    median (positive when the change's median is larger), the pairs the
    change wins, as (wins, pairs), the bound, ``gain`` (``met`` or ``-``, as
    the module docstring says) and a status: ``ok``, ``worse`` or
    ``unresolved``.  Run i of each side is pair i."""
    rows, failures = [], []
    for side, runs in (("parent", parent), ("change", change)):
        for workload, results in runs.items():
            for i, result in enumerate(results):
                if result["failed"] > 0 or not result["correct"]:
                    failures.append(f"{side} {workload} run {i}: failed {result['failed']}, correct {result['correct']}")
    for workload in parent:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            parent_values = [r["metrics"][name]["value"] for r in parent[workload]]
            change_values = [r["metrics"][name]["value"] for r in change[workload]]
            before, after = quartiles(parent_values), quartiles(change_values)
            relative = after[1] / before[1] - 1
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent_values, change_values))
            worse = relative > bound if metric["better"] == "lower" else -relative > bound
            spread = before[2] - before[0]
            met = wins >= 0.9 * len(parent_values) and sign * (before[1] - after[1]) > spread
            if spread / before[1] > bound:
                status = "unresolved"
            else:
                status = "worse" if worse else "ok"
            rows.append({"workload": workload, "metric": name, "parent": before, "change": after,
                         "relative": relative, "wins": (wins, len(parent_values)), "bound": bound,
                         "gain": "met" if met else "-", "status": status})
    return rows, failures


def render(rows: list[dict], failures: list[str]) -> str:
    """The summary as text, one line per workload and metric, then the failed runs."""

    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{r['workload']:<10} {r['metric']:<12} parent {side(r['parent']):<28} change {side(r['change']):<28} "
        f"{r['relative']:+7.1%}  wins {r['wins'][0]}/{r['wins'][1]}  bound {r['bound']:.0%}  gain {r['gain']:<3}  "
        f"{r['status'].upper()}"
        for r in rows
    ]
    return "\n".join(lines + [f"FAILED {failure}" for failure in failures])


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result object, from the last line of stdout."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="each run's --seconds (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed-base", type=int, default=1, help="pair i runs seed SEED_BASE + i")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {name: {w["name"]: [] for w in benchmark["workloads"]} for name in sides}
    for workload in runs["parent"]:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for name in order:
                runs[name][workload].append(run_once(sides[name], benchmark["command"], workload, args.seed_base + i, seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
    rows, failures = summarize(runs["parent"], runs["change"], benchmark["end_to_end"])
    print(render(rows, failures))
    return 1 if failures or any(r["status"] != "ok" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
