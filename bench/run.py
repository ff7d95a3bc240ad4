"""Benchmark for qstar: one workload per run, one JSON result line.

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Every operation is an in-process call to ``qstar.cli.main(argv)`` with its
output captured: one process, one thread, a closed loop.  The run first
sets up several times (fresh import of every ``qstar`` module plus the
workload's inputs), then runs whole rounds of the workload's batch, each on
fresh inputs, until ``--seconds`` have passed or the distinct inputs run
out.  Outputs are checked after each round, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
tracing.py).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import CheckFailure, check_output
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# One calibration sample takes about this long at the reference speed.
CALIBRATION_REF_S = 0.0045
# Between operations, one calibration sample per this much elapsed time.
CALIBRATION_EVERY_S = 0.1
CALIBRATION_MAX_BATCH = 10


def calibration_work() -> int:
    """Fixed pure-Python work shaped like the package's: tuples and dicts of
    small ints, then argument parsing and JSON output."""
    table = {}
    base = tuple(range(8))
    for i in range(1000):
        p = tuple(base[(v * 3 + i) % 8] for v in base)
        table[p] = table.get(p, 0) + 1
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="calibration")
        sub = parser.add_subparsers(dest="command")
        for name in ("one", "two", "three"):
            cmd = sub.add_parser(name)
            cmd.add_argument("--partition")
            cmd.add_argument("--n", type=int)
        args = parser.parse_args(["two", "--partition", "1,2|3", "--n", "4"])
        json.dumps({"partition": args.partition, "n": args.n, "table": sorted(table.values())},
                   sort_keys=True, indent=2)
    return len(table)


class SpeedGauge:
    """The host's speed, from calibration samples taken between operations.

    On small shared hosts the speed can change by 2x from one tenth of a
    second to the next and drift over minutes.  Every reported time is
    multiplied by CALIBRATION_REF_S / (mean calibration time over the same
    round, or over the set-up), so it reads as seconds at the reference
    speed.  The calibration runs no ``qstar`` code, and runs with the
    garbage collector paused so that what the program keeps in memory does
    not slow it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def catch_up(self, minimum: int = 0) -> None:
        """Take one sample per CALIBRATION_EVERY_S since the last ones, at least ``minimum``."""
        due = int((time.perf_counter() - self._last) / CALIBRATION_EVERY_S)
        count = max(minimum, min(CALIBRATION_MAX_BATCH, due))
        if not count:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                calibration_work()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def scale_since(self, first: int) -> float:
        """The factor for work done while samples[first:] were taken."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples[first:])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fresh_import():
    """Import ``qstar.cli`` from this checkout's ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "qstar" or n.startswith("qstar.")]:
        del sys.modules[name]
    return importlib.import_module("qstar.cli")


def set_up(workload_cls, seed: int, gauge: SpeedGauge):
    """Import the package and build the workload's inputs, SETUP_REPEATS times."""
    first = len(gauge.samples)
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.catch_up(minimum=3)
        start = time.perf_counter()
        cli = fresh_import()
        workload = workload_cls(seed)
        batch = workload.next_batch()
        times.append(time.perf_counter() - start)
    gauge.catch_up(minimum=3)
    return cli, workload, batch, statistics.median(times), gauge.scale_since(first)


def run_round(cli, ops, gauge: SpeedGauge):
    """Run ``ops`` back to back.

    Returns (wall seconds, speed scale, [(op, code, stdout, error, latency)]).
    The wall time is the sum of the operations' latencies, which leaves out
    the calibration samples taken between them.
    """
    first = len(gauge.samples)
    gauge.catch_up(minimum=3)
    results = []
    for op in ops:
        gauge.catch_up()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            error = None
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that escapes cli.main counts as failed
                code, error = None, exc
            latency = time.perf_counter() - t0
        results.append((op, code, out.getvalue(), error, latency))
    gauge.catch_up(minimum=3)
    return sum(r[4] for r in results), gauge.scale_since(first), results


class Tally:
    """Attempted, failed and correctness over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def add(self, results) -> None:
        for op, code, text, error, _ in results:
            self.attempted += 1
            if error is not None or code != 0:
                problem = repr(error) if error is not None else f"exit code {code}"
                expected = op.known_fault
            else:
                try:
                    check_output(op, text)
                    continue
                except CheckFailure as exc:
                    problem, expected = f"wrong output: {exc}", False
            self.failed += 1
            self.correct &= expected
            if not expected and self.reported < 5:
                self.reported += 1
                print(f"FAILED {' '.join(op.argv)[:120]}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qstar" / "__init__.py").is_file():
        print(f"error: no qstar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gauge = SpeedGauge()
    cli, workload, batch, setup_s, setup_scale = set_up(WORKLOADS[args.workload], args.seed, gauge)
    if Path(cli.__file__).resolve().parent != SRC / "qstar":
        print(f"error: imported qstar from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    latencies = []
    raw_walls = []
    traced_rounds = []
    peak_rss_mb = None
    minimum_rounds = 2 if tracer else 1  # a traced run needs an untraced round too
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = bool(tracer) and rounds % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, scale, results = run_round(cli, batch, gauge)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_rounds.append({
                name: value * scale if name.endswith(("_s", ".s")) else value
                for name, value in tracer.metrics().items()
            })
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls[traced].append(wall * scale)
        if not traced:
            raw_walls.append(wall)
        latencies.extend(r[4] * scale for r in results)
        tally.add(results)
        rounds += 1
        if rounds >= workload.max_rounds:
            break
        if rounds >= minimum_rounds and time.perf_counter() - start >= args.seconds:
            break
        batch = workload.next_batch()

    if tracer:
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.fmean(walls[True]) - statistics.fmean(walls[False])
            elif unit == "s":
                value = statistics.median(r[name] for r in traced_rounds)
            else:
                value = traced_rounds[0][name]  # exact for the seed: first traced round
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": setup_s * setup_scale, "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls[False]), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {rounds} rounds, {tally.attempted} operations, {tally.failed} failed; "
          f"unscaled setup_s {setup_s:.4f} wall_s {statistics.fmean(raw_walls):.4f}; "
          f"speed scale {CALIBRATION_REF_S / statistics.fmean(gauge.samples):.4f} "
          f"from {len(gauge.samples)} samples", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
