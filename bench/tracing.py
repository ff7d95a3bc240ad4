"""Per-layer spans and counters, recorded from the benchmark's own code.

:class:`Tracer` wraps public functions of the ``qstar`` modules without
touching the package's source: every module namespace that holds a wrapped
function gets the wrapper under the same name, and :meth:`Tracer.uninstall`
puts the originals back.  Each wrapper keeps its calls, its inclusive time
and its self time (inclusive time minus the time of wrapped functions it
called).  Some keep a counter of work done as well: products in a table,
elements in a closure, closed sets found.

Spans are kept as running sums per layer, in memory, and read once per
round by :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import cached_property

PACKAGE = "qstar"

# verify.<check>.s: inclusive time of each check of run_verification.
VERIFY_CHECKS = (
    "check_partition_invariants",
    "check_membership_implications",
    "check_idempotent_criterion",
    "check_q_counts",
    "check_idempotents_right_zero",
    "check_group_criterion",
    "check_kernel_cross_section",
    "check_right_group_battery",
    "check_green_r",
    "check_closure_idempotence",
    "check_h_class_structure",
    "check_decomposition",
    "check_rank_and_generators",
    "check_maximal",
    "check_self_isomorphism",
    "build_audit",
)

# (span name, module, function); several functions may share a span.
FUNCTIONS = (
    ("transformation.compose", "transformation", "compose"),
    ("qsemigroup.enumerate_Q", "qsemigroup", "enumerate_Q"),
    ("qsemigroup.idempotents_Q", "qsemigroup", "idempotents_Q"),
    ("qsemigroup.h_class", "qsemigroup", "h_class"),
    ("qsemigroup.decompose", "qsemigroup", "decompose"),
    ("engine.closure", "engine", "closure"),
    ("engine._close_mask", "engine", "_close_mask"),
    ("engine.all_closed_subsets", "engine", "all_closed_subsets"),
    ("engine.subgroup_lattice", "engine", "subgroup_lattice"),
    ("engine.is_maximal_subsemigroup", "engine", "is_maximal_subsemigroup"),
    ("engine.groups_isomorphic", "engine", "groups_isomorphic"),
    ("rank.minimal_generating_set", "rank", "minimal_generating_set"),
    ("rank.minimality_certificate", "rank", "minimality_certificate"),
    ("maximal.maximal_subsemigroups_Q", "maximal", "maximal_subsemigroups_Q"),
    ("maximal.count_maximal", "maximal", "count_maximal"),
    ("maximal.exhaustive_maximal_oracle", "maximal", "exhaustive_maximal_oracle"),
    ("iso.build_isomorphism", "iso", "build_isomorphism"),
    *((f"verify.{name}", "verify", name) for name in VERIFY_CHECKS),
    *(("membership.predicates", "membership", name)
      for name in ("in_TE", "in_TEstar", "in_TEstar_pairwise", "in_Q", "is_idempotent_Q", "is_regular_element")),
    ("partition.partition_from_spec", "partition", "partition_from_spec"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli._emit", "cli", "_emit"),
    ("cli.main", "cli", "main"),
)

# Every per-layer metric, in output order: (name, unit).  Counts and the
# ratios built from them are exact for a given seed; times are not.
PER_LAYER = (
    ("transformation.compose.calls", "count"),
    ("transformation.compose.self_s", "s"),
    ("transformation.validate.calls", "count"),
    ("transformation.validate.self_s", "s"),
    ("qsemigroup.enumerate_Q.builds", "count"),
    ("qsemigroup.enumerate_Q.self_s", "s"),
    ("qsemigroup.enumerate_Q.useful_ratio", "ratio"),
    ("qsemigroup.idempotents_Q.self_s", "s"),
    ("qsemigroup.h_class.self_s", "s"),
    ("qsemigroup.decompose.self_s", "s"),
    ("engine.index_table.builds", "count"),
    ("engine.index_table.entries", "count"),
    ("engine.index_table.self_s", "s"),
    ("engine.closure.calls", "count"),
    ("engine.closure.elements", "count"),
    ("engine.closure.self_s", "s"),
    ("engine._close_mask.calls", "count"),
    ("engine._close_mask.self_s", "s"),
    ("engine.all_closed_subsets.closed_sets", "count"),
    ("engine.all_closed_subsets.self_s", "s"),
    ("engine.all_closed_subsets.yield", "ratio"),
    ("engine.subgroup_lattice.calls", "count"),
    ("engine.subgroup_lattice.self_s", "s"),
    ("engine.is_maximal_subsemigroup.calls", "count"),
    ("engine.is_maximal_subsemigroup.self_s", "s"),
    ("engine.groups_isomorphic.self_s", "s"),
    ("rank.minimal_generating_set.self_s", "s"),
    ("rank.minimality_certificate.self_s", "s"),
    ("maximal.maximal_subsemigroups_Q.self_s", "s"),
    ("maximal.count_maximal.self_s", "s"),
    ("maximal.exhaustive_maximal_oracle.self_s", "s"),
    ("iso.build_isomorphism.self_s", "s"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    ("membership.predicates.calls", "count"),
    ("membership.predicates.self_s", "s"),
    ("partition.partition_from_spec.calls", "count"),
    ("partition.partition_from_spec.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli._emit.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    work: int = 0  # layer-specific count of work done
    inner: int = 0  # layer-specific count of attempts


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the layers of the imported ``qstar`` package; off until installed."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._enum_distinct: set = set()

    def _module(self, name: str):
        return sys.modules.get(f"{PACKAGE}.{name}")

    def _span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _wrap(self, name: str, fn, before=None, after=None):
        span = self._span(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before() if before else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after:
                after(span, token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _hooks(self, name: str, fn):
        """(before, after) for the layers that count work as well as calls."""
        if name == "qsemigroup.enumerate_Q":
            def before():
                return fn.cache_info().misses

            def after(span, misses, args, result):
                if fn.cache_info().misses > misses:
                    span.work += 1
                    self._enum_distinct.add(args[0])
            return before, after
        if name == "engine.closure":
            def after(span, token, args, result):
                span.work += len(result)
            return None, after
        if name == "engine.all_closed_subsets":
            close_mask = self._span("engine._close_mask")

            def before():
                return close_mask.calls

            def after(span, calls, args, result):
                span.work += len(result)
                span.inner += close_mask.calls - calls
            return before, after
        return None, None

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, modname, attr in FUNCTIONS:
            module = self._module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            before, after = self._hooks(name, fn)
            self._replace_everywhere(fn, self._wrap(name, fn, before, after))
        self._install_methods()

    def _install_methods(self) -> None:
        transformation = self._module("transformation")
        cls = getattr(transformation, "Transformation", None)
        if cls is not None and "__post_init__" in vars(cls):
            original = vars(cls)["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._wrap("transformation.validate", original))
        else:
            self.missing.append("transformation.Transformation.__post_init__")

        engine = self._module("engine")
        cls = getattr(engine, "SemigroupSet", None)
        prop = vars(cls).get("index_table") if cls is not None else None
        if isinstance(prop, cached_property):
            def after(span, token, args, result):
                span.work += len(result) * len(result)
            wrapped = cached_property(self._wrap("engine.index_table", prop.func, None, after))
            wrapped.__set_name__(cls, "index_table")
            self._restore.append((cls, "index_table", prop))
            setattr(cls, "index_table", wrapped)
        else:
            self.missing.append("engine.SemigroupSet.index_table")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def reset(self) -> None:
        for span in self.spans.values():
            span.calls = span.work = span.inner = 0
            span.self_s = span.total_s = 0.0
        self._enum_distinct = set()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, from the spans so far."""
        s = self._span
        enum = s("qsemigroup.enumerate_Q")
        acs = s("engine.all_closed_subsets")
        table = s("engine.index_table")
        out = {
            "transformation.compose.calls": s("transformation.compose").calls,
            "transformation.compose.self_s": s("transformation.compose").self_s,
            "transformation.validate.calls": s("transformation.validate").calls,
            "transformation.validate.self_s": s("transformation.validate").self_s,
            "qsemigroup.enumerate_Q.builds": enum.work,
            "qsemigroup.enumerate_Q.self_s": enum.self_s,
            "qsemigroup.enumerate_Q.useful_ratio": _ratio(len(self._enum_distinct), enum.work),
            "engine.index_table.builds": table.calls,
            "engine.index_table.entries": table.work,
            "engine.index_table.self_s": table.self_s,
            "engine.closure.calls": s("engine.closure").calls,
            "engine.closure.elements": s("engine.closure").work,
            "engine.all_closed_subsets.closed_sets": acs.work,
            "engine.all_closed_subsets.self_s": acs.self_s,
            "engine.all_closed_subsets.yield": _ratio(acs.work, acs.inner),
        }
        for name, unit in PER_LAYER:
            if name in out or name == "trace.overhead_s":
                continue
            span_name, _, field = name.rpartition(".")
            span = s(span_name)
            out[name] = {"calls": span.calls, "self_s": span.self_s, "s": span.total_s}[field]
        return out
