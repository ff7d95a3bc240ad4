"""Size bounds: the one place every default limit of the package is defined,
and the one check that refuses a size past its bound.

A bound caps how large an object is built, or which instances a check or
oracle covers.  Past a size cap the build raises
:class:`ResourceLimitError` through :func:`admit`, whose text
:func:`exceeds` also gives the rows the battery reports skipped; past a
coverage bound a check samples or drops its oracle comparison.  Each bound
is a constant that its function reads when it is called, so no command
option and no parameter defaults to a value here.
"""

from .errors import ResourceLimitError

# Elements of a closure, of Q, or of its idempotent set: ``closure``, ``admit_Q``
# (so every build of Q), ``idempotents_Q``, ``decompose`` and ``maximal``.
DEFAULT_MAX_CLOSURE = 100_000
# Largest degree n of a built Q: its proof packs each map one byte per point.
MAX_DEGREE = 256
# Order k! of a group built as a table: the one a ``maximal`` run searches, on
# the H-class's k! members (for m = 1, all of Q), and ``h_class``'s.
# ``decompose`` builds none.  5040 is S_7's order: its table has 25 million
# entries, and ``maximal`` at k = 7 (m = 2) takes about 17 s and 222 MB while
# Close-by-One lists S_7's subgroups.  S_8's table would have 1.6 billion.
MAX_GROUP_ORDER = 5040
# Work of a closed-subset search: the closed sets ``all_closed_subsets``
# lists, or the states of the maximal-subsemigroup oracle's branch and cut
# (259 on Q for blocks (4, 4); at most 5,106 on 102 closures of 36-40 elements
# in T(4)).
DEFAULT_MAX_CLOSED_SETS = 500_000
# Elements of the maximal subsemigroups that ``maximal`` builds and lists: m*|H|
# for each maximal subgroup H, and k!*(m - 1) for each of the m right-zero
# ones.  The total is admitted before Q is built: blocks (20, 20) list 319,600
# in 1.0 s and 80 MB; blocks (30, 30), 1.6 million, took 5.4 s, 267 MB and 77 MB
# of JSON, and blocks (5, 2, 1, 1, 1, 1, 1), 680,400, 24 s, 389 MB and 77.6 MB.
MAX_LISTED_CELLS = 500_000

# Largest |Q| on which constructed maximal subsemigroups are checked against
# the maximality predicate, and on which ``run_verification`` runs its
# oracle battery (skipped above it).
DEFAULT_VERIFY_MAX = 200
# Largest |S| the exhaustive maximal-subsemigroup oracle enumerates, and the
# largest |Q| on which the battery runs that oracle.
DEFAULT_ORACLE_MAX = 40

# Verification battery: largest |Q| it enumerates, largest n at which it
# sweeps all n^n maps, and how many random samples a check draws: the
# right-group battery's closures and, for n > 4, the membership check's maps.
ENUM_BOUND = 5000
EXHAUSTIVE_MAPS_BOUND = 4
VERIFY_SAMPLES = 100
# Per-check coverage: largest n for the cross-section count and for the
# Green's R sweep over T(n), and the sample caps of the Green's R and closure
# checks.
CROSS_SECTION_SWEEP_MAX_N = 12
GREEN_R_SWEEP_MAX_N = 3
GREEN_R_SAMPLES = 50
CLOSURE_IDEMPOTENCE_SAMPLES = 10
# Work of the membership check's O(n^2) pairwise leg, in n^2 per map: 100
# maps at n = 282, or 12 at n = 800, where each takes about 21 ms (2-CPU host).
PAIRWISE_WORK_BUDGET = 8_000_000

# Definitional sweeps: |Q| for the plain rank sweep over subsets, n^n for
# the brute-force enumeration of Q, and n for the isomorphism census.
DEFAULT_BRUTE_FORCE_MAX_Q = 24
DEFAULT_MAX_MAPS = 60_000
DEFAULT_CENSUS_MAX_N = 12


def exceeds(what: str, size: int, bound: int, name: str) -> str | None:
    """The refusal text ``"{what} {size} exceeds {name}{bound}"`` when ``size`` is past ``bound``, else None."""
    return f"{what} {size} exceeds {name}{bound}" if size > bound else None


def admit(what: str, size: int, bound: int, name: str) -> None:
    """Admit ``size`` under ``bound``, or raise :class:`ResourceLimitError` with :func:`exceeds`'s text."""
    if text := exceeds(what, size, bound, name):
        raise ResourceLimitError(text)
