"""Size bounds: the one place every default limit of the package is defined.

A bound caps how large an object is built, or which instances a check or
oracle covers.  Past a size cap the build raises
:class:`ResourceLimitError`; past a coverage bound a check samples, drops
its oracle comparison, or reports itself skipped.  The CLI's
``--max-closure``, ``--group-order-bound`` and ``--samples`` default to the
values here.
"""

# Elements of a closure, of Q, or of its idempotent set (``--max-closure``).
DEFAULT_MAX_CLOSURE = 100_000
# Order of a group built as a table or searched for subgroups
# (``--group-order-bound``).  The subgroup-lattice search has no work budget,
# and on S_6 (order 720) it runs for minutes.
DEFAULT_MAX_GROUP_ORDER = 120
# Closed subsets listed by next-closure.
DEFAULT_MAX_CLOSED_SETS = 500_000

# Largest |Q| on which a constructed isomorphism is checked on all pairs and
# constructed maximal subsemigroups against the maximality predicate; the
# CLI's ``iso`` builds a witness only up to it.
DEFAULT_VERIFY_MAX = 200
# Seeded pairs that check an isomorphism above DEFAULT_VERIFY_MAX.
DEFAULT_SAMPLE_PAIRS = 2000
# Largest |S| the exhaustive maximal-subsemigroup oracle enumerates, and the
# largest |Q| on which the battery runs that oracle and the rank certificate.
DEFAULT_ORACLE_MAX = 40

# Verification battery: largest |Q| it enumerates, largest |Q| it runs the
# oracle checks on, largest n at which it sweeps all n^n maps, and how many
# random samples a check draws (``--samples``).
ENUM_BOUND = 5000
ORACLE_BOUND = 200
EXHAUSTIVE_MAPS_BOUND = 4
DEFAULT_SAMPLES = 100

# Definitional sweeps: |Q| for the plain rank sweep over subsets, n^n for
# the brute-force enumeration of Q, and n for the isomorphism census.
DEFAULT_BRUTE_FORCE_MAX_Q = 24
DEFAULT_MAX_MAPS = 60_000
DEFAULT_CENSUS_MAX_N = 12
