"""Structure of the semigroup of double-class-preserving transformations.

Given a finite set carrying an equivalence relation, the package studies
the transformations that preserve the relation in both directions, send
every class into a single point, and reach every class.  Those maps form
a right group: this package enumerates them, decomposes them, computes
rank, minimal generating sets, maximal subsemigroups, and classifies the
resulting semigroups up to isomorphism, with each structural claim
re-checked against definitional brute force.

Every public name is imported from its home module on first access (PEP
562) and then kept here, so ``import qstar`` loads no module and a caller
of the closed forms alone never loads the constructions.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "errors": (
        "ContractError", "InternalConsistencyError", "QstarError", "ResourceLimitError",
        "UnsupportedCaseError", "ValidationError",
    ),
    "partition": (
        "PartitionedSet", "identity_partition", "is_cross_section", "make_partitioned_set",
        "partition_from_json", "partition_from_sizes", "partition_from_spec", "universal_partition",
    ),
    "transformation": (
        "KernelPartition", "Transformation", "compose", "constant_map", "from_q_shorthand", "identity_map",
        "image", "kernel_partition", "q_shorthand", "transformation_from_json", "transformation_to_json",
    ),
    "membership": ("in_Q", "in_TE", "in_TEstar", "in_TEstar_pairwise", "is_idempotent_Q", "is_regular_element"),
    "formulas": (
        "IsoClassKey", "cardinality_Q", "classify_partitions", "integer_partitions", "is_group_Q", "iso_key",
        "q_isomorphic", "rank_Q",
    ),
    "engine": (
        "GroupTable", "SemigroupSet", "all_closed_subsets", "closure", "green_R_definitional", "green_R_related",
        "groups_isomorphic", "idempotents_right_zero", "is_left_cancellative", "is_maximal_subsemigroup",
        "is_regular_semigroup", "is_right_group", "maximal_subgroups", "subgroup_lattice", "symmetric_group_table",
    ),
    "qsemigroup": (
        "RightGroupDecomposition", "block_permutation", "decompose", "enumerate_Q", "enumerate_Q_bruteforce",
        "h_class", "idempotents_Q", "symmetric_part_generators",
    ),
    "rank": (
        "GeneratingSetReport", "brute_force_no_generating_set_of_size", "minimal_generating_set",
        "minimality_certificate", "verify_image_right_invariance",
    ),
    "maximal": ("MaximalSubsemigroupReport", "count_maximal", "exhaustive_maximal_oracle", "maximal_subsemigroups_Q"),
    "iso": ("build_isomorphism",),
    "verify": ("VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
