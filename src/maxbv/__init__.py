"""Exact analysis of the uncentered maximal operator on rational step functions."""

from .exact import AlgebraicValue, Rat, format_rat, isolate_quadratic_roots, parse_rat, rat
from .stepfn import (
    NEG_INF,
    POS_INF,
    JumpRecord,
    Partition,
    StepFunction,
    StepFunctionParseError,
    adjusted_modulus,
    bv_norm,
    combine,
    jump_records,
    modulus,
    modulus_defect,
    variation_on,
    variation_on_partition,
)
from .maximal import MaximalValue, WitnessInterval, candidate_set, maximal_limit_at_infinity, maximal_value
from .envelope import (
    MaximalProfile,
    MoebiusPiece,
    RegionSet,
    VariationEnclosure,
    build_profile,
    bv_distance,
    detachment_regions,
    profile_derivative,
    variation_of_difference,
    variation_of_profile,
)

__version__ = "0.1.0"
