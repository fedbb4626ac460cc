"""Exact analysis of the uncentered maximal operator on rational step functions."""

import importlib.util
import sys

from .exact import AlgebraicValue, Rat, format_rat, isolate_quadratic_roots, parse_rat, rat
from .stepfn import (
    NEG_INF,
    POS_INF,
    JumpRecord,
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


def _lazy(name: str):
    """The submodule ``maxbv.<name>``, executed on first attribute access.

    The module is registered in ``sys.modules`` and bound on the package at
    once, as an import would, through ``importlib.util.LazyLoader``, so that
    ``import maxbv.<name>`` and ``sys.modules`` see it, but its code runs
    only when one of its names is first read.  A pointwise query never
    reads the profile engine or the oracles, so it never pays for loading
    them.  A module already imported comes back as it is.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


envelope = _lazy("envelope")
verify = _lazy("verify")

_ENVELOPE_NAMES = frozenset({
    "MaximalProfile",
    "PerturbationFamily",
    "RegionSet",
    "VariationEnclosure",
    "build_profile",
    "bv_distance",
    "detachment_regions",
    "profile_derivative",
    "variation_of_difference",
    "variation_of_profile",
})


def __getattr__(name: str):
    """The names re-exported from ``envelope``, read (and so loaded) on use."""
    if name in _ENVELOPE_NAMES:
        return getattr(envelope, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
