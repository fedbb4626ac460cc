"""The global profile: piecewise-Moebius structure, detachment set, derivative.

build_profile assembles the maximal function as an upper envelope over
candidate families.  Each piece is (alpha + beta*x)/(gamma + delta*x) on a
domain with exact endpoints, monotone throughout, so variations telescope.
"""

from fractions import Fraction

from maxbv.envelope import (
    build_profile,
    detachment_regions,
    profile_derivative,
    variation_of_profile,
)
from maxbv.exact import format_rat
from maxbv.stepfn import StepFunction, variation_on

chi = StepFunction.indicator(0, 1)
profile = build_profile(chi)
print("profile pieces of maximal(indicator):")
print(profile.dump(), end="")

print("derivative at -1:", profile_derivative(profile, -1))
print("derivative at 1/2:", profile_derivative(profile, Fraction(1, 2)))
print("derivative at 2:", profile_derivative(profile, 2))

regions, touch = detachment_regions(chi, profile)
print("\ndetachment set (maximal > adjusted modulus):")
for lo, hi in regions.intervals:
    print("  (", format_rat(lo), ",", format_rat(hi), ")")
print("touch set:", [(format_rat(lo), format_rat(hi)) for lo, hi in touch.intervals])

enclosure = variation_of_profile(profile)
print("\nVar(maximal) =", enclosure, " vs Var(f) =", variation_on(chi), "(contraction)")

# Candidates on one segment share their leading coefficient, so envelope
# crossings solve linear equations: profile junctions are always rational and
# single-profile variations come out exact (width-zero enclosures).  Genuine
# quadratic surds appear when *differences* of profiles are analyzed: the
# difference below peaks at 2 + sqrt(2), and its variation, 9 - 4*sqrt(2), is
# returned as a certified enclosure of the requested width: only such
# variations, and the BV distances built from them, take a precision.
from maxbv.envelope import variation_of_difference

tall = build_profile(StepFunction.indicator(0, 1, value=2, closed=False))
late = build_profile(StepFunction.indicator(1, 2, closed=False))
enclosure = variation_of_difference(tall, late, Fraction(1, 10**12))
print("\nVar of a profile difference peaking at 2 + sqrt(2):")
print("  enclosure:", enclosure, " width:", float(enclosure.width))
print("  9 - 4*sqrt(2) =", 9 - 4 * 2**0.5, " (float, for orientation only)")
