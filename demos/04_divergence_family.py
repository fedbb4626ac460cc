"""A family where BV distances of maximal functions refuse to vanish.

Take a base function with left tail 1 and K unit humps on (4k-2, 4k), and
add 1/n on (0, 4n+2).  The perturbation's BV norm is 2/n, which tends to
zero, yet the maximal functions stay 2 apart in BV distance: the maximal
function of the base is identically 1, while the perturbed one oscillates
between 1 + 1/n (hump midpoints) and 1 (gap midpoints) across 2n windows.
The support of the perturbation grows with n, so no single BV limit
function is being approached; within fixed-support perturbations (see the
continuity demo) distances do vanish.
"""

from fractions import Fraction

from maxbv.envelope import build_profile, bv_distance
from maxbv.maximal import maximal_value
from maxbv.stepfn import bv_norm, combine
from maxbv.verify import counterexample, counterexample_functions

for n in (3, 4, 6):
    report = counterexample(n)
    print("\n".join(report.lines()))
    print()

base, perturbed = counterexample_functions(4, 6)
print("spot values for n = 4:")
for x in (3, 5, 7, 9):
    print(f"  maximal(perturbed)({x}) =", maximal_value(perturbed, x).value)

print("\nperturbation size:", bv_norm(combine(perturbed, base, 1, -1)))
distance = bv_distance(build_profile(perturbed), build_profile(base), Fraction(1, 10**9))
print("bv distance of the maximal functions:", distance)
