"""The fast engines against the slow candidate-set oracle.

``maximal_value`` scans only intervals anchored at x and ``build_profile``
walks hull-restricted anchors; ``candidate_set`` lists every finite interval
with endpoints on the breakpoint grid plus the four limits, so its maximum
is the maximal value by definition.  Points checked: breakpoints, profile
junctions, the midpoints between them, and one point beyond each end.

``bv_distance`` certifies the limit gap plus the variation of a difference
of two profiles; the pointwise engine, which builds no profile, gives a
lower bound for it through the variation over a finite partition.
"""

import random
from fractions import Fraction

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from maxbv.envelope import build_profile, bv_distance
from maxbv.maximal import WitnessInterval, candidate_set, maximal_limit_at_infinity, maximal_value
from maxbv.stepfn import StepFunction, combine
from conftest import step_functions

def probe_points(f, profile):
    marks = sorted({*f.breakpoints, *profile.ends})
    if not marks:
        return [Fraction(0)]
    mids = [(s + t) / 2 for s, t in zip(marks, marks[1:])]
    return [marks[0] - 1, *marks, *mids, marks[-1] + 1]


def oracle_maximal(f, x):
    """(value, witness, one-sided witness) as an argmin over the full candidate set."""
    candidates = candidate_set(f, x)
    best = max(c.value for c in candidates)
    tied = [c for c in candidates if c.value == best]
    witness = min(tied, key=WitnessInterval.sort_key)
    one_sided = None
    if best > max(abs(f.left_limit(x)), abs(f.right_limit(x))) and best > maximal_limit_at_infinity(f):
        sided = [c for c in tied if c.kind == "finite" and x in (c.a, c.b)]
        one_sided = min(sided, key=WitnessInterval.sort_key)
    return best, witness, one_sided


@settings(derandomize=True, max_examples=150, deadline=None)
@given(step_functions())
def test_maximal_value_matches_candidate_set_argmin(f):
    for x in probe_points(f, build_profile(f)):
        mv = maximal_value(f, x)
        assert (mv.value, mv.witness, mv.one_sided_witness) == oracle_maximal(f, x)


def exact_n(seed, n):
    """Exactly n breakpoints, one in each run of 4 on a quarter grid, with
    tails of size at most 1 below interior constants of size up to 3, so
    the profile has many anchored pieces."""
    rng = random.Random(seed)

    def draw(bound):
        den = rng.randint(1, 4)
        return Fraction(rng.randint(-bound * den, bound * den), den)

    bps = tuple(Fraction(4 * k) + Fraction(rng.randrange(16), 4) for k in range(n))
    constants = tuple(draw(3) for _ in range(n - 1)) + (draw(1),)
    return StepFunction(draw(1), bps, tuple(draw(3) for _ in range(n)), constants)


def test_profile_matches_candidate_set_maximum_up_to_n_40():
    for seed, n in ((0, 10), (1, 20), (2, 40)):
        f = exact_n(seed, n)
        assert f.n == n
        profile = build_profile(f)
        marks = [None, *profile.ends, None]
        points = list(profile.ends)
        for s, t in zip(marks, marks[1:]):
            points.append(s + 1 if t is None else t - 1 if s is None else (s + t) / 2)
        for x in points:
            assert profile.value(x) == max(c.value for c in candidate_set(f, x))


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(
    step_functions(n_min=2),
    step_functions(n_min=2),
    st.sampled_from([1, Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)]),
)
def test_bv_distance_dominates_pointwise_partition_variation(f, g, scale):
    """bv_distance (and so variation_of_difference, which must not raise)
    against the partition variation of the pointwise difference over the
    merged junctions of both profiles and the midpoints between them."""
    fj = combine(f, g, 1, scale)
    profile_f, profile_j = build_profile(f), build_profile(fj)
    marks = sorted({*profile_f.ends, *profile_j.ends}) or [Fraction(0)]
    mids = [(s + t) / 2 for s, t in zip(marks, marks[1:])]
    points = [marks[0] - 1, *sorted([*marks, *mids]), marks[-1] + 1]
    diff = [maximal_value(fj, x).value - maximal_value(f, x).value for x in points]
    partition = sum(abs(b - a) for a, b in zip(diff, diff[1:]))
    gap = abs(maximal_limit_at_infinity(fj) - maximal_limit_at_infinity(f))
    enclosure = bv_distance(profile_f, profile_j, Fraction(1, 10**9))
    assert enclosure.hi >= gap + partition
