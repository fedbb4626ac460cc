"""The merged skeleton detachment set against a slow piece-based one.

``detachment_regions`` walks the profile's junctions and f's breakpoints
with two pointers and decides every touch on ints.  The reference below is
the walk it replaced: it sorts the union of the bounds, reads each open
interval's piece by bisection at a midpoint and compares that piece's
rational value with |f| there and at every bound.
"""

from hypothesis import given, settings

from maxbv.envelope import RegionSet, build_profile, detachment_regions
from maxbv.stepfn import NEG_INF, POS_INF
from maxbv.verify import random_stepfn
from conftest import ends, midpoint, piece_containing, step_functions


def reference_detachment_regions(f, profile):
    bounds = sorted({*ends(profile), *f.breakpoints})
    walk = [NEG_INF, *bounds, POS_INF]
    detached = []
    for s, t in zip(walk, walk[1:]):
        x = midpoint(s, t)
        piece = piece_containing(profile, x)
        detached.append(not (piece.is_constant and piece.value_at(x) == abs(f.value(x))))
    runs = []
    start = NEG_INF
    for i, b in enumerate(bounds):
        adjusted = max(abs(f.left_limit(b)), abs(f.right_limit(b)))
        if piece_containing(profile, b).value_at(b) != adjusted:
            assert detached[i] and detached[i + 1]
            continue
        if detached[i]:
            runs.append((start, b))
        start = b
    if detached[-1]:
        runs.append((start, POS_INF))
    edges = [NEG_INF, *[e for run in runs for e in run], POS_INF]
    gaps = zip(edges[::2], edges[1::2])
    complement = [gap for gap in gaps if gap not in ((NEG_INF, NEG_INF), (POS_INF, POS_INF))]
    return RegionSet(tuple(runs), closed=False), RegionSet(tuple(complement), closed=True)


def assert_same_regions(f):
    profile = build_profile(f)
    fast = detachment_regions(f, profile)
    assert fast == reference_detachment_regions(f, profile)
    # Each finite bound is one of f's breakpoints, not a new Fraction made
    # in the walk, or else the rational of one of the profile's end pairs.
    points = {id(x) for x in f.breakpoints}
    for regions in fast:
        for bound in (e for interval in regions.intervals for e in interval):
            assert (
                bound in (NEG_INF, POS_INF)
                or id(bound) in points
                or any(bound.numerator * q == p * bound.denominator for p, q in profile.end_pairs)
            )
    return fast


def test_random_stepfn_regions_match_the_reference():
    shapes = set()
    for seed in range(3000):
        detached, touching = assert_same_regions(random_stepfn(seed))
        shapes.add((len(detached.intervals), len(touching.intervals)))
    assert len(shapes) > 5  # empty, whole-line and split sets all occur


def test_larger_random_stepfn_regions_match_the_reference():
    for seed in range(2000):
        assert_same_regions(random_stepfn(seed, n_max=9))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(step_functions())
def test_hypothesis_step_function_regions_match_the_reference(f):
    assert_same_regions(f)
