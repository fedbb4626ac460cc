import random
from fractions import Fraction

import pytest

from maxbv.envelope import (
    build_profile,
    bv_distance,
    detachment_regions,
    profile_derivative,
    variation_of_difference,
    variation_of_profile,
)
from maxbv.maximal import maximal_limit_at_infinity, maximal_value
from maxbv.stepfn import StepFunction, adjusted_modulus, combine, modulus, variation_on
from conftest import rand_stepfn

PRECISION = Fraction(1, 10**9)
CHI_01 = StepFunction.indicator(0, 1)
TWO_BUMP = combine(
    StepFunction.indicator(0, 1, closed=False), StepFunction.indicator(2, 3, closed=False)
)


def coeffs(piece):
    return (piece.alpha, piece.beta, piece.gamma, piece.delta)


def test_profile_of_indicator_has_three_pieces():
    profile = build_profile(CHI_01)
    assert len(profile.pieces) == 3
    left, middle, right = profile.pieces
    # 1/(1-x) normalized with delta = 1 is (-1 - 0x)/(-1 + x).
    assert left.value_at(-1) == Fraction(1, 2)
    assert left.value_at(0) == 1
    assert middle.is_constant and middle.value_at(Fraction(1, 2)) == 1
    assert right.value_at(2) == Fraction(1, 2)
    assert coeffs(right) == (1, 0, 0, 1) or right.value_at(4) == Fraction(1, 4)
    assert middle.lo == 0 and middle.hi == 1


def test_profile_of_constant():
    profile = build_profile(StepFunction.constant(-3))
    assert len(profile.pieces) == 1
    assert profile.pieces[0].is_constant and profile.value(17) == 3


def test_profile_two_bump_dip():
    profile = build_profile(TWO_BUMP)
    assert profile.value(Fraction(3, 2)) == Fraction(2, 3)
    assert profile.value(Fraction(5, 4)) == Fraction(4, 5)  # 1/x piece
    assert profile.value(-1) == Fraction(1, 2)  # crossing to the spanning window
    assert profile.value(-3) == Fraction(2, 6)  # 2/(3-x) piece


def test_profile_agrees_with_engine_on_dense_samples():
    rng = random.Random(61)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        samples = {Fraction(rng.randint(-64, 64), 8) for _ in range(25)}
        samples |= set(f.breakpoints)
        samples |= {x + Fraction(1, 17) for x in f.breakpoints}
        for x in samples:
            assert profile.value(x) == maximal_value(f, x).value


def test_profile_dominates_adjusted_modulus():
    rng = random.Random(67)
    for _ in range(30):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        adj = adjusted_modulus(f)
        for x in list(f.breakpoints) + [Fraction(rng.randint(-50, 50), 4) for _ in range(10)]:
            assert profile.value(x) >= adj.value(x)


def test_detachment_regions_indicator():
    f = CHI_01
    regions, touch = detachment_regions(f, build_profile(f))
    assert len(regions.intervals) == 2
    (l1, h1), (l2, h2) = regions.intervals
    assert l1 is None and h1 == 0
    assert l2 == 1 and h2 is None
    assert touch.intervals[0][0] == 0
    assert touch.intervals[0][1] == 1
    assert touch.contains(Fraction(1, 2)) and not regions.contains(Fraction(1, 2))
    assert regions.contains(-5) and not touch.contains(-5)


def test_detachment_regions_constant_and_two_bump():
    f = StepFunction.constant(4)
    regions, touch = detachment_regions(f, build_profile(f))
    assert regions.is_empty
    assert touch.intervals == ((None, None),)

    regions, _ = detachment_regions(TWO_BUMP, build_profile(TWO_BUMP))
    assert len(regions.intervals) == 3
    middle = regions.intervals[1]
    assert middle[0] == 1 and middle[1] == 2


def test_profile_derivative_examples():
    profile = build_profile(CHI_01)
    assert profile_derivative(profile, 2) == Fraction(-1, 4)
    assert profile_derivative(profile, Fraction(1, 2)) == 0
    assert profile_derivative(profile, -1) == Fraction(1, 4)
    with pytest.raises(ValueError):
        profile_derivative(profile, 0)


def test_derivative_matches_witness_formula():
    rng = random.Random(71)
    checked = 0
    for _ in range(30):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        regions, _ = detachment_regions(f, profile)
        m = modulus(f)
        limit = maximal_limit_at_infinity(f)
        for _ in range(20):
            x = Fraction(rng.randint(-48, 48), 5)
            if not regions.contains(x):
                continue
            try:
                derivative = profile_derivative(profile, x)
            except ValueError:
                continue  # junction
            mv = maximal_value(f, x)
            if mv.one_sided_witness is None:
                assert mv.value == limit
                assert derivative == 0
                continue
            w = mv.one_sided_witness
            if w.a == x:
                expected = (mv.value - m.value(x)) / (w.b - x)
            else:
                expected = (m.value(x) - mv.value) / (x - w.a)
            assert derivative == expected
            checked += 1
    assert checked > 50


def test_finite_difference_derivative_check():
    profile = build_profile(TWO_BUMP)
    x = Fraction(5, 4)
    exact = profile_derivative(profile, x)
    errors = []
    for t in range(3, 9):
        h = Fraction(1, 2**t)
        approx = (profile.value(x + h) - profile.value(x - h)) / (2 * h)
        errors.append(abs(approx - exact))
    for t, err in enumerate(errors, start=3):
        assert err <= Fraction(1, 2**t)  # O(h) observed
    assert errors[-1] <= errors[0]


def test_variation_of_profile_examples():
    enc = variation_of_profile(build_profile(CHI_01), precision=PRECISION)
    assert enc.lo == enc.hi == 2

    enc = variation_of_profile(build_profile(StepFunction.constant(9)), precision=PRECISION)
    assert enc.lo == enc.hi == 0

    enc = variation_of_profile(build_profile(TWO_BUMP), precision=PRECISION)
    assert enc.lo == enc.hi == Fraction(8, 3)
    assert enc.hi <= variation_on(TWO_BUMP)


def test_variation_of_profile_windows():
    profile = build_profile(CHI_01)
    enc = variation_of_profile(profile, Fraction(1, 2), 3, PRECISION)
    assert enc.lo == enc.hi == Fraction(2, 3)  # falls 1 -> 1/3 on (1, 3)
    with pytest.raises(ValueError):
        variation_of_profile(profile, 1, 1, PRECISION)
    with pytest.raises(ValueError):
        variation_of_profile(profile, 0, 1, Fraction(0))


def test_contraction_property():
    rng = random.Random(73)
    for _ in range(60):
        f = rand_stepfn(rng)
        enc = variation_of_profile(build_profile(f), precision=PRECISION)
        assert enc.hi <= variation_on(f) + PRECISION


def test_local_variation_bound_with_boundary_terms():
    rng = random.Random(79)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        adj = adjusted_modulus(f)
        a = Fraction(rng.randint(-40, 0), 4)
        b = a + Fraction(rng.randint(1, 40), 4)
        enc = variation_of_profile(profile, a, b, PRECISION)
        bound = (
            variation_on(adj, a, b)
            + abs(profile.value(a) - adj.value(a))
            + abs(profile.value(b) - adj.value(b))
        )
        assert enc.lo <= bound + PRECISION


def test_flat_on_touch_set():
    rng = random.Random(83)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        _, touch = detachment_regions(f, profile)
        for piece in profile.pieces:
            if piece.is_constant:
                continue
            for lo, hi in touch.intervals:
                # overlap of (piece.lo, piece.hi) with [lo, hi] must have no interior
                left = piece.lo if lo is None else (lo if piece.lo is None else max(piece.lo, lo))
                right = piece.hi if hi is None else (hi if piece.hi is None else min(piece.hi, hi))
                if left is None or right is None:
                    assert not (left is None and right is None)
                    continue
                assert left >= right


def test_no_interior_local_maximum_in_detachment_set():
    rng = random.Random(89)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        regions, _ = detachment_regions(f, profile)
        for lo, hi in regions.intervals:
            directions = []
            for piece in profile.pieces:
                left = piece.lo if lo is None else (lo if piece.lo is None else max(piece.lo, lo))
                right = piece.hi if hi is None else (hi if piece.hi is None else min(piece.hi, hi))
                if left is not None and right is not None and left >= right:
                    continue
                directions.append(piece.direction)
            trimmed = [d for d in directions if d != 0]
            # once the profile starts rising inside a component it never falls
            for first, second in zip(trimmed, trimmed[1:]):
                assert not (first > 0 > second)


def test_variation_of_difference_examples():
    p = build_profile(CHI_01)
    enc = variation_of_difference(p, p, PRECISION)
    assert enc.lo == enc.hi == 0

    half = build_profile(StepFunction.indicator(0, 1, value=Fraction(1, 2)))
    enc = variation_of_difference(p, half, PRECISION)
    assert enc.lo <= 1 <= enc.hi
    assert enc.width <= PRECISION
    # cross-check with partition lower bounds on the sampled difference
    pts = [Fraction(i, 8) for i in range(-24, 40)]
    diffs = [p.value(x) - half.value(x) for x in pts]
    partition_sum = sum(abs(diffs[i + 1] - diffs[i]) for i in range(len(diffs) - 1))
    assert partition_sum <= enc.hi + PRECISION


def test_variation_of_difference_with_irrational_critical_point():
    # p1 = 2/x and p2 = 1/(x-1) beyond their supports: the difference peaks at
    # x = 2 + sqrt(2), and its total variation is 9 - 4*sqrt(2): the enclosure
    # machinery must bracket a genuinely irrational value.
    p1 = build_profile(StepFunction.indicator(0, 1, value=2, closed=False))
    p2 = build_profile(StepFunction.indicator(1, 2, closed=False))
    precision = Fraction(1, 10**12)
    enc = variation_of_difference(p1, p2, precision)
    assert enc.width <= precision
    from maxbv.exact import compare_with_rat, isolate_quadratic_roots

    expected = isolate_quadratic_roots((1, -18, 49))[0]  # 9 - 4*sqrt(2)
    assert compare_with_rat(expected, enc.lo) >= 0
    assert compare_with_rat(expected, enc.hi) <= 0
    assert enc.lo != enc.hi  # the value is irrational, so the width is positive


def test_profile_junctions_are_rational():
    # Candidates on one segment share their leading coefficient, so envelope
    # crossings always solve linear equations: junctions stay rational.
    rng = random.Random(101)
    for _ in range(50):
        profile = build_profile(rand_stepfn(rng))
        assert all(isinstance(j, Fraction) for j in profile.junctions())


def test_bv_distance_examples():
    f = CHI_01
    enc = bv_distance(f, f, PRECISION)
    assert enc.lo == enc.hi == 0

    g = combine(f, StepFunction.indicator(0, 1, value=Fraction(1, 100)))
    enc = bv_distance(f, g, PRECISION)
    assert enc.lo <= Fraction(1, 50) <= enc.hi
    assert enc.hi <= Fraction(1, 25)  # well under 2*bv_norm(f-g) + limit gap


def test_bv_distance_on_random_pairs_is_symmetric_and_nonnegative():
    rng = random.Random(97)
    for _ in range(10):
        f = rand_stepfn(rng, n_max=4)
        g = rand_stepfn(rng, n_max=4)
        fg = bv_distance(f, g, PRECISION)
        gf = bv_distance(g, f, PRECISION)
        assert fg.lo >= 0
        assert abs(fg.midpoint - gf.midpoint) <= PRECISION
