"""The merged int-form difference walk against a slow Fraction walk.

``variation_of_difference`` walks both profiles' pieces with two pointers
and decides every sign on the pieces' int forms.  The reference below is
the cell-by-cell walk it replaced: it sorts the merged junctions, finds
each cell's pieces by bisection at a midpoint and takes the critical
quadratic from the pieces' rationals.  Its peak rounds are the engine's,
so the two must agree on every enclosure end, not just within the
precision.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from maxbv.envelope import (
    VariationEnclosure,
    _both_roots_within,
    _difference_critical_quadratic,
    _sign_at,
    build_profile,
    variation_of_difference,
    variation_of_profile,
)
from maxbv.exact import integer_quadratic, isolate_quadratic_roots, sign
from maxbv.stepfn import NEG_INF, POS_INF, StepFunction, combine
from maxbv.verify import random_stepfn
from conftest import midpoint, moebius_profile, pair, rand_stepfn, step_functions

PRECISION = Fraction(1, 10**9)


def reference_variation_of_difference(p1, p2, precision=PRECISION):
    walk = [NEG_INF, *sorted({*p1.ends, *p2.ends}), POS_INF]
    exact = Fraction(0)
    peaks = []
    d_s = p1.end_values[0] - p2.end_values[0]
    for s, t in zip(walk, walk[1:]):
        x = midpoint(s, t)
        m1, m2 = p1.piece_containing(x), p2.piece_containing(x)
        if t == POS_INF:
            d_t = p1.end_values[-1] - p2.end_values[-1]
        else:
            d_t = m1.value_at(t) - m2.value_at(t)
        q = integer_quadratic(_difference_critical_quadratic(m1.coefficients, m2.coefficients))
        rise = _sign_at(q, pair(s))
        if rise * _sign_at(q, pair(t)) < 0:
            roots = isolate_quadratic_roots(q)
            peaks.append([roots[0] if rise == sign(q[0]) else roots[-1], m1, m2, d_s, d_t, rise])
        else:
            assert not _both_roots_within(q, pair(s), pair(t), _sign_at(q, pair(s)), _sign_at(q, pair(t)))
            exact += abs(d_t - d_s)
        d_s = d_t

    width = Fraction(1, 2**40)
    while True:
        lo_sum = hi_sum = exact
        for peak in peaks:
            av, m1, m2, d_s, d_t, rise = peak
            av = av.refine_below(width)
            while True:
                signs = [sign(m.gamma + m.delta * edge) for m in (m1, m2) for edge in (av.lo, av.hi)]
                if 0 not in signs and signs[0] == signs[1] and signs[2] == signs[3]:
                    break
                av = av.refine_below(av.width / 4)
            peak[0] = av
            vals1 = sorted((m1.value_at(av.lo), m1.value_at(av.hi)))
            vals2 = sorted((m2.value_at(av.lo), m2.value_at(av.hi)))
            top_lo, top_hi = vals1[0] - vals2[1], vals1[1] - vals2[0]
            if rise < 0:
                top_lo, top_hi, d_s, d_t = -top_hi, -top_lo, -d_s, -d_t
            for d in (d_s, d_t):
                lo_sum += max(top_lo - d, Fraction(0))
                hi_sum += max(top_hi - d, Fraction(0))
        if hi_sum - lo_sum <= precision:
            return VariationEnclosure(lo_sum, hi_sum)
        width /= 2**16


def assert_same_walk(p1, p2, precision=PRECISION):
    fast = variation_of_difference(p1, p2, precision)
    slow = reference_variation_of_difference(p1, p2, precision)
    assert (fast.lo, fast.hi) == (slow.lo, slow.hi)
    return fast


def test_continuity_style_pairs_match_the_reference():
    # f + 2^-j * g against f, as the continuity experiment measures them.
    rng = random.Random(11)
    irrational = 0
    for _ in range(12):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        profile_f = build_profile(f)
        for j in range(15):
            fj = combine(f, g, 1, Fraction(1, 2**j))
            enclosure = assert_same_walk(build_profile(fj), profile_f)
            irrational += enclosure.lo != enclosure.hi
    assert irrational > 0  # some pairs reach the peak rounds


def test_random_stepfn_pairs_match_the_reference():
    for seed in range(0, 120, 2):
        assert_same_walk(build_profile(random_stepfn(seed)), build_profile(random_stepfn(seed + 1)))


def test_a_profile_against_itself_is_zero():
    for seed in range(20):
        profile = build_profile(random_stepfn(seed))
        assert str(assert_same_walk(profile, profile)) == "0..0"


def test_one_piece_profiles_match_the_reference():
    flat = build_profile(StepFunction.constant(Fraction(3, 2)))
    other = build_profile(StepFunction.constant(-2))
    assert len(flat.pieces) == len(other.pieces) == 1
    assert str(assert_same_walk(flat, other)) == "0..0"
    for seed in range(20):
        profile = build_profile(random_stepfn(seed))
        assert_same_walk(flat, profile)
        assert_same_walk(profile, flat)


def test_coinciding_junctions_step_both_pointers():
    # M(2f) = 2*M(f): the two profiles share every junction, and their
    # difference is M(f), whose variation telescopes exactly.
    rng = random.Random(5)
    shared = 0
    for _ in range(20):
        f = rand_stepfn(rng)
        profile, doubled = build_profile(f), build_profile(combine(f, f, 2, 0))
        assert profile.ends == doubled.ends
        shared += len(profile.ends)
        enclosure = assert_same_walk(doubled, profile)
        assert enclosure.lo == enclosure.hi == variation_of_profile(profile).lo
    assert shared > 0


def test_hand_built_profiles_match_the_reference():
    # The bracket that has to be narrowed off the poles, and pieces whose
    # coefficients have several denominators.
    s, t = Fraction(1, 2**44), Fraction(3, 2**44)
    assert_same_walk(moebius_profile(Fraction(-1), Fraction(0), s, t),
                     moebius_profile(-(1 + Fraction(1, 2**60)), -Fraction(1, 2**42), s, t))
    assert_same_walk(moebius_profile(Fraction(2, 3), Fraction(5, 7), Fraction(1, 2), Fraction(9, 4)),
                     moebius_profile(Fraction(-3, 5), Fraction(1, 6), Fraction(1, 3), Fraction(3)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(step_functions(n_max=5), step_functions(n_max=5), st.sampled_from([1, Fraction(1, 2), Fraction(1, 64)]))
def test_perturbed_pairs_match_the_reference(f, g, scale):
    assert_same_walk(build_profile(combine(f, g, 1, scale)), build_profile(f))
