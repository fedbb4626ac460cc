"""The merged int-form difference walk against a slow Fraction walk.

``variation_of_difference`` walks both profiles' pieces with two pointers
and decides every sign on the pieces' int forms.  The reference below is
the cell-by-cell walk it replaced: it sorts the merged junctions, finds
each cell's pieces by bisection at a midpoint and takes the critical
quadratic from the pieces' rationals.  Its peak rounds follow the
engine's schedule, but take each level from a loop over widths and each
bracket from bisection of the level-0 one, so they share no bracket code
with the engine; the two must still agree on every enclosure end, not
just within the precision, on family profiles of bench-shaped pairs too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbv import envelope
from maxbv.envelope import (
    PerturbationFamily,
    VariationEnclosure,
    build_profile,
    variation_of_difference,
    variation_of_profile,
)
from maxbv.exact import isolate_quadratic_roots, sign
from maxbv.stepfn import NEG_INF, POS_INF, StepFunction, combine
from maxbv.verify import random_stepfn
from conftest import (
    bench_pairs,
    bisect_below,
    both_roots_within,
    difference_critical_quadratic,
    end_values,
    ends,
    int_form,
    least_level,
    level0_bracket,
    midpoint,
    moebius_profile,
    pair,
    piece_containing,
    pieces,
    rand_stepfn,
    sign_at,
    step_functions,
)
from test_family import SCALES

PRECISION = Fraction(1, 10**9)


def reference_variation_of_difference(p1, p2, precision=PRECISION):
    walk = [NEG_INF, *sorted({*ends(p1), *ends(p2)}), POS_INF]
    exact = Fraction(0)
    peaks = []
    d_s = end_values(p1)[0] - end_values(p2)[0]
    for s, t in zip(walk, walk[1:]):
        x = midpoint(s, t)
        m1, m2 = piece_containing(p1, x), piece_containing(p2, x)
        if t == POS_INF:
            d_t = end_values(p1)[-1] - end_values(p2)[-1]
        else:
            d_t = m1.value_at(t) - m2.value_at(t)
        q = int_form(difference_critical_quadratic(m1.coefficients, m2.coefficients))
        rise = sign_at(q, pair(s))
        if rise * sign_at(q, pair(t)) < 0:
            roots = isolate_quadratic_roots(q)
            root = roots[0] if rise == sign(q[0]) else roots[-1]
            if root.is_rational:
                peak = [None, 0, (root.value, root.value)]
            else:
                q = q if q[0] > 0 else tuple(-c for c in q)
                peak = [q, 0, level0_bracket(q, root.branch)]
            peaks.append(peak + [m1, m2, d_s, d_t, rise])
        else:
            assert not both_roots_within(q, pair(s), pair(t), sign_at(q, pair(s)), sign_at(q, pair(t)))
            exact += abs(d_t - d_s)
        d_s = d_t

    bits = 40
    while True:
        lo_sum = hi_sum = exact
        for peak in peaks:
            q, level, (lo, hi), m1, m2, d_s, d_t, rise = peak
            if q is not None:
                level = least_level(q[0], bits, level)
                lo, hi = bisect_below(q, lo, hi, Fraction(1, 2 * q[0] << level))
            while True:
                signs = [sign(m.gamma + m.delta * edge) for m in (m1, m2) for edge in (lo, hi)]
                if 0 not in signs and signs[0] == signs[1] and signs[2] == signs[3]:
                    break
                level += 2
                lo, hi = bisect_below(q, lo, hi, Fraction(1, 2 * q[0] << level))
            peak[1:3] = level, (lo, hi)
            vals1 = sorted((m1.value_at(lo), m1.value_at(hi)))
            vals2 = sorted((m2.value_at(lo), m2.value_at(hi)))
            top_lo, top_hi = vals1[0] - vals2[1], vals1[1] - vals2[0]
            if rise < 0:
                top_lo, top_hi, d_s, d_t = -top_hi, -top_lo, -d_s, -d_t
            for d in (d_s, d_t):
                lo_sum += max(top_lo - d, Fraction(0))
                hi_sum += max(top_hi - d, Fraction(0))
        if hi_sum - lo_sum <= precision:
            return VariationEnclosure(pair(lo_sum), pair(hi_sum))
        bits += 16


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


def test_bench_shaped_family_pairs_match_the_reference():
    # The continuity workload's distances: family profiles of pairs from the
    # benchmark's generator, g at BV norm 1/8, at the 15 scales 1 ... 2^-14,
    # each against f's own profile.
    irrational = 0
    for f, g in bench_pairs():
        profile_f, family = build_profile(f), PerturbationFamily(f, g)
        for s in SCALES:
            enclosure = assert_same_walk(family.profile(s), profile_f)
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
    assert len(pieces(flat)) == len(pieces(other)) == 1
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
        assert ends(profile) == ends(doubled)
        shared += len(ends(profile))
        enclosure = assert_same_walk(doubled, profile)
        assert enclosure.lo == enclosure.hi == variation_of_profile(profile).lo
    assert shared > 0


def test_later_rounds_match_the_reference():
    # The first round's brackets are at most 2**-40 wide, so these
    # precisions take two and four rounds, each from the level the last left.
    p1, p2 = build_profile(random_stepfn(10, n_max=9)), build_profile(random_stepfn(1010, n_max=9))
    for precision in (Fraction(1, 10**15), Fraction(1, 10**25)):
        enclosure = assert_same_walk(p1, p2, precision)
        assert 0 < enclosure.hi - enclosure.lo <= precision


def test_hand_built_profiles_match_the_reference():
    # The bracket that has to be narrowed off the poles, and pieces whose
    # coefficients have several denominators.
    s, t = Fraction(1, 2**44), Fraction(3, 2**44)
    assert_same_walk(moebius_profile(Fraction(-1), Fraction(0), s, t),
                     moebius_profile(-(1 + Fraction(1, 2**60)), -Fraction(1, 2**42), s, t))
    assert_same_walk(moebius_profile(Fraction(2, 3), Fraction(5, 7), Fraction(1, 2), Fraction(9, 4)),
                     moebius_profile(Fraction(-3, 5), Fraction(1, 6), Fraction(1, 3), Fraction(3)))


def cell_kinds(p1, p2):
    """The kind of each common cell of two profiles, read off their pieces'
    directions, poles and critical quadratic: "apart" (one piece rises, the
    other falls), "one flat", "both flat", "same, one pole" (both rise or
    both fall, about the same pole), "same" (about two poles) and
    "same, peak" (and a critical point inside)."""
    walk = [NEG_INF, *sorted({*ends(p1), *ends(p2)}), POS_INF]
    kinds = set()
    for s, t in zip(walk, walk[1:]):
        m1, m2 = piece_containing(p1, midpoint(s, t)), piece_containing(p2, midpoint(s, t))
        flat = (m1.direction == 0) + (m2.direction == 0)
        if flat:
            kinds.add("both flat" if flat == 2 else "one flat")
        elif m1.direction != m2.direction:
            kinds.add("apart")
        elif m1.gamma * m2.delta == m2.gamma * m1.delta:
            kinds.add("same, one pole")
        else:
            q = int_form(difference_critical_quadratic(m1.coefficients, m2.coefficients))
            kinds.add("same, peak" if sign_at(q, pair(s)) * sign_at(q, pair(t)) < 0 else "same")
    return kinds


# Hand-built pairs, each with a cell of the named kind: alpha/(gamma + x)
# on [s, t], constant outside, falls for alpha > 0 and rises for alpha < 0.
# Every pair has both pieces flat on its two unbounded cells.
CELL_PAIRS = {
    "apart": ((1, 0, 1, 2), (-1, 0, 1, 2)),
    "one flat": ((1, 0, 1, 2), (1, 0, 3, 4)),
    "both flat": ((1, 0, 1, 2), (2, 0, 3, 4)),
    "same, one pole": ((1, 0, 1, 2), (2, 0, 1, 2)),
    "same": ((1, 0, 1, 2), (1, 1, 1, 2)),
    # d' = -1/x**2 + 4/(x + 3)**2 vanishes at x = 3.
    "same, peak": ((1, 0, 1, 8), (4, 3, 1, 8)),
    # d' = -1/x**2 + 2/(x + 2)**2 vanishes at x = 2*(sqrt(2) + 1).
    "same, irrational peak": ((1, 0, 1, 8), (2, 2, 1, 8)),
}


@pytest.mark.parametrize("kind", CELL_PAIRS)
@pytest.mark.parametrize("swap", [False, True], ids=["", "swapped"])
def test_each_kind_of_cell_matches_the_reference(kind, swap):
    p1, p2 = [moebius_profile(*[Fraction(v) for v in args]) for args in CELL_PAIRS[kind]]
    if swap:  # a valley for a peak, and each direction of the walk's terms
        p1, p2 = p2, p1
    assert kind.replace("irrational ", "") in cell_kinds(p1, p2)
    enclosure = assert_same_walk(p1, p2)
    assert (enclosure.lo != enclosure.hi) == (kind == "same, irrational peak")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(step_functions(n_max=5), step_functions(n_max=5), st.sampled_from([1, Fraction(1, 2), Fraction(1, 64)]))
def test_perturbed_pairs_match_the_reference(f, g, scale):
    assert_same_walk(build_profile(combine(f, g, 1, scale)), build_profile(f))


def sign_pass_pairs():
    """The profile pairs of the tests above, and the family profiles of the
    bench-shaped pairs against f's own."""
    rng = random.Random(11)
    for _ in range(12):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        for j in range(0, 15, 2):
            yield build_profile(combine(f, g, 1, Fraction(1, 2**j))), build_profile(f)
    for seed in range(0, 120, 2):
        yield build_profile(random_stepfn(seed)), build_profile(random_stepfn(seed + 1))
    yield build_profile(random_stepfn(10, n_max=9)), build_profile(random_stepfn(1010, n_max=9))
    flat = build_profile(StepFunction.constant(Fraction(3, 2)))
    for seed in range(10):
        yield flat, build_profile(random_stepfn(seed))
    for args1, args2 in CELL_PAIRS.values():
        p1, p2 = [moebius_profile(*[Fraction(v) for v in args]) for args in (args1, args2)]
        yield p1, p2
        yield p2, p1
    for f, g in bench_pairs():
        profile_f, family = build_profile(f), PerturbationFamily(f, g)
        for s in SCALES:
            yield family.profile(s), profile_f


def own_turns(ends, forms, start):
    """The turns of one piece list's own walk, as (c, k, bound): each piece's
    direction the sign of its det, a flat one keeping the last, a turn at
    the start of piece k where the direction changes and one at the last
    end."""
    turns, heading = [], 0
    for k, (form, bound) in enumerate(zip(forms, (start, *ends[:-1]))):
        a, b, g, d = form
        direction = sign(b * g - a * d) or heading
        if direction != heading:
            turns.append((heading - direction, k, bound))
            heading = direction
    if heading:
        turns.append((heading, len(forms) - 1, ends[-1]))
    return turns


def test_the_sign_pass_runs_alike_on_forms_scaled_by_positive_rationals():
    # The sign pass uses only ring operations and signs, so forms scaled by
    # any positive factors, a different one per piece, give the same turns
    # and the same d values as rationals, and peak quadratics scaled by a
    # positive factor: what a walk over another ordered ring, such as Z[eps]
    # or Q[s], relies on.  The first list's own turns keep their bounds and
    # directions, and each value is that piece's value pair times its factor.
    rng = random.Random(23)

    def value(pair):
        return Fraction(pair[0]) / Fraction(pair[1])

    def scaled(forms):
        factors = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in forms]
        return tuple(tuple(k * c for c in form) for k, form in zip(factors, forms)), factors

    peaks = owns = 0
    for p1, p2 in sign_pass_pairs():
        ends1, ends2 = (*p1.end_pairs, envelope._POS_END), (*p2.end_pairs, envelope._POS_END)
        start = sign(Fraction(*envelope._gap_at(p1.int_forms[0], p2.int_forms[0], envelope._NEG_END)))
        expected = own_turns(ends1, p1.int_forms, envelope._NEG_END)
        for before in {0, start}:
            turns, found, own = envelope._sign_pass(ends1, p1.int_forms, ends2, p2.int_forms, envelope._NEG_END, before)
            forms1, factors = scaled(p1.int_forms)
            scaled_turns, scaled_found, scaled_own = envelope._sign_pass(
                ends1, forms1, ends2, scaled(p2.int_forms)[0], envelope._NEG_END, before
            )
            assert [c for c, _ in scaled_turns] == [c for c, _ in turns]
            assert [value(d) for _, d in scaled_turns] == [value(d) for _, d in turns]
            assert len(scaled_found) == len(found)
            for peak, scaled_peak in zip(found, scaled_found):
                assert all(type(c) is int for c in peak[:3])
                lead = next(k for k in range(3) if peak[k])
                factor = scaled_peak[lead] / peak[lead]
                assert factor > 0 and scaled_peak[:3] == tuple(factor * c for c in peak[:3])
                assert [value(d) for d in scaled_peak[5:7]] == [value(d) for d in peak[5:7]]
                assert scaled_peak[7] == peak[7]
            peaks += len(found)
            assert own == [(c, envelope._form_at(p1.int_forms[k], bound)) for c, k, bound in expected]
            assert len(scaled_own) == len(own)
            for (c, (num, den)), (scaled_c, scaled_value), (_, k, _) in zip(own, scaled_own, expected):
                assert scaled_c == c and scaled_value == (factors[k] * num, factors[k] * den)
            owns += len(own)
    assert peaks > 0 and owns > 0
