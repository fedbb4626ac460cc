"""The invariant suite's three piece checks, read off the skeleton.

``flat_on_touch``, ``finite_difference`` and ``no_interior_max`` read a
profile's ``end_pairs``, ``int_forms`` and ``tags``.  The piece-based versions
below, which read the tests' ``MoebiusPiece`` view, are the oracle: both must return the
same (ok, detail) on built profiles, where they pass, and on hand-built
profiles and regions made to fail each check.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from maxbv import verify
from maxbv.envelope import RegionSet, build_profile, detachment_regions, profile_derivative
from maxbv.exact import format_rat
from maxbv.stepfn import NEG_INF, POS_INF
from conftest import MoebiusPiece, exact_n_stepfn, moebius_profile, piece_containing, pieces, profile_from_pieces

CHECKS = dict(verify._SINGLE_CHECKS)


def piece_flat_on_touch(f, ctx):
    profile = ctx["profile"]
    _, touch = ctx["regions"]
    for piece in pieces(profile):
        if piece.is_constant:
            continue
        for lo, hi in touch.intervals:
            if max(piece.lo, lo) < min(piece.hi, hi):
                return False, f"piece {piece.tag}"
    return True, ""


def piece_finite_difference(f, ctx):
    rng = ctx["rng"]
    profile = ctx["profile"]
    for _ in range(4):
        x = Fraction(rng.randint(-40, 40), 7)
        try:
            derivative = profile_derivative(profile, x)
        except ValueError:
            continue
        piece = piece_containing(profile, x)
        steps = []
        h = Fraction(1, 2**6)
        while len(steps) < 3:
            if piece.lo <= x - h and x + h <= piece.hi:
                steps.append(h)
            h /= 2
        for h in steps:
            approx = (profile.value(x + h) - profile.value(x - h)) / (2 * h)
            if abs(approx - derivative) > h:
                return False, f"x={format_rat(x)}"
    return True, ""


def piece_no_interior_max(f, ctx):
    profile = ctx["profile"]
    regions, _ = ctx["regions"]
    for lo, hi in regions.intervals:
        directions = []
        for piece in pieces(profile):
            if max(piece.lo, lo) < min(piece.hi, hi) and piece.direction != 0:
                directions.append(piece.direction)
        for first, second in zip(directions, directions[1:]):
            if first > 0 > second:
                return False, "rise then fall inside one component"
    return True, ""


ORACLES = {
    "flat_on_touch": piece_flat_on_touch,
    "finite_difference": piece_finite_difference,
    "no_interior_max": piece_no_interior_max,
}


def both(name, profile, regions=None, rng_seed=0, rng=None):
    """(ok, detail) of the check and of its oracle, each on a fresh context
    with its own copy of the random stream."""
    results = []
    for check in (CHECKS[name], ORACLES[name]):
        ctx = {"profile": profile, "regions": regions, "rng": rng or random.Random(rng_seed)}
        results.append(check(None, ctx))
    return results


def test_checks_match_the_piece_oracle_on_built_profiles():
    outcomes = {name: set() for name in ORACLES}
    for n in range(1, 41):
        for seed in range(20):
            f = exact_n_stepfn(random.Random(1000 * n + seed), n)
            profile = build_profile(f)
            regions = detachment_regions(f, profile)
            for name in ORACLES:
                ours, oracle = both(name, profile, regions, rng_seed=seed)
                assert ours == oracle
                outcomes[name].add(ours)
    # Built profiles pass every check.
    assert all(results == {(True, "")} for results in outcomes.values())


def test_invariant_suite_passes_on_profiles_of_many_pieces():
    # Functions with exactly n breakpoints, where long intervals carry the
    # maximal function: every profile has several pieces, so point values,
    # derivatives and windowed variations locate x among real junctions.
    corpus = [exact_n_stepfn(random.Random(seed), n) for n in (3, 5, 8) for seed in range(4)]
    assert all(len(build_profile(f).int_forms) >= 2 for f in corpus)
    report = verify.invariant_suite(corpus)
    assert report.passed
    derivatives = [r.detail for r in report.results if r.check == "derivative_formula"]
    assert len(derivatives) == len(corpus) and all(detail != "0 points" for detail in derivatives)


def tagged(profile, tags):
    """The hand-built profile with its pieces' tags replaced."""
    return profile_from_pieces([replace(piece, tag=tag) for piece, tag in zip(pieces(profile), tags, strict=True)])


def test_flat_on_touch_fails_on_a_moving_piece_over_a_touch_interval():
    # 1/(1 + x) on [0, 2], flat outside; the touch set meets (0, 2) in (1, 2).
    profile = tagged(moebius_profile(Fraction(1), Fraction(1), Fraction(0), Fraction(2)),
                     ("const:tail_left", "left(-1)", "const:tail_right"))
    assert profile.tags[1] == "left(-1)"
    touch = RegionSet(((Fraction(1), Fraction(3)),), closed=True)
    regions = (RegionSet(((NEG_INF, Fraction(1)),)), touch)
    assert both("flat_on_touch", profile, regions) == [(False, "piece left(-1)")] * 2
    # Touching only at the piece's end, or only on constant pieces, is flat.
    for touch in (((Fraction(2), Fraction(3)),), ((NEG_INF, Fraction(0)), (Fraction(2), POS_INF))):
        regions = (RegionSet(()), RegionSet(touch, closed=True))
        assert both("flat_on_touch", profile, regions) == [(True, "")] * 2


def test_no_interior_max_fails_on_a_rise_then_a_fall():
    # 1/(1 - x) rises on [-2, 0] to 1, and 1/(1 + x) falls from there on [0, 2].
    third = Fraction(1, 3)
    given = (
        MoebiusPiece(third, 0, 1, 0, NEG_INF, Fraction(-2), third, third, "const:tail_left"),
        MoebiusPiece(Fraction(1), 0, Fraction(1), Fraction(-1), Fraction(-2), Fraction(0), third, Fraction(1), "right(1)"),
        MoebiusPiece(Fraction(1), 0, Fraction(1), Fraction(1), Fraction(0), Fraction(2), Fraction(1), third, "left(-1)"),
        MoebiusPiece(third, 0, 1, 0, Fraction(2), POS_INF, third, third, "const:tail_right"),
    )
    profile = profile_from_pieces(given)
    assert [piece.direction for piece in pieces(profile)] == [0, 1, -1, 0]
    one_component = (RegionSet(((NEG_INF, POS_INF),)), RegionSet(()))
    assert both("no_interior_max", profile, one_component) == [(False, "rise then fall inside one component")] * 2
    # Split at the peak, each component is monotone.
    split = (RegionSet(((NEG_INF, Fraction(0)), (Fraction(0), POS_INF))), RegionSet(((Fraction(0), Fraction(0)),), closed=True))
    assert both("no_interior_max", profile, split) == [(True, "")] * 2


class FixedDraws:
    """A random stream whose every randint is the same value."""

    def __init__(self, value):
        self.value = value

    def randint(self, a, b):
        return self.value


@pytest.mark.parametrize("fails", [True, False])
def test_finite_difference_fails_next_to_a_pole(fails):
    # 1/(x - p) on [p + 2^-21, 5] with p = 1/7 - 2^-20, flat outside: at
    # x = 1/7 the difference quotients that stay in the piece, h <= 2^-21,
    # are off the derivative -2^40 by far more than h.  With the pole 1
    # further left the same steps are within h.
    p = Fraction(1, 7) - Fraction(1, 2**20) - (0 if fails else 1)
    profile = moebius_profile(Fraction(1), -p, p + Fraction(1, 2**21), Fraction(5))
    expected = (False, "x=1/7") if fails else (True, "")
    assert both("finite_difference", profile, rng=FixedDraws(1)) == [expected] * 2
