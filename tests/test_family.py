"""The perturbation family f + s*g on one lattice, against the slow path that
canonicalizes f + s*g with ``combine`` and builds its profile from scratch."""

import random
from fractions import Fraction

import pytest

import maxbv.stepfn as sf
from maxbv import envelope
from maxbv.envelope import PerturbationFamily, build_profile, variation_of_profile
from maxbv.stepfn import StepFunction, combine
from maxbv.verify import continuity_experiment, random_stepfn
from conftest import end_values, ends, exact_n_stepfn, pieces, rand_stepfn

CHI_01 = StepFunction.indicator(0, 1)
SCALES = [Fraction(1, 2**j) for j in range(15)]


def assert_same_profile(built, reference):
    assert ends(built) == ends(reference)
    assert end_values(built) == end_values(reference)
    for form, other in zip(built.int_forms, reference.int_forms, strict=True):
        k = next(Fraction(v, w) for v, w in zip(form, other) if w)
        assert k > 0 and form == tuple(k * w for w in other)
    assert pieces(built) == pieces(reference)


FAMILY_SCALES = (Fraction(4), Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-1))


def family_corpus():
    """Pairs (f, g) with small values on a half grid, so levels of f + s*g
    often cross zero at large s, adjacent levels coincide and combine drops
    merged breakpoints."""
    rng = random.Random(7)
    for _ in range(300):
        f = rand_stepfn(rng, n_max=4, bound=2, denom=2, span=3)
        g = rand_stepfn(rng, n_max=4, bound=2, denom=2, span=3)
        yield f, g


def test_family_profiles_match_combine_and_build():
    # The corpus must hit each case of family_corpus.
    seen = {"zero crossing": 0, "equal neighbours": 0, "dropped breakpoint": 0}
    for f, g in family_corpus():
        family = PerturbationFamily(f, g)
        merged = sorted({*f.breakpoints, *g.breakpoints})
        for s in FAMILY_SCALES:
            h = combine(f, g, 1, s)
            assert_same_profile(family.profile(s), build_profile(h))
            # The levels of f and of f + s*g on each merged segment.
            levels = [(k.left_limit(t) for t in merged) for k in (f, h)]
            pairs = [*zip(*levels), (f.constants[-1], h.constants[-1])]
            seen["zero crossing"] += any(a * b < 0 or (a and not b) for a, b in pairs)
            seen["equal neighbours"] += any(abs(a) == abs(b) for a, b in zip(h.constants, h.constants[1:]))
            seen["dropped breakpoint"] += h.n < len(merged)
    assert all(seen.values()), seen


def test_family_lattice_merges_the_breakpoints_and_reads_the_constants():
    # The one int merge of f's and g's lattice points gives the sorted set of
    # both breakpoints, and each function's signed level left of each merged
    # point, then on its right tail: over the family's unit e_f*e_g, f's
    # constant and g's there.  The corpus must hold shared breakpoints and
    # functions with none.
    seen = {"shared": 0, "none": 0}
    for f, g in family_corpus():
        family = PerturbationFamily(f, g)
        points, scale, xs = family._points, family._scale, family._xs
        assert points == sorted({*f.breakpoints, *g.breakpoints})
        seen["shared"] += len(points) < f.n + g.n
        seen["none"] += not (f.n and g.n)
        assert list(xs) == [t * scale for t in points]
        for side, h in enumerate((f, g)):
            levels = [Fraction(pair[side], family._unit) for pair in family._levels]
            assert levels == [*[h.left_limit(t) for t in points], h.constants[-1]]
    assert all(seen.values()), seen


def test_family_drops_what_combine_drops():
    # f + 1*g is the zero function: both merged breakpoints go, as in
    # combine; at other scales they stay.
    minus_chi = StepFunction.indicator(0, 1, value=-1)
    family = PerturbationFamily(CHI_01, minus_chi)
    for s in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
        h = combine(CHI_01, minus_chi, 1, s)
        assert h.n == (0 if s == 1 else 2)
        assert_same_profile(family.profile(s), build_profile(h))
    assert end_values(family.profile(1)) == (0, 0)


def skeleton_profiles():
    for f, g in family_corpus():
        yield build_profile(f)
        family = PerturbationFamily(f, g)
        for s in FAMILY_SCALES:
            yield family.profile(s)
    for n in range(17):
        yield build_profile(exact_n_stepfn(random.Random(n), n))


def test_skeleton_fractions_are_those_of_the_int_pairs():
    # The build keeps the junctions as int pairs with positive dens; the
    # point value at each junction's rational, off the piece left of it, is
    # the value of the piece right of it there, and the whole-line
    # variation, summed at its turning points, is the Fraction telescoping
    # sum of the end values.
    count = 0
    for profile in skeleton_profiles():
        assert all(type(p) is type(q) is int and q > 0 for p, q in profile.end_pairs)
        variation = variation_of_profile(profile)
        values = end_values(profile)
        assert tuple(profile.value(x) for x in ends(profile)) == values[1:-1]
        total = sum((abs(w - v) for v, w in zip(values, values[1:])), Fraction(0))
        assert variation.lo == variation.hi == total
        count += 1
    assert count == 300 * (1 + len(FAMILY_SCALES)) + 17


class CombinedFamily:
    """The slow path: ``combine`` and a build from scratch at every scale."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def profile(self, s):
        return build_profile(combine(self.f, self.g, 1, s))


def test_continuity_report_matches_the_combine_path(monkeypatch):
    rng = random.Random(11)
    pairs = [(random_stepfn(2 * i), random_stepfn(2 * i + 1)) for i in range(12)]
    pairs += [(rand_stepfn(rng, n_max=6), rand_stepfn(rng, n_max=6)) for _ in range(12)]
    fast = [continuity_experiment(f, g, SCALES).to_tsv() for f, g in pairs]
    monkeypatch.setattr(envelope, "PerturbationFamily", CombinedFamily)
    assert [continuity_experiment(f, g, SCALES).to_tsv() for f, g in pairs] == fast


def test_continuity_experiment_makes_no_combine_call(monkeypatch):
    calls = []
    combine_ = sf.combine

    def counted(*args):
        calls.append(args)
        return combine_(*args)

    monkeypatch.setattr(sf, "combine", counted)
    f, g = random_stepfn(4), random_stepfn(5)
    continuity_experiment(f, g, SCALES)
    assert calls == []
    sf.combine(f, g, 1, 1)  # the counter sees a call through the module
    assert len(calls) == 1


@pytest.mark.parametrize("part", ["point", "level"])
def test_family_way_back_catches_a_lattice_one_unit_off(monkeypatch, part):
    # One of g's points or one of f's int levels one unit off still makes a
    # consistent lattice, so the builds and their checks could pass on it:
    # the way back of ``StepFunction.lattice``, which the family reads, sees
    # it.  The lattice is cached on each function, so the moved one is made
    # for fresh copies of f and g.
    f, g = random_stepfn(4), random_stepfn(5)
    assert f.n >= 1 and g.n >= 1
    PerturbationFamily(f, g).profile(Fraction(1, 2))
    lattice = sf._lattice

    def moved(h):
        scale, unit, xs, ls, ps = lattice(h)
        if part == "point" and h is fresh_g:
            xs = (xs[0] + 1, *xs[1:])
        elif part == "level" and h is fresh_f:
            ls = (*ls[:1], ls[1] + 1, *ls[2:])
        return scale, unit, xs, ls, ps

    monkeypatch.setattr(sf, "_lattice", moved)
    fresh_f, fresh_g = random_stepfn(4), random_stepfn(5)
    what = "breakpoints" if part == "point" else "constants"
    with pytest.raises(AssertionError, match=f"lattice disagrees with the {what} of f"):
        PerturbationFamily(fresh_f, fresh_g)


def test_continuity_experiment_makes_each_lattice_once(monkeypatch):
    # f and the perturbation each become ints once, in ``StepFunction.lattice``:
    # the family reads both cached lattices and makes none of its own.
    made = []
    lattice = sf._lattice

    def counted(h):
        made.append(h)
        return lattice(h)

    monkeypatch.setattr(sf, "_lattice", counted)
    f, g = random_stepfn(4), random_stepfn(5)  # fresh: no lattice cached yet
    continuity_experiment(f, g, SCALES)
    assert len(made) == 2 and made[0] is f and made[1] is g
