import math
import random
import re
import types
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from maxbv import envelope, exact, stepfn
from maxbv.envelope import (
    _breakpoint_values,
    _hull_links,
    build_profile,
    bv_distance,
    detachment_regions,
    profile_derivative,
    variation_of_difference,
    variation_of_profile,
)
from maxbv.exact import format_rat, parse_rat, sign
from maxbv.maximal import maximal_limit_at_infinity, maximal_value
from maxbv.stepfn import (
    NEG_INF,
    POS_INF,
    StepFunction,
    serialize,
    adjusted_modulus,
    combine,
    modulus,
    variation_on,
)
from maxbv.cli import main
from maxbv.verify import continuity_experiment, random_stepfn
import conftest
from conftest import (
    MoebiusPiece,
    bench_pairs,
    bench_stepfn,
    both_roots_within,
    difference_critical_quadratic,
    end_values,
    ends,
    exact_n_stepfn,
    moebius_profile,
    pair,
    pieces,
    profile_from_pieces,
    rand_stepfn,
    sign_at,
)

PRECISION = Fraction(1, 10**9)
CHI_01 = StepFunction.indicator(0, 1)
TWO_BUMP = combine(
    StepFunction.indicator(0, 1, closed=False), StepFunction.indicator(2, 3, closed=False)
)


def coeffs(piece):
    return (piece.alpha, piece.beta, piece.gamma, piece.delta)


def test_profile_of_indicator_has_three_pieces():
    profile = build_profile(CHI_01)
    assert len(pieces(profile)) == 3
    left, middle, right = pieces(profile)
    # 1/(1-x) normalized with delta = 1 is (-1 - 0x)/(-1 + x).
    assert left.value_at(-1) == Fraction(1, 2)
    assert left.value_at(0) == 1
    assert middle.is_constant and middle.value_at(Fraction(1, 2)) == 1
    assert right.value_at(2) == Fraction(1, 2)
    assert coeffs(right) == (1, 0, 0, 1) or right.value_at(4) == Fraction(1, 4)
    assert middle.lo == 0 and middle.hi == 1


def test_profile_of_constant():
    profile = build_profile(StepFunction.constant(-3))
    assert len(pieces(profile)) == 1
    assert pieces(profile)[0].is_constant and profile.value(17) == 3


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


def sweep(f):
    _, unit, xs, ls, ps = f.lattice
    points = list(zip(xs, ps))
    lower, upper = _hull_links(points), _hull_links(points[::-1])
    return [Fraction(num, den * unit) for num, den in _breakpoint_values(xs, ps, ls, lower, upper)]


@pytest.mark.parametrize("n", [10, 40, 160])
def test_breakpoint_sweep_matches_pointwise_engine(n):
    rng = random.Random(n)
    from_hull = 0
    for _ in range(3):
        f = exact_n_stepfn(rng, n)
        assert f.n == n
        values = sweep(f)
        assert values == [maximal_value(f, b).value for b in f.breakpoints]
        c = [abs(constant) for constant in f.constants]
        from_hull += sum(v > max(c[i], c[i + 1], c[0], c[-1]) for i, v in enumerate(values))
    assert from_hull > 0  # some values beat every limit, so a chain link carries them


def test_self_check_catches_a_walk_that_drops_a_hull_anchor(monkeypatch):
    # At -6 the best interval runs to the last breakpoint.  A walk that
    # drops the farthest vertex of each chain wherever a segment's anchor
    # range holds it (vertex 0 of each pass: the first breakpoint as a left
    # anchor, the last as a right anchor) loses it on both sides of -6 alike,
    # so adjacent pieces still agree there: only the breakpoint values see it.
    f = StepFunction(0, (-6, 1, 3, 8), (-1, -3, -3, -3), (0, -3, Fraction(-7, 3), -1))
    assert str(maximal_value(f, -6).witness) == "finite(-6,8)"
    build_profile(f)
    anchors = envelope._anchors
    monkeypatch.setattr(envelope, "_anchors", lambda *args: [j for j in anchors(*args) if j])
    with pytest.raises(AssertionError, match="profile disagrees with the pointwise engine"):
        build_profile(f)


def oracle_corpus():
    for n in range(1, 41):
        for seed in range(20):
            yield exact_n_stepfn(random.Random(seed), n)
    for seed in range(500):
        yield random_stepfn(seed)


def test_lattice_self_checks_agree_with_a_fraction_oracle():
    # The build checks itself on its integer lattice; here the same two
    # checks run slowly in Fractions on what it reports: adjacent pieces agree
    # at every junction, and the profile is the pointwise engine's value at
    # every breakpoint.
    for f in oracle_corpus():
        profile = build_profile(f)
        view = pieces(profile)
        for left, right in zip(view, view[1:]):
            assert right.value_at(left.hi) == left.hi_value
        for b in f.breakpoints:
            assert profile.value(b) == maximal_value(f, b).value


def test_self_check_catches_a_crossing_one_lattice_step_off(monkeypatch):
    # On (-oo, 0) the piece 2/(3-x), averages over (x, 3), hands over to
    # 1/(1-x) at -1.  A crossing reported one lattice step to the right ends
    # the first piece where the two candidates no longer agree.
    build_profile(TWO_BUMP)
    crossing = envelope._crossing

    def shifted(c1, c2):
        x = crossing(c1, c2)
        return None if x is None else (x[0] + x[1], x[1])

    monkeypatch.setattr(envelope, "_crossing", shifted)
    with pytest.raises(AssertionError, match="profile pieces disagree at a junction"):
        build_profile(TWO_BUMP)


def test_self_check_catches_a_piece_off_its_lattice_cell(monkeypatch):
    # Every anchored piece's alpha one lattice unit 1/(D*E) off where the
    # tests' Fraction view makes it: the walk and its lattice checks are
    # untouched, only the view's way back to the int form sees it.
    f = StepFunction(0, (Fraction(-1, 3), Fraction(2, 3), 2), (1, 2, 0), (Fraction(3, 2), 2, Fraction(1, 4)))
    scale, unit, *_ = f.lattice
    assert (scale, unit) == (3, 4)
    build_profile(f)

    def skewed(alpha, beta, gamma, delta, *rest):
        if delta:
            alpha += Fraction(1, scale * unit)
        return MoebiusPiece(alpha, beta, gamma, delta, *rest)

    monkeypatch.setattr(conftest, "MoebiusPiece", skewed)
    with pytest.raises(AssertionError, match="profile piece disagrees with its lattice cell"):
        pieces(build_profile(f))


@pytest.mark.parametrize("part", ["breakpoints", "constants"])
def test_self_check_catches_a_lattice_off_the_input(monkeypatch, part):
    # A lattice moved one step to the right, or with every level doubled, is
    # a consistent lattice for the translated input, or for 2|f|, so the walk
    # and its checks pass on it: only the way back to f's own rationals sees it.
    # The lattice is cached on the function, so the moved one is made for a
    # fresh copy of f.
    f = exact_n_stepfn(random.Random(5), 6)
    build_profile(f)
    lattice = stepfn._lattice

    def moved(g):
        scale, unit, xs, ls, ps = lattice(g)
        if part == "breakpoints":
            return scale, unit, [x + 1 for x in xs], ls, ps
        return scale, unit, xs, [2 * ell for ell in ls], [2 * p for p in ps]

    monkeypatch.setattr(stepfn, "_lattice", moved)
    f = StepFunction(f.tail_left, f.breakpoints, f.point_values, f.right_constants)
    with pytest.raises(AssertionError, match=f"lattice disagrees with the {part} of f"):
        build_profile(f)


def piece_variation(profile, a, b):
    """The variation over (a, b) telescoped piece by piece in Fractions, the
    pieces' own end values and value_at: the oracle of the skeleton walk."""
    total = Fraction(0)
    for piece in pieces(profile):
        if piece.hi <= a or piece.lo >= b:
            continue
        start = piece.value_at(a) if piece.lo < a else piece.lo_value
        end = piece.value_at(b) if piece.hi > b else piece.hi_value
        total += abs(end - start)
    return total


def skeleton_corpus():
    """(f, profile of f): the oracle corpus, and the family profiles of the
    bench-shaped pairs at the scales 1, 2^-7 and 2^-14."""
    for f in oracle_corpus():
        yield f, build_profile(f)
    for f, g in bench_pairs():
        family = envelope.PerturbationFamily(f, g)
        for scale in (Fraction(1), Fraction(1, 2**7), Fraction(1, 2**14)):
            yield combine(f, g, 1, scale), family.profile(scale)


def windows_on_the_skeleton(f, profile):
    """Windows whose ends the slicing of a windowed variation must get
    right: an end on a junction, an end on a breakpoint, a window inside one
    piece, and each run of flat pieces whole, infinite ends included."""
    junctions = ends(profile)
    los, his = (NEG_INF, *junctions), (*junctions, POS_INF)
    windows = []
    for x in (*junctions[:1], *junctions[-1:], *f.breakpoints[:1], *f.breakpoints[-1:]):
        windows += [(x, x + Fraction(1, 3)), (x - Fraction(5, 2), x), (NEG_INF, x), (x, POS_INF)]
    if len(junctions) > 1:
        windows.append((junctions[0], junctions[-1]))
    for lo, hi in zip(los, his):
        if lo == NEG_INF:
            lo = hi - 3 if hi != POS_INF else Fraction(0)
        if hi == POS_INF:
            hi = lo + 3
        windows.append((lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3))
    flat = [b == d == 0 for _, b, _, d in profile.int_forms]
    start = None
    for k, is_flat in enumerate([*flat, False]):
        if is_flat and start is None:
            start = k
        elif not is_flat and start is not None:
            windows.append((los[start], his[k - 1]))
            start = None
    return windows


def test_built_skeleton_matches_its_pieces_and_the_hand_built_constructor(monkeypatch):
    # The build fills ends, end values and int forms straight from its cells;
    # profile_from_pieces derives them from the pieces.  Both skeletons must
    # read alike, and so must every walk over them, peaks included.
    isolate = envelope.isolate_quadratic_roots
    peaks = Counter()

    def counted(q):
        peaks["cells"] += 1
        return isolate(q)

    monkeypatch.setattr(envelope, "isolate_quadratic_roots", counted)
    rng = random.Random(31)
    previous = None
    for f, built in skeleton_corpus():
        view = pieces(built)
        assert ends(built) == tuple(piece.hi for piece in view[:-1])
        assert ends(built) == tuple(piece.lo for piece in view[1:])
        assert end_values(built) == (view[0].lo_value, *(piece.hi_value for piece in view))
        assert end_values(built)[1:-1] == tuple(piece.lo_value for piece in view[1:])
        for piece, form in zip(view, built.int_forms, strict=True):
            assert all(type(v) is int for v in form)
            k = next(v / c for v, c in zip(form, coeffs(piece)) if c)
            assert k > 0 and form == tuple(k * c for c in coeffs(piece))
        rebuilt = profile_from_pieces(view)
        assert variation_of_profile(built) == variation_of_profile(rebuilt)
        assert variation_of_profile(built).lo == piece_variation(built, NEG_INF, POS_INF)
        marks = sorted({*f.breakpoints, *ends(built)}) or [Fraction(0)]
        for a, b in (
            (rng.choice(marks), rng.choice(marks) + Fraction(rng.randint(1, 12), 4)),
            (rng.choice(marks) - Fraction(rng.randint(1, 12), 4), rng.choice(marks) + Fraction(1, 3)),
            *windows_on_the_skeleton(f, built),
        ):
            if a < b:
                assert variation_of_profile(built, a, b).lo == piece_variation(built, a, b)
        if previous is not None:
            prior_built, prior_rebuilt = previous
            assert bv_distance(built, prior_built, PRECISION) == bv_distance(rebuilt, prior_rebuilt, PRECISION)
        previous = built, rebuilt
    assert peaks["cells"] > 0  # the peak path, which reads the pieces, ran


def counted_tags(monkeypatch):
    counts = Counter()
    tags = envelope._tags

    def counted(*args):
        counts["tags"] += 1
        return tags(*args)

    monkeypatch.setattr(envelope, "_tags", counted)
    return counts


def test_distances_and_variations_make_no_tags(monkeypatch, tmp_path, capsys):
    # BV distances, profile variations, the detachment set, point values
    # and derivatives read only the skeleton: no profile's tags are made.
    counts = counted_tags(monkeypatch)
    scales = [Fraction(1, 2**j) for j in range(6)]
    continuity_experiment(TWO_BUMP, StepFunction.indicator(1, 2), scales)
    f = random_stepfn(10, n_max=9)
    path = tmp_path / "f.txt"
    path.write_text(serialize(f), encoding="utf-8")
    for bounds in ((), ("--from", "-2", "--to", "7/3")):
        assert main(["var", "--maximal", *bounds, "--file", str(path)]) == 0
    assert main(["e-set", "--file", str(path)]) == 0
    capsys.readouterr()
    profile = build_profile(f)
    junctions = ends(profile)
    assert len(junctions) > 1
    for x in (*f.breakpoints, *junctions):
        profile.value(x)
        for inside in (x - Fraction(1, 7), x + Fraction(1, 7)):
            if inside not in junctions:
                profile_derivative(profile, inside)
    assert counts == Counter()
    # A distance with a peak isolates the roots of its int forms' critical
    # quadratic, and still makes no tag.
    isolate = envelope.isolate_quadratic_roots

    def counted_isolate(q):
        counts["isolations"] += 1
        return isolate(q)

    monkeypatch.setattr(envelope, "isolate_quadratic_roots", counted_isolate)
    continuity_experiment(random_stepfn(10, n_max=9), random_stepfn(1010, n_max=9), scales)
    assert counts["isolations"] > 0 and counts["tags"] == 0


def test_continuity_experiment_makes_no_skeleton_fractions(monkeypatch):
    # Builds, distances and variations read the skeleton's int pairs, peaks
    # or not: a profile has no Fraction view of its junctions to make.
    calls = Counter()
    isolate = envelope.isolate_quadratic_roots

    def counted_isolate(q):
        calls["isolations"] += 1
        return isolate(q)

    monkeypatch.setattr(envelope, "isolate_quadratic_roots", counted_isolate)
    scales = [Fraction(1, 2**j) for j in range(15)]
    pairs = [(TWO_BUMP, StepFunction.indicator(1, 2)), (random_stepfn(10, n_max=9), random_stepfn(1010, n_max=9))]
    pairs += [(random_stepfn(seed, n_max=9), random_stepfn(seed + 1, n_max=9)) for seed in range(0, 12, 2)]
    for f, g in pairs:
        continuity_experiment(f, g, scales)
    assert calls["isolations"] > 0
    assert not hasattr(build_profile(TWO_BUMP), "ends")


def fraction_sum_of_steps(steps):
    return sum((abs(Fraction(*t) - Fraction(*s)) for s, t in steps), Fraction(0))


def test_sum_of_steps_matches_a_fraction_sum():
    # The sum at turning points, fed each step (s, t) as the two terms
    # (-d, s) and (d, t), d the sign of t - s: the sum of |t - s|.  Ints of a
    # few bits (one run) up to a few hundred (a run per step, many merge
    # levels), dens of either sign, lengths across partial counters.
    rng = random.Random(41)
    for bits in (3, 20, 300):
        for length in [*range(0, 20), 31, 32, 33, 200]:

            def draw():
                den = rng.randint(1, 2**bits) * rng.choice([-1, 1])
                return (rng.randint(-(2**bits), 2**bits), den)

            steps = [(draw(), draw()) for _ in range(length)]
            turns = []
            for s, t in steps:
                d = sign(Fraction(*t) - Fraction(*s))
                turns += [(-d, s), (d, t)]
            num, den = envelope._sum_at_turns(turns)
            assert den != 0 and Fraction(num, den) == fraction_sum_of_steps(steps)
            positive = [(c, (n, abs(d))) for c, (n, d) in turns]
            assert envelope._sum_at_turns(positive)[1] > 0


@pytest.mark.parametrize("part", ["ends", "end_values"])
def test_self_check_catches_a_skeleton_one_lattice_unit_off(monkeypatch, part):
    # The first junction, or the limit at -oo (the first end value), reduced
    # by the gcd of its lattice pair one unit off: the walk and its lattice
    # checks are untouched.  A dump prints the first junction from its end
    # pair, and the limit at -oo as the first piece's beta over delta (alpha
    # over gamma for a constant) from its int form, and makes no Fraction of
    # the skeleton: the way back of lowest_pair sees a pair that is not the
    # value.  No tag prints that pair, so the dump's text is what fails.  A
    # pair num/num reduces to p/p by any divisor, so the function is one
    # whose limit at -oo is not 1.
    f = exact_n_stepfn(random.Random(6), 6)
    built = build_profile(f)
    assert built.end_pairs
    a, b, g, d = built.int_forms[0]
    target = built.end_pairs[0] if part == "ends" else ((b, d) if d else (a, g))
    assert target[0] != target[1]
    gcd = math.gcd
    faulty = types.SimpleNamespace(**{**vars(math), "gcd": lambda num, den: gcd(num + ((num, den) == target), den)})
    monkeypatch.setattr(exact, "math", faulty)
    assert len(built.tags) == len(built.int_forms)
    with pytest.raises(AssertionError, match="profile skeleton disagrees with its lattice cells"):
        build_profile(f).dump()


def _shift_tag(tag, t):
    match = re.fullmatch(r"(left|right|const)\((.*)\)", tag)
    if match is None:
        return tag  # const:<tail_left|tail_right|local> has no position
    kind, body = match.groups()
    return f"{kind}({','.join(format_rat(parse_rat(q) + t) for q in body.split(','))})"


def test_translated_input_translates_the_profile():
    # M(f(. - t)) = (Mf)(. - t): every piece moves by t, so on it
    # (alpha + beta*(x - t))/(gamma + delta*(x - t)) gives alpha - beta*t and
    # gamma - delta*t, and every position in a tag moves by t.  A shift by
    # 1/7 also changes the common denominator of the breakpoints.
    t = Fraction(1, 7)
    rng = random.Random(103)
    for n in (1, 3, 8, 20):
        f = exact_n_stepfn(rng, n)
        moved = StepFunction(
            f.tail_left, [b + t for b in f.breakpoints], f.point_values, f.right_constants
        )
        before, after = pieces(build_profile(f)), pieces(build_profile(moved))
        assert len(before) == len(after)
        for p, q in zip(before, after):
            assert coeffs(q) == (p.alpha - p.beta * t, p.beta, p.gamma - p.delta * t, p.delta)
            assert (q.lo, q.hi) == tuple(e if e in (NEG_INF, POS_INF) else e + t for e in (p.lo, p.hi))
            assert (q.lo_value, q.hi_value) == (p.lo_value, p.hi_value)
            assert q.tag == _shift_tag(p.tag, t)


def test_scaled_input_scales_the_profile():
    # M(lambda*f) = |lambda|*Mf: alpha and beta scale, the poles and tags stay.
    lam = Fraction(-3, 5)
    rng = random.Random(107)
    for n in (1, 4, 12):
        f = exact_n_stepfn(rng, n)
        scaled = combine(f, StepFunction.constant(0), lam, 0)
        for p, q in zip(pieces(build_profile(f)), pieces(build_profile(scaled)), strict=True):
            assert coeffs(q) == (p.alpha * -lam, p.beta * -lam, p.gamma, p.delta)
            assert (q.lo, q.hi, q.tag) == (p.lo, p.hi, p.tag)


def test_profile_of_finely_perturbed_inputs_matches_the_engine():
    # f + 2^-14 * g with g on a grid of odd denominators: the breakpoints and
    # the constants have large common denominators.
    rng = random.Random(109)
    for _ in range(6):
        f = exact_n_stepfn(rng, 5)
        g = exact_n_stepfn(rng, 5)
        g = StepFunction(
            g.tail_left / 3,
            [b + Fraction(1, 7 * 11 * 13) for b in g.breakpoints],
            [v / 17 for v in g.point_values],
            [c / 19 for c in g.right_constants],
        )
        h = combine(f, g, 1, Fraction(1, 2**14))
        profile = build_profile(h)
        points = list(h.breakpoints)
        points += [Fraction(rng.randint(-40 * 97, 40 * 97), 97) for _ in range(20)]
        for x in points:
            assert profile.value(x) == maximal_value(h, x).value


def test_profile_of_an_all_integer_input_matches_the_engine():
    f = StepFunction(1, (-3, 0, 2, 5, 9), (4, -2, 0, 3, 1), (3, -2, 5, 1, 0))
    profile = build_profile(f)
    assert len(pieces(profile)) > 3
    for x in [Fraction(k, 2) for k in range(-14, 24)]:
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
    assert l1 == NEG_INF and h1 == 0
    assert l2 == 1 and h2 == POS_INF
    assert touch.intervals[0][0] == 0
    assert touch.intervals[0][1] == 1
    assert touch.contains(Fraction(1, 2)) and not regions.contains(Fraction(1, 2))
    assert regions.contains(-5) and not touch.contains(-5)


def test_detachment_regions_constant_and_two_bump():
    f = StepFunction.constant(4)
    regions, touch = detachment_regions(f, build_profile(f))
    assert regions.intervals == ()
    assert touch.intervals == ((NEG_INF, POS_INF),)

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
    enc = variation_of_profile(build_profile(CHI_01))
    assert enc.lo == enc.hi == 2

    enc = variation_of_profile(build_profile(StepFunction.constant(9)))
    assert enc.lo == enc.hi == 0

    enc = variation_of_profile(build_profile(TWO_BUMP))
    assert enc.lo == enc.hi == Fraction(8, 3)
    assert enc.hi <= variation_on(TWO_BUMP)


def test_variation_of_profile_windows():
    profile = build_profile(CHI_01)
    enc = variation_of_profile(profile, Fraction(1, 2), 3)
    assert enc.lo == enc.hi == Fraction(2, 3)  # falls 1 -> 1/3 on (1, 3)
    with pytest.raises(ValueError):
        variation_of_profile(profile, 1, 1)


def test_profile_end_values_are_the_limits_at_infinity():
    # The end pieces reach NEG_INF and POS_INF, and their end values there
    # are their limits (beta/delta, or alpha/gamma for a constant), both
    # the limit of the maximal function at infinity.
    rng = random.Random(211)
    inputs = [rand_stepfn(rng) for _ in range(60)] + [exact_n_stepfn(rng, n) for n in range(21)]
    for f in inputs:
        profile = build_profile(f)
        first, last = pieces(profile)[0], pieces(profile)[-1]
        assert first.lo == NEG_INF and last.hi == POS_INF
        limit = maximal_limit_at_infinity(f)
        assert first.lo_value == last.hi_value == limit
        assert end_values(profile)[0] == end_values(profile)[-1] == limit
        for piece in (first, last):
            assert limit == (piece.beta / piece.delta if piece.delta else piece.alpha / piece.gamma)
        # An end piece is monotone, so a window reaching an infinity adds the
        # gap between the limit and the value at a finite cut inside that piece.
        for _ in range(3):
            c = Fraction(rng.randint(-40, 90), 4)
            a = min(c, first.hi) - 1
            whole = variation_of_profile(profile, NEG_INF, c)
            part = variation_of_profile(profile, a, c)
            assert whole.lo == whole.hi == part.lo + abs(profile.value(a) - limit)
            b = max(c, last.lo) + 1
            whole = variation_of_profile(profile, c, POS_INF)
            part = variation_of_profile(profile, c, b)
            assert whole.lo == whole.hi == part.lo + abs(profile.value(b) - limit)


def test_contraction_property():
    rng = random.Random(73)
    for _ in range(60):
        f = rand_stepfn(rng)
        enc = variation_of_profile(build_profile(f))
        assert enc.hi <= variation_on(f)


def test_local_variation_bound_with_boundary_terms():
    rng = random.Random(79)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        adj = adjusted_modulus(f)
        a = Fraction(rng.randint(-40, 0), 4)
        b = a + Fraction(rng.randint(1, 40), 4)
        enc = variation_of_profile(profile, a, b)
        bound = (
            variation_on(adj, a, b)
            + abs(profile.value(a) - adj.value(a))
            + abs(profile.value(b) - adj.value(b))
        )
        assert enc.lo <= bound


def test_flat_on_touch_set():
    rng = random.Random(83)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        _, touch = detachment_regions(f, profile)
        for piece in pieces(profile):
            if piece.is_constant:
                continue
            for lo, hi in touch.intervals:
                # overlap of (piece.lo, piece.hi) with [lo, hi] must have no interior
                assert max(piece.lo, lo) >= min(piece.hi, hi)


def test_no_interior_local_maximum_in_detachment_set():
    rng = random.Random(89)
    for _ in range(40):
        f = rand_stepfn(rng)
        profile = build_profile(f)
        regions, _ = detachment_regions(f, profile)
        for lo, hi in regions.intervals:
            directions = []
            for piece in pieces(profile):
                if max(piece.lo, lo) >= min(piece.hi, hi):
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
    # lo <= 9 - 4*sqrt(2) <= hi, decided on rationals: 9 - lo >= sqrt(32) >= 9 - hi.
    assert 9 - enc.lo >= 0 and (9 - enc.lo) ** 2 >= 32
    assert 9 - enc.hi >= 0 and (9 - enc.hi) ** 2 <= 32
    assert enc.lo != enc.hi  # the value is irrational, so the width is positive


def partition_variation(p1, p2, points):
    """Variation of p1 - p2 sampled at the limits and the sorted points."""
    diffs = [end_values(p1)[0] - end_values(p2)[0]]
    diffs += [p1.value(x) - p2.value(x) for x in points]
    diffs.append(end_values(p1)[-1] - end_values(p2)[-1])
    return sum(abs(b - a) for a, b in zip(diffs, diffs[1:]))


def test_variation_of_difference_with_rational_critical_point():
    # On the cell (2, oo) the difference is 16/(9x) - 1/(x-1); its critical
    # quadratic 9x^2 - 16(x-1)^2 has the rational root x = 4, where the
    # difference peaks at 1/9.  The variation is exact and must count the
    # rise to that peak and the fall after it.
    p1 = build_profile(StepFunction.indicator(0, 1, value=Fraction(16, 9), closed=False))
    p2 = build_profile(StepFunction.indicator(1, 2, closed=False))
    enc = variation_of_difference(p1, p2, PRECISION)
    assert str(enc) == "3..3"

    junctions = sorted({*ends(p1), *ends(p2)})
    assert partition_variation(p1, p2, sorted({*junctions, Fraction(4)})) == 3
    assert partition_variation(p1, p2, junctions) < 3


def test_variation_of_difference_with_rational_critical_point_left_of_the_junctions():
    # The mirror image (x -> -x) of the test above: the peak sits at x = -4
    # in the unbounded cell (-oo, -2), where the sign of the critical
    # quadratic is read off its leading term.
    p1 = build_profile(StepFunction.indicator(-1, 0, value=Fraction(16, 9), closed=False))
    p2 = build_profile(StepFunction.indicator(-2, -1, closed=False))
    enc = variation_of_difference(p1, p2, PRECISION)
    assert str(enc) == "3..3"

    junctions = sorted({*ends(p1), *ends(p2)})
    assert partition_variation(p1, p2, sorted({*junctions, Fraction(-4)})) == 3
    assert partition_variation(p1, p2, junctions) < 3


def test_an_enclosure_needs_lo_at_most_hi():
    with pytest.raises(ValueError, match="enclosure needs lo <= hi"):
        envelope.VariationEnclosure((1, 1), (0, 1))


@pytest.mark.parametrize("measure", [variation_of_difference, bv_distance])
@pytest.mark.parametrize("precision", [0, Fraction(-1, 2)])
def test_a_difference_needs_a_positive_precision(measure, precision):
    profile = build_profile(StepFunction.indicator(0, 1))
    with pytest.raises(ValueError, match="precision must be positive"):
        measure(profile, profile, precision)


def test_variation_of_difference_narrows_a_bracket_off_the_poles():
    # -1/x and -(1 + 2^-60)/(x - 2^-42) on [2^-44, 3*2^-44]: the poles 0 and
    # 2^-42 are far closer to the irrational critical point
    # x* = 2^-42/(1 + sqrt(1 + 2^-60)) than the first round's bracket width
    # 2^-40, so the bracket is narrowed in quarter steps until neither piece
    # has its pole in it.
    s, t, pole = Fraction(1, 2**44), Fraction(3, 2**44), Fraction(1, 2**42)
    p1 = moebius_profile(Fraction(-1), Fraction(0), s, t)
    p2 = moebius_profile(-(1 + Fraction(1, 2**60)), -pole, s, t)
    enc = variation_of_difference(p1, p2, PRECISION)
    assert enc.width <= PRECISION
    # x* = pole*2^30/(2^30 + sqrt(2^60 + 1)), with sqrt(2^60 + 1) between R/2^K and (R + 1)/2^K
    k = 100
    r = math.isqrt((2**60 + 1) << 2 * k)
    around = [pole * 2**(30 + k) / (2**(30 + k) + r + e) for e in (1, 0)]
    assert s < around[0] < around[1] < t
    assert enc.lo <= partition_variation(p1, p2, [s, *around, t]) <= enc.hi


def test_variation_of_difference_with_linear_critical_quadratic_in_unbounded_cells():
    # Translated bumps: on (-oo, 0) the difference is 1/(1-x) - 1/(2-x) and on
    # (2, oo) it is 1/x - 1/(x-1).  Both critical quadratics are linear with
    # their root outside the cell, so toward -oo the sign is -sign(slope) and
    # there is no peak: each of the four cells is monotone and adds 1/2.
    p1 = build_profile(StepFunction.indicator(0, 1, closed=False))
    p2 = build_profile(StepFunction.indicator(1, 2, closed=False))
    for first, second in ((p1, p2), (p2, p1)):
        assert str(variation_of_difference(first, second, PRECISION)) == "2..2"
        junctions = sorted({*ends(first), *ends(second)})
        assert partition_variation(first, second, junctions) == 2


def test_both_roots_within_the_closed_cell():
    def within(q, s, t):
        s, t = pair(s), pair(t)
        return both_roots_within(q, s, t, sign_at(q, s), sign_at(q, t))
    # x^2 - 1 has roots -1 and 1.
    assert within((1, 0, -1), Fraction(-1), Fraction(1))
    assert within((-1, 0, 1), NEG_INF, Fraction(3))
    assert within((1, 0, -1), NEG_INF, POS_INF)
    assert not within((1, 0, -1), Fraction(-1), Fraction(1, 2))
    assert not within((1, 0, -1), Fraction(0), POS_INF)
    assert not within((1, 0, -1), Fraction(2), Fraction(3))
    assert not within((1, 0, -1), NEG_INF, Fraction(-2))
    # a double root counts twice; no real roots, a linear or a zero q none
    assert within((1, -2, 1), Fraction(0), Fraction(2))
    assert not within((1, 0, 1), NEG_INF, POS_INF)
    assert not within((0, 1, -1), NEG_INF, POS_INF)
    assert not within((0, 0, 0), NEG_INF, POS_INF)


def skewed_profile():
    """Hand-built pieces whose deltas are neither 0 nor 1, each with its
    pole outside its closed domain."""
    inner = [
        (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), Fraction(3, 2), Fraction(0), Fraction(2)),
        (Fraction(-5, 4), Fraction(2, 9), Fraction(5), Fraction(-2, 3), Fraction(2), Fraction(5)),
    ]
    middle = [
        MoebiusPiece(a, b, g, d, lo, hi, (a + b * lo) / (g + d * lo), (a + b * hi) / (g + d * hi), "hand-built")
        for a, b, g, d, lo, hi in inner
    ]
    first, last = middle[0].lo_value, middle[-1].hi_value
    return profile_from_pieces((
        MoebiusPiece(first, 0, 1, 0, NEG_INF, Fraction(0), first, first, "hand-built"),
        *middle,
        MoebiusPiece(last, 0, 1, 0, Fraction(5), POS_INF, last, last, "hand-built"),
    ))


def int_form_profiles():
    rng = random.Random(23)
    built = [build_profile(rand_stepfn(rng)) for _ in range(30)]
    hand = [
        skewed_profile(),
        moebius_profile(Fraction(-1), Fraction(0), Fraction(1, 2**44), Fraction(3, 2**44)),
        moebius_profile(Fraction(2, 3), Fraction(5, 7), Fraction(1, 2), Fraction(9, 4)),
    ]
    return built + hand


def test_int_forms_are_positive_int_multiples_with_the_same_end_values():
    for profile in int_form_profiles():
        assert len(profile.int_forms) == len(pieces(profile))
        for piece, form in zip(pieces(profile), profile.int_forms):
            assert all(type(v) is int for v in form)
            k = next(v / c for v, c in zip(form, coeffs(piece)) if c)
            assert k > 0 and form == tuple(k * c for c in coeffs(piece))
            a, b, g, d = form
            for end in (piece.lo, piece.hi):
                if end not in (NEG_INF, POS_INF):
                    assert Fraction(a + b * end) / (g + d * end) == piece.value_at(end)
    assert any(piece.delta not in (0, 1) for piece in pieces(skewed_profile()))


def test_int_critical_quadratic_has_the_sign_of_the_fraction_one():
    profiles = int_form_profiles()
    for p1, p2 in zip(profiles, profiles[1:] + profiles[:1]):
        bounds = [NEG_INF, *sorted({*ends(p1), *ends(p2)}), POS_INF]
        for m1, form1 in zip(pieces(p1), p1.int_forms):
            for m2, form2 in zip(pieces(p2), p2.int_forms):
                q = difference_critical_quadratic(form1, form2)
                exact = difference_critical_quadratic(coeffs(m1), coeffs(m2))
                assert all(type(v) is int for v in q)
                for x in bounds:
                    assert sign_at(q, pair(x)) == sign_at(exact, pair(x))


def test_profile_junctions_are_rational():
    # Candidates on one segment share their leading coefficient, so envelope
    # crossings always solve linear equations: junctions stay rational.
    rng = random.Random(101)
    for _ in range(50):
        profile = build_profile(rand_stepfn(rng))
        assert all(type(p) is type(q) is int and q > 0 for p, q in profile.end_pairs)


def test_locate_matches_bisection_of_the_junction_fractions():
    # _locate on the int pairs against bisect_left/bisect_right on their
    # Fractions: at every junction, between each two, and past both ends,
    # on the benchmark generator's profiles and on family profiles of its
    # pairs, whose pairs are not reduced.
    profiles = [build_profile(StepFunction.constant(1))]
    profiles += [build_profile(bench_stepfn(seed, n)) for n in (3, 8, 16) for seed in range(3)]
    for f, g in bench_pairs(2):
        family = envelope.PerturbationFamily(f, g)
        profiles += [family.profile(s) for s in (1, Fraction(1, 8), Fraction(-1, 3))]
    located = 0
    for profile in profiles:
        junctions = ends(profile)
        marks = [junctions[0] - 1, *junctions, junctions[-1] + 1] if junctions else [Fraction(0)]
        mids = [(s + t) / 2 for s, t in zip(marks, marks[1:])]
        for x in (*marks, *mids):
            i, at_junction = envelope._locate(profile.end_pairs, x)
            assert i == bisect_left(junctions, x)
            assert i + at_junction == bisect_right(junctions, x)
            located += at_junction
    assert located == sum(len(profile.end_pairs) for profile in profiles) > len(profiles)


def test_bv_distance_examples():
    profile_f = build_profile(CHI_01)
    enc = bv_distance(profile_f, profile_f, PRECISION)
    assert enc.lo == enc.hi == 0

    g = combine(CHI_01, StepFunction.indicator(0, 1, value=Fraction(1, 100)))
    enc = bv_distance(profile_f, build_profile(g), PRECISION)
    assert enc.lo <= Fraction(1, 50) <= enc.hi
    assert enc.hi <= Fraction(1, 25)  # well under 2*bv_norm(f-g) + limit gap

    # A hand-built profile and the same function with every coefficient of
    # its constant end pieces negated (gamma = -1), whose end forms have
    # negative dens: the limit gap and the distance keep their sign.
    hand = skewed_profile()
    negated = negated_ends(hand)
    assert negated.int_forms[0][2] < 0 and negated.int_forms[-1][2] < 0
    for other in (profile_f, hand):
        assert bv_distance(negated, other, PRECISION) == bv_distance(hand, other, PRECISION) == bv_distance(other, negated, PRECISION)
    assert bv_distance(negated, profile_f, PRECISION).lo > 0


def negated_ends(profile):
    """The hand-built profile with every coefficient of its constant end
    pieces negated (gamma = -1): the same function, whose end forms have
    negative dens."""
    view = pieces(profile)
    return profile_from_pieces((
        replace(view[0], alpha=-view[0].alpha, gamma=-1), *view[1:-1], replace(view[-1], alpha=-view[-1].alpha, gamma=-1),
    ))


def test_bv_distance_on_random_pairs_is_symmetric_and_nonnegative():
    rng = random.Random(97)
    for _ in range(10):
        f = rand_stepfn(rng, n_max=4)
        g = rand_stepfn(rng, n_max=4)
        pf, pg = build_profile(f), build_profile(g)
        fg = bv_distance(pf, pg, PRECISION)
        gf = bv_distance(pg, pf, PRECISION)
        assert fg.lo >= 0
        assert abs(fg.midpoint - gf.midpoint) <= PRECISION


def test_bv_distance_base_matches_the_step_function_limits():
    # The limit gap comes off the profiles' end values; the oracle reads it
    # off the step functions' tails instead.
    rng = random.Random(223)
    inputs = [rand_stepfn(rng) for _ in range(30)] + [exact_n_stepfn(rng, n) for n in range(13)]
    for f, g in zip(inputs, inputs[1:] + inputs[:1]):
        pf, pg = build_profile(f), build_profile(g)
        base = abs(maximal_limit_at_infinity(f) - maximal_limit_at_infinity(g))
        spread = variation_of_difference(pf, pg, PRECISION)
        enc = bv_distance(pf, pg, PRECISION)
        assert (enc.lo, enc.hi) == (base + spread.lo, base + spread.hi)


def _distance_cases():
    """Pairs of profiles with their precision: the benchmark's kind of pairs
    and the irrational-peak pairs of ``tests/golden/distances.txt``, each f
    against f + s*g, random corpus pairs, and the hand-built profiles with
    negated end forms against each other and a built one."""
    scales = [Fraction(1, 2**j) for j in range(6)]
    for f, g in bench_pairs():
        family, profile_f = envelope.PerturbationFamily(f, g), build_profile(f)
        for scale in scales[::2]:
            yield family.profile(scale), profile_f, PRECISION
    for seed in (10, 30):
        f, g = random_stepfn(seed, n_max=9), random_stepfn(seed + 1000, n_max=9)
        family, profile_f = envelope.PerturbationFamily(f, g), build_profile(f)
        for scale in scales:
            for precision in (PRECISION, Fraction(1, 10**15)):
                yield family.profile(scale), profile_f, precision
    for seed in range(0, 40, 2):
        yield build_profile(random_stepfn(seed)), build_profile(random_stepfn(seed + 1)), PRECISION
    hand = skewed_profile()
    built = build_profile(CHI_01)
    for p1 in (hand, negated_ends(hand)):
        for p2 in (hand, negated_ends(hand), built):
            yield p1, p2, PRECISION
            yield p2, p1, PRECISION


def test_bv_distance_is_the_limit_gap_plus_the_difference_variation():
    # The distance's walk starts as if d came from 0 before -oo: its ends are
    # |d(-oo)| plus those of the variation of d, lo for lo and hi for hi, and
    # it is exact when the variation is.  The gap is read off the profiles'
    # Fraction end values, not off the walk.
    wide = negative = 0
    for p1, p2, precision in _distance_cases():
        gap = abs(end_values(p1)[0] - end_values(p2)[0])
        spread = variation_of_difference(p1, p2, precision)
        enc = bv_distance(p1, p2, precision)
        assert (enc.lo, enc.hi) == (gap + spread.lo, gap + spread.hi)
        assert (enc.lo_pair is enc.hi_pair) == (spread.lo_pair is spread.hi_pair)
        wide += enc.lo < enc.hi
        negative += p1.int_forms[0][2] < 0 and gap > 0
    assert wide > 0 and negative > 0
