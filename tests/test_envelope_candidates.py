"""The build's candidate ranges and ordered-stack walk, against the general
envelope walk over whole hull chains that they replaced, and the dump
printed from the int skeleton against the dump lines of its pieces.

On segment k the build hands ``_stack_walk`` only the chain vertices
between the links of the segment's two ends whose average at the segment's
end on their side is above its constant, on each side, in the order the
envelope meets them, and the walk pushes and pops each at most once.  The
reference is the same build with ``_anchors`` replaced by ``whole_chain``,
every vertex of every chain, as every segment once took them, and
``_upper_envelope`` below, which restarts from
the current winner at every piece and so assumes no order, in place of the
stack: both must give the same candidates on the same segments, int forms
and dumps, and the same junctions and values as rationals; on the family
profiles of bench-shaped pairs, the same skeleton tuples.  The count guards
hold the candidates to O(n) and the crossings to twice the candidates.
"""

import random
from fractions import Fraction

import pytest

from maxbv import envelope
from maxbv.envelope import PerturbationFamily, build_profile
from maxbv.stepfn import StepFunction
from maxbv.verify import random_stepfn
from conftest import after, bench_pairs, bench_stepfn, exact_n_stepfn, order, pieces
from test_family import SCALES, family_corpus


def increasing(n, right_tail=0):
    """Levels 1, ..., n - 1 on unit segments between n breakpoints, left tail
    0: the antiderivative is convex, so every earlier point is a vertex of
    the lower chain.  With right tail n the profile is one constant."""
    levels = (*range(1, n), right_tail)
    return StepFunction(0, tuple(range(n)), levels, levels)


def hump(n):
    """The concave hump: levels (k(n - k) + 1)/n on unit segments."""
    levels = (*[Fraction(k * (n - k) + 1, n) for k in range(1, n)], 0)
    return StepFunction(0, tuple(range(n)), levels, levels)


CONVEX = {
    "increasing": increasing,
    "hump": hump,
    "increasing, right tail n": lambda n: increasing(n, n),
}


def tie_heavy(rng):
    """Integer breakpoints and small integer levels, so that anchors are often
    collinear and candidates often tie."""
    n = rng.randint(1, 12)
    xs = sorted(rng.sample(range(-12, 13), n))
    tail = rng.randint(-2, 2)
    constants, values = [], []
    for k in range(n):
        constants.append(rng.randint(-3, 3))
        values.append(rng.choice([tail if k == 0 else constants[k - 1], constants[k], rng.randint(-3, 3)]))
    return StepFunction(tail, tuple(xs), tuple(values), tuple(constants))


def corpus():
    for seed in range(3000):
        yield random_stepfn(seed)
    for n in range(1, 61):
        for seed in range(20):
            yield exact_n_stepfn(random.Random(seed), n)
    for family in CONVEX.values():
        for n in (20, 40, 80, 160):
            yield family(n)
    rng = random.Random(113)
    for _ in range(500):
        yield tie_heavy(rng)


def collinear_points(f):
    """How many consecutive triples of the lattice points (X, P) are collinear."""
    _, _, xs, _, ps = f.lattice
    points = list(zip(xs, ps))
    return sum(
        (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in zip(points, points[1:], points[2:])
    )


def whole_chain(points, links, i, stop, c):
    """Every vertex of the chain after the point i, nearest first: the
    anchors of a segment before link ranges and pruning."""
    vertices = []
    while links[i] >= 0:
        i = links[i]
        vertices.append(i)
    return vertices


def _largest(candidates, x):
    """The first of the candidates largest at x."""
    winner = candidates[0]
    for cand in candidates[1:]:
        if order(cand, winner, x) > 0:
            winner = cand
    return winner


def _upper_envelope(candidates, lo, hi):
    """Envelope of distinct candidates, in any order, over the open lattice
    segment from lo to hi, each the pair (X, 1) of a breakpoint or
    ``_NEG_END``/``_POS_END`` at an infinite end: the general walk.  Its
    cells are [lo, hi, candidate], and the last one ends at hi.

    Two distinct candidates meet at most once (their crossing equation is
    linear), and their difference changes sign there, because no candidate
    has a pole on the closed segment.  So the walk starts from the candidate
    that is largest just right of lo, and each next piece starts at the
    earliest crossing where another candidate overtakes the current winner;
    of several candidates overtaking at the same point, the one that is
    larger just to its right wins (they all meet there, so their order is
    fixed up to hi).  Candidates tied at a finite lo likewise keep one order
    on the whole segment.
    """
    # An anchored candidate with beta*gamma = alpha*delta is the level ell
    # identically: |f| averages ell between its anchor and the segment.
    # Whole chains can hold such an anchor, ``_anchors`` never admits one
    # (``test_link_ranges_build_the_whole_chain_profile`` checks it), and
    # the constant c >= ell covers it, so it goes before the walk.
    candidates = [cand for cand in candidates if not cand[3] or cand[1] * cand[2] != cand[0] * cand[3]]
    crossing = envelope._crossing
    v, w = hi
    if not lo[1]:  # lo is -oo, so hi = (v, 1) is finite
        winner = candidates[0]
        for cand in candidates[1:]:
            x = crossing(cand, winner)
            sample = (x[0] - x[1], x[1]) if x is not None and x[0] < v * x[1] else (v - 1, 1)
            if order(cand, winner, sample) > 0:
                winner = cand
    else:
        tied = [candidates[0]]
        for cand in candidates[1:]:
            sign = order(cand, tied[0], lo)
            if sign > 0:
                tied = [cand]
            elif sign == 0:
                tied.append(cand)
        winner = _largest(tied, after(lo, hi))
    # A candidate that does not cross the winner after the current start
    # stays below it, and so below the envelope, up to hi: it is dropped.
    alive = [cand for cand in candidates if cand is not winner]
    cells = []
    start = lo
    while True:
        ahead = []
        for cand in alive:
            x = crossing(winner, cand)
            if x is not None and start[0] * x[1] < x[0] * start[1] and x[0] * w < v * x[1]:
                ahead.append((x, cand))
        if not ahead:
            cells.append([start, hi, winner])
            return cells
        nearest = ahead[0][0]
        for x, _ in ahead[1:]:
            if x[0] * nearest[1] < nearest[0] * x[1]:
                nearest = x
        cells.append([start, nearest, winner])
        # The old winner and the rivals not chosen meet the new winner at
        # `nearest` and stay below it from there on.
        at_nearest = [x[0] * nearest[1] == nearest[0] * x[1] for x, _ in ahead]
        winner = _largest([cand for (_, cand), hit in zip(ahead, at_nearest) if hit], after(nearest, hi))
        alive = [cand for (_, cand), hit in zip(ahead, at_nearest) if not hit]
        start = nearest


def same_rationals(pairs, others):
    """Whether two sequences of int pairs stand for the same rationals."""
    return len(pairs) == len(others) and all(x[0] * y[1] == y[0] * x[1] for x, y in zip(pairs, others))


def assert_same_profile(built, reference):
    """Piece for piece, the same int form on the same lattice (so the same
    candidate), the same junctions (so the same values at them), the same
    tags and the same dump."""
    assert built._tag_source == reference._tag_source
    assert built.int_forms == reference.int_forms
    assert same_rationals(built.end_pairs, reference.end_pairs)
    assert built.tags == reference.tags
    assert built.dump() == reference.dump()


def test_link_ranges_build_the_whole_chain_profile(monkeypatch):
    # No walk of the build itself gets an anchored candidate that is the
    # level ell identically, beta*gamma = alpha*delta: an anchor that
    # ``_anchors`` admits averages above c >= ell at its own end.  So the
    # build needs no guard against one.
    seen = {"walks": 0, "anchored": 0}
    stack_walk = envelope._stack_walk

    def checked(candidates, lo, hi):
        anchored = [(a, b, g, d) for a, b, g, d in candidates if d]
        assert all(b * g != a * d for a, b, g, d in anchored)
        seen["walks"] += 1
        seen["anchored"] += len(anchored)
        return stack_walk(candidates, lo, hi)

    monkeypatch.setattr(envelope, "_stack_walk", checked)

    def general(build, *args):
        """The profile built with whole chains and the general walk."""
        with monkeypatch.context() as patched:
            patched.setattr(envelope, "_anchors", whole_chain)
            patched.setattr(envelope, "_stack_walk", _upper_envelope)
            return build(*args)

    inputs = ties = 0
    for f in corpus():
        built = build_profile(f)
        assert_same_profile(built, general(build_profile, f))
        assert built.dump() == "".join(f"{piece.dump_line()}\n" for piece in pieces(built))
        inputs += 1
        ties += collinear_points(f) > 0
    assert inputs == 4712 and ties > 100
    for f, g in family_corpus():
        family = PerturbationFamily(f, g)
        for s in SCALES:
            assert_same_profile(family.profile(s), general(family.profile, s))
    assert seen["walks"] > 10**4 and seen["anchored"] > 10**4, seen


def test_bench_shaped_family_profiles_build_the_whole_chain_profile(monkeypatch):
    # The continuity workload's builds: family profiles of pairs from the
    # benchmark's generator, g at BV norm 1/8, at the 15 scales 1 ... 2^-14,
    # then the same with whole chains and the general walk.  Here the two
    # builds agree tuple for tuple, not just as rationals.
    families = [PerturbationFamily(f, g) for f, g in bench_pairs()]
    runs = [(family, s, family.profile(s)) for family in families for s in SCALES]
    monkeypatch.setattr(envelope, "_anchors", whole_chain)
    monkeypatch.setattr(envelope, "_stack_walk", _upper_envelope)
    for family, s, built in runs:
        reference = family.profile(s)
        assert built.end_pairs == reference.end_pairs
        assert built.int_forms == reference.int_forms
        assert built._tag_source == reference._tag_source
        assert built.dump() == reference.dump()


def counted_candidates(monkeypatch):
    counts = []
    stack_walk = envelope._stack_walk

    def counted(candidates, lo, hi):
        counts.append(len(candidates))
        return stack_walk(candidates, lo, hi)

    monkeypatch.setattr(envelope, "_stack_walk", counted)
    return counts


@pytest.mark.parametrize("seed", [0, 1])
def test_candidates_stay_linear_on_the_bench_generator(monkeypatch, seed):
    f = bench_stepfn(seed, 640)
    assert f.n == 640
    counts = counted_candidates(monkeypatch)
    build_profile(f)
    assert len(counts) == f.n + 1 and sum(counts) <= 6 * f.n + 6


@pytest.mark.parametrize("family", CONVEX)
def test_candidates_stay_linear_on_convex_inputs(monkeypatch, family):
    # Each point joins the chain once and is popped at most once, so the
    # bounded segments share at most 2n anchors; the two unbounded segments
    # take their chain whole, at most n each.
    counts = counted_candidates(monkeypatch)
    for n in (20, 160, 320):
        f = CONVEX[family](n)
        counts.clear()
        build_profile(f)
        assert len(counts) == f.n + 1 and sum(counts) <= 6 * f.n + 6


def test_anchors_at_or_below_the_constant_are_left_out(monkeypatch):
    # With right tail n the profile is the one constant n, and every anchor's
    # average stays below it: each segment hands the walk the constant alone.
    # The same link ranges unpruned (a constant of -1, below every average of
    # |f|) give 3n - 1 candidates.
    counts = counted_candidates(monkeypatch)
    for n in (20, 160, 640):
        counts.clear()
        build_profile(increasing(n, n))
        assert counts == [1] * (n + 1)
    anchors = envelope._anchors
    monkeypatch.setattr(envelope, "_anchors", lambda points, links, i, stop, c: anchors(points, links, i, stop, -1))
    counts.clear()
    build_profile(increasing(640, 640))
    assert sum(counts) == 3 * 640 - 1


@pytest.mark.parametrize(
    "make", [*CONVEX.values(), lambda n: bench_stepfn(0, n // 2)], ids=[*CONVEX, "bench generator"]
)
def test_crossings_stay_within_twice_the_candidates(monkeypatch, make):
    # Each comparison of the walk solves one crossing and then pushes or
    # drops the new candidate or pops the top; each candidate is pushed or
    # dropped once and popped at most once.  At n = 1280 the general walk
    # made 818,562 crossings on `increasing` for 3,839 candidates.
    f = make(1280)
    counts = counted_candidates(monkeypatch)
    crossings = []
    crossing = envelope._crossing

    def counted(c1, c2):
        crossings.append(None)
        return crossing(c1, c2)

    monkeypatch.setattr(envelope, "_crossing", counted)
    build_profile(f)
    assert len(crossings) <= 2 * sum(counts)
