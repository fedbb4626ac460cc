"""Shared helpers: small random inputs and independent brute-force oracles.

The oracles here deliberately avoid the closed-form shortcuts used by the
library: variation is estimated by sweeping ever finer partitions, and
maximal values by maximizing averages over sampled intervals.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction

from hypothesis import strategies as st

from maxbv.envelope import MaximalProfile, MoebiusPiece
from maxbv.stepfn import NEG_INF, POS_INF, AbsIntegral, StepFunction, variation_on_partition


def rand_fraction(rng, bound=3, denom=4):
    d = rng.randint(1, denom)
    return Fraction(rng.randint(-bound * d, bound * d), d)


def rand_stepfn(rng, n_max=5, bound=3, denom=4, span=8):
    n = rng.randint(0, n_max)
    points = set()
    while len(points) < n:
        d = rng.randint(1, denom)
        points.add(Fraction(rng.randint(-span * d, span * d), d))
    bps = sorted(points)
    tail = rand_fraction(rng, bound, denom)
    cons = [rand_fraction(rng, bound, denom) for _ in range(n)]
    vals = []
    for k in range(n):
        pick = rng.random()
        left = tail if k == 0 else cons[k - 1]
        if pick < 0.35:
            vals.append(left)
        elif pick < 0.7:
            vals.append(cons[k])
        else:
            vals.append(rand_fraction(rng, bound, denom))
    return StepFunction(tail, tuple(bps), tuple(vals), tuple(cons))


def exact_n_stepfn(rng, n):
    """A step function with exactly n breakpoints, one per 4-wide slot, and
    tails of size at most 1 below interior values of size up to 3, so that
    long intervals often carry the maximal function."""
    bps = [4 * k + Fraction(rng.randrange(16), 4) for k in range(n)]
    tail = rand_fraction(rng, bound=1)
    constants = []
    for k in range(n):
        previous = constants[-1] if constants else tail
        c = previous
        while c == previous:  # keeps every breakpoint
            c = rand_fraction(rng, bound=1 if k == n - 1 else 3)
        constants.append(c)
    values = [rand_fraction(rng) for _ in range(n)]
    return StepFunction(tail, bps, values, constants)


def sweep_variation(f, a, b, rounds=4):
    """Partition-refinement lower bounds for Var_(a,b): nondecreasing in the
    round count, converging to the true value for step functions."""
    assert a < b
    best = Fraction(0)
    values = []
    for r in range(1, rounds + 1):
        cells = 40 * r
        pts = [a + (b - a) * Fraction(i, cells + 1) for i in range(1, cells + 1)]
        for x in f.breakpoints:
            if a < x < b:
                gap = min(x - a, b - x) / (3 * r)
                pts.extend([x - gap, x, x + gap])
        pts = sorted(set(pts))
        est = variation_on_partition(f, pts)
        assert est >= best
        best = est
        values.append(est)
    return values


def interval_average_oracle(f, x, rng, count=300, span=12):
    """Best average of |f| over sampled finite intervals containing x, plus
    the four limit candidates.  Always a lower bound for the maximal value."""
    integ = AbsIntegral(f)
    consts = f.constants
    best = max(
        abs(consts[0]),
        abs(consts[-1]),
        abs(f.left_limit(x)),
        abs(f.right_limit(x)),
    )
    for _ in range(count):
        a = x - Fraction(rng.randint(0, span * 64), 64)
        b = x + Fraction(rng.randint(0, span * 64), 64)
        if a < b:
            best = max(best, integ.average(a, b))
    return best


def midpoint(lo, hi):
    """A rational inside the open interval (lo, hi), whose ends may be
    NEG_INF/POS_INF: where the piece-based references read a cell."""
    if lo == NEG_INF:
        return Fraction(0) if hi == POS_INF else hi - 1
    return lo + 1 if hi == POS_INF else (lo + hi) / 2


def moebius_profile(alpha, gamma, s, t):
    """The profile alpha/(gamma + x) on [s, t], constant at its end values
    outside; a hand-built profile, not the maximal function of a step function."""
    piece = MoebiusPiece(alpha, 0, gamma, 1, s, t, alpha / (gamma + s), alpha / (gamma + t), "hand-built")
    left = MoebiusPiece(piece.lo_value, 0, 1, 0, NEG_INF, s, piece.lo_value, piece.lo_value, "hand-built")
    right = MoebiusPiece(piece.hi_value, 0, 1, 0, t, POS_INF, piece.hi_value, piece.hi_value, "hand-built")
    return profile_from_pieces((left, piece, right))


def int_form(coefficients):
    """Coefficients times the lcm k of their denominators: an int tuple for
    the same Moebius function, whose det is k**2 times theirs."""
    k = math.lcm(*[v.denominator for v in coefficients])
    return tuple([v.numerator * (k // v.denominator) for v in coefficients])


def pair(x):
    """A walk bound as the envelope's int pair: (num, den) for a rational,
    (-1, 0) and (1, 0) for NEG_INF and POS_INF."""
    if x == NEG_INF:
        return (-1, 0)
    if x == POS_INF:
        return (1, 0)
    return (x.numerator, x.denominator)


def profile_from_pieces(pieces):
    """A profile of hand-built pieces, its skeleton derived from them: the
    junctions and the end values as int pairs, each piece's int form and
    its tag."""
    pieces = tuple(pieces)
    profile = MaximalProfile(
        tuple([pair(piece.hi) for piece in pieces[:-1]]),
        tuple([pair(v) for v in (pieces[0].lo_value, *[piece.hi_value for piece in pieces])]),
        tuple([int_form(piece.coefficients) for piece in pieces]),
        None,
    )
    profile._tags = tuple([piece.tag for piece in pieces])
    profile._pieces = pieces
    return profile


def piece_containing(profile, x):
    """The piece whose closed domain holds x (the left one at a junction)."""
    return profile.pieces[bisect_left(profile.ends, x)]


values = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))


@st.composite
def step_functions(draw, n_min=0, n_max=7):
    """Step functions on a quarter grid of [-10, 10] with small values."""
    grid = draw(st.lists(st.integers(-40, 40), unique=True, min_size=n_min, max_size=n_max))
    n = len(grid)
    return StepFunction(
        draw(values),
        tuple(Fraction(g, 4) for g in sorted(grid)),
        tuple(draw(st.lists(values, min_size=n, max_size=n))),
        tuple(draw(st.lists(values, min_size=n, max_size=n))),
    )
