"""Shared helpers: small random inputs and independent brute-force oracles.

The oracles here deliberately avoid the closed-form shortcuts used by the
library: variation is estimated by sweeping ever finer partitions, and
maximal values by maximizing averages over sampled intervals.  A profile is
its int skeleton and tags; ``pieces`` gives the piece-based references a
``MoebiusPiece`` view of it, with ``Fraction`` coefficients and ends.
"""

import math
import random
import sys
import types
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from maxbv.envelope import MaximalProfile
from maxbv.exact import format_rat, rat, sign
from maxbv.stepfn import NEG_INF, POS_INF, AbsIntegral, StepFunction, parse, variation_on_partition

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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


@lru_cache(maxsize=1)
def bench_workloads():
    """The benchmark's input generator.  It is compiled from its source
    text, so nothing is written under ``bench/``."""
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module  # where its dataclasses look it up
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def bench_stepfn(seed, n):
    """The benchmark generator's function with exactly n breakpoints, read
    as the program reads it."""
    bench = bench_workloads()
    return parse(bench.stepfn_text(*bench.exact_n_stepfn(random.Random(seed), n)))


def bench_pairs(count=7):
    """``count`` pairs (f, g) for each n in 3, 5 and 8, made as the
    benchmark's continuity workload makes its pairs: two functions of its
    generator with exactly n breakpoints, g rescaled to BV norm 1/8, read as
    the program reads them.  The workload seeds its generator with strings,
    so these int seeds give pairs it never runs; of the first seven at
    n = 8, one has irrational distances at every scale."""
    bench = bench_workloads()
    for n in (3, 5, 8):
        for seed in range(1000, 1000 + count):
            rng = random.Random(seed)
            f, g = bench.exact_n_stepfn(rng, n), bench.exact_n_stepfn(rng, n)
            scale = bench.PERTURBATION_NORM / bench.bv_norm(*g)
            g = (g[0] * scale, g[1], [v * scale for v in g[2]], [c * scale for c in g[3]])
            yield parse(bench.stepfn_text(*f)), parse(bench.stepfn_text(*g))


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


@dataclass(frozen=True)
class MoebiusPiece:
    """x -> (alpha + beta*x)/(gamma + delta*x) on a domain with exact ends:
    the Fraction view of one piece of a profile, read by the piece-based
    references.

    ``lo``/``hi`` are domain endpoints (NEG_INF/POS_INF for the infinities)
    and ``lo_value``/``hi_value`` the profile values there; at an infinite
    end, the limit of the piece there (beta/delta, or alpha/gamma for a
    constant).  The denominator has no zero on the closed domain, so the
    piece is monotone throughout.
    ``tag`` names the candidate that carries the piece: ``left(a)``,
    ``right(b)``, ``const(a,b)`` or ``const:<tail_left|tail_right|local>``.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    lo: object
    hi: object
    lo_value: Fraction
    hi_value: Fraction
    tag: str

    @property
    def coefficients(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def is_constant(self) -> bool:
        return self.beta == 0 and self.delta == 0

    @property
    def direction(self) -> int:
        """Monotonicity: the sign of the derivative, constant on the domain."""
        return sign(self.beta * self.gamma - self.alpha * self.delta)

    def value_at(self, x) -> Fraction:
        x = rat(x)
        den = self.gamma + self.delta * x
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole of a profile piece")
        return (self.alpha + self.beta * x) / den

    def dump_line(self) -> str:
        cells = [self.lo, self.hi, self.alpha, self.beta, self.gamma, self.delta]
        return "\t".join([*[format_rat(v) for v in cells], self.tag])


class HandBuiltProfile(MaximalProfile):
    """A profile made from hand-built pieces, which it keeps as given."""

    __slots__ = ("given",)


def ends(profile):
    """The junctions, the Fractions of the profile's end pairs."""
    return tuple(Fraction(p, q) for p, q in profile.end_pairs)


def end_values(profile):
    """The limit at -oo, the value at each junction and the limit at +oo,
    read off the int forms: the first form's limit, beta/delta (alpha/gamma
    for a constant), the form of the piece right of each junction there, and
    the last form's limit."""
    forms = profile.int_forms
    limits = [Fraction(b, d) if d else Fraction(a, g) for a, b, g, d in (forms[0], forms[-1])]
    at_junctions = [Fraction(a * q + b * p, g * q + d * p) for (p, q), (a, b, g, d) in zip(profile.end_pairs, forms[1:])]
    return (limits[0], *at_junctions, limits[1])


@lru_cache(maxsize=128)  # a reference reads one profile's pieces many times
def pieces(profile):
    """The profile's pieces over ``ends``, ``end_values`` and its int forms
    and tags (a hand-built profile's, as given).  Each coefficient is its
    int form's over delta (gamma for a constant), and the way back checks
    it against the form."""
    if isinstance(profile, HandBuiltProfile):
        return profile.given
    junctions = ends(profile)
    los, his, values = (NEG_INF, *junctions), (*junctions, POS_INF), end_values(profile)
    view = []
    for i, (form, tag) in enumerate(zip(profile.int_forms, profile.tags, strict=True)):
        k = form[3] or form[2]
        piece = MoebiusPiece(*[Fraction(c, k) for c in form], los[i], his[i], values[i], values[i + 1], tag)
        for v, c in zip(piece.coefficients, form):
            if v.numerator * k != c * v.denominator:
                raise AssertionError("profile piece disagrees with its lattice cell")
        view.append(piece)
    return tuple(view)


def moebius_profile(alpha, gamma, s, t):
    """The profile alpha/(gamma + x) on [s, t], constant at its end values
    outside; a hand-built profile, not the maximal function of a step function."""
    piece = MoebiusPiece(alpha, 0, gamma, 1, s, t, alpha / (gamma + s), alpha / (gamma + t), "hand-built")
    left = MoebiusPiece(piece.lo_value, 0, 1, 0, NEG_INF, s, piece.lo_value, piece.lo_value, "hand-built")
    right = MoebiusPiece(piece.hi_value, 0, 1, 0, t, POS_INF, piece.hi_value, piece.hi_value, "hand-built")
    return profile_from_pieces((left, piece, right))


def int_form(coefficients):
    """Rationals times the lcm k of their denominators, as ints of the same
    signs: for a piece's coefficients, the same Moebius function, whose det
    is k**2 times theirs; for a quadratic's, one with the same roots."""
    k = math.lcm(*[v.denominator for v in coefficients])
    return tuple([v.numerator * (k // v.denominator) for v in coefficients])


def level0_bracket(q, branch):
    """The isolating bracket of width 1/(2a) of the root on this branch of
    the int quadratic q, a > 0, from isqrt of its discriminant."""
    a, b, c = q
    r = math.isqrt(b * b - 4 * a * c)
    lo = Fraction(-b + r, 2 * a) if branch > 0 else Fraction(-b - r - 1, 2 * a)
    return lo, lo + Fraction(1, 2 * a)


def bisect_below(q, lo, hi, width):
    """Bisect [lo, hi], which holds one irrational root of the quadratic q,
    until it is at most width wide."""
    a, b, c = q
    sign_lo = sign((a * lo + b) * lo + c)
    while hi - lo > width:
        mid = (lo + hi) / 2
        sign_mid = sign((a * mid + b) * mid + c)
        assert sign_mid != 0
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def least_level(a, bits, level=0):
    """The least level, not below the given one, whose bracket width
    1/(2a*2**level) is at most 2**-bits."""
    while Fraction(1, 2 * a * 2**level) > Fraction(1, 2**bits):
        level += 1
    return level


def pair(x):
    """A walk bound as the envelope's int pair: (num, den) for a rational,
    (-1, 0) and (1, 0) for NEG_INF and POS_INF."""
    if x == NEG_INF:
        return (-1, 0)
    if x == POS_INF:
        return (1, 0)
    return (x.numerator, x.denominator)


def order(c1, c2, x):
    """The sign of the lattice candidates c1 - c2 at the lattice point x
    (no pole there): the comparison the build's stack walk makes inline."""
    p, q = x
    n1, d1 = c1[0] * q + c1[1] * p, c1[2] * q + c1[3] * p
    n2, d2 = c2[0] * q + c2[1] * p, c2[2] * q + c2[3] * p
    diff = n1 * d2 - n2 * d1
    if (d1 > 0) != (d2 > 0):
        diff = -diff
    return (diff > 0) - (diff < 0)


def after(x, hi):
    """A lattice point between x and the bound hi, (v, 1) or +oo, (1, 0)."""
    p, q = x
    v, w = hi
    return (p + v * q, 2 * q) if w else (p + q, q)


def difference_critical_quadratic(c1, c2):
    """det1*(gamma2 + delta2*x)**2 - det2*(gamma1 + delta1*x)**2 for two
    coefficient tuples (alpha, beta, gamma, delta), ints or rationals.  Off
    the poles, the derivative of the difference has its sign; scaling the
    tuples by k1, k2 > 0 scales it by k1**2 * k2**2."""
    a1, b1, g1, e1 = c1
    a2, b2, g2, e2 = c2
    det1, det2 = b1 * g1 - a1 * e1, b2 * g2 - a2 * e2
    return (
        det1 * e2 * e2 - det2 * e1 * e1,
        2 * (det1 * g2 * e2 - det2 * g1 * e1),
        det1 * g2 * g2 - det2 * g1 * g1,
    )


def sign_at(q, x):
    """Sign of the quadratic q at the walk bound x, an int pair; at an
    infinite end, its sign toward that infinity, where its leading term
    decides it."""
    a, b, c = q
    n, d = x
    if not d:  # the -oo or +oo pair
        return sign(a) or sign(n) * sign(b) or sign(c)
    return sign((a * n + b * d) * n + c * d * d)


def both_roots_within(q, s, t, at_s, at_t):
    """Whether the int quadratic q, whose signs at the bounds s and t are
    at_s and at_t, has both its roots (a double root counts twice) in the
    closed cell [s, t]: q is real-rooted, not on its inner branch at either
    end, and its vertex lies between them."""
    a, b, c = q
    slope = (0, 2 * a, b)
    return (
        a != 0
        and b * b >= 4 * a * c
        and at_s * a >= 0
        and at_t * a >= 0
        and sign_at(slope, s) * a <= 0 <= sign_at(slope, t) * a
    )


def profile_from_pieces(given):
    """A profile of hand-built pieces, its skeleton derived from them: the
    junctions as int pairs, each piece's int form and its tag."""
    given = tuple(given)
    profile = HandBuiltProfile(
        tuple([pair(piece.hi) for piece in given[:-1]]),
        tuple([int_form(piece.coefficients) for piece in given]),
        None,
    )
    profile._tags = tuple([piece.tag for piece in given])
    profile.given = given
    return profile


def piece_containing(profile, x):
    """The piece whose closed domain holds x (the left one at a junction)."""
    return pieces(profile)[bisect_left(ends(profile), x)]


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
