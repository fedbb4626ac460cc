"""Independent oracles, randomized corpora, and experiment harnesses.

Everything here is deliberately redundant with the exact engines: the
interval oracle maximizes averages over sampled grids without knowing that
optima sit on breakpoints, the invariant suite re-checks every structural
invariant over random corpora with shrinking of failures, the continuity
experiment drives perturbations to zero and watches BV distances of maximal
functions, and the divergence construction reproduces, exactly, a family
where the perturbation's growing support keeps those distances away from
zero even though the perturbations themselves vanish in BV norm.

The divergence family is truncated to finitely many humps (K of them, with
K at least n+1).  Dropping humps beyond the perturbation's support only
removes candidate mass, so every asserted value is unchanged: the left tail
still forces the maximal function of the base function to be identically 1,
hump midpoints still average to 1 + 1/n, and gap midpoints stay at most 1.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Envelope names are read through the module, so that the divergence
# family, which builds no profile, never loads it (see ``maxbv._lazy``).
from . import envelope as env
from . import maximal as mx
from . import stepfn as sf
from .exact import Rat, format_pair, format_rat, rat, sign
from .stepfn import AbsIntegral, StepFunction


# --- randomized corpus -----------------------------------------------------

_VALUE_BOUND = 3
_DENOM_BOUND = 4
_CORPUS_SPAN = 8
_SAMPLE_SPAN = 12
_GRID_OFFSET = Fraction(1, 997)


def random_stepfn(seed: int, n_max: int = 6) -> StepFunction:
    """Deterministic pseudo-random step function with bounded-height data.

    Signed values and occasional free-standing point values are drawn so
    that sign-crossing and point-jump behaviour both appear across a seed
    sweep.
    """
    rng = random.Random(seed)
    n = rng.randint(0, n_max)
    points = set()
    while len(points) < n:
        den = rng.randint(1, _DENOM_BOUND)
        points.add(Fraction(rng.randint(-_CORPUS_SPAN * den, _CORPUS_SPAN * den), den))
    breakpoints = tuple(sorted(points))

    def draw_value():
        den = rng.randint(1, _DENOM_BOUND)
        return Fraction(rng.randint(-_VALUE_BOUND * den, _VALUE_BOUND * den), den)

    tail = draw_value()
    constants = [draw_value() for _ in range(n)]
    values = []
    for k in range(n):
        pick = rng.random()
        left = tail if k == 0 else constants[k - 1]
        if pick < 0.35:
            values.append(left)
        elif pick < 0.7:
            values.append(constants[k])
        else:
            values.append(draw_value())
    return StepFunction(tail, breakpoints, tuple(values), tuple(constants))


def sample_points(f: StepFunction, rng: random.Random, count: int = 20) -> List[Rat]:
    """Query points mixing breakpoints, near-breakpoint offsets and randoms."""
    points = set(f.breakpoints)
    for x in f.breakpoints:
        points.add(x + Fraction(1, 17))
        points.add(x - Fraction(1, 19))
    # Random points of the grid k/8 of [-_SAMPLE_SPAN, _SAMPLE_SPAN] until
    # there are enough, or until the points so far and the draws take it all.
    grid = {x for x in points if 8 % x.denominator == 0 and abs(x) <= _SAMPLE_SPAN}
    while len(points) < count + 3 * f.n and len(grid) <= 16 * _SAMPLE_SPAN:
        x = Fraction(rng.randint(-_SAMPLE_SPAN * 8, _SAMPLE_SPAN * 8), 8)
        points.add(x)
        grid.add(x)
    return sorted(points)


# --- interval oracle -------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for the interval oracle.

    ``endpoint_count`` controls a uniform endpoint grid of that many steps
    across [x - span, x + span], shifted by 1/997 of a grid step so that
    endpoints avoid breakpoints; ``random_count`` adds seeded random
    intervals, and ``zoom_rounds`` refines locally around the best pair
    found.  Everything is deterministic given the seed.
    """

    endpoint_count: int = 24
    span: Rat = Fraction(16)
    random_count: int = 120
    seed: int = 0
    zoom_rounds: int = 2


def oracle_maximal(f: StepFunction, x, grid: GridSpec) -> Rat:
    """Best average of |f| over sampled intervals containing x, plus the four
    limit candidates.  A guaranteed lower bound for the maximal value."""
    x = rat(x)
    integ = AbsIntegral(f)
    consts = f.constants
    best = max(abs(consts[0]), abs(consts[-1]), abs(f.left_limit(x)), abs(f.right_limit(x)))
    best_finite: Optional[Tuple[Rat, Rat]] = None
    best_finite_value = None

    def consider(lefts: Sequence[Rat], rights: Sequence[Rat]):
        """Every interval (a, b) around x with a in lefts and b in rights, in
        that order; the antiderivative is evaluated once per endpoint."""
        nonlocal best, best_finite, best_finite_value
        right_ends = [(b, integ.at(b)) for b in rights if x <= b]
        for a in lefts:
            if x < a:
                continue
            at_a = integ.at(a)
            for b, at_b in right_ends:
                if a < b:
                    value = (at_b - at_a) / (b - a)
                    if best_finite_value is None or value > best_finite_value:
                        best_finite_value = value
                        best_finite = (a, b)
                    if value > best:
                        best = value

    span = rat(grid.span)
    step = None
    if grid.endpoint_count > 0:
        step = 2 * span / grid.endpoint_count
        shift = step * _GRID_OFFSET
        points = [x - span + i * step + shift for i in range(grid.endpoint_count + 1)]
        lefts = [p for p in points if p <= x] + [x]
        rights = [p for p in points if p >= x] + [x]
        consider(lefts, rights)
    rng = random.Random(grid.seed)
    for _ in range(grid.random_count):
        a = x - span * Fraction(rng.randint(0, 4096), 4096)
        b = x + span * Fraction(rng.randint(0, 4096), 4096)
        consider((a,), (b,))
    spacing = step if step is not None else span / 8
    for _ in range(grid.zoom_rounds):
        if best_finite is None:
            break
        spacing = spacing / 4
        a0, b0 = best_finite
        offsets = [i * spacing for i in range(-5, 6)]
        consider([a0 + d for d in offsets], [b0 + d for d in offsets])
    return best


# --- divergence construction -----------------------------------------------

# Points on which the report checks that the base function's maximal
# function is identically 1.
SAMPLE_COUNT = 50


def counterexample_functions(n: int, K: int) -> Tuple[StepFunction, StepFunction]:
    """Base function (left tail 1, K humps of height 1 on (4k-2, 4k)) and its
    perturbed companion carrying an extra 1/n on (0, 4n+2)."""
    breakpoints: List[Rat] = [Fraction(0)]
    constants: List[Rat] = [Fraction(0)]
    for k in range(1, K + 1):
        breakpoints.extend((Fraction(4 * k - 2), Fraction(4 * k)))
        constants.extend((Fraction(1), Fraction(0)))
    values = tuple(Fraction(0) for _ in breakpoints)
    base = StepFunction(1, tuple(breakpoints), values, tuple(constants))
    bump = StepFunction.indicator(0, 4 * n + 2, closed=False)
    perturbed = sf.combine(base, bump, 1, Fraction(1, n))
    return base, perturbed


@dataclass(frozen=True)
class CounterexampleReport:
    n: int
    K: int
    norm_delta: Rat
    norm_ok: bool
    base_maximal_ok: bool
    bump_ok: bool
    gap_ok: bool
    partition_variation: Rat
    partition_ok: bool

    @property
    def passed(self) -> bool:
        return self.norm_ok and self.base_maximal_ok and self.bump_ok and self.gap_ok and self.partition_ok

    def lines(self) -> List[str]:
        def verdict(ok: bool) -> str:
            return "PASS" if ok else "FAIL"

        return [
            f"n={self.n} K={self.K}",
            f"bv_norm(perturbed - base) = {format_rat(self.norm_delta)} == 2/{self.n} : {verdict(self.norm_ok)}",
            f"maximal(base) == 1 at {SAMPLE_COUNT} sample points : {verdict(self.base_maximal_ok)}",
            f"maximal(perturbed)(4k-1) == 1 + 1/{self.n} for k <= {self.n} : {verdict(self.bump_ok)}",
            f"maximal(perturbed)(4k+1) <= 1 for k <= {self.n} : {verdict(self.gap_ok)}",
            f"Var(P_{self.n}) >= 2 : {verdict(self.partition_ok)}",
        ]

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def counterexample(n: int, K: Optional[int] = None) -> CounterexampleReport:
    """Exact reproduction of the divergence family at truncation K >= n+1."""
    if n < 3:
        raise ValueError("the gap bound max{1, 2/3 + 1/n} = 1 needs n >= 3")
    if K is None:
        K = n + 2
    if K < n + 1:
        raise ValueError("truncation K must be at least n + 1")
    base, perturbed = counterexample_functions(n, K)

    norm_delta = sf.bv_norm(sf.combine(perturbed, base, 1, -1))
    norm_ok = norm_delta == Fraction(2, n)

    hi = Fraction(4 * K + 10)
    lo = Fraction(-10)
    samples = [lo + (hi - lo) * Fraction(i, SAMPLE_COUNT - 1) for i in range(SAMPLE_COUNT)]
    base_maximal_ok = all(mx.maximal_value(base, x).value == 1 for x in samples)

    bump_ok = all(
        mx.maximal_value(perturbed, 4 * k - 1).value == 1 + Fraction(1, n)
        for k in range(1, n + 1)
    )
    gap_ok = all(
        mx.maximal_value(perturbed, 4 * k + 1).value <= 1 for k in range(0, n + 1)
    )

    partition = [Fraction(2 * i + 1) for i in range(2 * n + 1)]  # 1, 3, ..., 4n+1
    differences = [
        mx.maximal_value(perturbed, p).value - mx.maximal_value(base, p).value
        for p in partition
    ]
    partition_variation = sum(
        (abs(differences[i + 1] - differences[i]) for i in range(len(differences) - 1)),
        Fraction(0),
    )
    partition_ok = partition_variation >= 2

    return CounterexampleReport(
        n, K, norm_delta, norm_ok, base_maximal_ok, bump_ok, gap_ok,
        partition_variation, partition_ok,
    )


# --- continuity experiment -------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    index: int
    scale: Rat
    delta_norm: Rat
    distance: env.VariationEnclosure
    variation: env.VariationEnclosure


def _at_most(x: env.Pair, y: env.Pair) -> bool:
    """x <= y for two int pairs with den > 0, by cross-multiplication."""
    return x[0] * y[1] <= y[0] * x[1]


@dataclass(frozen=True)
class ContinuityReport:
    """Per-scale record of BV distances and maximal variations, with verdicts.

    The pass thresholds are calibration knobs, not theorems: the continuity
    being exercised is qualitative, so the harness pins down configured
    scales and tolerances to emit a binary verdict.

    The report keeps the enclosures that ``bv_distance`` and
    ``variation_of_profile`` return, and the perturbation's BV norm as an
    int pair.  The verdicts compare the enclosures' int pairs, in lowest
    terms with den > 0, with the threshold and the variation gap by
    cross-multiplication (``_at_most``), and ``to_tsv`` prints each
    enclosure with ``str``: neither makes a Fraction.  ``rows`` is a view
    made on first read, which adds each scale's index and delta norm.  Each
    verdict is computed on its first read and kept: the report prints all
    three and its caller reads ``passed`` again.
    """

    scales: Tuple[Rat, ...]
    distances: Tuple[env.VariationEnclosure, ...]
    variations: Tuple[env.VariationEnclosure, ...]
    base_variation: env.VariationEnclosure
    perturbation_norm: env.Pair
    threshold: Rat
    variation_gap: Rat
    tail_count: int

    def _delta_norm(self, scale: Rat) -> env.Pair:
        """The BV norm of f_j - f at this scale, scale times the
        perturbation's, as the int pair (p*n, q*d)."""
        num, den = self.perturbation_norm
        return scale.numerator * num, scale.denominator * den

    @cached_property
    def rows(self) -> Tuple[ExperimentRow, ...]:
        return tuple([
            ExperimentRow(index, scale, Fraction(*self._delta_norm(scale)), distance, variation)
            for index, (scale, distance, variation) in enumerate(zip(self.scales, self.distances, self.variations), start=1)
        ])

    @cached_property
    def final_distance_ok(self) -> bool:
        threshold = self.threshold
        return _at_most(self.distances[-1].hi_pair, (threshold.numerator, threshold.denominator))

    @cached_property
    def distance_eventually_nonincreasing(self) -> bool:
        tail = self.distances[-self.tail_count:]
        return all(_at_most(second.lo_pair, first.hi_pair) for first, second in zip(tail, tail[1:]))

    @cached_property
    def variation_converged(self) -> bool:
        # Variations of profiles are exact (width-zero enclosures), so the gap
        # between two of them and the distance of their midpoints are the same
        # number, |v_j - v_base|; it must fit inside the configured gap.
        gap = (self.variation_gap.numerator, self.variation_gap.denominator)
        base_num, base_den = self.base_variation.lo_pair
        tail = [variation.lo_pair for variation in self.variations[-self.tail_count:]]
        return all(_at_most((abs(num * base_den - base_num * den), den * base_den), gap) for num, den in tail)

    @cached_property
    def passed(self) -> bool:
        return (
            self.final_distance_ok
            and self.distance_eventually_nonincreasing
            and self.variation_converged
        )

    def to_tsv(self) -> str:
        lines = ["j\tscale\tbv_norm_delta\tbv_distance\tvar_maximal_j\tvar_maximal_base"]
        base = str(self.base_variation)
        for index, (scale, distance, variation) in enumerate(zip(self.scales, self.distances, self.variations), start=1):
            lines.append(
                "\t".join(
                    (
                        str(index),
                        format_rat(scale),
                        format_pair(*self._delta_norm(scale)),
                        str(distance),
                        str(variation),
                        base,
                    )
                )
            )
        lines.append(f"# final_distance_hi<=threshold\t{self.final_distance_ok}")
        lines.append(f"# distance_eventually_nonincreasing\t{self.distance_eventually_nonincreasing}")
        lines.append(f"# variation_converged\t{self.variation_converged}")
        lines.append(f"# verdict\t{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def checked_scales(scales: Sequence[Rat]) -> List[Fraction]:
    """The scales as rationals, at least one, checked positive and strictly
    decreasing: by cross-multiplication, p2/q2 >= p1/q1 when p2*q1 >= p1*q2."""
    scales = [rat(s) for s in scales]
    if not scales or any(s.numerator <= 0 for s in scales):
        raise ValueError("scales must be positive")
    if any(
        second.numerator * first.denominator >= first.numerator * second.denominator
        for first, second in zip(scales, scales[1:])
    ):
        raise ValueError("scales must be strictly decreasing")
    return scales


def continuity_experiment(
    f: StepFunction,
    perturbation: StepFunction,
    scales: Sequence[Rat],
    precision=Fraction(1, 10**9),
    threshold=Fraction(1, 1000),
    variation_gap=Fraction(1, 1000),
    tail_count: int = 5,
) -> ContinuityReport:
    """Drive f_j = f + scale_j * perturbation and record BV behaviour.

    Scales must decrease strictly toward zero and the perturbation is a
    fixed BV function, so the perturbed family converges to f in BV norm:
    the hypotheses under which distances must vanish.  The scales are
    checked on their ints, by cross-multiplication.  The report's verdicts
    read its last ``tail_count`` rows, so tail_count must be at least 1.

    Every f_j is built on one ``envelope.PerturbationFamily`` lattice, read
    off the cached lattices of f and the perturbation, each made and checked
    against its function's rationals once, in one int merge of their points:
    the merged breakpoints, their scale D and points X, and the signed int
    levels of both functions.  Per scale s = p/q: the levels |f + s*g| in the
    unit E = e_f*e_g*q, the antiderivative values and any breakpoint that
    canonical form would drop there, read on rationals only between two
    equal levels; the build then checks and emits each piece in its walks'
    one pass.  E is a positive multiple of the lcm that ``build_profile``
    would take on ``stepfn.combine(f, perturbation, 1, s)``, and every
    reported value is printed in lowest terms, so the report is the same
    byte for byte.  ``envelope.bv_distance`` and
    ``envelope.variation_of_profile`` read only the profiles' junction pairs
    and int forms, peaks included: they make no Fraction of a junction, of
    a value or of an enclosure end, and no tag.  The perturbation's BV norm
    n/d is read once, and each row's delta norm is the pair (p*n, q*d):
    f_j - f = s * perturbation pointwise and s > 0.  The report keeps the
    enclosures and that pair (see ``ContinuityReport``).
    """
    scales = checked_scales(scales)
    if tail_count < 1:
        raise ValueError("tail_count must be at least 1")

    profile_f = env.build_profile(f)
    norm = sf.bv_norm(perturbation)
    family = env.PerturbationFamily(f, perturbation)
    distances, variations = [], []
    for scale in scales:
        profile_j = family.profile(scale)
        distances.append(env.bv_distance(profile_j, profile_f, precision))
        variations.append(env.variation_of_profile(profile_j))
    return ContinuityReport(
        tuple(scales), tuple(distances), tuple(variations), env.variation_of_profile(profile_f),
        (norm.numerator, norm.denominator), rat(threshold), rat(variation_gap), tail_count,
    )


# --- invariant suite -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    subject: str
    check: str
    passed: bool
    detail: str = ""
    witness: Optional[str] = None


@dataclass(frozen=True)
class InvariantSuiteReport:
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_tsv(self) -> str:
        lines = ["subject\tcheck\tstatus\tdetail"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            detail = r.detail if r.passed or not r.witness else f"{r.detail} witness={r.witness!r}"
            lines.append(f"{r.subject}\t{r.check}\t{status}\t{detail}")
        lines.append(f"# verdict\t{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _drop_breakpoint_range(f: StepFunction, start: int, count: int) -> StepFunction:
    keep = [i for i in range(f.n) if not (start <= i < start + count)]
    return StepFunction(
        f.tail_left,
        tuple(f.breakpoints[i] for i in keep),
        tuple(f.point_values[i] for i in keep),
        tuple(f.right_constants[i] for i in keep),
    )


def shrink_failure(f: StepFunction, still_fails: Callable[[StepFunction], bool]) -> StepFunction:
    """Reduce the breakpoint count while the predicate keeps failing.

    Halving passes followed by single drops; every candidate reduction is
    re-checked before being accepted.
    """
    current = f
    progress = True
    while progress and current.n > 0:
        progress = False
        for chunk in sorted({max(1, current.n // 2), max(1, current.n // 4), 1}, reverse=True):
            for start in range(0, current.n, chunk):
                candidate = _drop_breakpoint_range(current, start, chunk)
                if candidate.n < current.n:
                    try:
                        failing = still_fails(candidate)
                    except Exception:
                        failing = True
                    if failing:
                        current = candidate
                        progress = True
                        break
            if progress:
                break
    return current


def _profile(f: StepFunction, ctx: Dict[str, object]):
    """f's profile, built on the first read and kept in the context."""
    if "profile" not in ctx:
        ctx["profile"] = env.build_profile(f)
    return ctx["profile"]


def _regions(f: StepFunction, ctx: Dict[str, object]):
    """f's detachment regions and touch set, made on the first read and kept
    in the context."""
    if "regions" not in ctx:
        ctx["regions"] = env.detachment_regions(f, _profile(f, ctx))
    return ctx["regions"]


def _check_modulus_identity(f, ctx):
    windows = [(sf.NEG_INF, sf.POS_INF), (Fraction(-3), Fraction(2))]
    for a, b in windows:
        lhs = sf.variation_on(f, a, b) - sf.variation_on(sf.modulus(f), a, b)
        if lhs != sf.modulus_defect(f, a, b):
            return False, f"window ({format_rat(a)},{format_rat(b)})"
    return True, ""


def _check_partition_bound(f, ctx):
    rng = ctx["rng"]
    for _ in range(6):
        pts = sorted({Fraction(rng.randint(-40, 40), 4) for _ in range(5)})
        if len(pts) < 2:
            continue
        if sf.variation_on_partition(f, pts) > sf.variation_on(f, pts[0] - 1, pts[-1] + 1):
            return False, f"partition {','.join(map(format_rat, pts))}"
    return True, ""


def _check_adjusted_modulus_bounds(f, ctx):
    adj = sf.adjusted_modulus(f)
    m = sf.modulus(f)
    for x in f.breakpoints:
        lo_lim, hi_lim = m.left_limit(x), m.right_limit(x)
        value = adj.value(x)
        if not (max(lo_lim, hi_lim) == value):
            return False, f"breakpoint {format_rat(x)}"
    return True, ""


def _check_maximal_ge_adjusted(f, ctx):
    adj = sf.adjusted_modulus(f)
    for x in sample_points(f, ctx["rng"], count=10):
        if mx.maximal_value(f, x).value < adj.value(x):
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_point_value_insensitivity(f, ctx):
    if f.n == 0:
        return True, "no breakpoints"
    rng = ctx["rng"]
    k = rng.randrange(f.n)
    values = list(f.point_values)
    values[k] += Fraction(rng.randint(1, 3), 2)
    g = StepFunction(f.tail_left, f.breakpoints, tuple(values), f.right_constants)
    for x in (f.breakpoints[k], f.breakpoints[0] - 1, f.breakpoints[-1] + Fraction(1, 3)):
        if mx.maximal_value(f, x).value != mx.maximal_value(g, x).value:
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_tail_convergence(f, ctx):
    if f.n == 0:
        return True, "constant"
    limit = mx.maximal_limit_at_infinity(f)
    previous = None
    for t in range(1, 13):
        gap = mx.maximal_value(f, f.breakpoints[-1] + 2**t).value - limit
        if gap < 0 or (previous is not None and gap > previous):
            return False, f"t={t}"
        previous = gap
    return True, ""


def _check_candidate_dominance(f, ctx):
    rng = ctx["rng"]
    grid = GridSpec(endpoint_count=12, random_count=60, seed=rng.randrange(2**30), zoom_rounds=1)
    for x in sample_points(f, rng, count=6)[:8]:
        if oracle_maximal(f, x, grid) > mx.maximal_value(f, x).value:
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_profile_agreement(f, ctx):
    profile = _profile(f, ctx)
    for x in sample_points(f, ctx["rng"], count=12):
        if profile.value(x) != mx.maximal_value(f, x).value:
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_contraction(f, ctx):
    enclosure = env.variation_of_profile(_profile(f, ctx))
    if enclosure.hi > sf.variation_on(f):
        return False, f"var={enclosure}"
    return True, ""


def _check_local_variation_bound(f, ctx):
    rng = ctx["rng"]
    profile = _profile(f, ctx)
    adj = sf.adjusted_modulus(f)
    for _ in range(4):
        a = Fraction(rng.randint(-40, 0), 4)
        b = a + Fraction(rng.randint(1, 40), 4)
        enclosure = env.variation_of_profile(profile, a, b)
        bound = (
            sf.variation_on(adj, a, b)
            + abs(profile.value(a) - adj.right_limit(a))
            + abs(profile.value(b) - adj.left_limit(b))
        )
        if enclosure.lo > bound:
            return False, f"window ({format_rat(a)},{format_rat(b)})"
    return True, ""


def _bounds(profile) -> Tuple:
    """NEG_INF, the profile's junctions, POS_INF: piece i spans bounds i and
    i + 1, and meets an interval (lo, hi) in a set with interior when
    max(bounds[i], lo) < min(bounds[i + 1], hi)."""
    return (sf.NEG_INF, *[Fraction(p, q) for p, q in profile.end_pairs], sf.POS_INF)


def _check_flat_on_touch(f, ctx):
    profile = _profile(f, ctx)
    _, touch = _regions(f, ctx)
    bounds = _bounds(profile)
    for i, (_, b, _, d) in enumerate(profile.int_forms):
        if b == d == 0:  # a constant
            continue
        for lo, hi in touch.intervals:
            if max(bounds[i], lo) < min(bounds[i + 1], hi):
                return False, f"piece {profile.tags[i]}"
    return True, ""


def _check_derivative_formula(f, ctx):
    rng = ctx["rng"]
    profile = _profile(f, ctx)
    regions, _ = _regions(f, ctx)
    limit = mx.maximal_limit_at_infinity(f)
    tested = 0
    for _ in range(30):
        x = Fraction(rng.randint(-48, 48), 5)
        if not regions.contains(x):
            continue
        try:
            derivative = env.profile_derivative(profile, x)
        except ValueError:
            continue
        mv = mx.maximal_value(f, x)
        if mv.one_sided_witness is None:
            if mv.value != limit or derivative != 0:
                return False, f"x={format_rat(x)} flat case"
            continue
        # |f| on the witness's side of x: at a breakpoint the derivative
        # follows the interval (x, w.b) or (w.a, x), not the point value f(x).
        w = mv.one_sided_witness
        expected = (
            (mv.value - abs(f.right_limit(x))) / (w.b - x)
            if w.a == x
            else (abs(f.left_limit(x)) - mv.value) / (x - w.a)
        )
        if derivative != expected:
            return False, f"x={format_rat(x)}"
        tested += 1
    return True, f"{tested} points"


def _check_finite_difference(f, ctx):
    rng = ctx["rng"]
    profile = _profile(f, ctx)
    bounds = _bounds(profile)
    for _ in range(4):
        x = Fraction(rng.randint(-40, 40), 7)
        try:
            derivative = env.profile_derivative(profile, x)
        except ValueError:
            continue
        # The first three steps 2^-t (t >= 6) whose window stays in x's piece:
        # across a junction the difference quotient sees another piece.
        i = bisect_left(bounds, x)
        start, stop = bounds[i - 1 : i + 1]
        steps: List[Fraction] = []
        h = Fraction(1, 2**6)
        while len(steps) < 3:
            if start <= x - h and x + h <= stop:
                steps.append(h)
            h /= 2
        for h in steps:
            approx = (profile.value(x + h) - profile.value(x - h)) / (2 * h)
            if abs(approx - derivative) > h:
                return False, f"x={format_rat(x)}"
    return True, ""


def _check_no_interior_max(f, ctx):
    profile = _profile(f, ctx)
    regions, _ = _regions(f, ctx)
    bounds = _bounds(profile)
    # Each piece's direction, the sign of its form's b*g - a*d.
    directions = [sign(b * g - a * d) for a, b, g, d in profile.int_forms]
    for lo, hi in regions.intervals:
        inside = [
            way for i, way in enumerate(directions) if way and max(bounds[i], lo) < min(bounds[i + 1], hi)
        ]
        for first, second in zip(inside, inside[1:]):
            if first > 0 > second:
                return False, "rise then fall inside one component"
    return True, ""


def _check_uniform_control_values(pair, ctx):
    f, g = pair
    budget = 2 * sf.bv_norm(sf.combine(f, g, 1, -1))
    for x in sample_points(f, ctx["rng"], count=8):
        if abs(f.value(x) - g.value(x)) > budget:
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_uniform_control_maximal(pair, ctx):
    f, g = pair
    budget = 2 * sf.bv_norm(sf.combine(f, g, 1, -1))
    for x in sample_points(f, ctx["rng"], count=8):
        if abs(mx.maximal_value(f, x).value - mx.maximal_value(g, x).value) > budget:
            return False, f"x={format_rat(x)}"
    return True, ""


def _check_combine_exact(pair, ctx):
    f, g = pair
    rng = ctx["rng"]
    alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    beta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    h = sf.combine(f, g, alpha, beta)
    for x in sample_points(f, rng, count=6):
        if h.value(x) != alpha * f.value(x) + beta * g.value(x):
            return False, f"x={format_rat(x)}"
    return True, ""


_SINGLE_CHECKS = [
    ("modulus_identity", _check_modulus_identity),
    ("partition_bound", _check_partition_bound),
    ("adjusted_modulus_bounds", _check_adjusted_modulus_bounds),
    ("maximal_ge_adjusted", _check_maximal_ge_adjusted),
    ("point_value_insensitivity", _check_point_value_insensitivity),
    ("tail_convergence", _check_tail_convergence),
    ("candidate_dominance", _check_candidate_dominance),
    ("profile_agreement", _check_profile_agreement),
    ("contraction", _check_contraction),
    ("local_variation_bound", _check_local_variation_bound),
    ("flat_on_touch", _check_flat_on_touch),
    ("derivative_formula", _check_derivative_formula),
    ("finite_difference", _check_finite_difference),
    ("no_interior_max", _check_no_interior_max),
]

_PAIR_CHECKS = [
    ("uniform_control_values", _check_uniform_control_values),
    ("uniform_control_maximal", _check_uniform_control_maximal),
    ("combine_exact", _check_combine_exact),
]


def _run_check(check, subject, ctx: Dict[str, object]) -> Tuple[bool, str]:
    """Run one check.  A crash, in the check or in making an object it reads
    from the context, is a failure that names the exception."""
    try:
        return check(subject, ctx)
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"


def _single_context(seed: int, index: int) -> Dict[str, object]:
    return {"rng": random.Random(seed * 1_000_003 + index)}


def invariant_suite(corpus: Sequence[StepFunction], seed: int = 0) -> InvariantSuiteReport:
    """Run every structural invariant over the corpus, shrinking failures.

    Execution is sequential with deterministic ordering (corpus order, then
    check registration order); the arithmetic is pure CPython, so threads
    would serialize on the interpreter lock anyway.  A check that raises is
    reported as a failure, and the remaining checks still run.  A check
    reads f's profile and regions through ``_profile`` and ``_regions``, so
    a crash in making one is charged to each check that reads it.  A failing
    single check's witness is f shrunk on a fresh context; a failing pair
    check's is f's file followed by g's.
    """
    if not corpus:
        raise ValueError("invariant_suite needs a nonempty corpus")
    results: List[CheckResult] = []
    for index, f in enumerate(corpus):
        # One context, and so one random stream, serves all checks of f.
        ctx = _single_context(seed, index)
        for name, check in _SINGLE_CHECKS:
            ok, detail = _run_check(check, f, ctx)
            witness = None if ok else sf.serialize(
                shrink_failure(f, lambda g: not _run_check(check, g, _single_context(seed, index))[0])
            )
            results.append(CheckResult(f"fn[{index}]", name, ok, detail, witness))
    for index, pair in enumerate(zip(corpus, corpus[1:])):
        ctx = {"rng": random.Random(seed * 2_000_003 + index)}
        for name, check in _PAIR_CHECKS:
            ok, detail = _run_check(check, pair, ctx)
            witness = None if ok else "".join(map(sf.serialize, pair))
            results.append(CheckResult(f"pair[{index},{index + 1}]", name, ok, detail, witness))
    return InvariantSuiteReport(tuple(results))
