"""Acceptance criteria, one test per criterion, each at its stated tolerance.

The standard corpus is 1000 seeded random signed step functions; experiment
pairs and oracle grids are calibrated but the thresholds, scale sets and
tolerances asserted here are fixed.
"""

import random
import time
from fractions import Fraction

from maxbv.envelope import (
    build_profile,
    detachment_regions,
    profile_derivative,
    variation_of_profile,
)
from maxbv.maximal import maximal_limit_at_infinity, maximal_value
from maxbv.stepfn import (
    StepFunction,
    adjusted_modulus,
    bv_norm,
    combine,
    modulus,
    modulus_defect,
    variation_on,
)
from maxbv.verify import (
    GridSpec,
    continuity_experiment,
    counterexample,
    oracle_maximal,
    random_stepfn,
)

MICRO = Fraction(1, 10**9)
MILLI = Fraction(1, 1000)

_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = [random_stepfn(seed) for seed in range(1000)]
    return _CORPUS


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_c01_counterexample_reproduction():
    start = time.time()
    for n in range(3, 11):
        rep = counterexample(n, n + 2)
        assert rep.norm_delta == Fraction(2, n)
        assert rep.base_maximal_ok and rep.bump_ok and rep.gap_ok
        assert rep.partition_variation >= 2
    elapsed = time.time() - start
    report(1, "counterexample n=3..10 exact", elapsed <= 10, f"{elapsed:.2f}s")


def test_c02_contraction_property():
    violations = 0
    for f in corpus():
        enclosure = variation_of_profile(build_profile(f))
        if enclosure.hi > variation_on(f) + MICRO:
            violations += 1
    report(2, "Var(maximal) <= Var(f) + 1e-9 on 1000 functions", violations == 0,
           f"{violations} violations")


SCALES = [Fraction(1, 2**j) for j in range(15)]  # j = 1, 2, 4, ..., 2^14
_EXPERIMENTS = None


def experiments():
    global _EXPERIMENTS
    if _EXPERIMENTS is None:
        runs = []
        for i in range(100):
            f = random_stepfn(5000 + 2 * i)
            g = random_stepfn(5000 + 2 * i + 1)
            norm = bv_norm(g)
            if norm:
                g = combine(g, StepFunction.constant(0), Fraction(1, 8) / norm, 0)
            runs.append(continuity_experiment(f, g, SCALES, precision=MICRO))
        _EXPERIMENTS = runs
    return _EXPERIMENTS


def test_c03_bv_continuity_at_desk_scale():
    start = time.time()
    runs = experiments()
    elapsed = time.time() - start
    final_ok = sum(run.rows[-1].distance.hi <= MILLI for run in runs)
    monotone_ok = sum(run.distance_eventually_nonincreasing for run in runs)
    ok = final_ok == 100 and monotone_ok == 100 and elapsed <= 300
    report(3, "bv_distance(f + g/j, f) tails below 1e-3, nonincreasing", ok,
           f"final {final_ok}/100, monotone {monotone_ok}/100, {elapsed:.1f}s")


def test_c04_variation_convergence():
    # scales 2^-10 .. 2^-14 are the last five rows of each run
    ok_runs = 0
    for run in experiments():
        tail = run.rows[-5:]
        if all(
            max(row.variation.lo - run.base_variation.hi, run.base_variation.lo - row.variation.hi) <= MILLI
            and abs(row.variation.midpoint - run.base_variation.midpoint) <= MILLI
            for row in tail
        ):
            ok_runs += 1
    report(4, "Var(maximal(f_j)) meets Var(maximal(f)) from j=2^10", ok_runs == 100,
           f"{ok_runs}/100 runs")


def _sign_crossing_cases():
    cases = [
        StepFunction(1, (0,), (1,), (-1,)),
        StepFunction(1, (0,), (0,), (-1,)),
        StepFunction(1, (0,), (-1,), (-1,)),
        StepFunction(-2, (0, 1), (0, 0), (3, -2)),
        StepFunction(0, (0,), (5,), (0,)),
        StepFunction(2, (0, 1, 2), (-2, 2, -2), (-2, 2, -2)),
        StepFunction(1, (0, 1), (Fraction(1, 2), Fraction(-1, 2)), (-1, 1)),
    ]
    for k in range(1, 14):
        tail = Fraction((-1) ** k * k, 3)
        cases.append(
            StepFunction(
                tail,
                (0, k),
                (tail / 2, Fraction(-k, 2)),
                (Fraction(-k, 2), Fraction(k, 4)),
            )
        )
    return cases[:20]


def test_c05_modulus_variation_identity():
    violations = 0
    tested = 0
    for f in corpus() + _sign_crossing_cases():
        lhs = variation_on(f) - variation_on(modulus(f))
        if lhs != modulus_defect(f):
            violations += 1
        tested += 1
    report(5, "Var(f) - Var(|f|) == jump defect, exact", violations == 0,
           f"{tested} functions, {violations} violations")


def test_c06_limit_at_infinity():
    exact_ok = True
    tail_ok = True
    for f in corpus():
        consts = f.constants
        if maximal_limit_at_infinity(f) != max(abs(consts[0]), abs(consts[-1])):
            exact_ok = False
        if f.n:
            limit = maximal_limit_at_infinity(f)
            gap = maximal_value(f, f.breakpoints[-1] + 2**20).value - limit
            if not (0 <= gap < MILLI):
                tail_ok = False
    report(6, "limit at infinity exact; tail gap < 1e-3 at t=20", exact_ok and tail_ok)


def test_c07_uniform_control_both_bounds():
    rng = random.Random(606)
    violations = 0
    for i in range(100):
        f = random_stepfn(7000 + 2 * i)
        g = random_stepfn(7000 + 2 * i + 1)
        budget = 2 * bv_norm(combine(f, g, 1, -1))
        for _ in range(100):
            x = Fraction(rng.randint(-96, 96), 8)
            if abs(f.value(x) - g.value(x)) > budget:
                violations += 1
            if abs(maximal_value(f, x).value - maximal_value(g, x).value) > budget:
                violations += 1
    report(7, "|f-g| and |maximal(f)-maximal(g)| <= 2*bv_norm(f-g)", violations == 0,
           f"{violations} violations")


def _points_in_regions(regions, rng, count):
    points = []
    attempts = 0
    while len(points) < count and attempts < 20 * count:
        attempts += 1
        x = Fraction(rng.randint(-220, 220), 16)
        if regions.contains(x):
            points.append(x)
    return points


def test_c08_derivative_formula_and_flatness():
    rng = random.Random(808)
    formula_violations = 0
    flatness_violations = 0
    checked = 0
    for f in corpus()[:100]:
        profile = build_profile(f)
        regions, touch = detachment_regions(f, profile)
        m = modulus(f)
        limit = maximal_limit_at_infinity(f)
        for x in _points_in_regions(regions, rng, 100):
            try:
                derivative = profile_derivative(profile, x)
            except ValueError:
                continue  # junction point
            mv = maximal_value(f, x)
            if mv.one_sided_witness is None:
                if mv.value != limit or derivative != 0:
                    formula_violations += 1
                continue
            w = mv.one_sided_witness
            expected = (
                (mv.value - m.value(x)) / (w.b - x)
                if w.a == x
                else (m.value(x) - mv.value) / (x - w.a)
            )
            if derivative != expected:
                formula_violations += 1
            checked += 1
        for piece in profile.pieces:
            if piece.is_constant:
                continue
            for lo, hi in touch.intervals:
                if max(piece.lo, lo) < min(piece.hi, hi):
                    flatness_violations += 1
    ok = formula_violations == 0 and flatness_violations == 0 and checked >= 2000
    report(8, "derivative formula exact on detachment set; flat elsewhere", ok,
           f"{checked} points, {formula_violations}+{flatness_violations} violations")


def test_c09_oracle_dominance():
    grid = GridSpec(endpoint_count=200, span=Fraction(24), random_count=200, seed=11,
                    zoom_rounds=10)
    rng = random.Random(4)
    violations = 0
    worst_gap = Fraction(0)
    for f in corpus()[:100]:
        x = Fraction(rng.randint(-40, 40), 4)
        engine = maximal_value(f, x).value
        oracle = oracle_maximal(f, x, grid)
        if oracle > engine:
            violations += 1
        worst_gap = max(worst_gap, engine - oracle)
    ok = violations == 0 and worst_gap < MILLI
    report(9, "oracle <= engine exactly; refined-grid gap < 1e-3", ok,
           f"worst gap {float(worst_gap):.2e}")


def test_c10_local_variation_bound():
    rng = random.Random(1010)
    violations = 0
    for i in range(100):
        f = random_stepfn(9000 + i)
        profile = build_profile(f)
        adj = adjusted_modulus(f)
        a = Fraction(rng.randint(-48, 20), 4)
        b = a + Fraction(rng.randint(1, 48), 4)
        enclosure = variation_of_profile(profile, a, b)
        bound = (
            variation_on(adj, a, b)
            + abs(profile.value(a) - adj.value(a))
            + abs(profile.value(b) - adj.value(b))
        )
        if enclosure.lo > bound + MICRO:
            violations += 1
    report(10, "local variation bound with boundary terms", violations == 0,
           f"{violations} violations")
