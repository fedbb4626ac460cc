import random
from fractions import Fraction

import pytest

import maxbv.stepfn as sf
import maxbv.verify as verify
from maxbv.envelope import build_profile, bv_distance
from maxbv.maximal import maximal_value
from maxbv.stepfn import StepFunction
from maxbv.verify import (
    GridSpec,
    continuity_experiment,
    counterexample,
    counterexample_functions,
    invariant_suite,
    oracle_maximal,
    random_stepfn,
    shrink_failure,
)

CHI_01 = StepFunction.indicator(0, 1)
PRECISION = Fraction(1, 10**9)


def test_oracle_examples():
    grid = GridSpec(endpoint_count=40, span=Fraction(4), random_count=80, seed=1, zoom_rounds=3)
    value = oracle_maximal(CHI_01, 2, grid)
    engine = maximal_value(CHI_01, 2).value
    assert value <= engine
    assert engine - value < Fraction(1, 100)

    assert oracle_maximal(StepFunction.constant(-4), 3, grid) == 4

    empty = GridSpec(endpoint_count=0, random_count=0, zoom_rounds=0)
    left_heavy = StepFunction(1, (0,), (0,), (0,))
    assert oracle_maximal(left_heavy, 5, empty) == 1  # max of the limit candidates


def test_oracle_gap_shrinks_under_refinement():
    rng = random.Random(2)
    for _ in range(10):
        f = random_stepfn(rng.randrange(10**6))
        x = Fraction(rng.randint(-20, 20), 2)
        engine = maximal_value(f, x).value
        coarse = oracle_maximal(f, x, GridSpec(endpoint_count=8, random_count=20, zoom_rounds=0, seed=5))
        fine = oracle_maximal(f, x, GridSpec(endpoint_count=64, random_count=200, zoom_rounds=2, seed=5))
        assert coarse <= fine <= engine


def test_random_stepfn_determinism_and_bounds():
    assert random_stepfn(123) == random_stepfn(123)
    assert random_stepfn(0, n_max=0).n == 0
    for seed in range(50):
        f = random_stepfn(seed)
        assert f.n <= 6
        assert all(abs(c) <= 3 for c in f.constants)


def test_random_stepfn_stratification():
    saw_sign_change = False
    saw_point_jump = False
    for seed in range(1000):
        f = random_stepfn(seed)
        consts = f.constants
        if any(a * b < 0 for a, b in zip(consts, consts[1:])):
            saw_sign_change = True
        for k in range(f.n):
            if f.point_values[k] != consts[k] and f.point_values[k] != consts[k + 1]:
                saw_point_jump = True
        if saw_sign_change and saw_point_jump:
            break
    assert saw_sign_change and saw_point_jump


def test_counterexample_rejects_small_n():
    with pytest.raises(ValueError):
        counterexample(2)
    with pytest.raises(ValueError):
        counterexample(4, K=4)


def test_counterexample_n4_exact_values():
    base, perturbed = counterexample_functions(4, 6)
    assert maximal_value(base, Fraction(7, 2)).value == 1
    assert maximal_value(perturbed, 3).value == Fraction(5, 4)
    report = counterexample(4, 6)
    assert report.norm_delta == Fraction(1, 2)
    assert report.partition_variation >= 2
    assert report.passed
    assert report.lines()[-1] == "Var(P_4) >= 2 : PASS"


@pytest.mark.parametrize("n", [3, 5, 8])
def test_counterexample_family(n):
    report = counterexample(n)
    assert report.passed
    assert report.norm_delta == Fraction(2, n)


def test_counterexample_bv_distance_stays_large():
    base, perturbed = counterexample_functions(4, 6)
    enclosure = bv_distance(build_profile(perturbed), build_profile(base), PRECISION)
    assert enclosure.lo >= 2


def test_continuity_experiment_zero_perturbation():
    report = continuity_experiment(
        CHI_01,
        StepFunction.constant(0),
        [Fraction(1, 2**j) for j in range(6)],
        precision=PRECISION,
    )
    assert all(row.distance.lo == row.distance.hi == 0 for row in report.rows)
    assert report.passed


def test_continuity_experiment_scaled_indicator():
    scales = [Fraction(1, 2**j) for j in range(15)]
    report = continuity_experiment(CHI_01, CHI_01, scales, precision=PRECISION)
    for row in report.rows:
        assert row.delta_norm == 2 * row.scale
        # maximal function scales with the function: distance = 2 * scale exactly
        assert row.distance.lo <= 2 * row.scale <= row.distance.hi + PRECISION
    assert report.rows[-1].distance.hi <= Fraction(1, 1000)
    assert report.final_distance_ok and report.distance_eventually_nonincreasing
    # A unit-norm perturbation leaves a 2*2^-10 variation gap at the first
    # tail scale, above the default 1/1000 gap tolerance.
    assert not report.variation_converged

    quarter = StepFunction.indicator(0, 1, value=Fraction(1, 4))
    report = continuity_experiment(CHI_01, quarter, scales, precision=PRECISION)
    for row in report.rows:
        assert row.delta_norm == row.scale / 2
        assert row.distance.lo <= row.scale / 2 <= row.distance.hi + PRECISION
    assert report.passed
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("j\t")
    assert "# verdict\tPASS" in tsv


def test_continuity_report_computes_each_verdict_once(monkeypatch):
    # The report prints its three verdicts and the verdict line, and the CLI
    # reads `passed` again for the exit code: each is computed on its first
    # read only, so a second read makes no comparison.  Every verdict
    # compares its int pairs through the report's one comparison helper.
    report = continuity_experiment(CHI_01, CHI_01, [Fraction(1, 2**j) for j in range(15)], precision=PRECISION)
    compare = verify._at_most
    calls = []

    def counted(*pairs):
        calls.append(pairs)
        return compare(*pairs)

    monkeypatch.setattr(verify, "_at_most", counted)
    tsv = report.to_tsv()
    assert "# verdict\tFAIL" in tsv
    assert calls  # the first read compared
    monkeypatch.setattr(verify, "_at_most", lambda *_: pytest.fail("a verdict was computed again"))
    assert not report.passed
    assert report.to_tsv() == tsv


def test_continuity_experiment_rejects_bad_scales():
    with pytest.raises(ValueError):
        continuity_experiment(CHI_01, CHI_01, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        continuity_experiment(CHI_01, CHI_01, [])
    for scales, message in (
        ([1, 0], "scales must be positive"),
        ([1, Fraction(-1, 2)], "scales must be positive"),
        ([Fraction(1, 3), Fraction(1, 2)], "scales must be strictly decreasing"),
        ([Fraction(2, 3), Fraction(4, 6)], "scales must be strictly decreasing"),
        ([Fraction(7, 3), 2, Fraction(5, 2)], "scales must be strictly decreasing"),
    ):
        with pytest.raises(ValueError, match=message):
            continuity_experiment(CHI_01, CHI_01, scales)


@pytest.mark.parametrize("tail_count", [0, -2])
def test_continuity_experiment_rejects_a_tail_count_below_one(tail_count):
    # The report reads its tail as rows[-tail_count:], so a tail count of 0
    # would check every row and one of -2 all rows but the first two.
    scales = [Fraction(1, 2**j) for j in range(6)]
    with pytest.raises(ValueError, match="tail_count must be at least 1"):
        continuity_experiment(random_stepfn(3), random_stepfn(4), scales, tail_count=tail_count)
    assert continuity_experiment(random_stepfn(3), random_stepfn(4), scales, tail_count=1).tail_count == 1


def test_delta_norm_is_the_norm_of_the_difference():
    # The experiment scales the perturbation's norm; the reference combines
    # f_j and f and takes the norm of the difference.
    scales = [Fraction(1, 2**j) for j in range(6)]
    for seed in range(0, 40, 2):
        f, g = random_stepfn(seed), random_stepfn(seed + 1)
        report = continuity_experiment(f, g, scales, threshold=1, variation_gap=1)
        for row in report.rows:
            f_j = sf.combine(f, g, 1, row.scale)
            assert row.delta_norm == sf.bv_norm(sf.combine(f_j, f, 1, -1))


def test_invariant_suite_passes_on_random_corpus():
    corpus = [random_stepfn(seed) for seed in range(40)]
    report = invariant_suite(corpus, seed=7)
    assert report.passed, report.to_tsv()
    tsv = report.to_tsv()
    assert tsv.splitlines()[0] == "subject\tcheck\tstatus\tdetail"
    assert "# verdict\tPASS" in tsv


def test_derivative_formula_reads_f_on_the_witness_side_of_a_breakpoint():
    # The shrunk witness of `maxbv check --seeds 180358:180360`.  At the
    # breakpoint x = 6, f(6) = -5/3 but f = 1 on both sides; the derivative
    # of the maximal function there follows the one-sided value |f(6+)| = 1.
    f = sf.parse("stepfn/1\ntail -3/4\nbp -15/2 value 3 right 3\nbp 0 value 3 right 1\nbp 6 value -5/3 right 1\n")
    report = invariant_suite([f])
    result = next(r for r in report.results if r.check == "derivative_formula")
    assert result.passed, result.detail


def test_invariant_suite_rejects_empty_corpus():
    with pytest.raises(ValueError):
        invariant_suite([])


def test_invariant_suite_detects_corrupted_variation(monkeypatch):
    original = sf.variation_on

    def corrupted(f, a=sf.NEG_INF, b=sf.POS_INF):
        value = original(f, a, b)
        # inflate the variation of sign-changing functions only, so the
        # corruption cannot cancel between f and |f|
        return value + 1 if any(c < 0 for c in f.constants) else value

    monkeypatch.setattr(sf, "variation_on", corrupted)
    corpus = [random_stepfn(seed) for seed in range(10)]
    report = invariant_suite(corpus, seed=3)
    failing = {r.check for r in report.failures()}
    assert "modulus_identity" in failing
    failure = next(r for r in report.failures() if r.check == "modulus_identity")
    assert failure.witness is not None and failure.witness.startswith("stepfn/1")


def test_shrink_preserves_failure():
    target = random_stepfn(99, n_max=6)
    assert target.n >= 2

    def fails(candidate):
        return candidate.n >= 1  # anything with at least one breakpoint "fails"

    small = shrink_failure(target, fails)
    assert small.n == 1
    assert fails(small)


def test_invariant_suite_reports_a_crashing_check_as_fail(monkeypatch):
    import maxbv.envelope

    original = maxbv.envelope.variation_of_profile

    def crashing(profile, *args, **kwargs):
        if len(profile.int_forms) >= 3:
            raise RuntimeError("variation engine broke")
        return original(profile, *args, **kwargs)

    monkeypatch.setattr(maxbv.envelope, "variation_of_profile", crashing)
    # Profiles with 1, 4 and 9 pieces; the last function has 5 breakpoints.
    corpus = [random_stepfn(seed) for seed in (0, 9, 20)]
    report = invariant_suite(corpus, seed=3)
    contraction = [r for r in report.results if r.check == "contraction"]
    assert [r.passed for r in contraction] == [True, False, False]
    failure = contraction[-1]
    assert failure.detail == "raised RuntimeError: variation engine broke"
    assert failure.witness is not None and failure.witness.startswith("stepfn/1")
    assert sf.parse(failure.witness).n < corpus[-1].n
    assert "raised RuntimeError: variation engine broke witness=" in report.to_tsv()
    identity = [r for r in report.results if r.check == "modulus_identity"]
    assert len(identity) == len(corpus) and all(r.passed for r in identity)
    # The checks registered after the crashing one still ran.
    assert sum(r.check == "no_interior_max" for r in report.results) == len(corpus)
