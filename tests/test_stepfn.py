import pickle
import random
from fractions import Fraction

import pytest

from maxbv.stepfn import (
    NEG_INF,
    POS_INF,
    AbsIntegral,
    StepFunction,
    StepFunctionParseError,
    adjusted_modulus,
    bv_norm,
    combine,
    jump_records,
    modulus,
    modulus_defect,
    parse,
    serialize,
    variation_on,
    variation_on_partition,
)
from conftest import rand_stepfn, sweep_variation

CHI_01 = StepFunction.indicator(0, 1)
TWO_BUMP = combine(
    StepFunction.indicator(0, 1, closed=False), StepFunction.indicator(2, 3, closed=False)
)


def test_canonicalization_drops_invisible_breakpoints():
    f = StepFunction(1, (0,), (1,), (1,))
    assert f.n == 0 and f.tail_left == 1
    spike = StepFunction(0, (0,), (5,), (0,))
    assert spike.n == 1


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StepFunction(0, (0, 0), (1, 1), (1, 0))
    with pytest.raises(ValueError):
        StepFunction(0, (0,), (1, 2), (1,))


def test_constants_are_made_once_and_leave_equality_alone():
    f = StepFunction(1, (0, 2), (3, 1), (Fraction(1, 2), -1))
    assert f.constants is f.constants
    assert f.constants == (1, Fraction(1, 2), -1)
    twin = StepFunction(1, (0, 2), (3, 1), (Fraction(1, 2), -1))
    assert f == twin and hash(f) == hash(twin)
    assert pickle.loads(pickle.dumps(f)) == twin == pickle.loads(pickle.dumps(twin))
    assert f.value(1) == Fraction(1, 2) and f.left_limit(0) == 1 and f.right_limit(2) == -1


def test_combine_identity_cancellation_disjoint():
    zero = StepFunction.constant(0)
    assert combine(CHI_01, zero) == CHI_01
    assert combine(CHI_01, CHI_01, 1, -1) == StepFunction.constant(0)
    two = combine(StepFunction.indicator(0, 1), StepFunction.indicator(2, 3))
    assert two.n == 4


def test_combine_is_pointwise_exact():
    rng = random.Random(11)
    for _ in range(60):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        h = combine(f, g, alpha, beta)
        samples = set(f.breakpoints) | set(g.breakpoints) | {Fraction(-99), Fraction(7, 3)}
        for x in samples:
            assert h.value(x) == alpha * f.value(x) + beta * g.value(x)
            assert h.left_limit(x) == alpha * f.left_limit(x) + beta * g.left_limit(x)


def test_combine_matches_pointwise_at_merged_breakpoints_and_midpoints():
    # A point value that both sides share and sum to the constant around it
    # is dropped by canonical form: [0, 1] + [1, 2] is the indicator of [0, 2].
    left = StepFunction(0, (0, 1), (1, 1), (1, 0))
    right = StepFunction(0, (1, 2), (0, 1), (1, 0))
    assert combine(left, right) == StepFunction.indicator(0, 2)
    rng = random.Random(17)
    shared = dropped = 0
    for trial in range(200):
        f = rand_stepfn(rng, n_max=6, span=4)
        g = rand_stepfn(rng, n_max=6, span=4) if trial % 4 else f
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        beta = -alpha if trial % 4 == 0 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        h = combine(f, g, alpha, beta)
        merged = sorted({*f.breakpoints, *g.breakpoints})
        shared += len(set(f.breakpoints) & set(g.breakpoints))
        dropped += len(merged) - h.n
        assert set(h.breakpoints) <= set(merged)
        ends = [merged[0] - 1, merged[-1] + 1] if merged else [Fraction(0)]
        midpoints = [(a + b) / 2 for a, b in zip(merged, merged[1:])]
        for x in merged + midpoints + ends:
            assert h(x) == alpha * f(x) + beta * g(x)
    assert shared and dropped


def test_modulus_examples():
    flip = StepFunction(1, (0,), (1,), (-1,))
    m = modulus(flip)
    assert m == StepFunction.constant(1)
    rng = random.Random(3)
    for _ in range(100):
        x = Fraction(rng.randint(-64, 64), 8)
        assert m.value(x) == abs(flip.value(x))
    assert modulus(CHI_01) == CHI_01
    assert modulus(combine(CHI_01, StepFunction.constant(0), -1, 0)) == CHI_01


def test_variation_examples():
    assert variation_on(CHI_01) == 2
    assert variation_on(TWO_BUMP) == 4
    assert variation_on(CHI_01, 0, 1) == 0  # boundary breakpoints excluded
    with pytest.raises(ValueError):
        variation_on(CHI_01, 2, 2)


def test_variation_oracle_sweep_converges():
    for f, expected in [(CHI_01, 2), (TWO_BUMP, 4)]:
        estimates = sweep_variation(f, Fraction(-2), Fraction(4))
        assert estimates[-1] == expected
        assert variation_on(f, -2, 4) == expected


def test_bv_norm_examples():
    assert bv_norm(CHI_01) == 2
    assert bv_norm(StepFunction.constant(5)) == 5
    delta = StepFunction.indicator(0, 18, value=Fraction(1, 4), closed=False)
    assert bv_norm(delta) == Fraction(1, 2)


def test_variation_on_partition_examples():
    assert variation_on_partition(CHI_01, (-1, Fraction(1, 2), 2)) == 2
    assert variation_on_partition(CHI_01, (-3, -2)) == 0
    staircase = StepFunction(0, (0, 1), (0, 1), (1, 2))
    assert variation_on_partition(staircase, (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))) == 2


def test_partition_bound_property():
    rng = random.Random(5)
    for _ in range(80):
        f = rand_stepfn(rng)
        pts = sorted({Fraction(rng.randint(-40, 40), 4) for _ in range(6)})
        if len(pts) < 2:
            continue
        assert variation_on_partition(f, pts) <= variation_on(f, pts[0] - 1, pts[-1] + 1)


def test_jump_records_examples():
    recs = jump_records(CHI_01)
    assert [(r.location, r.left_jump, r.right_jump) for r in recs] == [(0, 1, 0), (1, 0, 1)]
    assert jump_records(StepFunction.constant(3)) == ()
    flip = StepFunction(1, (0,), (1,), (-1,))
    (rec,) = jump_records(flip)
    assert rec.right_jump == 2 and rec.modulus_right_jump == 0


def test_adjusted_modulus_examples():
    assert adjusted_modulus(CHI_01).value(0) == 1
    spike = StepFunction(0, (0,), (5,), (1,))
    assert adjusted_modulus(spike).value(0) == 1
    assert adjusted_modulus(StepFunction.constant(-7)) == StepFunction.constant(7)


def test_adjusted_modulus_bounds_per_breakpoint():
    rng = random.Random(17)
    for _ in range(60):
        f = rand_stepfn(rng)
        adj = adjusted_modulus(f)
        m = modulus(f)
        for x in f.breakpoints:
            lo_lim, hi_lim = m.left_limit(x), m.right_limit(x)
            assert adj.value(x) >= lo_lim and adj.value(x) >= hi_lim
            assert adj.value(x) <= max(lo_lim, hi_lim)


def test_modulus_defect_examples():
    flip = StepFunction(1, (0,), (1,), (-1,))
    assert modulus_defect(flip) == 2
    assert variation_on(flip) - variation_on(modulus(flip)) == 2
    assert modulus_defect(CHI_01) == 0
    through_zero = StepFunction(1, (0,), (0,), (-1,))
    assert modulus_defect(through_zero) == 0


def test_modulus_identity_on_random_corpus():
    rng = random.Random(23)
    windows = [(NEG_INF, POS_INF), (Fraction(-3), Fraction(2)), (Fraction(0), POS_INF)]
    for _ in range(1000):
        f = rand_stepfn(rng)
        a, b = windows[rng.randrange(len(windows))]
        lhs = variation_on(f, a, b) - variation_on(modulus(f), a, b)
        assert lhs == modulus_defect(f, a, b)


def test_uniform_control_of_values():
    rng = random.Random(29)
    for _ in range(60):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        budget = 2 * bv_norm(combine(f, g, 1, -1))
        samples = set(f.breakpoints) | set(g.breakpoints) | {Fraction(-50), Fraction(1, 3), Fraction(41)}
        for x in samples:
            assert abs(f.value(x) - g.value(x)) <= budget


def test_abs_integral_matches_direct_sums():
    integ = AbsIntegral(TWO_BUMP)
    assert integ.average(0, 1) == 1
    assert integ.average(-1, 4) == Fraction(2, 5)
    assert integ.at(Fraction(5, 2)) - integ.at(Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        integ.average(1, 1)


def test_serialize_parse_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        f = rand_stepfn(rng)
        assert parse(serialize(f)) == f


def test_serialize_format_shape():
    text = serialize(CHI_01)
    assert text.splitlines() == [
        "stepfn/1",
        "tail 0",
        "bp 0 value 1 right 1",
        "bp 1 value 1 right 0",
    ]


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("nope\n", 1),
        ("stepfn/1\n", 2),
        ("stepfn/1\ntail x\n", 2),
        ("stepfn/1\ntail 0\nbp 1 value 0 right 0\nbp 0 value 1 right 1\n", 4),
        ("stepfn/1\ntail 0\nzap 1 value 0 right 0\n", 3),
        ("stepfn/1\ntail 0\nbp 0.5 value 0 right 0\n", 3),
        ("stepfn/1\ntail 0\nbp 0 value 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(StepFunctionParseError) as err:
        parse(text)
    assert err.value.line_no == line_no
    assert f"line {line_no}" in str(err.value)
