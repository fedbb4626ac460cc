"""Each invariant check's FAIL branch, and where the runner charges a crash.

A check compares an engine against an independent reading of the same
number.  Patching the engine it compares against must turn its row into a
FAIL whose detail names the place in the report's text contract (rationals
through ``format_rat``) and whose witness parses back: one function for a
single check, f's file followed by g's for a pair check.
"""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

import maxbv.envelope as env
import maxbv.maximal as mx
import maxbv.stepfn as sf
from maxbv import verify
from maxbv.stepfn import StepFunction

RAT = r"-?\d+(/\d+)?"
# 1 on [0, 1] and 0 elsewhere: the maximal function moves on both sides.
BUMP = StepFunction.indicator(0, 1)
# 0 left of 0 and 1 right of it: one breakpoint.
STEP = StepFunction(0, (0,), (1,), (1,))
# 1 outside (-8, 8) and 0 inside: the maximal function is 1 everywhere, and
# above |f| on (-8, 8) without a one-sided witness.
DIP = StepFunction(1, (-8, 8), (0, 1), (0, 1))
ENCLOSURE = env.VariationEnclosure(Fraction(100), Fraction(100))


def shifted(engine, by):
    """The engine with `by` added to the number it returns."""
    return lambda *args: engine(*args) + by


def shifted_maximal(by):
    """maximal_value with `by(f)` added to each value."""
    original = mx.maximal_value
    return lambda f, x: SimpleNamespace(value=original(f, x).value + by(f))


ADJUSTED_PLUS_100 = (
    sf, "adjusted_modulus", lambda f, real=sf.adjusted_modulus: sf.combine(real(f), StepFunction.constant(100))
)
VARIATION_100 = (env, "variation_of_profile", lambda profile, *window: ENCLOSURE)
DERIVATIVE_PLUS_1 = (env, "profile_derivative", shifted(env.profile_derivative, 1))
NEGATIVE_NORM = (sf, "bv_norm", lambda f: Fraction(-1))
COMBINE_PLUS_1 = (
    sf, "combine", lambda f, g, a=1, b=1, real=sf.combine: real(real(f, g, a, b), StepFunction.constant(1))
)

# (check, (module, name, patched engine), corpus, pattern of the detail)
CASES = [
    ("partition_bound", (sf, "variation_on_partition", lambda f, pts: Fraction(10**6)), [BUMP],
     rf"partition {RAT}(,{RAT})+"),
    ("adjusted_modulus_bounds", ADJUSTED_PLUS_100, [BUMP], "breakpoint 0"),
    ("maximal_ge_adjusted", ADJUSTED_PLUS_100, [BUMP], rf"x={RAT}"),
    ("point_value_insensitivity", (mx, "maximal_value", shifted_maximal(lambda f: sum(f.point_values))), [STEP],
     "x=0"),
    ("tail_convergence", (mx, "maximal_limit_at_infinity", shifted(mx.maximal_limit_at_infinity, 100)), [BUMP],
     "t=1"),
    ("candidate_dominance", (verify, "oracle_maximal", lambda f, x, grid: Fraction(10**6)), [BUMP], rf"x={RAT}"),
    ("profile_agreement", (mx, "maximal_value", shifted_maximal(lambda f: 1)), [BUMP], rf"x={RAT}"),
    ("contraction", VARIATION_100, [BUMP], re.escape(f"var={ENCLOSURE}")),
    ("local_variation_bound", VARIATION_100, [BUMP], rf"window \({RAT},{RAT}\)"),
    ("derivative_formula", DERIVATIVE_PLUS_1, [DIP], rf"x={RAT} flat case"),
    ("derivative_formula", DERIVATIVE_PLUS_1, [BUMP], rf"x={RAT}"),
    ("uniform_control_values", NEGATIVE_NORM, [BUMP, STEP], rf"x={RAT}"),
    ("uniform_control_maximal", NEGATIVE_NORM, [BUMP, STEP], rf"x={RAT}"),
    ("combine_exact", COMBINE_PLUS_1, [BUMP, STEP], rf"x={RAT}"),
]


def row(report, check):
    return next(r for r in report.results if r.check == check)


def functions(witness):
    """The functions a witness holds, each file in turn."""
    head = sf.FORMAT_HEADER
    assert witness.startswith(head)
    return [sf.parse(head + text) for text in witness.split(head)[1:]]


@pytest.mark.parametrize(
    "check, patch, corpus, pattern",
    CASES,
    ids=[check + ("-flat" if corpus == [DIP] else "") for check, _, corpus, _ in CASES],
)
def test_a_patched_engine_fails_its_check(monkeypatch, check, patch, corpus, pattern):
    assert row(verify.invariant_suite(corpus), check).passed
    monkeypatch.setattr(*patch)
    result = row(verify.invariant_suite(corpus), check)
    assert not result.passed
    assert re.fullmatch(pattern, result.detail), result.detail
    if len(corpus) == 1:
        assert len(functions(result.witness)) == 1
    else:
        # A pair check's witness holds f, then g, as they were given.
        assert functions(result.witness) == corpus


def test_a_crash_in_the_regions_is_charged_to_the_checks_that_read_them(monkeypatch):
    def crashing(f, profile):
        raise RuntimeError("regions engine broke")

    monkeypatch.setattr(env, "detachment_regions", crashing)
    report = verify.invariant_suite([verify.random_stepfn(3)])
    for check in ("profile_agreement", "contraction", "local_variation_bound", "finite_difference"):
        assert row(report, check).passed, check
    for check in ("flat_on_touch", "derivative_formula", "no_interior_max"):
        result = row(report, check)
        assert (result.passed, result.detail) == (False, "raised RuntimeError: regions engine broke")
        assert len(functions(result.witness)) == 1
    assert "KeyError" not in report.to_tsv()


def test_a_crash_in_the_profile_is_charged_to_every_check_that_reads_it(monkeypatch):
    def crashing(f):
        raise RuntimeError("profile engine broke")

    monkeypatch.setattr(env, "build_profile", crashing)
    report = verify.invariant_suite([BUMP])
    reads_profile = {
        "profile_agreement", "contraction", "local_variation_bound", "flat_on_touch",
        "derivative_formula", "finite_difference", "no_interior_max",
    }
    assert {r.check for r in report.failures()} == reads_profile
    assert {r.detail for r in report.failures()} == {"raised RuntimeError: profile engine broke"}
