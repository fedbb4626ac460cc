"""The rational text codec against its old string-based forms.

``parse_rat`` reads the ints off the groups of its one match and
``format_rat`` prints a Fraction's numerator and denominator.  The forms
they replaced, a regex check followed by ``Fraction(text)`` and
``str(Fraction(value))``, are kept here as the oracles: every token must be
accepted with the same value or rejected with the same ``ValueError`` text,
and every value must print the same bytes.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbv.exact import format_rat, parse_rat
from maxbv.stepfn import parse, serialize
from maxbv.verify import random_stepfn
from test_engine_oracles import exact_n

_OLD_RAT_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def old_parse_rat(text):
    if not _OLD_RAT_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q', q > 0)")
    return Fraction(text)


def old_format_rat(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        raise TypeError("refusing float input; exact arithmetic only")
    return str(Fraction(value))


def outcome(function, arg):
    """(value, None) or (None, (exception type, message))."""
    try:
        return function(arg), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


def assert_same_parse(text):
    new, old = outcome(parse_rat, text), outcome(old_parse_rat, text)
    assert new == old
    if new[1] is None:
        assert type(new[0]) is Fraction


ints = st.integers(min_value=-(10**40), max_value=10**40)
ratios = st.fractions(max_denominator=10**30)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(ints, ratios))
def test_codec_matches_the_string_oracles(value):
    text = old_format_rat(value)
    assert format_rat(value) == text
    assert format_rat(Fraction(value)) == text
    assert_same_parse(text)
    assert parse_rat(text) == value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ints, st.integers(min_value=-(10**20), max_value=10**20))
def test_unreduced_and_signed_tokens_parse_as_the_oracle_does(p, q):
    for text in (f"{p}/{q}", f"{p}/{abs(q)}", f"{p}/0{abs(q)}", f"+{p}", f"0{abs(p)}", str(p)):
        assert_same_parse(text)


LONG = "1" * 4301


@pytest.mark.parametrize(
    "text",
    ["-0", "007", "3/06", "+1", " 1", "1/0", "1/-2", "1.5", "0/5", "-12/8",
     LONG, "-" + LONG, "1/" + LONG, LONG[:-1], "-1/" + LONG[:-1]],
)
def test_edge_tokens_parse_as_the_oracle_does(text):
    assert_same_parse(text)


def test_edge_token_outcomes():
    assert parse_rat("-0") == 0 and parse_rat("007") == 7 and parse_rat("-12/8") == Fraction(-3, 2)
    for text in ("3/06", "+1", " 1", "1/0", "1/-2", "1.5"):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rat(text)
    with pytest.raises(ValueError, match="4301 digits"):
        parse_rat(LONG)


def test_format_rat_on_ints_infinities_and_floats():
    for value in (0, 7, -12, 10**50, True):
        assert format_rat(value) == old_format_rat(value) == str(int(value))
    assert format_rat(math.inf) == old_format_rat(math.inf) == "inf"
    assert format_rat(-math.inf) == old_format_rat(-math.inf) == "-inf"
    for value in (0.5, -0.0, math.nan):
        assert outcome(format_rat, value) == outcome(old_format_rat, value)
        with pytest.raises(TypeError):
            format_rat(value)


def test_format_rat_of_a_value_past_the_digit_limit_fails_as_the_oracle_does():
    huge = Fraction(10**4400, 3)
    assert outcome(format_rat, huge) == outcome(old_format_rat, huge)
    assert outcome(format_rat, huge)[1][0] is ValueError


def test_stepfn_files_round_trip():
    functions = [random_stepfn(seed) for seed in range(1000)]
    functions += [exact_n(n, n) for n in range(1, 41)]
    for f in functions:
        text = serialize(f)
        assert parse(text) == f
        assert serialize(parse(text)) == text
        assert text == "".join(
            f"{line}\n" for line in
            ["stepfn/1", f"tail {old_format_rat(f.tail_left)}"]
            + [f"bp {old_format_rat(x)} value {old_format_rat(v)} right {old_format_rat(c)}"
               for x, v, c in zip(f.breakpoints, f.point_values, f.right_constants)]
        )
