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
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbv.cli import main
from maxbv.exact import decimal_str, format_rat, parse_rat
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


def lifted(function, *args):
    """function(*args) with Python's limit on the digits of an int's text
    lifted, so that every int prints through ``str``: the oracle for the
    writers past that limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return function(*args)
    finally:
        sys.set_int_max_str_digits(limit)


PAST_THE_LIMIT = [
    Fraction(10**4400, 3),
    Fraction(-3, 10**4400 + 1),
    Fraction(-7 * 10**5000 - 1),
    Fraction(10**4400 + 1, 10**4399 + 3),
    Fraction(10**4300 - 1, 7),  # 4,300 digits: str prints it as it is
]


def test_format_rat_of_a_value_past_the_digit_limit_prints_its_digits():
    for value in PAST_THE_LIMIT[:-1]:
        assert outcome(old_format_rat, value)[1][0] is ValueError
    assert outcome(old_format_rat, PAST_THE_LIMIT[-1])[1] is None
    for value in PAST_THE_LIMIT:
        assert format_rat(value) == lifted(old_format_rat, value)


def test_decimal_str_of_a_value_past_the_digit_limit_prints_its_digits():
    for value in PAST_THE_LIMIT:
        for digits in (0, 1, 12):
            assert decimal_str(value, digits) == lifted(decimal_str, value, digits)
    assert decimal_str(Fraction(2 * 10**5000 + 1, 2), 0) == "1" + "0" * 4999 + "1"


def test_profile_and_eval_past_the_digit_limit_exit_0(tmp_path):
    # Every token of the file is under the limit, but the profile's
    # coefficients and the average over (0, 2) have about 8,000 digits.
    p, q = 10**4000 + 1, 10**3999 + 3
    path = tmp_path / "f.txt"
    path.write_text(f"stepfn/1\ntail 0\nbp 0 value 1/{p} right 1/{p}\nbp 1 value 1/{q} right 1/{q}\n"
                    "bp 2 value 0 right 0\n", encoding="utf-8")
    for argv in (["profile"], ["eval", "--x", "0"], ["eval", "--x", "1/2", "--decimal", "5"]):
        out = tmp_path / "out.txt"

        def run():
            code = main([*argv, "--file", str(path), "--out", str(out)])
            return code, out.read_text(encoding="utf-8")

        code, text = run()
        assert code == 0
        assert (code, text) == lifted(run)
        assert max(map(len, re.split(r"[^0-9]", text))) > 4300


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
