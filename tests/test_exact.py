import math
import random
import types
from fractions import Fraction

import pytest

from maxbv import exact
from maxbv.exact import (
    AlgebraicValue,
    decimal_str,
    format_rat,
    isolate_quadratic_roots,
    lowest_pair,
    parse_rat,
    rat,
)
from conftest import bisect_below, least_level, level0_bracket


def poly_eval(poly, x):
    a, b, c = poly
    return (a * x + b) * x + c


def test_rational_arithmetic_examples():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2, 4) == rat(1, 2)
    with pytest.raises(ZeroDivisionError):
        rat(1, 3) / rat(0)


def test_lowest_pair_way_back_rejects_a_zero_den(monkeypatch):
    # A divisor larger than both parts reduces (12, 12) to (0, 0), which
    # p*den == num*q alone lets through.
    gcd = math.gcd
    faulty = types.SimpleNamespace(**{**vars(math), "gcd": lambda num, den: 13 if (num, den) == (12, 12) else gcd(num, den)})
    monkeypatch.setattr(exact, "math", faulty)
    assert lowest_pair(12, 18) == (2, 3)
    with pytest.raises(AssertionError, match="rational text disagrees with its int pair"):
        lowest_pair(12, 12)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_accepts_fraction_strings():
    assert rat("1/4") == rat(1, 4)
    assert rat("-3") == -3


def test_rat_returns_a_fraction_as_it_is_and_still_rejects_floats():
    x = Fraction(-7, 3)
    assert rat(x) is x
    for args in ((0.5,), (1, 2.0), (float("inf"),)):
        with pytest.raises(TypeError):
            rat(*args)
    assert rat("1/4") == Fraction(1, 4) and type(rat("1/4")) is Fraction
    assert rat(True) == 1 and type(rat(True)) is Fraction


def test_field_axioms_on_sampled_triples():
    rng = random.Random(20240)
    for _ in range(300):
        a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_parse_and_format_round_trip():
    for text in ["0", "-7", "3/4", "-22/7"]:
        assert format_rat(parse_rat(text)) == text
    # Only ASCII digits: Fraction would read the Arabic-Indic three as 3.
    for bad in ["1.5", "3/-4", "1/0", "x", "", "+3", "2 /3", "3\n", "1/3\n", "\u0663", "1/1\u0663"]:
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_format_rat_prints_the_infinities_and_rejects_finite_floats():
    assert format_rat(-math.inf) == "-inf"
    assert format_rat(math.inf) == "inf"
    for value in (0.1, 0.0, math.nan):
        with pytest.raises(TypeError):
            format_rat(value)


def test_decimal_rendering():
    assert decimal_str(Fraction(1, 2), 3) == "0.500"
    assert decimal_str(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_str(Fraction(5), 0) == "5"


def ends(root, level):
    """The bracket of root at this level, as Fractions."""
    return tuple(Fraction(*end) for end in root.bracket(level))


def width(root, level):
    return Fraction(1, 2 * root.a << level)


def test_isolate_sqrt2():
    roots = isolate_quadratic_roots((1, 0, -2))
    assert len(roots) == 2
    low, high = roots
    assert ends(low, 0)[1] < ends(high, 0)[0]
    lo, hi = ends(high, 30)
    assert hi - lo <= Fraction(1, 10**9)
    assert lo * lo <= 2 <= hi * hi


def test_isolate_rational_roots():
    roots = isolate_quadratic_roots((1, 0, -1))
    assert all(r.is_rational for r in roots)
    assert [r.value for r in roots] == [-1, 1]


def test_isolate_no_real_roots_and_degenerate():
    assert isolate_quadratic_roots((1, 0, 1)) == []
    (root,) = isolate_quadratic_roots((0, 2, -3))
    assert root.is_rational and root.value == Fraction(3, 2)
    assert isolate_quadratic_roots((0, 0, 5)) == []
    with pytest.raises(ValueError):
        isolate_quadratic_roots((0, 0, 0))


def test_brackets_nest():
    q = (1, 0, -3)
    root = isolate_quadratic_roots(q)[1]
    prev = ends(root, 0)
    for level in (4, 8, 16, 32):
        lo, hi = cur = ends(root, level)
        assert prev[0] <= lo <= hi <= prev[1]
        assert hi - lo == width(root, level) <= Fraction(1, 2**level)
        assert poly_eval(q, lo) * poly_eval(q, hi) < 0
        prev = cur


def irrational_quadratics(count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        bound = rng.choice((9, 1000, 10**12))
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        disc = b * b - 4 * a * c
        if a and disc > 0 and math.isqrt(disc) ** 2 != disc:
            found.append((a, b, c) if a > 0 else (-a, -b, -c))
    return found


def test_every_level_is_the_bisection_of_the_level0_bracket():
    for q in irrational_quadratics(200, 42):
        roots = isolate_quadratic_roots(q)
        for root, branch in zip(roots, (-1, 1)):
            lo, hi = level0_bracket(q, branch)
            assert ends(root, 0) == (lo, hi)
            for level in range(1, 90):
                lo, hi = bisect_below(q, lo, hi, width(root, level))
                assert ends(root, level) == (lo, hi)


def test_the_level_rule_is_the_least_level_of_its_width():
    # The peak rounds take level max(level, bits + 1 - (2a).bit_length()),
    # never coarser than the level a peak already has.
    a_values = [1, 2, 3, 4, 5, 7, 8, 9, 2**20 - 1, 2**20, 2**20 + 1, 10**12 + 3]
    for a in a_values + [q[0] for q in irrational_quadratics(40, 7)]:
        for bits in (0, 1, 5, 40, 56, 72, 88):
            for level in (0, 30, 100):
                assert max(level, bits + 1 - (2 * a).bit_length()) == least_level(a, bits, level)


def test_rational_roots_are_never_refined():
    for root in isolate_quadratic_roots((4, -4, -3)) + isolate_quadratic_roots((1, -2, 1)):
        assert root.is_rational
        end = (root.value.numerator, root.value.denominator)
        assert all(root.bracket(level) == (end, end) for level in (0, 1, 40, 80))


def test_surd_constructor_rejects_what_fixes_no_irrational_root():
    AlgebraicValue(a=1, b=0, disc=8, branch=1)
    for fields in ({"a": 0, "b": 0, "disc": 8, "branch": 1}, {"a": -1, "b": 0, "disc": 8, "branch": 1},
                   {"a": 1, "b": 0, "disc": 9, "branch": 1}, {"a": 1, "b": 2, "disc": 0, "branch": -1},
                   {"a": 1, "b": 0, "disc": 8, "branch": 0}):
        with pytest.raises(ValueError):
            AlgebraicValue(**fields)
