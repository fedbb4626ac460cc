import random
from fractions import Fraction

import pytest

from maxbv.exact import (
    EQ,
    GT,
    LT,
    AlgebraicValue,
    compare_with_rat,
    decimal_str,
    format_rat,
    isolate_quadratic_roots,
    parse_rat,
    poly_eval,
    rat,
)


def test_rational_arithmetic_examples():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2, 4) == rat(1, 2)
    with pytest.raises(ZeroDivisionError):
        rat(1, 3) / rat(0)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_accepts_fraction_strings():
    assert rat("1/4") == rat(1, 4)
    assert rat("-3") == -3


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
    for bad in ["1.5", "3/-4", "1/0", "x", "", "+3", "2 /3"]:
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_decimal_rendering():
    assert decimal_str(Fraction(1, 2), 3) == "0.500"
    assert decimal_str(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_str(Fraction(5), 0) == "5"


def test_isolate_sqrt2():
    roots = isolate_quadratic_roots((1, 0, -2))
    assert len(roots) == 2
    lo, hi = roots
    assert lo.hi < hi.lo
    tight = hi.refine(30)
    assert tight.width <= Fraction(1, 10**9)
    assert tight.lo * tight.lo <= 2 <= tight.hi * tight.hi


def test_isolate_rational_roots():
    roots = isolate_quadratic_roots((1, 0, -1))
    assert [r.rational_value for r in roots] == [-1, 1]
    assert all(r.width == 0 for r in roots)


def test_isolate_no_real_roots_and_degenerate():
    assert isolate_quadratic_roots((1, 0, 1)) == []
    assert isolate_quadratic_roots((0, 2, -3))[0].rational_value == Fraction(3, 2)
    assert isolate_quadratic_roots((0, 0, 5)) == []
    with pytest.raises(ValueError):
        isolate_quadratic_roots((0, 0, 0))


def test_refine_is_monotone_nesting():
    root = isolate_quadratic_roots((1, 0, -3))[1]
    prev = root
    for k in (4, 8, 16, 32):
        cur = root.refine(k)
        assert prev.lo <= cur.lo <= cur.hi <= prev.hi
        assert cur.width <= Fraction(1, 2**k)
        assert poly_eval(cur.poly, cur.lo) * poly_eval(cur.poly, cur.hi) < 0
        prev = cur


def test_compare_examples():
    sqrt2 = isolate_quadratic_roots((1, 0, -2))[1]
    assert compare_with_rat(sqrt2, Fraction(3, 2)) == LT
    assert compare_with_rat(sqrt2, Fraction(7, 5)) == GT
    assert compare_with_rat(sqrt2, 0) == GT
    # 99/70 and 140/99 are continued-fraction convergents of sqrt(2) inside
    # its first bracket, so only narrowing can decide them.
    assert compare_with_rat(sqrt2, Fraction(99, 70)) == LT
    assert compare_with_rat(sqrt2, Fraction(140, 99)) == GT
    assert compare_with_rat(AlgebraicValue.from_rat(Fraction(5, 3)), Fraction(5, 3)) == EQ
    assert compare_with_rat(AlgebraicValue.from_rat(Fraction(5, 3)), 2) == LT
    # A bracket around the rational root 2 of x^2 - 4: equal without narrowing.
    two = AlgebraicValue(0, 3, (1, 0, -4))
    assert compare_with_rat(two, 2) == EQ
    assert compare_with_rat(two, Fraction(2001, 1000)) == LT
    assert compare_with_rat(two, Fraction(1999, 1000)) == GT


def test_compare_matches_float_when_gap_is_visible():
    rng = random.Random(7)
    values = []
    for _ in range(200):
        a = rng.randint(1, 9)
        b = rng.randint(-12, 12)
        c = rng.randint(-12, 12)
        try:
            values.extend(isolate_quadratic_roots((a, b, c)))
        except ValueError:
            continue
    for _ in range(400):
        x = rng.choice(values)
        q = Fraction(rng.randint(-13000, 13000), rng.choice((999, 1000, 1024)))
        fx = float(x.refine(40).lo)
        if abs(fx - float(q)) > 1e-6:
            assert compare_with_rat(x, q) == (LT if fx < q else GT)
    for x in values:
        if x.is_rational:
            assert compare_with_rat(x, x.rational_value) == EQ
