import random
from fractions import Fraction

import pytest

from maxbv.exact import (
    EQ,
    GT,
    LT,
    AlgebraicValue,
    compare,
    compare_with_rat,
    decimal_str,
    format_rat,
    isolate_quadratic_roots,
    parse_rat,
    poly_eval,
    rat,
    rational_between,
    sort_values,
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
    assert compare(lo, hi) == LT
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
    other = isolate_quadratic_roots((2, 0, -4))[1]
    assert compare(sqrt2, other) == EQ
    assert compare(AlgebraicValue.from_rat(0), sqrt2) == LT
    assert compare(sqrt2, AlgebraicValue.from_rat(0)) == GT


def test_compare_conjugate_roots_of_shared_poly():
    minus, plus = isolate_quadratic_roots((1, 0, -2))
    assert compare(minus, plus) == LT
    assert compare(plus, minus) == GT


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
        x, y = rng.choice(values), rng.choice(values)
        fx, fy = x.refine(40).approx(), y.refine(40).approx()
        if abs(fx - fy) > 1e-6:
            expected = LT if fx < fy else GT
            assert compare(x, y) == expected


def test_sort_values_dedupes_equal_reals():
    sqrt2_a = isolate_quadratic_roots((1, 0, -2))[1]
    sqrt2_b = isolate_quadratic_roots((3, 0, -6))[1]
    ordered = sort_values([sqrt2_a, AlgebraicValue.from_rat(1), sqrt2_b, AlgebraicValue.from_rat(2)])
    assert len(ordered) == 3
    assert ordered[0].rational_value == 1
    assert compare(ordered[1], sqrt2_a) == EQ
    assert ordered[2].rational_value == 2


def test_rational_between():
    sqrt2 = isolate_quadratic_roots((1, 0, -2))[1]
    sqrt3 = isolate_quadratic_roots((1, 0, -3))[1]
    mid = rational_between(sqrt2, sqrt3)
    assert compare_with_rat(sqrt2, mid) == LT
    assert compare_with_rat(sqrt3, mid) == GT
