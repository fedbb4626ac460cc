import random
from fractions import Fraction

import pytest

from maxbv.exact import (
    decimal_str,
    format_rat,
    integer_quadratic,
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
    assert all(r.is_rational for r in roots)
    assert [r.lo for r in roots] == [-1, 1]
    assert all(r.width == 0 for r in roots)


def test_isolate_no_real_roots_and_degenerate():
    assert isolate_quadratic_roots((1, 0, 1)) == []
    (root,) = isolate_quadratic_roots((0, 2, -3))
    assert root.is_rational and root.lo == Fraction(3, 2)
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


def test_integer_quadratic_keeps_the_sign_everywhere():
    assert integer_quadratic((Fraction(1, 2), Fraction(-1, 3), 1)) == (3, -2, 6)
    assert integer_quadratic((0, 0, 0)) == (0, 0, 0)
    rng = random.Random(11)
    for _ in range(200):
        poly = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3))
        ints = integer_quadratic(poly)
        assert all(isinstance(v, int) for v in ints)
        for _ in range(5):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
            assert (poly_eval(poly, x) > 0) == (poly_eval(ints, x) > 0)
            assert (poly_eval(poly, x) == 0) == (poly_eval(ints, x) == 0)
