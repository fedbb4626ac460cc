import math
import random
from fractions import Fraction

import pytest

from maxbv.exact import (
    AlgebraicValue,
    decimal_str,
    format_rat,
    isolate_quadratic_roots,
    parse_rat,
    rat,
    sign,
)


def poly_eval(poly, x):
    a, b, c = poly
    return (a * x + b) * x + c


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
        assert poly_eval((1, 0, -3), cur.lo) * poly_eval((1, 0, -3), cur.hi) < 0
        prev = cur


def level0_bracket(q, branch):
    """The isolating bracket of width 1/(2a) from isqrt(disc), a > 0."""
    a, b, c = q
    r = math.isqrt(b * b - 4 * a * c)
    lo = Fraction(-b + r, 2 * a) if branch > 0 else Fraction(-b - r - 1, 2 * a)
    return lo, lo + Fraction(1, 2 * a)


def bisect_below(q, lo, hi, width):
    """Bisect [lo, hi], which holds one irrational root of q, until it is at
    most width wide."""
    sign_lo = sign(poly_eval(q, lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        sign_mid = sign(poly_eval(q, mid))
        assert sign_mid != 0
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


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


def test_refine_below_is_the_bisection_of_the_level0_bracket():
    widths = [Fraction(1, 2**k) for k in range(81)] + [Fraction(1, 3 * 10**k) for k in range(0, 25, 3)]
    for q in irrational_quadratics(200, 42):
        roots = isolate_quadratic_roots(q)
        for root, branch in zip(roots, (-1, 1)):
            assert (root.lo, root.hi) == level0_bracket(q, branch)
            lo, hi = root.lo, root.hi
            for width in sorted(widths, reverse=True):
                lo, hi = bisect_below(q, lo, hi, width)
                cur = root.refine_below(width)
                assert (cur.lo, cur.hi) == (lo, hi)
            cur = root.refine_below(Fraction(1, 2**40))
            for _ in range(6):  # the pole loop's quarter steps
                lo, hi = bisect_below(q, cur.lo, cur.hi, cur.width / 4)
                cur = cur.refine_below(cur.width / 4)
                assert (cur.lo, cur.hi) == (lo, hi)
            assert cur.refine_below(1) is cur  # never coarser than the current level


def test_rational_roots_are_never_refined():
    for root in isolate_quadratic_roots((4, -4, -3)) + isolate_quadratic_roots((1, -2, 1)):
        assert root.is_rational and root.width == 0
        assert root.refine_below(Fraction(1, 2**60)) is root
        assert root.refine(80) is root


def test_surd_constructor_rejects_what_fixes_no_irrational_root():
    AlgebraicValue(a=1, b=0, disc=8, branch=1)
    for fields in ({"a": 0, "b": 0, "disc": 8, "branch": 1}, {"a": -1, "b": 0, "disc": 8, "branch": 1},
                   {"a": 1, "b": 0, "disc": 9, "branch": 1}, {"a": 1, "b": 2, "disc": 0, "branch": -1},
                   {"a": 1, "b": 0, "disc": 8, "branch": 0}):
        with pytest.raises(ValueError):
            AlgebraicValue(**fields)
    with pytest.raises(ValueError):
        isolate_quadratic_roots((1, 0, -2))[0].refine_below(0)
