"""Exact scalars: arbitrary-precision rationals and quadratic surds.

Rationals are ``fractions.Fraction``: canonical form (positive denominator,
reduced), exact total arithmetic, arbitrary-precision integers.
``AlgebraicValue`` adds the real roots of quadratics with rational
coefficients, carried as a defining polynomial plus a rational bracket that
can be narrowed on demand.  The only such roots the package meets are the
critical points of a difference of two profiles.  Where such a root lies is
never asked of its bracket: ``integer_quadratic`` scales the quadratic to
ints, whose exact signs at the ends of a cell settle it.  Brackets are
narrowed only to enclose a value at the root.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

Rat = Fraction

_RAT_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def rat(numerator, denominator=1) -> Rat:
    """Exact rational from ints, strings or Fractions; floats are rejected."""
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise TypeError("refusing float input; exact arithmetic only")
    if denominator == 1:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


def parse_rat(text: str) -> Rat:
    """Parse the canonical text form 'p' or 'p/q' with q > 0."""
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q', q > 0)")
    return Fraction(text)


def format_rat(value) -> str:
    """Canonical text form: 'p' or 'p/q' with q > 0."""
    return str(Fraction(value))


def decimal_str(value, digits: int = 9) -> str:
    """Exact fixed-point decimal rendering, rounding half away from zero."""
    q = Fraction(value)
    if digits <= 0:
        units = (2 * abs(q.numerator) + q.denominator) // (2 * q.denominator)
        return ("-" if q < 0 and units else "") + str(units)
    scale = 10**digits
    units = (2 * abs(q.numerator) * scale + q.denominator) // (2 * q.denominator)
    sign_text = "-" if q < 0 and units else ""
    text = str(units).rjust(digits + 1, "0")
    return f"{sign_text}{text[:-digits]}.{text[-digits:]}"


def sign(q) -> int:
    return (q > 0) - (q < 0)


# --- quadratic polynomials, coefficients (a, b, c) meaning a*x^2 + b*x + c ---

Poly = Tuple[Rat, Rat, Rat]


def poly_eval(poly: Poly, x) -> Rat:
    a, b, c = poly
    return (a * x + b) * x + c


@dataclass(frozen=True)
class AlgebraicValue:
    """A real number with a rational bracket [lo, hi].

    Rational values carry no polynomial and a width-zero bracket.  Irrational
    values carry a quadratic with rational coefficients whose sign differs at
    lo and hi, so exactly one root lies inside; that root is the value.
    Instances are immutable: ``refine`` returns a new, narrower value.
    """

    lo: Rat
    hi: Rat
    poly: Optional[Poly] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.poly is None:
            if self.lo != self.hi:
                raise ValueError("rational AlgebraicValue needs a width-zero bracket")
        else:
            object.__setattr__(self, "poly", tuple([Fraction(c) for c in self.poly]))
            if not self.lo < self.hi:
                raise ValueError("bracketed AlgebraicValue needs lo < hi")
            if sign(poly_eval(self.poly, self.lo)) * sign(poly_eval(self.poly, self.hi)) >= 0:
                raise ValueError("defining polynomial must change sign across the bracket")

    @staticmethod
    def from_rat(value) -> "AlgebraicValue":
        value = Fraction(value)
        return AlgebraicValue(value, value, None)

    @property
    def is_rational(self) -> bool:
        return self.poly is None

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    def refine(self, k: int) -> "AlgebraicValue":
        """Return the same value with bracket width at most 2**-k."""
        return self.refine_below(Fraction(1, 2**k))

    def refine_below(self, width: Rat) -> "AlgebraicValue":
        if self.poly is None or self.width <= width:
            return self
        lo, hi = self.lo, self.hi
        sign_lo = sign(poly_eval(self.poly, lo))
        while hi - lo > width:
            mid = (lo + hi) / 2
            sign_mid = sign(poly_eval(self.poly, mid))
            if sign_mid == 0:
                # The bracketed root turned out rational; collapse to it.
                return AlgebraicValue(mid, mid, None)
            if sign_mid == sign_lo:
                lo = mid
            else:
                hi = mid
        return AlgebraicValue(lo, hi, self.poly)


def integer_quadratic(poly: Poly) -> Tuple[int, int, int]:
    """A rational quadratic times the lcm of its denominators: int
    coefficients, and the same sign as the quadratic at every point."""
    a, b, c = (Fraction(v) for v in poly)
    scale = math.lcm(a.denominator, b.denominator, c.denominator)
    return int(a * scale), int(b * scale), int(c * scale)


def isolate_quadratic_roots(poly: Poly) -> List[AlgebraicValue]:
    """All distinct real roots of a degree <= 2 rational polynomial, sorted.

    Rational roots come back as exact width-zero values; irrational root
    pairs are bracketed via the integer square root of the discriminant so
    each bracket contains exactly one root.
    """
    ai, bi, ci = integer_quadratic(poly)
    if not (ai or bi or ci):
        raise ValueError("the zero polynomial has no isolated roots")
    if ai == 0:
        if bi == 0:
            return []
        return [AlgebraicValue.from_rat(Fraction(-ci, bi))]
    if ai < 0:
        ai, bi, ci = -ai, -bi, -ci
    disc = bi * bi - 4 * ai * ci
    if disc < 0:
        return []
    if disc == 0:
        return [AlgebraicValue.from_rat(Fraction(-bi, 2 * ai))]
    root = math.isqrt(disc)
    if root * root == disc:
        pair = sorted((Fraction(-bi - root, 2 * ai), Fraction(-bi + root, 2 * ai)))
        return [AlgebraicValue.from_rat(v) for v in pair]
    # sqrt(disc) lies strictly in (root, root + 1); the brackets below are
    # narrower than the root gap sqrt(disc)/ai, so each holds one root.
    defining = (Fraction(ai), Fraction(bi), Fraction(ci))
    low_root = AlgebraicValue(Fraction(-bi - root - 1, 2 * ai), Fraction(-bi - root, 2 * ai), defining)
    high_root = AlgebraicValue(Fraction(-bi + root, 2 * ai), Fraction(-bi + root + 1, 2 * ai), defining)
    return [low_root, high_root]
