"""Exact scalars: arbitrary-precision rationals and quadratic surds.

Rationals are ``fractions.Fraction``: canonical form (positive denominator,
reduced), exact total arithmetic, arbitrary-precision integers.  Their text
form goes through ints both ways: ``parse_rat`` takes p and q from the groups
of its one regex match, and ``format_rat`` prints a Fraction's numerator and
denominator as they are, through ``decimal`` past Python's limit on the
digits of an int's text.
``AlgebraicValue`` adds the real roots of int quadratics, the critical
points of a difference of two profiles, with a dyadic bracket that one
``math.isqrt`` gives in closed form.  Where a root lies is never asked of
its bracket: the exact signs of an int quadratic at the ends of a cell
settle it.  ``integer_quadratic`` scales a rational quadratic to ints, and
brackets are narrowed only to enclose a value at the root.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

Rat = Fraction

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def rat(numerator, denominator=1) -> Rat:
    """Exact rational from ints, strings or Fractions; floats are rejected.
    A Fraction alone comes back as it is (it is immutable)."""
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise TypeError("refusing float input; exact arithmetic only")
    if denominator == 1:
        return numerator if type(numerator) is Fraction else Fraction(numerator)
    return Fraction(numerator, denominator)


def parse_rat(text: str) -> Rat:
    """Parse the text form 'p' or 'p/q' with q > 0, reading the ints off
    the one match."""
    match = _RAT_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q', q > 0)")
    p, q = match.groups()
    return Fraction(int(p), int(q)) if q else Fraction(int(p))


def _digits(n: int) -> str:
    """The decimal text of the int n.  ``str`` refuses an int with more
    digits than ``sys.get_int_max_str_digits()`` allows (a ValueError, and
    only then); such an int is printed through ``decimal``, whose
    conversions have no such limit."""
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


def format_rat(value) -> str:
    """Canonical text form: 'p' or 'p/q' with q > 0, and '-inf'/'inf' for
    the two infinities; finite floats are rejected."""
    if type(value) is not Fraction:
        if isinstance(value, float):
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            raise TypeError("refusing float input; exact arithmetic only")
        value = Fraction(value)
    p, q = value.numerator, value.denominator
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:  # past the digit limit of str
        return f"{_digits(p)}/{_digits(q)}" if q != 1 else _digits(p)


def decimal_str(value, digits: int = 9) -> str:
    """Exact fixed-point decimal rendering, rounding half away from zero."""
    q = Fraction(value)
    if digits <= 0:
        units = (2 * abs(q.numerator) + q.denominator) // (2 * q.denominator)
        return ("-" if q < 0 and units else "") + _digits(units)
    scale = 10**digits
    units = (2 * abs(q.numerator) * scale + q.denominator) // (2 * q.denominator)
    sign_text = "-" if q < 0 and units else ""
    text = _digits(units).rjust(digits + 1, "0")
    return f"{sign_text}{text[:-digits]}.{text[-digits:]}"


def sign(q) -> int:
    return (q > 0) - (q < 0)


# --- quadratic polynomials, coefficients (a, b, c) meaning a*x^2 + b*x + c ---

Poly = Tuple[Rat, Rat, Rat]


@dataclass(frozen=True)
class AlgebraicValue:
    """A real root of an int quadratic, with a rational bracket [lo, hi].

    A rational root is its ``value``, with a width-zero bracket.  An
    irrational root (-b + branch*sqrt(disc))/(2a), a > 0, branch = +-1, has
    the bracket that ``level`` bisections of its level-0 one reach (no
    midpoint is ever the root): with S = 2**level and T = isqrt(disc*S**2),
    lo = (-b*S + T)/(2a*S) on the high branch, (-b*S - T - 1)/(2a*S) on the
    low one, and hi = lo + 1/(2a*S).
    """

    value: Optional[Rat] = None
    a: int = 0
    b: int = 0
    disc: int = 0
    branch: int = 0
    level: int = 0

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))
        elif self.a <= 0 or self.branch not in (-1, 1) or math.isqrt(self.disc) ** 2 == self.disc:
            raise ValueError("a surd needs a > 0, branch +-1 and a discriminant that is not a square")

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    @property
    def width(self) -> Rat:
        return Fraction(0) if self.value is not None else Fraction(1, 2 * self.a << self.level)

    @cached_property
    def lo(self) -> Rat:
        if self.value is not None:
            return self.value
        scale = 1 << self.level
        t = math.isqrt(self.disc * scale * scale)
        return Fraction(-self.b * scale + (t if self.branch > 0 else -t - 1), 2 * self.a * scale)

    @cached_property
    def hi(self) -> Rat:
        return self.lo + self.width

    def refine(self, k: int) -> "AlgebraicValue":
        """Return the same value with bracket width at most 2**-k."""
        return self.refine_below(Fraction(1, 2**k))

    def refine_below(self, width: Rat) -> "AlgebraicValue":
        """The first level, not above this one, with 1/(2a*2**level) <= width."""
        if self.value is not None:
            return self
        if width <= 0:
            raise ValueError("an irrational root has no bracket of width <= 0")
        least = -(-width.denominator // (2 * self.a * width.numerator))  # 2**level >= least
        level = max(self.level, (least - 1).bit_length())
        return self if level == self.level else replace(self, level=level)


def integer_quadratic(poly: Poly) -> Tuple[int, int, int]:
    """A rational quadratic times the lcm of its denominators: int
    coefficients, and the same sign as the quadratic at every point."""
    a, b, c = (Fraction(v) for v in poly)
    scale = math.lcm(a.denominator, b.denominator, c.denominator)
    return int(a * scale), int(b * scale), int(c * scale)


def isolate_quadratic_roots(poly: Poly) -> List[AlgebraicValue]:
    """All distinct real roots of a degree <= 2 rational polynomial, sorted:
    exact values when the discriminant is a square (0 included), else the
    two surds at level 0."""
    ai, bi, ci = integer_quadratic(poly)
    if not (ai or bi or ci):
        raise ValueError("the zero polynomial has no isolated roots")
    if ai == 0:
        return [AlgebraicValue(Fraction(-ci, bi))] if bi else []
    if ai < 0:
        ai, bi, ci = -ai, -bi, -ci
    disc = bi * bi - 4 * ai * ci
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root == disc:
        return [AlgebraicValue(Fraction(-bi + r, 2 * ai)) for r in sorted({-root, root})]
    return [AlgebraicValue(a=ai, b=bi, disc=disc, branch=branch) for branch in (-1, 1)]
