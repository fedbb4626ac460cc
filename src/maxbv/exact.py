"""Exact scalars: arbitrary-precision rationals and quadratic surds.

Rationals are ``fractions.Fraction``: canonical form (positive denominator,
reduced), exact total arithmetic, arbitrary-precision integers.  Their text
form goes through ints both ways: ``parse_rat`` takes p and q from the groups
of its one regex match, and ``format_pair`` prints an int pair num/den in
lowest terms, reduced by ``lowest_pair`` and checked there against the pair,
through ``decimal`` past Python's limit on the digits of an int's text;
``format_rat`` prints a Fraction
straight from its numerator and denominator, already in lowest terms, with
the same fallback past that limit.
``AlgebraicValue`` adds the real roots of int quadratics, the critical
points of a difference of two profiles.  A surd keeps only its ints, and
``bracket(level)`` gives its dyadic bracket at any int level as two int
pairs, from one ``math.isqrt`` in closed form.  Where a root lies is never
asked of a bracket: the exact signs of an int quadratic at the ends of a
cell settle it.  ``isolate_quadratic_roots`` takes the quadratic as the
ints it is made of, and a bracket is read only to enclose a value at the
root.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
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


def lowest_pair(num: int, den: int) -> Tuple[int, int]:
    """num/den, den != 0, as the int pair (p, q) in lowest terms with q > 0.
    The way back checks q > 0 and p*den == num*q, so the pair stands for
    num/den."""
    common = math.gcd(num, den)
    if den < 0:
        common = -common
    p, q = num // common, den // common
    if q <= 0 or p * den != num * q:
        raise AssertionError("rational text disagrees with its int pair")
    return p, q


def _text(p: int, q: int) -> str:
    """'p' or 'p/q' for ints p and q > 0 in lowest terms."""
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:  # past the digit limit of str
        return f"{_digits(p)}/{_digits(q)}" if q != 1 else _digits(p)


def format_pair(num: int, den: int) -> str:
    """Canonical text form of the int pair num/den, den != 0: 'p' or 'p/q'
    in lowest terms with q > 0, from ``lowest_pair``, whose way back makes
    the text stand for the pair it was made from."""
    return _text(*lowest_pair(num, den))


def format_rat(value) -> str:
    """Canonical text form: 'p' or 'p/q' with q > 0, and '-inf'/'inf' for
    the two infinities; finite floats are rejected."""
    if type(value) is not Fraction:
        if isinstance(value, float):
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            raise TypeError("refusing float input; exact arithmetic only")
        value = Fraction(value)
    # A Fraction's numerator and denominator are already in lowest terms,
    # with the denominator positive.
    return _text(value.numerator, value.denominator)


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


# --- int quadratics, coefficients (a, b, c) meaning a*x^2 + b*x + c ---


@dataclass(frozen=True)
class AlgebraicValue:
    """A real root of an int quadratic: a rational ``value``, or a surd.

    An irrational root (-b + branch*sqrt(disc))/(2a), a > 0, branch = +-1,
    has at each int level the bracket that ``level`` bisections of its
    level-0 one reach (no midpoint is ever the root).
    """

    value: Optional[Rat] = None
    a: int = 0
    b: int = 0
    disc: int = 0
    branch: int = 0

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))
        elif self.a <= 0 or self.branch not in (-1, 1) or math.isqrt(self.disc) ** 2 == self.disc:
            raise ValueError("a surd needs a > 0, branch +-1 and a discriminant that is not a square")

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def bracket(self, level: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The ends (lo, hi) of the bracket at this level, as int pairs over
        den = 2a*2**level: with S = 2**level and T = isqrt(disc*S**2), lo's
        numerator is -b*S + T on the high branch, -b*S - T - 1 on the low one,
        and hi's is one more.  A rational root's ends are both its value."""
        if self.value is not None:
            end = (self.value.numerator, self.value.denominator)
            return end, end
        scale = 1 << level
        t = math.isqrt(self.disc * scale * scale)
        num = -self.b * scale + (t if self.branch > 0 else -t - 1)
        den = 2 * self.a * scale
        return (num, den), (num + 1, den)


def isolate_quadratic_roots(poly: Tuple[int, int, int]) -> List[AlgebraicValue]:
    """All distinct real roots of a degree <= 2 int polynomial, sorted:
    exact values when the discriminant is a square (0 included), else the
    two surds."""
    ai, bi, ci = poly
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
