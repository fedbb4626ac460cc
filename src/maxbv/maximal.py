"""Pointwise evaluation of the uncentered maximal operator on step functions.

Completeness of the candidate family.  For a step function, the average of
|f| over (a, b) is a Moebius function of each endpoint separately while the
other is held fixed, so it is monotone in each endpoint between consecutive
breakpoints.  The supremum over all finite intervals containing x is
therefore attained on the finite grid whose endpoints are breakpoints or x
itself, or approached in one of four limit regimes: the interval shrinking
onto x from the left or right (yielding the one-sided limits of |f|), or an
endpoint escaping to -oo / +oo (yielding the tail limits of |f|).
``candidate_set`` lists that whole family; it is the slow oracle that the
tests and the verify module hold the fast evaluator to.

Anchored intervals.  An interval (a, b) straddling x averages (a, x) and
(x, b) with positive weights, so it never beats both halves, and ties only
when both halves tie it.  ``maximal_value`` therefore scans just the finite
intervals with one endpoint at x, plus the four limits: O(n) per query
instead of O(n^2), with the same value, the same "finite, then shorter, then
leftmost" witness (a best straddling interval always has a strictly shorter
best half), and the same one-sided witness.

The scan runs on f's integer lattice (``StepFunction.lattice``, cached on f
and shared with the profile build): the scale D, the unit E, the points
X = D*b, the levels L = E*|c| and the sums P = D*E*F(b) of the
antiderivative F of |f|.  With x = p/q, the breakpoints below x and up to x
are counted (lo and hi) by bisecting the ints X against D*p/q.  With
j = max(lo - 1, 0), the int Y = q*P_j + L_lo*(D*p - q*X_j) is q*D*E*F(x), so
a left anchor i averages (Y - q*P_i)/(E*(D*p - q*X_i)) and a right anchor
(q*P_i - Y)/(E*(q*X_i - D*p)).  The second factor of each denominator is
the interval's length times D*q, so averages and lengths compare by
cross-multiplication, and the four limits are the levels L_0, L_n, L_lo and
L_hi, all in units of 1/E.  A Fraction is made only for the winner.

Queries are rational only.  Between-breakpoint structure at irrational
points is answered symbolically by the envelope module instead.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .exact import Rat, format_rat, rat
from .stepfn import AbsIntegral, StepFunction

_LIMIT_KINDS = ("tail_left", "tail_right", "shrink_left", "shrink_right")


@dataclass(frozen=True)
class WitnessInterval:
    """An interval (or limit of intervals) realizing a candidate average.

    ``finite`` carries endpoints a < b and the exact average of |f| over
    them; the four limit kinds carry the corresponding one-sided or tail
    limit of |f| as their value.
    """

    kind: str
    value: Rat
    a: Optional[Rat] = None
    b: Optional[Rat] = None

    def __post_init__(self):
        if self.kind == "finite":
            if self.a is None or self.b is None or not self.a < self.b:
                raise ValueError("finite witness needs endpoints a < b")
        elif self.kind not in _LIMIT_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")

    def __str__(self):
        if self.kind == "finite":
            return f"finite({format_rat(self.a)},{format_rat(self.b)})"
        return self.kind


@dataclass(frozen=True)
class MaximalValue:
    witness: WitnessInterval
    one_sided_witness: Optional[WitnessInterval] = None

    @property
    def value(self) -> Rat:
        """The maximal value, the average its witness attains."""
        return self.witness.value


def candidate_set(f: StepFunction, x) -> List[WitnessInterval]:
    """All candidate averages at x: the finite endpoint grid plus the four
    limit regimes.  The maximal value is exactly the maximum over these."""
    x = rat(x)
    integ = AbsIntegral(f)
    lefts = sorted({bp for bp in f.breakpoints if bp <= x} | {x})
    rights = sorted({bp for bp in f.breakpoints if bp >= x} | {x})
    candidates = [
        WitnessInterval("finite", integ.average(a, b), a, b)
        for a in lefts
        for b in rights
        if a < b
    ]
    consts = f.constants
    candidates.append(WitnessInterval("shrink_left", abs(f.left_limit(x))))
    candidates.append(WitnessInterval("shrink_right", abs(f.right_limit(x))))
    candidates.append(WitnessInterval("tail_left", abs(consts[0])))
    candidates.append(WitnessInterval("tail_right", abs(consts[-1])))
    return candidates


def maximal_limit_at_infinity(f: StepFunction) -> Rat:
    """Common limit of the maximal function at both infinities."""
    consts = f.constants
    return max(abs(consts[0]), abs(consts[-1]))


def maximal_value(f: StepFunction, x) -> MaximalValue:
    """Exact maximal-function value at rational x with a deterministic witness.

    Whenever the value strictly exceeds both the adjusted modulus at x and
    the limit at infinity, a finite witness with one endpoint at x attains
    the same value (splitting a straddling witness at x can only increase
    one side); the preferred such witness is recorded separately.  Only the
    anchored intervals are scanned, so that witness is the witness itself.
    """
    x = rat(x)
    bps = f.breakpoints
    n = len(bps)
    scale, unit, xs, ls, ps = f.lattice
    p, q = x.numerator, x.denominator
    dp = scale * p
    # lo and hi count the points X below and up to D*x = dp/q, on ints:
    # with dp = t*q + r, an int X lies below dp/q when X < t, or when X = t
    # and r > 0.
    t, r = divmod(dp, q)
    hi = bisect_right(xs, t)
    lo = hi if r else bisect_left(xs, t, 0, hi)
    # The best anchored interval so far: its average is num/(E*den) and its
    # length den/(D*q), so (-1, 1) is below every average.
    best_num, best_den, anchor = -1, 1, None
    if n:
        # Y = q*D*E*F(x), from the last breakpoint left of x (or the first).
        j = max(lo - 1, 0)
        y = q * ps[j] + ls[lo] * (dp - q * xs[j])
        # Walking outward the intervals grow, so a tie keeps the shorter.
        for i in range(lo - 1, -1, -1):
            num, den = y - q * ps[i], dp - q * xs[i]
            if num * best_den > best_num * den:
                best_num, best_den, anchor = num, den, i
        # A right anchor beats a left one of the same average only when it
        # is shorter: at equal lengths the left one lies further left.
        for i in range(hi, n):
            num, den = q * ps[i] - y, q * xs[i] - dp
            order = num * best_den - best_num * den
            if order > 0 or (order == 0 and den < best_den):
                best_num, best_den, anchor = num, den, i
    # The four limits in units of 1/E, in their order of preference.
    limits = (ls[0], ls[-1], ls[lo], ls[hi])
    top = max(limits)
    if anchor is not None and best_num >= top * best_den:
        a, b = (bps[anchor], x) if anchor < lo else (x, bps[anchor])
        witness = WitnessInterval("finite", Fraction(best_num, unit * best_den), a, b)
        # Above every limit, the anchored witness is also the one-sided one.
        one_sided = witness if best_num > top * best_den else None
        return MaximalValue(witness, one_sided)
    kind = limits.index(top)
    value = abs(f.constants[(0, n, lo, hi)[kind]])
    return MaximalValue(WitnessInterval(_LIMIT_KINDS[kind], value))
