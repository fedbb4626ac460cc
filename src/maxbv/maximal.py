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

Queries are rational only.  Between-breakpoint structure at irrational
points is answered symbolically by the envelope module instead.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional

from .exact import Rat, format_rat, rat
from .stepfn import AbsIntegral, StepFunction

_LIMIT_ORDER = {"tail_left": 0, "tail_right": 1, "shrink_left": 2, "shrink_right": 3}


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
        elif self.kind not in _LIMIT_ORDER:
            raise ValueError(f"unknown witness kind {self.kind!r}")

    @property
    def length(self) -> Optional[Rat]:
        if self.kind == "finite":
            return self.b - self.a
        return None

    def sort_key(self):
        """Deterministic preference: finite first, then shorter, then leftmost;
        limit kinds in the documented fixed order."""
        if self.kind == "finite":
            return (0, self.length, self.a)
        return (1, _LIMIT_ORDER[self.kind], 0)

    def __str__(self):
        if self.kind == "finite":
            return f"finite({format_rat(self.a)},{format_rat(self.b)})"
        return self.kind


@dataclass(frozen=True)
class MaximalValue:
    value: Rat
    witness: WitnessInterval
    one_sided_witness: Optional[WitnessInterval] = None


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
    abs_consts = [abs(c) for c in f.constants]
    finite = None  # (average, -length, -left end, left end, right end)
    # Walk outward from x, accumulating the integral of |f| over (bp, x) and
    # then over (x, bp); constant k lies between breakpoints k - 1 and k.
    area, edge = 0, x
    for k in range(bisect_left(bps, x) - 1, -1, -1):
        area += abs_consts[k + 1] * (edge - bps[k])
        edge = bps[k]
        key = (area / (x - edge), edge - x, -edge, edge, x)
        if finite is None or key > finite:
            finite = key
    area, edge = 0, x
    for k in range(bisect_right(bps, x), len(bps)):
        area += abs_consts[k] * (bps[k] - edge)
        edge = bps[k]
        key = (area / (edge - x), x - edge, -x, x, edge)
        if finite is None or key > finite:
            finite = key
    shrink_left, shrink_right = abs(f.left_limit(x)), abs(f.right_limit(x))
    limits = (
        ("tail_left", abs_consts[0]),
        ("tail_right", abs_consts[-1]),
        ("shrink_left", shrink_left),
        ("shrink_right", shrink_right),
    )
    best = max(value for _, value in limits)
    if finite is not None and finite[0] >= best:
        best = finite[0]
        witness = WitnessInterval("finite", best, finite[3], finite[4])
    else:
        witness = WitnessInterval(next(kind for kind, value in limits if value == best), best)
    one_sided = None
    if best > max(shrink_left, shrink_right) and best > maximal_limit_at_infinity(f):
        if witness.kind != "finite":
            raise AssertionError("candidate family lost its one-sided witness")
        one_sided = witness
    return MaximalValue(best, witness, one_sided)
