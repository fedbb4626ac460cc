"""Global structure of the maximal function: exact piecewise-Moebius profiles.

Between consecutive breakpoints of f, the maximal function is the upper
envelope of finitely many candidate functions of the query point x: averages
of |f| anchored at a breakpoint on one side with x as the other endpoint
(Moebius functions of x), plus one constant, the largest of the local value
and the two tail limits.  Intervals spanning the whole segment are averages
of two anchored ones, so they never win by value; they only name the
constant's tag (``const(a,b)``) where it wins a piece.  On a segment where
|f| = l, every anchored candidate normalizes to (alpha + l*x)/(gamma + x)
and the constant to (c + 0*x)/(1 + 0*x), so the x^2 terms of any crossing
equation cancel: two distinct candidates meet at most once, crossings solve
linear equations, and every junction, piece endpoint and endpoint value is a
plain rational.  A candidate is just its coefficient tuple: an anchored
piece's anchor is its pole q = -gamma, tagged ``left(q)`` when q lies left of
the segment and ``right(q)`` otherwise.

With F the antiderivative of |f|, an anchored average is the slope from
(a, F(a)) to (x, F(x)), so only vertices of the lower convex hull of the
points left of the segment (upper hull for those to the right) can carry a
piece; one Andrew monotone-chain pass in each direction yields every
segment's hull.  The envelope is then a left-to-right walk: from the current
winner, the next piece starts at the earliest crossing where another
candidate overtakes it.  The candidate-set maximum of ``maximal.candidate_set``
and the pointwise engine ``maximal.maximal_value`` stay the oracles the tests
compare profiles with.  Every build checks itself at each breakpoint against
values read off the same two chains without the walk: the vertex a
breakpoint's point was pushed onto is its best anchor on that side, so one
O(n) sweep gives the maximal function at every breakpoint.  It also checks
that adjacent pieces agree at every junction.

The build runs on an integer lattice.  With D the lcm of the breakpoint
denominators and E that of the |constant| denominators, the points
X = D*b, the levels L = E*|c| and the antiderivative values P = D*E*F(b)
are ints; a candidate is an int coefficient tuple in the coordinate X,
valued in units of 1/E, a crossing is a pair of ints, and the walk compares
by cross-multiplication.  The scaling is positive in both coordinates, so
every orientation test, and with it every hull link, and every comparison
of the walk come out as they would on the rationals.  The self-checks run
on the lattice too: the junctions and breakpoint values are compared by
cross-multiplication.  The build body takes any lattice (D, E, X, L, P)
whose D and E are positive multiples of those lcms: ``build_profile`` reads
f's own, ``StepFunction.lattice``, made once per function, checked there
and shared with the pointwise engine ``maximal.maximal_value``, and
``PerturbationFamily`` makes one for the whole family f + s*g.

The family lattice is read once for f and g.  Fixed across scales are the
merged breakpoints with their scale D (the lcm over all of them) and points
X, and f's signed int levels a in the unit e_f and g's b in e_g; each is
checked once against the rational it came from.  At a scale s = p/q only
the levels L = |a*e_g*q + b*e_f*p|, the unit E = e_f*e_g*q and the sums P
change, and a merged breakpoint where the value of f + s*g equals both
neighbouring constants is dropped, as canonical form drops it.  Only where
the two signed levels are equal is that value read, on rationals.  E is a
positive multiple of the lcm of the constant denominators of f + s*g, and D
of its breakpoint denominators: the scaling stays positive in both
coordinates, every output is a reduced Fraction, a sign, or an int pair
or int form up to a positive factor, and so the family's profiles are those
of ``build_profile`` on f + s*g byte for byte.

A built profile is a skeleton of ints read straight off the merged cells:
each junction is one pair (p, q*D) and each end value (the limits at -oo
and +oo among them) one pair (num, den*E) with den > 0, and each piece's int
form is the cell's tuple rescaled to the coordinate x, (A, L*D, -X*E, D*E)
for an anchored cell and (C, 0, E, 0) for a constant, a positive multiple
of the piece, not reduced, so that every sign of the piece is a sign of its
form.  Distances, whole-line variations and the detachment walk decide on
these pairs and forms alone, and a build makes no Fraction.  The skeleton's
Fractions, ``ends`` and ``end_values``, are made together on the first read
of either: by a dump, the detachment set (whose printed bounds are ``ends``
and f's breakpoints), point values, derivatives and windowed variations.
The MoebiusPiece Fractions (alpha = A/(D*E), beta = L/E, gamma = -X/D) and
their tags are made when a dump or the invariant suite's piece checks read
them.  Int passes check the way in and the way back:
``StepFunction.lattice`` that X*den(b) = num(b)*D and L*den(c) = |num(c)|*E
for f's own rationals b and c when it is made (a family, once, its own
lattice against the rationals of f and g); the first read of the skeleton's
Fractions that each is its int pair; and each piece's coefficients against
its cell where they are made.  So every rational a profile prints has been
checked.

An infinite end is ``stepfn.NEG_INF``/``POS_INF`` in piece domains and
region intervals, compared exactly and never computed with; in the lattice
walk an unbounded end is None, and in the skeleton walks the pair (-1, 0)
or (1, 0).  The first piece starts at -oo and the last ends at +oo, and
their end values there are their limits, the maximal function's limits at
infinity, so variations read them like any other end value.

Because each non-constant piece is a Moebius function with its pole strictly
outside the closed piece domain, every piece is monotone, and the variation
of a profile is an exact telescoping sum of endpoint values.  The
difference of two profiles has at most one critical point per common cell,
and exact signs locate it: its derivative has the sign of an int quadratic,
which changes sign across the cell exactly when the cell holds a critical
point.  The difference walk is one two-pointer merge of the two piece
lists, and it decides every sign on ints: the critical quadratic of two
int forms and its signs at the cell ends are int expressions, d at a
junction is an int pair, and the exact part is one sum of int pairs,
reduced up a balanced merge tree, so its cost stays near linear in the
number of cells.  The variation is an exact sum over the
junctions of cells without a critical point; only the critical points
(peaks) get brackets, narrowed to a certified rational enclosure of any
requested precision.  A peak cell reduces the int quadratic of its two
forms to that of the two pieces, in lowest ints: a surd's bracket is sized
by that scaling.  A rational critical point's bracket is the point itself,
so its peak is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import Rat, format_rat, isolate_quadratic_roots, rat, sign
from .stepfn import NEG_INF, POS_INF, StepFunction, _antiderivative, _endpoint, _scaled

# An interval end: a rational, or NEG_INF/POS_INF (compared, never computed
# with).  The infinities are the only floats, so the hot loops tell an infinite
# end by its type: comparing a Fraction with a float costs about 1 us.
End = Union[Rat, float]


@dataclass(frozen=True)
class MoebiusPiece:
    """x -> (alpha + beta*x)/(gamma + delta*x) on a domain with exact ends.

    ``lo``/``hi`` are domain endpoints (NEG_INF/POS_INF for the infinities)
    and ``lo_value``/``hi_value`` the profile values there; at an infinite
    end, the limit of the piece there (beta/delta, or alpha/gamma for a
    constant).  The denominator has no zero on the closed domain, so the
    piece is monotone throughout.
    ``tag`` names the candidate that carries the piece: ``left(a)``,
    ``right(b)``, ``const(a,b)`` or ``const:<tail_left|tail_right|local>``.
    """

    alpha: Rat
    beta: Rat
    gamma: Rat
    delta: Rat
    lo: End
    hi: End
    lo_value: Rat
    hi_value: Rat
    tag: str

    @property
    def coefficients(self) -> Tuple[Rat, Rat, Rat, Rat]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def is_constant(self) -> bool:
        return self.beta == 0 and self.delta == 0

    @property
    def direction(self) -> int:
        """Monotonicity: the sign of the derivative, constant on the domain."""
        return sign(self.beta * self.gamma - self.alpha * self.delta)

    def value_at(self, x) -> Rat:
        x = rat(x)
        den = self.gamma + self.delta * x
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole of a profile piece")
        return (self.alpha + self.beta * x) / den

    def dump_line(self) -> str:
        cells = [
            format_rat(self.lo),
            format_rat(self.hi),
            format_rat(self.alpha),
            format_rat(self.beta),
            format_rat(self.gamma),
            format_rat(self.delta),
            self.tag,
        ]
        return "\t".join(cells)


# An int pair (num, den) stands for num/den.  A bound of a skeleton walk is a
# pair with den > 0, or one of the two pairs with den = 0 at the infinite ends.
Pair = Tuple[int, int]
_NEG_END: Pair = (-1, 0)
_POS_END: Pair = (1, 0)


def _next_bound(xs: Sequence[Pair], i: int, ys: Sequence[Pair], j: int) -> Tuple[Pair, bool, bool]:
    """One step of a two-pointer merge of the increasing pairs xs and ys at
    i and j: the next bound (the +oo pair once both are done) and whether
    each pointer steps past it (both, at a shared bound)."""
    if i < len(xs) and j < len(ys):
        (p, q), (r, s) = xs[i], ys[j]
        order = p * s - r * q
        return (xs[i] if order <= 0 else ys[j]), order <= 0, order >= 0
    if i < len(xs):
        return xs[i], True, False
    if j < len(ys):
        return ys[j], False, True
    return _POS_END, False, False


def _form_at(form: Sequence[int], x: Pair) -> Pair:
    """An int form's value at the finite bound x, as an int pair."""
    a, b, g, d = form
    n, m = x
    return a * m + b * n, g * m + d * n


def _fractions(pairs: Sequence[Pair]) -> Tuple[Rat, ...]:
    """The rationals p/q of int pairs (p, q), q > 0.  Tuples here are built
    from lists, as in ``stepfn``, to keep CPython's tuple free lists flat."""
    return tuple([Fraction(p, q) for p, q in pairs])


class MaximalProfile:
    """Ordered monotone pieces covering the whole line; continuous by
    construction (adjacent pieces agree at junctions).

    A profile is read through its skeleton of ints: ``end_pairs``, each
    junction in increasing order as a pair (p, q) with q > 0;
    ``value_pairs``, the limit at -oo, the value at each junction and the
    limit at +oo, each a pair (num, den) with den > 0; and ``int_forms``,
    each piece's (alpha, beta, gamma, delta) as ints, a positive multiple
    of the piece, so every sign of the piece is the sign of the form.
    ``ends`` and ``end_values``, the same skeleton as Fractions, are made
    together on first read of either, and checked there against their
    pairs (the way back).  ``pieces``, the ``MoebiusPiece``s with their
    tags, is made on first read, from ``ends`` and ``end_values``.

    A profile is made by a build on a lattice (``build_profile`` and
    ``PerturbationFamily.profile``), which fills the skeleton straight from
    its lattice cells and keeps, as ``cells``, the arguments of
    ``_cell_pieces`` after the profile itself, to make the pieces from.
    """

    __slots__ = ("end_pairs", "value_pairs", "int_forms", "_rationals", "_pieces", "_cells")

    def __init__(self, end_pairs, value_pairs, int_forms, cells):
        self.end_pairs, self.value_pairs, self.int_forms = end_pairs, value_pairs, int_forms
        self._rationals = self._pieces = None
        self._cells = cells

    def _skeleton(self) -> Tuple[Tuple[Rat, ...], Tuple[Rat, ...]]:
        """(ends, end_values), made and checked on the first call."""
        if self._rationals is None:
            ends, end_values = _fractions(self.end_pairs), _fractions(self.value_pairs)
            # The way back from the skeleton, in one int pass: each rational v
            # is its int pair (w, k), checked as v.numerator*k == w*v.denominator.
            # The pieces' coefficients are checked where the pieces are made.
            for rationals, pairs in ((ends, self.end_pairs), (end_values, self.value_pairs)):
                for v, (w, k) in zip(rationals, pairs, strict=True):
                    if v.numerator * k != w * v.denominator:
                        raise AssertionError("profile skeleton disagrees with its lattice cells")
            self._rationals = ends, end_values
        return self._rationals

    @property
    def ends(self) -> Tuple[Rat, ...]:
        return self._skeleton()[0]

    @property
    def end_values(self) -> Tuple[Rat, ...]:
        return self._skeleton()[1]

    @property
    def pieces(self) -> Tuple[MoebiusPiece, ...]:
        if self._pieces is None:
            self._pieces = _cell_pieces(self, *self._cells)
            self._cells = None
        return self._pieces

    def piece_containing(self, x) -> MoebiusPiece:
        """The piece whose closed domain holds x (the left one at a junction)."""
        return self.pieces[bisect_left(self.ends, rat(x))]

    def value(self, x) -> Rat:
        """The profile at x, off the int form of the piece holding it."""
        x = rat(x)
        form = self.int_forms[bisect_left(self.ends, x)]
        return Fraction(*_form_at(form, (x.numerator, x.denominator)))

    def dump(self) -> str:
        return "\n".join(piece.dump_line() for piece in self.pieces) + "\n"


@dataclass(frozen=True)
class RegionSet:
    """Disjoint sorted intervals with exact endpoints (NEG_INF/POS_INF at
    the infinite ends).

    Open intervals for the detachment set; its complement is reported as
    closed intervals, possibly degenerate (single touch points).
    """

    intervals: Tuple[Tuple[End, End], ...]
    closed: bool = False

    def contains(self, x) -> bool:
        x = rat(x)
        if self.closed:
            return any(lo <= x <= hi for lo, hi in self.intervals)
        return any(lo < x < hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class VariationEnclosure:
    """Certified rational interval around a variation value."""

    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("enclosure needs lo <= hi")

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2

    def __str__(self):
        return f"{format_rat(self.lo)}..{format_rat(self.hi)}"


_ZERO = Fraction(0)
_ONE = Fraction(1)


# --- the build, on the integer lattice --------------------------------------

# A candidate is its coefficient tuple (alpha, beta, gamma, delta) of ints: a
# Moebius function of the lattice coordinate X = D*x, valued in units of 1/E.
# A lattice point is a pair (p, q) of ints with q > 0, standing for X = p/q.
Candidate = Tuple[int, int, int, int]
Point = Tuple[int, int]


def _crossing(c1: Candidate, c2: Candidate) -> Optional[Point]:
    """The one point where two distinct candidates of a segment meet, if any.

    Every candidate has beta = L*delta (L = E*|f| on the segment), so the
    X^2 coefficient of the crossing equation cancels and it is linear.
    """
    a1, b1, g1, d1 = c1
    a2, b2, g2, d2 = c2
    if b1 * d2 - b2 * d1:
        raise AssertionError("envelope crossing is not linear")
    slope = a1 * d2 + b1 * g2 - a2 * d1 - b2 * g1
    if not slope:
        return None
    num = a2 * g1 - a1 * g2
    return (num, slope) if slope > 0 else (-num, -slope)


def _order(c1: Candidate, c2: Candidate, x: Point) -> int:
    """The sign of c1 - c2 at the lattice point x (no pole there)."""
    p, q = x
    n1, d1 = c1[0] * q + c1[1] * p, c1[2] * q + c1[3] * p
    n2, d2 = c2[0] * q + c2[1] * p, c2[2] * q + c2[3] * p
    diff = n1 * d2 - n2 * d1
    if (d1 > 0) != (d2 > 0):
        diff = -diff
    return (diff > 0) - (diff < 0)


def _after(x: Point, v: Optional[int]) -> Point:
    """A lattice point inside (x, v); None means +oo."""
    p, q = x
    return (p + q, q) if v is None else (p + v * q, 2 * q)


def _largest(candidates: Sequence[Candidate], x: Point) -> Candidate:
    """The first of the candidates largest at x."""
    winner = candidates[0]
    for cand in candidates[1:]:
        if _order(cand, winner, x) > 0:
            winner = cand
    return winner


def _upper_envelope(
    candidates: Sequence[Candidate], u: Optional[int], v: Optional[int]
) -> List[Tuple[Optional[Point], Optional[Point], Candidate]]:
    """Envelope of distinct candidates over the open lattice segment (u, v).

    Two distinct candidates meet at most once (their crossing equation is
    linear), and their difference changes sign there, because no candidate
    has a pole on the closed segment.  So the walk starts from the candidate
    that is largest just right of u, and each next piece starts at the
    earliest crossing where another candidate overtakes the current winner;
    of several candidates overtaking at the same point, the one that is
    larger just to its right wins (they all meet there, so their order is
    fixed up to v).  Candidates tied at a finite u likewise keep one order
    on all of (u, v).
    """
    if u is None:
        winner = candidates[0]
        for cand in candidates[1:]:
            x = _crossing(cand, winner)
            sample = (x[0] - x[1], x[1]) if x is not None and x[0] < v * x[1] else (v - 1, 1)
            if _order(cand, winner, sample) > 0:
                winner = cand
        start = None
    else:
        start = (u, 1)
        tied = [candidates[0]]
        for cand in candidates[1:]:
            order = _order(cand, tied[0], start)
            if order > 0:
                tied = [cand]
            elif order == 0:
                tied.append(cand)
        winner = _largest(tied, _after(start, v))
    # A candidate that does not cross the winner after the current start
    # stays below it, and so below the envelope, up to v: it is dropped.
    alive = [cand for cand in candidates if cand is not winner]
    cells = []
    while True:
        ahead = []
        for cand in alive:
            x = _crossing(winner, cand)
            if (
                x is not None
                and (start is None or start[0] * x[1] < x[0] * start[1])
                and (v is None or x[0] < v * x[1])
            ):
                ahead.append((x, cand))
        if not ahead:
            cells.append((start, None if v is None else (v, 1), winner))
            return cells
        nearest = ahead[0][0]
        for x, _ in ahead[1:]:
            if x[0] * nearest[1] < nearest[0] * x[1]:
                nearest = x
        cells.append((start, nearest, winner))
        # The old winner and the rivals not chosen meet the new winner at
        # `nearest` and stay below it from there on.
        at_nearest = [x[0] * nearest[1] == nearest[0] * x[1] for x, _ in ahead]
        winner = _largest([cand for (_, cand), hit in zip(ahead, at_nearest) if hit], _after(nearest, v))
        alive = [cand for (_, cand), hit in zip(ahead, at_nearest) if not hit]
        start = nearest


def _hull_links(points: Sequence[Tuple[Rat, Rat]]) -> List[int]:
    """One Andrew monotone-chain pass over points taken in the given order.

    Returns, for each point, the chain vertex it was pushed onto (-1 for
    the first): the hull of points[0..i] is the chain i, links[i],
    links[links[i]], ...  A chain turns strictly left at every vertex, so
    collinear middle points drop out.  Points in increasing x give lower
    hulls of prefixes; in decreasing x, upper hulls of suffixes.

    The link is the tangent vertex from point i to the hull of the points
    before it: all of them lie on or above (lower hull) or on or below
    (upper hull) the line through point i and its link.  With the points
    (b, F(b)) of the antiderivative F of |f|, the slope to the link is
    therefore the largest average of |f| over an interval between point i
    and an earlier point.
    """
    links: List[int] = []
    chain: List[int] = []
    for i, (x, y) in enumerate(points):
        while len(chain) >= 2:
            ox, oy = points[chain[-2]]
            ax, ay = points[chain[-1]]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        links.append(chain[-1] if chain else -1)
        chain.append(i)
    return links


def _hull_from(links: List[int], i: int) -> List[int]:
    """Chain vertices after the point i itself, nearest first."""
    vertices = []
    i = links[i]
    while i >= 0:
        vertices.append(i)
        i = links[i]
    return vertices


def _breakpoint_values(
    xs: Sequence[int], ps: Sequence[int], ls: Sequence[int], lower: List[int], upper: List[int]
) -> List[Tuple[int, int]]:
    """The maximal function at every breakpoint, read off the hull links, as
    (num, den) pairs of ints with den > 0, in units of 1/E.

    At a breakpoint only the anchored intervals and the four limits count
    (see ``maximal``): the one-sided limits L_i and L_{i+1}, the tails, and
    the best interval ending at each side, whose average is the slope from
    the breakpoint's point to its link in that direction's chain.  The
    candidates are compared by cross-multiplication.
    """
    n = len(xs)
    tails = max(ls[0], ls[-1])
    values = []
    for i in range(n):
        num, den = max(ls[i], ls[i + 1], tails), 1
        j = lower[i]
        if j >= 0:
            rise, run = ps[i] - ps[j], xs[i] - xs[j]
            if rise * den > num * run:
                num, den = rise, run
        j = upper[n - 1 - i]
        if j >= 0:
            j = n - 1 - j
            rise, run = ps[j] - ps[i], xs[j] - xs[i]
            if rise * den > num * run:
                num, den = rise, run
        values.append((num, den))
    return values


def _constant_tag(
    xs: Sequence[int], ps: Sequence[int], ls: Sequence[int], k: int, c: int, scale: int
) -> str:
    """Tag of the lattice constant c on segment k: the shortest, then
    leftmost, interval between breakpoints that straddles the segment and
    averages exactly c, else the first of the tails and the local value
    equal to it.  Breakpoints print at X/scale."""
    first_right: Dict[int, int] = {}
    for j in range(len(xs) - 1, k - 1, -1):
        first_right[ps[j] - c * xs[j]] = xs[j]
    best: Optional[Tuple[int, int, int]] = None
    for i in range(k):
        b = first_right.get(ps[i] - c * xs[i])
        if b is not None and (best is None or (b - xs[i], xs[i]) < best[:2]):
            best = (b - xs[i], xs[i], b)
    if best is not None:
        return f"const({format_rat(Fraction(best[1], scale))},{format_rat(Fraction(best[2], scale))})"
    for source, ell in (("tail_left", ls[0]), ("tail_right", ls[-1]), ("local", ls[k])):
        if ell == c:
            return f"const:{source}"
    raise AssertionError("segment constant matches no candidate")


def _lattice_value(x: Optional[Point], cand: Candidate) -> Tuple[int, int]:
    """The candidate at x as a pair (num, den) of ints, in units of 1/E; at
    an infinite end (None), its limit there: beta/delta (delta = 1) or the
    constant."""
    a, b, g, d = cand
    if x is None:
        return (b, d) if d else (a, g)
    p, q = x
    return a * q + b * p, g * q + d * p


def build_profile(f: StepFunction) -> MaximalProfile:
    """Assemble the exact global profile of the maximal function of f, on
    f's own lattice (checked against f's rationals when it was made)."""
    return _build(*f.lattice)


def _build(scale: int, unit: int, xs: Sequence[int], ls: Sequence[int], ps: Sequence[int]) -> MaximalProfile:
    """The profile on a lattice: the scale D > 0, the unit E > 0, the
    increasing points X = D*b, the n + 1 levels L = E*|c| and P = D*E*F(b).
    Any positive multiples of the lcms serve as D and E (see
    ``PerturbationFamily``)."""
    n = len(xs)
    points = list(zip(xs, ps))
    lower = _hull_links(points)
    upper = _hull_links(points[::-1])
    tails = max(ls[0], ls[-1])

    # [lo, hi, candidate, segment of the first cell]; adjacent cells with
    # identical coefficients merge (continuity across breakpoints makes the
    # shared function one piece).
    cells: List[list] = []
    for k in range(n + 1):
        u = xs[k - 1] if k >= 1 else None
        v = xs[k] if k <= n - 1 else None
        ell = ls[k]
        # P(X) = y0 + ell*X on the segment, so the lattice average over the
        # interval between X and an anchor Q is (y0 - P(Q) + ell*X)/(X - Q).
        ref = max(k - 1, 0)
        y0 = ps[ref] - ell * xs[ref] if n else 0
        candidates = [(max(ell, tails), 0, 1, 0)]
        left = _hull_from(lower, k - 1) if k >= 1 else []
        right = [n - 1 - j for j in _hull_from(upper, n - 1 - k)] if k <= n - 1 else []
        for i in left + right:
            alpha = y0 - ps[i]
            # Anchors whose average with the segment is the local constant
            # (the segment ends among them) are already covered.
            if alpha + ell * xs[i] == 0:
                continue
            candidates.append((alpha, ell, -xs[i], 1))
        for lo, hi, cand in _upper_envelope(candidates, u, v):
            if cells and cand == cells[-1][2]:
                cells[-1][1] = hi
            else:
                cells.append([lo, hi, cand, k])

    # Self-checks, on the lattice: adjacent cells agree at their shared
    # point, and at every breakpoint the cell holding it matches the maximal
    # function read off the hull chains without the walk.
    for (_, hi, cand, _), (_, _, rival, _) in zip(cells, cells[1:]):
        if _order(cand, rival, hi):
            raise AssertionError("profile pieces disagree at a junction")
    cell = 0
    for x, (num, den) in zip(xs, _breakpoint_values(xs, ps, ls, lower, upper)):
        while cells[cell][1] is not None and cells[cell][1][0] < x * cells[cell][1][1]:
            cell += 1
        at_x, below = _lattice_value((x, 1), cells[cell][2])
        if at_x * den != num * below:
            raise AssertionError("profile disagrees with the pointwise engine")

    # The skeleton, straight from the cells: each right end (the last is
    # +oo), the value there and the limit at -oo, as pairs of ints with a
    # positive den, and each int form, a positive multiple of the piece that
    # its cell makes (see _cell_pieces): an anchored (a, b*D, g*E, D*E), a
    # constant (a, 0, E, 0).  Their Fractions are made, and checked, on
    # first read (see MaximalProfile).
    end_pairs = tuple([(hi[0], hi[1] * scale) for _, hi, _, _ in cells[:-1]])
    value_pairs = [_lattice_value(None, cells[0][2])]
    value_pairs += [_lattice_value(hi, cand) for _, hi, cand, _ in cells]
    value_pairs = tuple([(num, den * unit) if den > 0 else (-num, -den * unit) for num, den in value_pairs])
    forms = tuple([
        (a, b * scale, g * unit, scale * unit) if d else (a, 0, unit, 0) for _, _, (a, b, g, d), _ in cells
    ])
    return MaximalProfile(end_pairs, value_pairs, forms, (cells, scale, unit, xs, ls, ps))


# --- the perturbation family f + s*g -----------------------------------------


def _family_lattice(f: StepFunction, g: StepFunction) -> tuple:
    """f and g on one lattice: the merged breakpoints b, their scale D (the
    lcm of their denominators) and points X = D*b, then for each of f and g
    its constants c on the merged segments, its unit e (the lcm of its
    constant denominators) and its signed levels e*c."""
    points = sorted({*f.breakpoints, *g.breakpoints})
    scale = math.lcm(*[b.denominator for b in points])
    reads = []
    for h in (f, g):
        constants = [*[h.left_limit(t) for t in points], h.constants[-1]]
        unit = math.lcm(*[c.denominator for c in h.constants])
        reads.append((constants, unit, _scaled(constants, unit)))
    return (points, scale, _scaled(points, scale), *reads)


class PerturbationFamily:
    """The profiles of f + s*g for rational s, built on one integer lattice.

    The merged breakpoints and the signed int levels of f and g are read and
    checked once; ``profile(s)`` forms only the levels, the unit and the
    sums P at s, and drops the merged breakpoints that canonical form drops
    there, deciding on rationals only where two neighbouring levels are
    equal.  Each profile is that of ``build_profile(stepfn.combine(f, g, 1,
    s))`` byte for byte (see the module docstring).
    """

    __slots__ = ("_f", "_g", "_points", "_scale", "_unit", "_xs", "_levels")

    def __init__(self, f: StepFunction, g: StepFunction):
        points, scale, xs, (cf, e_f, a), (cg, e_g, b) = _family_lattice(f, g)
        # The way back, once for the family: each int against the rational
        # it came from, read off f and g without the merge.
        for x, t in zip(xs, points, strict=True):
            if x * t.denominator != t.numerator * scale:
                raise AssertionError("family lattice disagrees with the merged breakpoints")
        for constants, unit, levels in ((cf, e_f, a), (cg, e_g, b)):
            for ell, c in zip(levels, constants, strict=True):
                if ell * c.denominator != c.numerator * unit:
                    raise AssertionError("family lattice disagrees with the constants of f and g")
        self._f, self._g, self._points = f, g, points
        self._scale, self._unit, self._xs = scale, e_f * e_g, xs
        # At s = p/q, f + s*g on a merged segment is a*q + b*p in units of
        # 1/(e_f*e_g*q).
        self._levels = [(ca * e_g, cb * e_f) for ca, cb in zip(a, b)]

    def profile(self, s) -> MaximalProfile:
        """The profile of f + s*g."""
        s = rat(s)
        p, q = s.numerator, s.denominator
        signed = [a * q + b * p for a, b in self._levels]
        xs, ls = self._xs, [abs(level) for level in signed]
        # A merged breakpoint goes where f + s*g there equals both
        # neighbouring levels; only equal neighbours need the point value.
        unit = self._unit * q
        f, g = self._f, self._g
        drops = {
            k for k, t in enumerate(self._points)
            if signed[k] == signed[k + 1] and f.value(t) + s * g.value(t) == Fraction(signed[k], unit)
        }
        if drops:
            kept = [k for k in range(len(xs)) if k not in drops]
            xs, ls = [xs[k] for k in kept], [ls[0], *[ls[k + 1] for k in kept]]
        return _build(self._scale, unit, xs, ls, _antiderivative(xs, ls))


def _cell_pieces(
    profile: MaximalProfile, cells: Sequence[list], scale: int, unit: int,
    xs: Sequence[int], ls: Sequence[int], ps: Sequence[int],
) -> Tuple[MoebiusPiece, ...]:
    """The pieces of a built profile, one per lattice cell, on its skeleton.

    The only Fractions made here are the coefficients, which the way back
    checks against the cell's ints, and the tags."""
    los, his, values = (NEG_INF, *profile.ends), (*profile.ends, POS_INF), profile.end_values
    pieces: List[MoebiusPiece] = []
    for i, (_, _, cand, k) in enumerate(cells):
        a, b, g, d = cand
        if d:
            # The anchor is the pole; left anchors lie at or before u.
            q = Fraction(-g, scale)
            side = "left" if k >= 1 and -g <= xs[k - 1] else "right"
            tag = f"{side}({format_rat(q)})"
            coeffs = (Fraction(a, scale * unit), Fraction(b, unit), -q, _ONE)
            scales = (scale * unit, unit, scale, 1)
        else:
            tag = _constant_tag(xs, ps, ls, k, a, scale)
            coeffs = (Fraction(a, unit), _ZERO, _ONE, _ZERO)
            scales = (unit, 1, 1, 1)
        piece = MoebiusPiece(*coeffs, los[i], his[i], values[i], values[i + 1], tag)
        for v, w, size in zip(piece.coefficients, cand, scales):
            if v.numerator * size != w * v.denominator:
                raise AssertionError("profile piece disagrees with its lattice cell")
        pieces.append(piece)
    return tuple(pieces)


# --- detachment set --------------------------------------------------------


def _touches(form: Sequence[int], level: int, unit: int) -> bool:
    """Whether the piece of an int form is the constant level/unit."""
    return form[1] == form[3] == 0 and form[0] * unit == level * form[2]


def detachment_regions(f: StepFunction, profile: MaximalProfile) -> Tuple[RegionSet, RegionSet]:
    """Split the line into the open set where the profile strictly exceeds
    the adjusted modulus and its closed complement (touch set).

    One merge of the profile's end pairs with f's lattice points (X, D): an
    interval between two bounds touches when its int form is the constant
    level L/E of |f| there, and a bound touches when the profile's value
    pair there is the larger of the levels beside it.  The walk decides on
    ints; each bound it reports is one of the profile's ``ends`` or of f's
    breakpoints, rationals that the way back has checked.
    """
    scale, unit, xs, ls = f.lattice[:4]
    end_pairs, values, forms = profile.end_pairs, profile.value_pairs, profile.int_forms
    ends, points = profile.ends, f.breakpoints
    lattice_points = [(x, scale) for x in xs]
    i = k = 0
    detached = not _touches(forms[0], ls[0], unit)  # the interval left of the next bound
    # A run of detached intervals goes on through detached bounds and closes
    # at each bound where the profile touches the adjusted modulus.
    runs: List[Tuple[End, End]] = []
    start: End = NEG_INF
    while i < len(end_pairs) or k < len(xs):
        bound, at_end, at_point = _next_bound(end_pairs, i, lattice_points, k)
        num, den = values[i + 1] if at_end else _form_at(forms[i], bound)
        t = ends[i] if at_end else points[k]
        level = max(ls[k], ls[k + 1]) if at_point else ls[k]
        i += at_end
        k += at_point
        detached_after = not _touches(forms[i], ls[k], unit)
        if num * unit == level * den:
            if detached:
                runs.append((start, t))
            start = t
        elif not (detached and detached_after):
            raise AssertionError("detached bound next to a touching interval")
        detached = detached_after
    if detached:
        runs.append((start, POS_INF))

    # A run from -oo or to +oo leaves an empty gap at that end.
    edges = [NEG_INF, *[e for run in runs for e in run], POS_INF]
    gaps = zip(edges[::2], edges[1::2])
    complement = [gap for gap in gaps if gap not in ((NEG_INF, NEG_INF), (POS_INF, POS_INF))]
    return RegionSet(tuple(runs), closed=False), RegionSet(tuple(complement), closed=True)


# --- derivative ------------------------------------------------------------


def profile_derivative(profile: MaximalProfile, x) -> Rat:
    """Exact derivative at a rational point interior to a piece.

    At junctions the two one-sided derivatives may differ, so they are
    rejected rather than assigned a value.  For a piece carried by an
    interval anchored on the right at b, the derivative equals
    (value - |f|(x))/(b - x); anchored on the left at a it equals
    (|f|(x) - value)/(x - a); constant pieces are flat.  It is read off the
    piece's int form: scaling a form scales its det and (g + d*x)**2 alike.
    """
    x = rat(x)
    i = bisect_left(profile.ends, x)
    if i < len(profile.ends) and profile.ends[i] == x:
        raise ValueError("derivative is one-sided at piece junctions")
    a, b, g, d = profile.int_forms[i]
    den = g * x.denominator + d * x.numerator
    return Fraction((b * g - a * d) * x.denominator**2, den * den)


# --- certified variation ---------------------------------------------------


# The size, in bits of its den, at which a run of steps summed as one
# unreduced pair goes up the merge tree.
_RUN_BITS = 512


def _sum_of_steps(steps: Iterable[Tuple[Pair, Pair]]) -> Rat:
    """The sum of |t - s| over the steps (s, t) of int pairs (num, den),
    den != 0.

    Steps are summed as one unreduced pair until its den passes
    ``_RUN_BITS``; the run sums are merged like a binary counter, two
    partial sums of 2**k runs into one of 2**(k + 1), each merge reduced.
    So no operand grows with the number of steps, and n steps cost about
    n log n multiplications of one run's size, not n**2."""
    partial: List[Tuple[int, int, int]] = []  # (num, den, k): the sum of 2**k runs
    num, den = 0, 1
    for (ns, ds), (nt, dt) in steps:
        size = abs(ds * dt)
        num, den = num * size + abs(nt * ds - ns * dt) * den, den * size
        if den.bit_length() > _RUN_BITS:
            k = 0
            while partial and partial[-1][2] == k:
                other, below, _ = partial.pop()
                num, den = num * below + other * den, den * below
                common = math.gcd(num, den)
                num, den, k = num // common, den // common, k + 1
            partial.append((num, den, k))
            num, den = 0, 1
    for other, below, _ in partial:
        num, den = num * below + other * den, den * below
    return Fraction(num, den)


def variation_of_profile(profile: MaximalProfile, a=NEG_INF, b=POS_INF) -> VariationEnclosure:
    """Total variation of the profile over the open interval (a, b).

    Each piece is monotone, so the variation telescopes over its end values
    (a constant piece adds zero): the answer is exact, an enclosure of width
    zero.  Over the whole line the walk reads only the value pairs; a
    finite a or b is placed among the ``ends``, and the piece it cuts is
    evaluated there through its int form.
    """
    a, b = _endpoint(a), _endpoint(b)
    if not a < b:
        raise ValueError("variation_of_profile needs a < b")

    walk = profile.value_pairs
    if not (isinstance(a, float) and isinstance(b, float)):
        ends, forms = profile.ends, profile.int_forms
        # Pieces first..last meet (a, b); piece i spans ends[i-1]..ends[i].
        first = 0 if isinstance(a, float) else bisect_right(ends, a)
        last = len(ends) if isinstance(b, float) else bisect_left(ends, b)
        walk = list(walk[first : last + 2])
        if not (isinstance(a, float) or (first and ends[first - 1] == a)):
            walk[0] = _form_at(forms[first], (a.numerator, a.denominator))
        if not (isinstance(b, float) or (last < len(ends) and ends[last] == b)):
            walk[-1] = _form_at(forms[last], (b.numerator, b.denominator))
    total = _sum_of_steps(zip(walk, walk[1:]))
    return VariationEnclosure(total, total)


def _difference_critical_quadratic(c1: Sequence, c2: Sequence) -> Tuple:
    """det1*(gamma2 + delta2*x)**2 - det2*(gamma1 + delta1*x)**2 for two
    coefficient tuples (alpha, beta, gamma, delta), ints or rationals.  Off
    the poles, the derivative of the difference has its sign; scaling the
    tuples by k1, k2 > 0 scales it by k1**2 * k2**2."""
    a1, b1, g1, e1 = c1
    a2, b2, g2, e2 = c2
    det1, det2 = b1 * g1 - a1 * e1, b2 * g2 - a2 * e2
    return (
        det1 * e2 * e2 - det2 * e1 * e1,
        2 * (det1 * g2 * e2 - det2 * g1 * e1),
        det1 * g2 * g2 - det2 * g1 * g1,
    )


def _sign_at(q: Tuple[int, int, int], x: Pair) -> int:
    """Sign of the int quadratic q at the bound x; at an infinite end, its
    sign toward that infinity, where its leading term decides it."""
    a, b, c = q
    n, d = x
    if not d:  # the -oo or +oo pair
        return sign(a) or sign(n) * sign(b) or sign(c)
    return sign((a * n + b * d) * n + c * d * d)


def _both_roots_within(q: Tuple[int, int, int], s: Pair, t: Pair, at_s: int, at_t: int) -> bool:
    """Whether the int quadratic q, whose signs at the bounds s and t are
    at_s and at_t, has both its roots (a double root counts twice) in the
    closed cell [s, t]: q is real-rooted, not on its inner branch at either
    end, and its vertex lies between them."""
    a, b, c = q
    slope = (0, 2 * a, b)
    return (
        a != 0
        and b * b >= 4 * a * c
        and at_s * a >= 0
        and at_t * a >= 0
        and _sign_at(slope, s) * a <= 0 <= _sign_at(slope, t) * a
    )


def variation_of_difference(
    p1: MaximalProfile, p2: MaximalProfile, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """Certified total variation of (p1 - p2) over the whole line.

    The two piece lists are merged with one pointer each: a common cell
    (s, t) ends at the nearer of the current pieces' right ends, and each
    piece that ends there steps on (both, at a shared junction).  On the cell
    the derivative of d = m1 - m2 has the sign of the critical quadratic
    q = det1*(gamma2 + delta2*x)**2 - det2*(gamma1 + delta1*x)**2.  Neither
    piece has its pole on the closed cell, so the ratio
    r = (gamma1 + delta1*x)/(gamma2 + delta2*x) keeps one sign there and is
    monotone; q vanishes exactly where r**2 = det1/det2, and r meets the one
    square root of that ratio with its own sign at most once (a constant r
    makes q vanish everywhere or nowhere on the cell).  Hence q has at most
    one root on the closed cell and changes sign there: the cell splits into
    at most two monotone stretches, whose endpoint differences telescope.
    Profiles are continuous, so d is exact at every junction.

    The walk reads the profiles' skeletons of ints: their end pairs, their
    value pairs at -oo and +oo and each piece's int form, its coefficients
    times some k > 0.  So q from the int forms is k1**2 * k2**2 times the
    pieces' q, with the same sign everywhere, and d at a junction is an int
    pair (num, den); the exact cells' steps are one ``_sum_of_steps``.  The critical
    point is located by sign, without narrowing: the cell holds one exactly
    when q has opposite nonzero signs at its ends (at an infinite end, the
    sign of q's leading term there), and the sign at s is the sign of d'
    left of it.  Only such a cell isolates the roots of q and keeps the one
    inside as a peak.  It first divides q by gcd(q, (k1*k2)**2), with k a
    form's delta (gamma for a constant), its factor over its piece: that is
    the critical quadratic of the pieces, which have delta = 1 (gamma = 1),
    times the lcm of its denominators, the ints ``integer_quadratic`` makes
    of it.  A surd's bracket width is 1/(2a), so that scaling fixes every
    enclosure end.  Each round narrows the peaks' brackets, which encloses d
    there, and reads the poles' signs and the values at the bracket ends off
    the two int forms.  A rational root's bracket is the point itself, so
    its peak term is exact from the first round on.
    """
    precision = rat(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")

    ends1, ends2 = p1.end_pairs, p2.end_pairs
    values1, values2 = p1.value_pairs, p2.value_pairs
    forms1, forms2 = p1.int_forms, p2.int_forms
    i = j = 0
    s = _NEG_END
    # The exact cells' steps (d(s), d(t)), and the peaks:
    # (root, form1, form2, d(s), d(t), sign of d' left of the root).
    steps: List[Tuple[Pair, Pair]] = []
    peaks: List[list] = []
    (num1, den1), (num2, den2) = values1[0], values2[0]
    d_s = (num1 * den2 - num2 * den1, den1 * den2)
    while True:
        t, step1, step2 = _next_bound(ends1, i, ends2, j)
        form1, form2 = forms1[i], forms2[j]
        # Each profile's value at t: its value pair at its own junction (or
        # at +oo), else its form at t.
        num1, den1 = values1[i + 1] if step1 or not step2 else _form_at(form1, t)
        num2, den2 = values2[j + 1] if step2 or not step1 else _form_at(form2, t)
        d_t = (num1 * den2 - num2 * den1, den1 * den2)
        q = _difference_critical_quadratic(form1, form2)
        rise, at_t = _sign_at(q, s), _sign_at(q, t)
        if rise * at_t < 0:
            # One root lies inside.  Left of the low root q has the sign of its
            # leading coefficient, between the roots the other sign; a linear
            # q has a single root.  A form is k > 0 times its piece, k its
            # delta (its gamma for a constant): q over gcd(q, (k1*k2)**2) is
            # the pieces' own q in lowest ints, which sizes a surd's bracket.
            common = math.gcd(*q, ((form1[3] or form1[2]) * (form2[3] or form2[2])) ** 2)
            q = tuple([c // common for c in q])
            roots = isolate_quadratic_roots(q)
            root = roots[0] if rise == sign(q[0]) else roots[-1]
            peaks.append([root, form1, form2, Fraction(*d_s), Fraction(*d_t), rise])
        elif _both_roots_within(q, s, t, rise, at_t):
            raise AssertionError("two critical points of a profile difference in one cell")
        else:
            steps.append((d_s, d_t))
        if not (step1 or step2):
            break
        s, d_s = t, d_t
        i += step1
        j += step2

    exact = _sum_of_steps(steps)
    width = Fraction(1, 2**40)
    while True:
        lo_sum = hi_sum = exact
        for peak in peaks:
            av, form1, form2, d_s, d_t, rise = peak
            av = av.refine_below(width)
            while True:
                edges = [(edge.numerator, edge.denominator) for edge in (av.lo, av.hi)]
                at = [_form_at(form, edge) for form in (form1, form2) for edge in edges]
                signs = [sign(den) for _, den in at]
                if 0 not in signs and signs[0] == signs[1] and signs[2] == signs[3]:
                    break
                av = av.refine_below(av.width / 4)
            peak[0] = av
            vals1 = sorted((Fraction(*at[0]), Fraction(*at[1])))
            vals2 = sorted((Fraction(*at[2]), Fraction(*at[3])))
            top_lo, top_hi = vals1[0] - vals2[1], vals1[1] - vals2[0]
            if rise < 0:  # a valley: mirror it into a peak
                top_lo, top_hi, d_s, d_t = -top_hi, -top_lo, -d_s, -d_t
            for d in (d_s, d_t):
                lo_sum += max(top_lo - d, _ZERO)
                hi_sum += max(top_hi - d, _ZERO)
        if hi_sum - lo_sum <= precision:
            return VariationEnclosure(lo_sum, hi_sum)
        width /= 2**16


def bv_distance(
    p1: MaximalProfile, p2: MaximalProfile, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """BV distance between two maximal functions, given by their profiles:
    the gap of their limits at infinity plus the variation of their
    difference.  Only a peak of the difference can be irrational, so the
    precision bounds the enclosure's width."""
    (num1, den1), (num2, den2) = p1.value_pairs[0], p2.value_pairs[0]
    base = Fraction(abs(num1 * den2 - num2 * den1), den1 * den2)
    spread = variation_of_difference(p1, p2, precision)
    return VariationEnclosure(base + spread.lo, base + spread.hi)
