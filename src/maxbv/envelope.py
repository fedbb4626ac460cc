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
segment's hull.  Of each hull, a bounded segment needs only a range of
links: the best anchor on a side is the tangent vertex from the moving
point (x, F(x)) to that side's chain, and as x crosses the segment it moves
one way along the chain, from the link of one end of the segment to the
link of the other.  So the segment's anchors on the left are the vertices
that its right end pops off the lower chain, less its left end, plus the
one that end is pushed onto, and likewise on the right in the reversed
pass; each point is popped at most once, so the bounded segments share at
most 2n anchors, and the two unbounded segments take their one chain whole.
Of those, a segment keeps only the anchors whose average at its end on
their side is above its constant: above the local level a left average
falls and a right one rises (see below), so one at or below the constant
there stays so on the whole segment and never carries a cell.  Along a
chain those averages fall, so the chain walk stops at the first such one.

The envelope is then one ordered-stack walk per segment, as in Andrew's
chain.  It takes the candidates in the order the envelope meets them: the
left anchors nearest first, the constant c, the right anchors farthest
first.  A new candidate that meets the top of the stack strictly inside
the top's cell is pushed with that crossing as its start; otherwise one of
the two is above the other on the whole cell, their values at one lattice
point inside it, compared by cross-multiplication, say which, and the top
is popped (and the next top tried) or the new candidate dropped.  Each
candidate is pushed or dropped once and popped at most once, so a build
costs O(n + pieces) after the two hull passes.

The order is exact.  On a segment where |f| = l, an anchored average
satisfies A(x) - l = const/(x - a), so it lies wholly above l, where left
averages fall and right ones rise (A' = (l - A)/(x - a)), or wholly below
l <= c.  One below l is below every candidate above l and the constant on
the whole segment, so whatever order such ones stand in on the stack, the
constant, which comes in the middle of the order, pops those still there,
and each later one below l is dropped.  For left anchors a nearer than b,
A_b - A_a = w(x)*(avg_[b,a] - A_a(x)) with w > 0, which changes sign at
most once, from - to +, as A_a falls; the right anchors are symmetric, and
the constant and each right anchor rise against what comes before them.
So a later candidate above l that meets an earlier one stays above it to
the right: the one fact the stack relies on.  A tie at a point goes to the
later candidate, the one larger just to its right.

The candidate-set maximum of ``maximal.candidate_set`` and the pointwise
engine ``maximal.maximal_value`` stay the oracles the tests compare
profiles with.  Every build checks itself at each breakpoint against values
read off the same two chains without the walk: the vertex a breakpoint's
point was pushed onto is its best anchor on that side, so one O(n) sweep
gives the maximal function at every breakpoint.  It also checks that
adjacent pieces agree at every junction.  Both checks run in the walks' one
pass, which also reads off the skeleton (below): a cell stays open while
the walks repeat its candidate, across breakpoints too, and closes as soon
as the next distinct candidate starts, with the junction check there, the
checks of the breakpoints up to it and its skeleton entries; the last cell
closes after the walks, with the breakpoints past the last junction.

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
``PerturbationFamily`` makes one for the whole family f + s*g out of f's
and g's.

The family lattice is read off f's and g's own lattices, each cached and
checked against its function's rationals when it was made.  Fixed across
scales are the merged breakpoints with their scale D, the lcm of f's and
g's, and points X, each function's points times the exact quotient of D by
its scale, and f's signed int levels a in the unit e_f and g's b in e_g,
each function's L signed as its constant, read in one merge of the two
functions' points on ints that takes each function's level left of every
merged point as it goes.  At a scale s = p/q only the levels
L = |a*e_g*q + b*e_f*p|, the unit E = e_f*e_g*q and the sums P change, and
a merged breakpoint where the value of f + s*g equals both neighbouring
constants is dropped, as canonical form drops it.  Only where the two
signed levels are equal is that value read, on rationals.  E is a
positive multiple of the lcm of the constant denominators of f + s*g, and D
of its breakpoint denominators: the scaling stays positive in both
coordinates, every output is a reduced Fraction, a sign, or an int pair
or int form up to a positive factor, and so the family's profiles are those
of ``build_profile`` on f + s*g byte for byte.

A built profile is a skeleton of ints read straight off the merged cells:
each junction is one pair (p, q*D) with q > 0, and each piece's int form is
the cell's tuple rescaled to the coordinate x, (A, L*D, -X*E, D*E) for an
anchored cell and (C, 0, E, 0) for a constant, a positive multiple of the
piece, not reduced, so that every sign of the piece is a sign of its form.
Of its build a profile keeps only that and the lattice (D, X, L, P), off
which, with each piece's form and left junction, ``_tags`` reads its tags
on first use.  These junctions, forms and tags are the profile's only
representation, and every reader decides on them alone.  A value is a form
at a bound, an int pair whose den may be negative, as ``_form_at`` reads
it: at a junction either piece's form (the build checks that they agree),
and at an infinite pair the form's limit there.  Distances and variations
walk the junctions and read forms only at turning points; point
values and derivatives place x among the junctions with ``_locate``, one
bisection by cross-multiplication, and read the int form of the piece
there, as windowed variations place their ends; the detachment walk merges
the end pairs with f's lattice points.  A build makes no Fraction, and a
reader makes one only to return it: a value, a derivative, or a junction
the detachment walk reports, the Fraction of its pair.  A variation or a
BV distance is a ``VariationEnclosure``, which holds its ends as int pairs
in lowest terms and makes a Fraction of one only when it is read.  A dump
prints from ints too: the ends from the end pairs, each coefficient as its
form's over delta (gamma for a constant), each through
``exact.format_pair``.  ``pieces`` is ``int_forms`` under another name.
Int passes check the way in and back:
``StepFunction.lattice`` that X*den(b) = num(b)*D and L*den(c) = |num(c)|*E
for f's own rationals b and c when it is made (a family's ints are those
of f and g times exact int quotients), and ``format_pair`` that each
printed p/q is its pair (num, den), as p*den == num*q.  So every rational a
dump prints has been checked.

An infinite end is ``stepfn.NEG_INF``/``POS_INF`` in variation windows and
region intervals, compared exactly and never computed with; in the lattice
walk an unbounded end is None, and in the skeleton walks the pair (-1, 0)
or (1, 0).  The first piece starts at -oo and the last ends at +oo, and a
form's value at such a pair is its limit there, (b, d), or (a, g) for a
constant: the maximal function's limits at infinity, which variations read
like any other value at a bound.

Because each non-constant piece is a Moebius function with its pole strictly
outside the closed interval it spans, every piece is monotone, its direction
the sign of its int form's det b*g - a*d (0 for a constant).  So the
variation of a walk of values at bounds is exact and is summed at its
turning points only: the sum of |v[k+1] - v[k]| is the sum of
v[k]*(s[k-1] - s[k]), with s[k] the direction of the step from v[k] and
s = 0 beyond both ends.

Every variation is one walk in two parts.  The sign pass ``_sign_pass``
merges two piece lists with one pointer each and decides the direction of
their difference d on every common cell; it uses only +, -, * and
comparisons, so it runs unchanged over any ordered ring, and on the int
forms it decides every sign on ints.  The difference of two pieces has at
most one critical point on a cell, and exact signs locate it: d' has the
sign of the critical quadratic q = det1*B**2 - det2*A**2, with A and B the
two pieces' dens, neither of which vanishes on the cell.  Where one piece
rises while the other falls, or one is flat, q has one sign and no root,
and no quadratic is formed; where the two share their pole, only q's
leading coefficient is.  On the other cells q changes sign across the cell
exactly when it holds a critical point, a peak.  The pass returns the
turning points, d at each as a form's gap at a bound, and for each peak
cell its raw quadratic, its two forms, d at its ends and its rise.  The
int stage ``_int_stage`` sums the turning points as int pairs, a peak cell
counting as direction 0, up a balanced merge tree, so its cost stays near
linear in the number of cells.  It reduces each peak's quadratic to that of
the two pieces in lowest ints, isolates its roots and brackets the one
inside at int levels that grow round by round, each round's peak terms
summed as int pairs and its width compared with the precision on ints,
until the enclosure is certified to the requested precision; a rational
critical point's bracket is the point itself, so its peak is exact.

``variation_of_difference`` runs the walk from -oo to +oo.  A BV distance
is the same walk started as if d came from 0 before -oo, so its first turn
adds the gap of the limits at -oo.  A profile's variation over a window is
its walk against the zero profile M0 = 0, whose one form is (0, 0, 1, 0):
the pass runs over the window's slice of the profile, from its start to its
end, and never meets a peak, so the answer is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import Rat, _text, format_pair, isolate_quadratic_roots, lowest_pair, rat, sign
from .stepfn import NEG_INF, POS_INF, StepFunction, _antiderivative, _endpoint

# An interval end: a rational, or NEG_INF/POS_INF (compared, never computed
# with).  The infinities are the only floats, so the hot loops tell an infinite
# end by its type: comparing a Fraction with a float costs about 1 us.
End = Union[Rat, float]


# An int pair (num, den) stands for num/den.  A bound of a skeleton walk is a
# pair with den > 0, or one of the two pairs with den = 0 at the infinite ends.
Pair = Tuple[int, int]
_NEG_END: Pair = (-1, 0)
_POS_END: Pair = (1, 0)


def _form_at(form: Sequence[int], x: Pair) -> Pair:
    """An int form's value at the bound x, as an int pair, den != 0.  A
    profile's value is always a form at a bound: at a finite pair (n, m) it
    is (a*m + b*n, g*m + d*n), and at the infinite pairs (-1, 0) and (1, 0)
    it is the form's limit there, (b, d), or (a, g) for a constant."""
    a, b, g, d = form
    n, m = x
    if m:
        return a * m + b * n, g * m + d * n
    return (b, d) if d else (a, g)


def _locate(pairs: Sequence[Pair], x: Rat) -> Tuple[int, bool]:
    """Where the rational x falls among the increasing pairs (p, q), q > 0:
    the number of pairs below x, as ``bisect_left`` counts it, and whether
    the next pair is x.  ``bisect_left`` reads only whether a key is below 0,
    and p*m - n*q has the sign of p/q - x for x = n/m, m > 0."""
    n, m = x.numerator, x.denominator
    i = bisect_left(pairs, 0, key=lambda pair: pair[0] * m - n * pair[1])
    return i, i < len(pairs) and pairs[i][0] * m == n * pairs[i][1]


class MaximalProfile:
    """Ordered monotone pieces covering the whole line; continuous by
    construction (adjacent pieces agree at junctions).

    A profile is its skeleton of ints and its tags.  ``end_pairs`` holds
    each junction in increasing order as a pair (p, q) with q > 0, and
    ``int_forms`` each piece's (alpha, beta, gamma, delta) as ints, a
    positive multiple of the piece, so every sign of the piece is the sign
    of the form.  Every value, the limits at -oo and +oo among them, is a
    form at a bound (``_form_at``).  ``tags`` names the candidate that
    carries each piece, made on first read by ``_tags`` off each piece's
    form and left junction and the lattice (D, X, L, P) it was built on,
    which is all a build keeps besides the skeleton.  ``dump`` prints from
    the skeleton's ints and the tags.
    """

    __slots__ = ("end_pairs", "int_forms", "_tag_source", "_tags")

    def __init__(self, end_pairs, int_forms, tag_source):
        self.end_pairs, self.int_forms = end_pairs, int_forms
        self._tag_source = tag_source  # the lattice (D, X, L, P)
        self._tags = None

    @property
    def tags(self) -> Tuple[str, ...]:
        if self._tags is None:
            self._tags = _tags(self.end_pairs, self.int_forms, *self._tag_source)
        return self._tags

    @property
    def pieces(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """The int forms, under the name through which the benchmark's tracer
        counts a profile's pieces and their operand bits."""
        return self.int_forms

    def value(self, x) -> Rat:
        """The profile at x, off the int form of the piece holding it."""
        x = rat(x)
        form = self.int_forms[_locate(self.end_pairs, x)[0]]
        return Fraction(*_form_at(form, (x.numerator, x.denominator)))

    def dump(self) -> str:
        """One line per piece, tab-separated: the domain, the coefficients
        (alpha, beta, gamma, delta) and the tag, printed from the end pairs
        and the int forms, each coefficient over its form's delta (its gamma
        for a constant); ``format_pair`` checks each printed rational against
        its pair."""
        tags = self.tags
        try:
            ends = ["-inf", *[format_pair(p, q) for p, q in self.end_pairs], "inf"]
            lines = []
            for lo, hi, (a, b, g, d), tag in zip(ends, ends[1:], self.int_forms, tags):
                k = d or g
                lines.append(f"{lo}\t{hi}\t{format_pair(a, k)}\t{format_pair(b, k)}\t{format_pair(g, k)}\t{format_pair(d, k)}\t{tag}")
        except AssertionError as exc:  # a printed rational off its pair
            raise AssertionError("profile skeleton disagrees with its lattice cells") from exc
        return "\n".join(lines) + "\n"


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


@dataclass(frozen=True, init=False, slots=True)
class VariationEnclosure:
    """Certified rational interval around a variation value.

    Its two ends are int pairs (num, den), each put in lowest terms with
    den > 0 by ``exact.lowest_pair`` when the enclosure is made; an exact
    value is the one pair twice.  ``lo``, ``hi``, ``width`` and ``midpoint``
    are Fractions made when read, and ``str`` prints the pairs.  An
    experiment makes one per distance and variation, so the class has slots
    and its own ``__init__``, which sets each field once.
    """

    lo_pair: Pair
    hi_pair: Pair

    def __init__(self, lo_pair: Pair, hi_pair: Pair):
        lo = lowest_pair(*lo_pair)
        hi = lo if hi_pair is lo_pair else lowest_pair(*hi_pair)
        if hi is not lo and lo[0] * hi[1] > hi[0] * lo[1]:
            raise ValueError("enclosure needs lo <= hi")
        object.__setattr__(self, "lo_pair", lo)
        object.__setattr__(self, "hi_pair", hi)

    @property
    def lo(self) -> Rat:
        return Fraction(*self.lo_pair)

    @property
    def hi(self) -> Rat:
        return Fraction(*self.hi_pair)

    @property
    def width(self) -> Rat:
        (lo_num, lo_den), (hi_num, hi_den) = self.lo_pair, self.hi_pair
        return Fraction(hi_num * lo_den - lo_num * hi_den, lo_den * hi_den)

    @property
    def midpoint(self) -> Rat:
        (lo_num, lo_den), (hi_num, hi_den) = self.lo_pair, self.hi_pair
        return Fraction(lo_num * hi_den + hi_num * lo_den, 2 * lo_den * hi_den)

    def __str__(self):
        lo = _text(*self.lo_pair)
        return f"{lo}..{lo if self.hi_pair is self.lo_pair else _text(*self.hi_pair)}"


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


def _stack_walk(
    candidates: Sequence[Candidate], u: Optional[int], v: Optional[int]
) -> List[list]:
    """Envelope over the open lattice segment (u, v) of distinct candidates
    listed in the order the envelope meets them, in one stack pass (see the
    module docstring): its cells [lo, hi, candidate], lo and hi lattice
    points or None for an infinite end.  The top's cell runs to v.  Where
    the new candidate's ``_crossing`` with the top misses the top's cell,
    the two are compared at a lattice point p/q inside it: one left of v
    when the cell starts at -oo, else one past lo (v = +oo) or halfway."""
    start = None if u is None else (u, 1)
    end = None if v is None else (v, 1)
    stack = [[start, end, candidates[0]]]
    for cand in candidates[1:]:
        a, b, g, d = cand
        while stack:
            cell = stack[-1]
            lo, _, top = cell
            x = _crossing(top, cand)
            if (
                x is not None
                and (lo is None or lo[0] * x[1] < x[0] * lo[1])
                and (v is None or x[0] < v * x[1])
            ):
                cell[1] = x
                stack.append([x, end, cand])
                break
            # One of the two is above the other on the whole cell: the new
            # candidate is dropped, or the top popped and the next top tried.
            if lo is None:
                p, q = v - 1, 1
            elif v is None:
                p, q = lo[0] + lo[1], lo[1]
            else:
                p, q = lo[0] + v * lo[1], 2 * lo[1]
            ta, tb, tg, td = top
            num, den = a * q + b * p, g * q + d * p
            top_num, top_den = ta * q + tb * p, tg * q + td * p
            diff = num * top_den - top_num * den
            if (den > 0) != (top_den > 0):  # cross-multiplied by a negative den
                diff = -diff
            if diff < 0:
                cell[1] = end
                break
            stack.pop()
        else:
            stack.append([start, end, cand])
    return stack


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


def _anchors(points: Sequence[Tuple[int, int]], links: List[int], i: int, stop: int, c: int) -> List[int]:
    """Chain vertices after the point i itself, nearest first, out to the
    vertex stop (inclusive): none when stop is i, the whole chain when stop
    is -1.  With stop the link of the point after i, these are the vertices
    that point pops off the chain, less i, plus the one it is pushed onto.

    Of those, only the vertices whose average with the point i, the slope
    between the two, is above c: on points in increasing x, those below the
    line of slope c through the point i.  (The reversed pass takes its
    points turned by 180 degrees, which keeps every slope and orientation.)
    The chain turns strictly left at every vertex, so that slope falls
    strictly along it, and the walk ends at the first vertex at or below c."""
    x, y = points[i]
    level = y - c * x
    vertices = []
    while i != stop and links[i] >= 0:
        i = links[i]
        qx, qy = points[i]
        if qy - c * qx >= level:
            break
        vertices.append(i)
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
        return f"const({format_pair(best[1], scale)},{format_pair(best[2], scale)})"
    for source, ell in (("tail_left", ls[0]), ("tail_right", ls[-1]), ("local", ls[k])):
        if ell == c:
            return f"const:{source}"
    raise AssertionError("segment constant matches no candidate")


def _tags(
    end_pairs: Sequence[Pair], forms: Sequence[Sequence[int]], scale: int,
    xs: Sequence[int], ls: Sequence[int], ps: Sequence[int],
) -> Tuple[str, ...]:
    """The tag of each piece, read off its int form and its left junction
    p/q, (-1, 0) for the first.  A pole lies strictly outside its piece's
    closed span, a left anchor before its segment, a right one after it: an
    anchored form (A, B, G, K) is ``left`` when -G*q < p*K.  A piece starts
    in or at the start of segment k, the number of points X with X*q <= p*D,
    the segment a constant form of lattice level A is tagged on."""
    tags = []
    for (a, _, g, d), (p, q) in zip(forms, (_NEG_END, *end_pairs), strict=True):
        if d:
            tags.append(f"{'left' if -g * q < p * d else 'right'}({format_pair(-g, d)})")
        else:
            k = bisect_right(xs, 0, key=lambda x: x * q - p * scale)
            tags.append(_constant_tag(xs, ps, ls, k, a, scale))
    return tuple(tags)


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
    # The points in decreasing x, turned by 180 degrees, which keeps every
    # orientation and slope: the chains of this pass are the upper hulls of
    # suffixes, and ``_anchors`` reads the same test on both passes.
    backward = [(-x, -y) for x, y in reversed(points)]
    lower = _hull_links(points)
    upper = _hull_links(backward)
    tails = max(ls[0], ls[-1])
    checks = _breakpoint_values(xs, ps, ls, lower, upper)

    # The walks' cells are checked on the lattice and read into the
    # skeleton as they come.  Adjacent cells with identical coefficients
    # merge (continuity across breakpoints makes the shared function one
    # piece), so the open cell, candidate top, runs to end until the next
    # distinct candidate starts there and closes it.  A candidate
    # (a, b, g, d) is (a*q + b*p, g*q + d*p) at the lattice point (p, q),
    # in units of 1/E.  Adjacent cells must agree at their shared point,
    # and the cell holding each breakpoint must match the maximal function
    # read off the hull chains.  The skeleton, all a build keeps besides
    # the lattice: each finite right end as an int pair with den > 0, and
    # each int form, a positive multiple of the cell's piece: an anchored
    # (a, b*D, g*E, D*E), a constant (a, 0, E, 0).
    end_pairs: List[Pair] = []
    forms: List[Candidate] = []
    top = end = None
    checked = 0  # the breakpoints checked so far
    for k in range(n + 1):
        u = xs[k - 1] if k >= 1 else None
        v = xs[k] if k <= n - 1 else None
        ell = ls[k]
        # P(X) = y0 + ell*X on the segment, so the lattice average over the
        # interval between X and an anchor Q is (y0 - P(Q) + ell*X)/(X - Q).
        ref = k - 1 if k else 0
        y0 = ps[ref] - ell * xs[ref] if n else 0
        # Only the chain vertices between the links of the segment's two ends
        # can be the tangent from (X, P(X)) on that side (see the module
        # docstring); an unbounded segment takes its one chain whole.  Of
        # those, an anchor above the constant c = max(ell, tails) is highest
        # at the segment's end on its own side (a left average above ell
        # falls, a right one rises), so one whose average there is at or
        # below c never carries a cell and is left out.  The walk takes them
        # in the order the envelope meets them: the left anchors nearest
        # first, the constant, the right anchors farthest first.  An anchor
        # so admitted averages above c >= ell at its own end, so none is the
        # constant ell, alpha + ell*Q = 0, that c covers.
        c = ell if ell > tails else tails
        candidates = []
        if k >= 1:
            for i in _anchors(points, lower, k - 1, lower[k] if k <= n - 1 else -1, c):
                candidates.append((y0 - ps[i], ell, -xs[i], 1))
        candidates.append((c, 0, 1, 0))
        if k <= n - 1:
            for j in reversed(_anchors(backward, upper, n - 1 - k, upper[n - k] if k >= 1 else -1, c)):
                candidates.append((y0 - ps[n - 1 - j], ell, -xs[n - 1 - j], 1))
        for _, hi, cand in _stack_walk(candidates, u, v):
            if cand == top:
                end = hi
                continue
            if top is not None:  # the open cell closes at end, where cand starts
                a, b, g, d = top
                p, q = end
                num, den = a * q + b * p, g * q + d * p
                end_pairs.append((p, q * scale))
                ra, rb, rg, rd = cand
                if num * (rg * q + rd * p) != (ra * q + rb * p) * den:
                    raise AssertionError("profile pieces disagree at a junction")
                while checked < n and xs[checked] * q <= p:
                    x = xs[checked]
                    at, over = checks[checked]
                    if (a + b * x) * over != at * (g + d * x):
                        raise AssertionError("profile disagrees with the pointwise engine")
                    checked += 1
                forms.append((a, b * scale, g * unit, scale * unit) if d else (a, 0, unit, 0))
            top, end = cand, hi

    # The last cell runs to +oo: the breakpoints past the last junction.
    a, b, g, d = top
    while checked < n:
        x = xs[checked]
        at, over = checks[checked]
        if (a + b * x) * over != at * (g + d * x):
            raise AssertionError("profile disagrees with the pointwise engine")
        checked += 1
    forms.append((a, b * scale, g * unit, scale * unit) if d else (a, 0, unit, 0))
    return MaximalProfile(tuple(end_pairs), tuple(forms), (scale, xs, ls, ps))


# --- the perturbation family f + s*g -----------------------------------------


class PerturbationFamily:
    """The profiles of f + s*g for rational s, built on one integer lattice.

    The lattice is read off f's and g's own, ``StepFunction.lattice``,
    cached and checked when made: the merged breakpoints, their points X on
    the lcm of the two scales and the signed int levels of f and g on each
    merged segment.  ``profile(s)`` forms only the levels, the unit and the
    sums P at s, and drops the merged breakpoints that canonical form drops
    there, deciding on rationals only where two neighbouring levels are
    equal.  Each profile is that of ``build_profile(stepfn.combine(f, g, 1,
    s))`` byte for byte (see the module docstring).
    """

    __slots__ = ("_f", "_g", "_points", "_scale", "_unit", "_xs", "_levels")

    def __init__(self, f: StepFunction, g: StepFunction):
        (d_f, e_f, fx, fl, _), (d_g, e_g, gx, gl, _) = f.lattice, g.lattice
        scale = math.lcm(d_f, d_g)
        fx = [x * (scale // d_f) for x in fx]
        gx = [x * (scale // d_g) for x in gx]
        # The signed levels: f's a = e_f*c and g's b = e_g*c, each L signed
        # as its constant c.  At s = p/q, f + s*g on a merged segment is
        # a*e_g*q + b*e_f*p in units of 1/(e_f*e_g*q).
        a = [-ell if c < 0 else ell for ell, c in zip(fl, f.constants)]
        b = [-ell if c < 0 else ell for ell, c in zip(gl, g.constants)]
        # One merge of the two lists of points on ints, as in ``stepfn.combine``:
        # with i of f's points below a merged point, f's level is a[i] left of it.
        fb, gb = f.breakpoints, g.breakpoints
        points, xs, levels = [], [], []
        i = j = 0
        nf, ng = len(fx), len(gx)
        while i < nf or j < ng:
            on_f = j == ng or i < nf and fx[i] <= gx[j]
            on_g = i == nf or j < ng and gx[j] <= fx[i]
            levels.append((a[i] * e_g, b[j] * e_f))
            xs.append(fx[i] if on_f else gx[j])
            points.append(fb[i] if on_f else gb[j])
            i += on_f
            j += on_g
        levels.append((a[-1] * e_g, b[-1] * e_f))
        self._f, self._g, self._points = f, g, points
        self._scale, self._unit, self._xs, self._levels = scale, e_f * e_g, tuple(xs), levels

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


# --- detachment set --------------------------------------------------------


def detachment_regions(f: StepFunction, profile: MaximalProfile) -> Tuple[RegionSet, RegionSet]:
    """Split the line into the open set where the profile strictly exceeds
    the adjusted modulus and its closed complement (touch set).

    One merge of the profile's end pairs with f's lattice points (X, D),
    each list closed with the +oo pair: an interval between two bounds
    touches when its int form is the constant level L/E of |f| there, and a
    bound touches when the form of the piece left of it, read there, is the
    larger of the levels beside it.  The walk decides on ints.  Each bound
    it reports is one of f's breakpoints or, off them, the Fraction of a
    junction's pair.
    """
    scale, unit, xs, ls = f.lattice[:4]
    forms = profile.int_forms
    ends = (*profile.end_pairs, _POS_END)
    points = [*[(x, scale) for x in xs], _POS_END]
    i = k = 0
    junctions, breakpoints = len(profile.end_pairs), len(xs)
    # An interval touches where its form (a, b, g, e) is the constant level
    # L/E of |f| there: b = e = 0 and a*E = L*g.
    a, b, g, e = forms[0]
    detached = not (b == e == 0 and a * unit == ls[0] * g)  # the interval left of the next bound
    # A run of detached intervals goes on through detached bounds and closes
    # at each bound where the profile touches the adjusted modulus.
    runs: List[Tuple[End, End]] = []
    start: End = NEG_INF
    while i < junctions or k < breakpoints:
        # The next bound: the nearer of the next junction and the next lattice
        # point, and whether each pointer steps past it (both, where they meet).
        (p, q), (x, d) = ends[i], points[k]
        order = p * d - x * q
        at_end, at_point = order <= 0, order >= 0
        a, b, g, e = forms[i]
        num, den = (a * d + b * x, g * d + e * x) if at_point else (a * q + b * p, g * q + e * p)
        level = ls[k + 1] if at_point and ls[k + 1] > ls[k] else ls[k]
        a, b, g, e = forms[i + at_end]
        detached_after = not (b == e == 0 and a * unit == ls[k + at_point] * g)
        if num * unit == level * den:
            t = f.breakpoints[k] if at_point else Fraction(p, q)
            if detached:
                runs.append((start, t))
            start = t
        elif not (detached and detached_after):
            raise AssertionError("detached bound next to a touching interval")
        detached = detached_after
        i += at_end
        k += at_point
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
    i, at_junction = _locate(profile.end_pairs, x)
    if at_junction:
        raise ValueError("derivative is one-sided at piece junctions")
    a, b, g, d = profile.int_forms[i]
    den = g * x.denominator + d * x.numerator
    return Fraction((b * g - a * d) * x.denominator**2, den * den)


# --- certified variation ---------------------------------------------------


# The size, in bits of its den, at which a run of terms summed as one
# unreduced pair goes up the merge tree.
_RUN_BITS = 512


def _sum_at_turns(turns: Iterable[Tuple[int, Pair]]) -> Pair:
    """The sum of c*num/den over the terms (c, (num, den)), den != 0, as an
    int pair (num, den), den != 0, not reduced; den > 0 when every term's is.

    A walk of values v[0], ..., v[m] whose step from v[k] to v[k + 1] has
    the direction s[k] (its sign, or any sign where the step is 0) has the
    variation sum of s[k]*(v[k + 1] - v[k]) = sum of v[k]*(s[k - 1] - s[k]),
    with s = 0 before the first value and after the last: only the turning
    points, where the direction changes, enter, each with c = s[k - 1] - s[k].

    Terms are summed as one unreduced pair until its den passes
    ``_RUN_BITS``; the run sums are merged like a binary counter, two
    partial sums of 2**k runs into one of 2**(k + 1), each merge reduced.
    So no operand grows with the number of terms, and n terms cost about
    n log n multiplications of one run's size, not n**2."""
    partial: List[Tuple[int, int, int]] = []  # (num, den, k): the sum of 2**k runs
    num, den = 0, 1
    for c, (n, d) in turns:
        num, den = num * d + c * n * den, den * d
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
    return num, den


def _gap(value1: Pair, value2: Pair) -> Pair:
    """value1 - value2 of two int pairs, den != 0, as an int pair, den > 0."""
    (num1, den1), (num2, den2) = value1, value2
    num, den = num1 * den2 - num2 * den1, den1 * den2
    return (num, den) if den > 0 else (-num, -den)


def _gap_at(form1: Sequence[int], form2: Sequence[int], x: Pair) -> Pair:
    """form1 - form2 at the bound x, as an int pair, den != 0: the ``_gap``
    of their ``_form_at`` values, den > 0, at an infinite x, and where x is
    finite the same difference read in one call, its den the product of the
    two forms' dens there, of either sign."""
    n, m = x
    if not m:
        return _gap(_form_at(form1, x), _form_at(form2, x))
    a1, b1, g1, d1 = form1
    a2, b2, g2, d2 = form2
    den1, den2 = g1 * m + d1 * n, g2 * m + d2 * n
    return (a1 * m + b1 * n) * den2 - (a2 * m + b2 * n) * den1, den1 * den2


# The one form of the zero profile M0 = 0, against which a profile's own
# variation is walked.
_ZERO = (0, 0, 1, 0)


def variation_of_profile(profile: MaximalProfile, a=NEG_INF, b=POS_INF) -> VariationEnclosure:
    """Total variation of the profile over the open interval (a, b), as an
    enclosure of width zero: the one pair twice.

    It is the walk of the profile against the zero profile M0 = 0: the
    sign pass ``_sign_pass`` over the slice of the profile's pieces that
    meet (a, b) against M0's one form (0, 0, 1, 0), from a to b, summed at
    its turning points by ``_sum_at_turns``.  A finite a or b is placed
    among the end pairs by ``_locate``.  M0 is flat, so no cell has a peak,
    and the answer is exact.
    """
    a, b = _endpoint(a), _endpoint(b)
    if not a < b:
        raise ValueError("variation_of_profile needs a < b")

    # Pieces first..last meet (a, b); piece i spans junctions i - 1 and i.
    pairs, forms = profile.end_pairs, profile.int_forms
    first, last, lo, hi = 0, len(pairs), _NEG_END, _POS_END
    if not isinstance(a, float):
        first, at_a = _locate(pairs, a)
        first, lo = first + at_a, (a.numerator, a.denominator)
    if not isinstance(b, float):
        last, hi = _locate(pairs, b)[0], (b.numerator, b.denominator)
    turns, _ = _sign_pass((*pairs[first:last], hi), forms[first : last + 1], (hi,), (_ZERO,), lo, 0)
    total = _sum_at_turns(turns)
    return VariationEnclosure(total, total)


def variation_of_difference(
    p1: MaximalProfile, p2: MaximalProfile, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """Certified total variation of (p1 - p2) over the whole line: the sign
    pass ``_sign_pass`` over the two profiles' pieces, from -oo to +oo,
    then the int stage ``_int_stage``, which sums its turning points and
    brackets its peaks until the enclosure is at most ``precision`` wide."""
    turns, peaks = _sign_pass((*p1.end_pairs, _POS_END), p1.int_forms, (*p2.end_pairs, _POS_END), p2.int_forms, _NEG_END, 0)
    return VariationEnclosure(*_int_stage(turns, peaks, precision))


def _sign_pass(ends1, forms1, ends2, forms2, start: Pair, before: int):
    """The walk of d = m1 - m2 over the common cells of two piece lists:
    its turning points and its peaks.

    Piece k of a list has the form ``forms[k]`` and ends at ``ends[k]``;
    the first starts at the bound ``start``, and both lists close with the
    same last end, where the walk ends.  The values of d start with the
    direction ``before``: 0 for a variation, the sign of d(-oo) for the walk
    that comes from 0 before -oo, whose first turn, at d(-oo), adds |d(-oo)|.
    It returns the turns, (c, d(s)) at each bound s where the direction
    changes, c the old direction less the new, a peak cell counting as
    direction 0 and a cell where d is flat keeping the last direction (its
    step is 0, so any direction sums alike), and for each peak cell
    (qa, qb, qc, form1, form2, d(s), d(t), rise): the raw critical
    quadratic of its forms, the forms, d at its ends and the sign of d'
    left of its critical point.  Each d is a form's gap at a bound
    (``_gap_at``), an int pair whose den may be negative at a finite bound.

    The pass uses +, -, * and comparisons only, so it runs unchanged on
    forms over any ordered ring; on the int forms it decides every sign on
    ints.  A common cell (s, t) ends at the nearer of the current pieces'
    right ends, and each piece that ends there steps on (both, at a shared
    end).  On the cell the derivative of d has the sign of the critical
    quadratic q = det1*B**2 - det2*A**2, with det = b*g - a*d a form's det
    and A = gamma1 + delta1*x, B = gamma2 + delta2*x its two dens.  Neither
    piece has its pole on the closed cell, so neither A nor B vanishes
    there.  A form is its piece times some k > 0, so q from the forms is
    k1**2 * k2**2 times the pieces' q, with the same sign everywhere.

    Where det1*det2 <= 0, one piece rises while the other falls, or one of
    them is flat: the two terms of q never have opposite signs and do not
    both vanish, so q has one sign on the cell, that of det1 - det2 (0 when
    both pieces are flat), and no root.  Such a cell is exact, with that
    direction, and needs no quadratic.  So is a cell whose two pieces share
    their pole, g1*e2 = g2*e1: there A = (e1/e2)*B, and q is its leading
    coefficient qa = det1*e2**2 - det2*e1**2 times (B/e2)**2, whose double
    root is the pole, off the closed cell.

    Elsewhere the two pieces move the same way about two poles.  The ratio
    r = A/B keeps one sign on the cell and is monotone; q vanishes exactly
    where r**2 = det1/det2, and r meets the one square root of that ratio
    with its own sign at most once (a constant r makes q vanish everywhere
    or nowhere on the cell).  Hence q has at most one root on the closed
    cell and changes sign there: the cell splits into at most two monotone
    stretches.  The pass forms q and its signs at s and t, and checks that
    q has not both roots in the closed cell (two critical points), testing
    the two sign conditions before the discriminant.  The cell holds a
    critical point, a peak, exactly when q has opposite nonzero signs at its
    ends (at an infinite end, the sign of q's leading term there), and the
    sign at s is the sign of d' left of it.  Any other cell is exact, its
    direction the sign of q at either end where it is nonzero.
    """
    last = len(ends1) - 1
    i = j = -1
    order = 0
    sn, sd = start
    turns: List[Tuple[int, Pair]] = []
    peaks: List[tuple] = []
    while True:
        # Each piece that ended at the last cell's right end steps on (both,
        # at a shared end), and the cell's right end t = tn/td is the nearer
        # of the two pieces' right ends u and v.  A piece's det is read once.
        if order <= 0:
            i += 1
            form1, (un, ud) = forms1[i], ends1[i]
            a1, b1, g1, e1 = form1
            det1 = b1 * g1 - a1 * e1
        if order >= 0:
            j += 1
            form2, (vn, vd) = forms2[j], ends2[j]
            a2, b2, g2, e2 = form2
            det2 = b2 * g2 - a2 * e2
        order = un * vd - vn * ud
        tn, td = (un, ud) if order <= 0 else (vn, vd)
        if det1 * det2 <= 0:  # the pieces move apart, or one is flat
            # Where both are flat, so is d: it keeps the last direction.
            direction = (det1 > det2) - (det1 < det2) or before
        elif g1 * e2 == g2 * e1:  # one pole: q is qa*(x - pole)**2 over e2**2
            at = det1 * e2 * e2 - det2 * e1 * e1
            direction = (at > 0) - (at < 0)
        else:
            # The critical quadratic q = qa*x**2 + qb*x + qc of the two forms,
            # and its signs at s and t.  At an infinite end, the pair (-1, 0)
            # or (1, 0), the same expression is qa, and its sign toward that
            # infinity falls to that of sn*qb (tn*qb), then qc, where qa is 0.
            qa = det1 * e2 * e2 - det2 * e1 * e1
            qb = 2 * (det1 * g2 * e2 - det2 * g1 * e1)
            qc = det1 * g2 * g2 - det2 * g1 * g1
            at = (qa * sn + qb * sd) * sn + qc * sd * sd or not sd and (sn * qb or qc)
            rise = (at > 0) - (at < 0)
            at = (qa * tn + qb * td) * tn + qc * td * td or not td and (tn * qb or qc)
            at_t = (at > 0) - (at < 0)
            if rise * at_t < 0:  # one root lies inside: a peak
                d_s, d_t = _gap_at(form1, form2, (sn, sd)), _gap_at(form1, form2, (tn, td))
                peaks.append((qa, qb, qc, form1, form2, d_s, d_t, rise))
                direction = 0
            elif (
                # Both roots of q (a double root counts twice) in the closed
                # cell [s, t]: q is not on its inner branch at either end, is
                # real-rooted, and its vertex, where the slope 2*qa*x + qb
                # changes sign, lies between them.
                qa
                and rise * qa >= 0
                and at_t * qa >= 0
                and qb * qb >= 4 * qa * qc
                and (not sd or (2 * qa * sn + qb * sd) * qa <= 0)
                and (not td or (2 * qa * tn + qb * td) * qa >= 0)
            ):
                raise AssertionError("two critical points of a profile difference in one cell")
            else:
                direction = rise or at_t
        if direction != before:
            turns.append((before - direction, _gap_at(form1, form2, (sn, sd))))
            before = direction
        sn, sd = tn, td
        if order <= 0 and i == last:
            break
    if before:
        turns.append((before, _gap_at(form1, form2, (sn, sd))))
    return turns, peaks


def _int_stage(turns, peaks, precision) -> Tuple[Pair, Pair]:
    """The ends of the enclosure of a sign pass's variation, as int pairs,
    not reduced: one pair, twice, when it has no peak.

    The exact part is the sum of d at the turning points
    (``_sum_at_turns``).  Each peak's raw quadratic is divided by
    gcd(q, (k1*k2)**2), with k a form's delta (gamma for a constant), its
    factor over its piece: that is the critical quadratic of the pieces,
    which have delta = 1 (gamma = 1), times the lcm of its denominators:
    the int quadratic that ``isolate_quadratic_roots`` takes.  Left of its
    low root q has the sign of its leading coefficient, between its roots
    the other sign, so the root inside the cell is the low one where the
    rise, q's sign at the cell's start, is that sign, else the high one (a
    linear q has one root).  A surd's bracket at level L is 1/(2a*2**L) wide, so that
    scaling fixes every enclosure end.  Round k takes each peak to the
    least level, not below its last, of width at most 2**-(40 + 16k), two
    more while either piece's pole is in it, and reads the poles' signs and
    the values at the bracket's int-pair ends off the two int forms.  The
    two pieces move the same way, so each is lowest at one end of the
    bracket and highest at the other.  The round's peak terms are int
    pairs, summed like the turning points, and its width is compared with
    the precision on ints.  A rational root's bracket is the point itself,
    so its peak term is exact from the first round on.
    """
    precision = rat(precision)
    if precision.numerator <= 0:
        raise ValueError("precision must be positive")
    exact = _sum_at_turns(turns)
    if not peaks:
        return exact, exact
    isolated = []
    for qa, qb, qc, form1, form2, d_s, d_t, rise in peaks:
        common = math.gcd(qa, qb, qc, ((form1[3] or form1[2]) * (form2[3] or form2[2])) ** 2)
        q = (qa // common, qb // common, qc // common)
        roots = isolate_quadratic_roots(q)
        root = roots[0] if rise == sign(q[0]) else roots[-1]
        isolated.append([root, 0, form1, form2, d_s, d_t, rise])
    bits = 40
    while True:
        lo_terms: List[Tuple[int, Pair]] = []
        hi_terms: List[Tuple[int, Pair]] = []
        for peak in isolated:
            root, level, form1, form2, d_s, d_t, rise = peak
            # The least level whose bracket width 1/(2a*2**level) is <= 2**-bits.
            level = max(level, bits + 1 - (2 * root.a).bit_length())
            while True:
                edges = root.bracket(level)
                at = [_form_at(form, edge) for form in (form1, form2) for edge in edges]
                signs = [sign(den) for _, den in at]
                if 0 not in signs and signs[0] == signs[1] and signs[2] == signs[3]:
                    break
                level += 2
            peak[1] = level
            # Both pieces of a peak cell move the same way, and neither has its
            # pole in the bracket: each is lowest at one edge and highest at
            # the other, at the low edge when they rise.  So d over the
            # bracket lies between top_lo and top_hi.
            if form1[1] * form1[2] > form1[0] * form1[3]:
                top_lo, top_hi = _gap(at[0], at[3]), _gap(at[1], at[2])
            else:
                top_lo, top_hi = _gap(at[1], at[2]), _gap(at[0], at[3])
            for d in (d_s, d_t):
                # How far the top rises above d, or at a valley (rise < 0)
                # falls below it.
                gaps = (_gap(top_lo, d), _gap(top_hi, d)) if rise > 0 else (_gap(d, top_hi), _gap(d, top_lo))
                for (num, den), terms in zip(gaps, (lo_terms, hi_terms)):
                    if num > 0:
                        terms.append((1, (num, den)))
        (lo_num, lo_den), (hi_num, hi_den) = _sum_at_turns(lo_terms), _sum_at_turns(hi_terms)
        if (hi_num * lo_den - lo_num * hi_den) * precision.denominator <= precision.numerator * hi_den * lo_den:
            num, den = exact
            return (num * lo_den + lo_num * den, den * lo_den), (num * hi_den + hi_num * den, den * hi_den)
        bits += 16


def bv_distance(
    p1: MaximalProfile, p2: MaximalProfile, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """BV distance between two maximal functions, given by their profiles:
    the gap |d(-oo)| of their limits at -oo plus the variation of their
    difference d = p1 - p2.  That is the variation of d's walk as if d came
    from 0 before -oo: the sign pass ``_sign_pass`` started with the sign of
    d(-oo), then the int stage ``_int_stage``.  Only a peak of the
    difference can be irrational, so the precision bounds the enclosure's
    width."""
    num, _ = _gap_at(p1.int_forms[0], p2.int_forms[0], _NEG_END)
    turns, peaks = _sign_pass(
        (*p1.end_pairs, _POS_END), p1.int_forms, (*p2.end_pairs, _POS_END), p2.int_forms, _NEG_END, (num > 0) - (num < 0)
    )
    return VariationEnclosure(*_int_stage(turns, peaks, precision))
