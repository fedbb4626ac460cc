"""Global structure of the maximal function: exact piecewise-Moebius profiles.

Between consecutive breakpoints of f, the maximal function is the upper
envelope of finitely many candidate functions of the query point x: averages
of |f| anchored at a breakpoint on one side with x as the other endpoint
(Moebius functions of x), plus one constant, the largest of the local value
and the two tail limits.  Intervals spanning the whole segment are averages
of two anchored ones, so they never win by value; they only name the
constant's provenance (``const(a,b)``) where it wins a piece.  On a segment
where |f| = l, every anchored candidate normalizes to (alpha + l*x)/(gamma + x)
and the constant to (c + 0*x)/(1 + 0*x), so the x^2 terms of any crossing
equation cancel: two distinct candidates meet at most once, crossings solve
linear equations, and every junction, piece endpoint and endpoint value is a
plain rational.

With F the antiderivative of |f|, an anchored average is the slope from
(a, F(a)) to (x, F(x)), so only vertices of the lower convex hull of the
points left of the segment (upper hull for those to the right) can carry a
piece; one Andrew monotone-chain pass in each direction yields every
segment's hull.  The envelope is then a left-to-right walk: from the current
winner, the next piece starts at the earliest crossing where another
candidate overtakes it.  The candidate-set maximum of ``maximal.candidate_set``
stays the oracle the tests compare profiles with, and every build checks
itself against the pointwise engine at each breakpoint.

Because each non-constant piece is a Moebius function with its pole strictly
outside the closed piece domain, every piece is monotone, and the variation
of a profile is an exact telescoping sum of endpoint values.  Only the
difference of two profiles has irrational critical points (roots of genuine
quadratics); its variation is reported as a certified rational enclosure of
arbitrary requested precision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import AlgebraicValue, Rat, format_rat, isolate_quadratic_roots, rat, sign
from .maximal import maximal_limit_at_infinity, maximal_value
from .stepfn import NEG_INF, POS_INF, AbsIntegral, StepFunction, _endpoint


@dataclass(frozen=True)
class Provenance:
    """Which candidate family a piece came from."""

    kind: str  # 'left' | 'right' | 'constant'
    anchor: Optional[Rat] = None  # fixed endpoint a (left) or b (right)
    source: Optional[str] = None  # constants: 'interval' | 'tail_left' | 'tail_right' | 'local'
    interval: Optional[Tuple[Rat, Rat]] = None

    def tag(self) -> str:
        if self.kind == "left":
            return f"left({format_rat(self.anchor)})"
        if self.kind == "right":
            return f"right({format_rat(self.anchor)})"
        if self.source == "interval":
            a, b = self.interval
            return f"const({format_rat(a)},{format_rat(b)})"
        return f"const:{self.source}"


@dataclass(frozen=True)
class MoebiusPiece:
    """x -> (alpha + beta*x)/(gamma + delta*x) on a domain with exact ends.

    ``lo``/``hi`` are domain endpoints (None for the infinities) and
    ``lo_value``/``hi_value`` the profile values there.  The denominator has
    no zero on the closed domain, so the piece is monotone throughout.
    """

    alpha: Rat
    beta: Rat
    gamma: Rat
    delta: Rat
    lo: Optional[Rat]
    hi: Optional[Rat]
    lo_value: Optional[Rat]
    hi_value: Optional[Rat]
    provenance: Provenance

    @property
    def coefficients(self) -> Tuple[Rat, Rat, Rat, Rat]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def det(self) -> Rat:
        return self.beta * self.gamma - self.alpha * self.delta

    @property
    def is_constant(self) -> bool:
        return self.beta == 0 and self.delta == 0

    @property
    def direction(self) -> int:
        """Monotonicity: the sign of the derivative, constant on the domain."""
        return sign(self.det)

    def value_at(self, x) -> Rat:
        x = rat(x)
        den = self.gamma + self.delta * x
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole of a profile piece")
        return (self.alpha + self.beta * x) / den

    def derivative_at(self, x) -> Rat:
        x = rat(x)
        den = self.gamma + self.delta * x
        return self.det / (den * den)

    def limit_at(self, direction: int) -> Rat:
        """Value limit toward -oo (direction < 0) or +oo (direction > 0)."""
        if self.delta:
            return self.beta / self.delta
        if self.beta:
            raise ArithmeticError("affine piece is unbounded; no limit at infinity")
        return self.alpha / self.gamma

    def dump_line(self) -> str:
        cells = [
            "-inf" if self.lo is None else format_rat(self.lo),
            "inf" if self.hi is None else format_rat(self.hi),
            format_rat(self.alpha),
            format_rat(self.beta),
            format_rat(self.gamma),
            format_rat(self.delta),
            self.provenance.tag(),
        ]
        return "\t".join(cells)


@dataclass(frozen=True)
class MaximalProfile:
    """Ordered monotone pieces covering the whole line; continuous by
    construction (adjacent pieces agree at junctions)."""

    pieces: Tuple[MoebiusPiece, ...]

    def piece_containing(self, x) -> MoebiusPiece:
        """The piece whose closed domain holds x (the left one at a junction)."""
        index = bisect_left(self.pieces, rat(x), hi=len(self.pieces) - 1, key=lambda p: p.hi)
        return self.pieces[index]

    def value(self, x) -> Rat:
        return self.piece_containing(x).value_at(x)

    def limit_at(self, direction: int) -> Rat:
        piece = self.pieces[0] if direction < 0 else self.pieces[-1]
        return piece.limit_at(direction)

    def junctions(self) -> List[Rat]:
        return [piece.hi for piece in self.pieces[:-1]]

    def dump(self) -> str:
        return "\n".join(piece.dump_line() for piece in self.pieces) + "\n"


@dataclass(frozen=True)
class RegionSet:
    """Disjoint sorted intervals with exact endpoints (None = infinity).

    Open intervals for the detachment set; its complement is reported as
    closed intervals, possibly degenerate (single touch points).
    """

    intervals: Tuple[Tuple[Optional[Rat], Optional[Rat]], ...]
    closed: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = rat(x)
        for lo, hi in self.intervals:
            if self.closed:
                if (lo is None or lo <= x) and (hi is None or x <= hi):
                    return True
            elif (lo is None or lo < x) and (hi is None or x < hi):
                return True
        return False


@dataclass(frozen=True)
class VariationEnclosure:
    """Certified rational interval around a variation value."""

    lo: Rat
    hi: Rat
    requested_precision: Rat

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        object.__setattr__(self, "requested_precision", Fraction(self.requested_precision))
        if self.lo > self.hi:
            raise ValueError("enclosure needs lo <= hi")
        if self.hi - self.lo > self.requested_precision:
            raise ValueError("enclosure wider than the requested precision")

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2

    def gap_to(self, other: "VariationEnclosure") -> Rat:
        """Distance between the two intervals (zero when they intersect)."""
        return max(Fraction(0), self.lo - other.hi, other.lo - self.hi)

    def __str__(self):
        return f"{format_rat(self.lo)}..{format_rat(self.hi)}"


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class _Candidate:
    alpha: Rat
    beta: Rat
    gamma: Rat
    delta: Rat
    provenance: Provenance

    @property
    def coefficients(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    def value_at(self, x: Rat) -> Rat:
        return (self.alpha + self.beta * x) / (self.gamma + self.delta * x)


def _midpoint(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """A rational inside the open interval (lo, hi); None means infinite."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def _crossing(c1: _Candidate, c2: _Candidate) -> Optional[Rat]:
    """The one point where two distinct candidates of a segment meet, if any.

    Every candidate has beta = l*delta (l = |f| on the segment), so the x^2
    coefficient of the crossing equation cancels and it is linear.
    """
    a1, b1, g1, d1 = c1.coefficients
    a2, b2, g2, d2 = c2.coefficients
    if b1 * d2 - b2 * d1:
        raise AssertionError("envelope crossing is not linear")
    slope = a1 * d2 + b1 * g2 - a2 * d1 - b2 * g1
    if not slope:
        return None
    return (a2 * g1 - a1 * g2) / slope


def _inside(x: Rat, u: Optional[Rat], v: Optional[Rat]) -> bool:
    return (u is None or u < x) and (v is None or x < v)


def _upper_envelope(
    candidates: Sequence[_Candidate], u: Optional[Rat], v: Optional[Rat]
) -> List[Tuple[Optional[Rat], Optional[Rat], _Candidate]]:
    """Envelope of distinct candidates over the open segment (u, v).

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
            sample = (x if x is not None and x < v else v) - 1
            if cand.value_at(sample) > winner.value_at(sample):
                winner = cand
    else:
        at_u = [cand.value_at(u) for cand in candidates]
        top = max(at_u)
        sample = _midpoint(u, v)
        tied = [cand for cand, value in zip(candidates, at_u) if value == top]
        winner = max(tied, key=lambda c: c.value_at(sample))
    # A candidate that does not cross the winner after the current start
    # stays below it, and so below the envelope, up to v: it is dropped.
    alive = [cand for cand in candidates if cand is not winner]
    cells = []
    start = u
    while True:
        ahead = []
        for cand in alive:
            x = _crossing(winner, cand)
            if x is not None and _inside(x, start, v):
                ahead.append((x, cand))
        if not ahead:
            cells.append((start, v, winner))
            return cells
        nearest = min(x for x, _ in ahead)
        cells.append((start, nearest, winner))
        sample = _midpoint(nearest, v)
        # The old winner and the rivals not chosen meet the new winner at
        # `nearest` and stay below it from there on.
        winner = max((cand for x, cand in ahead if x == nearest), key=lambda c: c.value_at(sample))
        alive = [cand for x, cand in ahead if x != nearest]
        start = nearest


def _hull_links(points: Sequence[Tuple[Rat, Rat]]) -> List[int]:
    """One Andrew monotone-chain pass over points taken in the given order.

    Returns, for each point, the chain vertex it was pushed onto (-1 for
    the first): the hull of points[0..i] is the chain i, links[i],
    links[links[i]], ...  A chain turns strictly left at every vertex, so
    collinear middle points drop out.  Points in increasing x give lower
    hulls of prefixes; in decreasing x, upper hulls of suffixes.
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


def _constant_provenance(f: StepFunction, k: int, prefix: Sequence[Rat], value: Rat) -> Provenance:
    """Tag of the constant `value` on segment k: the shortest, then leftmost,
    interval between breakpoints that straddles the segment and averages
    exactly `value`, else the first of the tails and the local value equal
    to it."""
    bps = f.breakpoints
    first_right: Dict[Rat, Rat] = {}
    for j in range(len(bps) - 1, k - 1, -1):
        first_right[prefix[j] - value * bps[j]] = bps[j]
    best: Optional[Tuple[Rat, Rat, Rat]] = None
    for i in range(k):
        b = first_right.get(prefix[i] - value * bps[i])
        if b is not None and (best is None or (b - bps[i], bps[i]) < best[:2]):
            best = (b - bps[i], bps[i], b)
    if best is not None:
        return Provenance("constant", source="interval", interval=best[1:])
    consts = f.constants
    for source, c in (("tail_left", consts[0]), ("tail_right", consts[-1]), ("local", consts[k])):
        if abs(c) == value:
            return Provenance("constant", source=source)
    raise AssertionError("segment constant matches no candidate")


def build_profile(f: StepFunction) -> MaximalProfile:
    """Assemble the exact global profile of the maximal function of f."""
    if f.n == 0:
        c = abs(f.tail_left)
        piece = MoebiusPiece(
            c, Fraction(0), Fraction(1), Fraction(0), None, None, None, None,
            Provenance("constant", source="tail_left"),
        )
        return MaximalProfile((piece,))

    bps = f.breakpoints
    n = f.n
    prefix = AbsIntegral(f).prefix  # F at each breakpoint
    abs_consts = [abs(c) for c in f.constants]
    points = list(zip(bps, prefix))
    lower = _hull_links(points)
    upper = _hull_links(points[::-1])
    tails = max(abs_consts[0], abs_consts[-1])

    cells_in_order: List[Tuple[Optional[Rat], Optional[Rat], _Candidate]] = []
    for k in range(n + 1):
        u = bps[k - 1] if k >= 1 else None
        v = bps[k] if k <= n - 1 else None
        ell = abs_consts[k]
        # F(x) = y0 + ell*x on the segment, so the average over the interval
        # between x and an anchor q is (y0 - F(q) + ell*x)/(x - q).
        ref = max(k - 1, 0)
        y0 = prefix[ref] - ell * bps[ref]
        constant = _Candidate(max(ell, tails), _ZERO, _ONE, _ZERO, None)
        candidates = [constant]
        left = [(i, "left") for i in _hull_from(lower, k - 1)] if k >= 1 else []
        right = [(n - 1 - j, "right") for j in _hull_from(upper, n - 1 - k)] if k <= n - 1 else []
        for i, side in left + right:
            q = bps[i]
            alpha = y0 - prefix[i]
            # Anchors whose average with the segment is the local constant
            # (the segment ends among them) are already covered.
            if alpha + ell * q == 0:
                continue
            candidates.append(_Candidate(alpha, ell, -q, _ONE, Provenance(side, anchor=q)))

        for lo, hi, cand in _upper_envelope(candidates, u, v):
            if cand is constant:
                cand = _Candidate(
                    *cand.coefficients, _constant_provenance(f, k, prefix, cand.alpha)
                )
            cells_in_order.append((lo, hi, cand))

    # Merge adjacent cells with identical coefficients (continuity across
    # breakpoints makes the shared function one piece).
    merged = [list(cells_in_order[0])]
    for lo, hi, cand in cells_in_order[1:]:
        if cand.coefficients == merged[-1][2].coefficients:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, cand])

    pieces: List[MoebiusPiece] = []
    prev_value: Optional[Rat] = None
    for lo, hi, cand in merged:
        hi_value = None if hi is None else cand.value_at(hi)
        pieces.append(
            MoebiusPiece(*cand.coefficients, lo, hi, prev_value, hi_value, cand.provenance)
        )
        prev_value = hi_value

    profile = MaximalProfile(tuple(pieces))

    # Internal consistency: adjacent pieces agree at every junction and the
    # profile matches the pointwise engine at every breakpoint.
    for left, right in zip(pieces, pieces[1:]):
        if right.value_at(left.hi) != left.hi_value:
            raise AssertionError("profile pieces disagree at a junction")
    for x0 in bps:
        if profile.value(x0) != maximal_value(f, x0).value:
            raise AssertionError("profile disagrees with the pointwise engine")
    return profile


# --- detachment set --------------------------------------------------------


def detachment_regions(f: StepFunction, profile: MaximalProfile) -> Tuple[RegionSet, RegionSet]:
    """Split the line into the open set where the profile strictly exceeds
    the adjusted modulus and its closed complement (touch set)."""
    bounds = sorted({*profile.junctions(), *f.breakpoints})
    if not bounds:
        only = profile.pieces[0]
        if only.is_constant and only.value_at(0) == abs(f.value(0)):
            return RegionSet((), closed=False), RegionSet(((None, None),), closed=True)
        return RegionSet(((None, None),), closed=False), RegionSet((), closed=True)

    items: List[Tuple[str, Optional[Rat], Optional[Rat]]] = []
    previous: Optional[Rat] = None
    for b in bounds:
        items.append(("interval", previous, b))
        items.append(("point", b, None))
        previous = b
    items.append(("interval", previous, None))

    flags: List[bool] = []
    for kind, first, second in items:
        if kind == "interval":
            x = _midpoint(first, second)
            piece = profile.piece_containing(x)
            in_e = not (piece.is_constant and piece.value_at(x) == abs(f.value(x)))
        else:
            adjusted = max(abs(f.left_limit(first)), abs(f.right_limit(first)))
            in_e = profile.value(first) != adjusted
        flags.append(in_e)

    runs: List[Tuple[Optional[Rat], Optional[Rat]]] = []
    run_start: object = _UNSET
    for (kind, first, second), in_e in zip(items, flags):
        if kind == "interval":
            if in_e:
                if run_start is _UNSET:
                    run_start = first
            elif run_start is not _UNSET:
                raise AssertionError("open detachment run hit a touching interval directly")
        else:
            if not in_e and run_start is not _UNSET:
                runs.append((run_start, first))  # type: ignore[arg-type]
                run_start = _UNSET
            elif in_e and run_start is _UNSET:
                raise AssertionError("isolated detachment point; the set must be open")
    if run_start is not _UNSET:
        runs.append((run_start, None))  # type: ignore[arg-type]

    complement: List[Tuple[Optional[Rat], Optional[Rat]]] = []
    if not runs:
        complement.append((None, None))
    else:
        if runs[0][0] is not None:
            complement.append((None, runs[0][0]))
        for (_, e1), (s2, _) in zip(runs, runs[1:]):
            complement.append((e1, s2))
        if runs[-1][1] is not None:
            complement.append((runs[-1][1], None))
    return RegionSet(tuple(runs), closed=False), RegionSet(tuple(complement), closed=True)


class _Unset:
    pass


_UNSET = _Unset()


# --- derivative ------------------------------------------------------------


def profile_derivative(profile: MaximalProfile, x) -> Rat:
    """Exact derivative at a rational point interior to a piece.

    At junctions the two one-sided derivatives may differ, so they are
    rejected rather than assigned a value.  For a piece carried by an
    interval anchored on the right at b, the derivative equals
    (value - |f|(x))/(b - x); anchored on the left at a it equals
    (|f|(x) - value)/(x - a); constant pieces are flat.
    """
    x = rat(x)
    piece = profile.piece_containing(x)
    if piece.hi == x:
        raise ValueError("derivative is one-sided at piece junctions")
    return piece.derivative_at(x)


# --- certified variation ---------------------------------------------------


def _is_neg_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x) and x < 0


def _is_pos_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x) and x > 0


def variation_of_profile(
    profile: MaximalProfile, a=NEG_INF, b=POS_INF, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """Total variation of the profile over the open interval (a, b).

    Each piece is monotone, so the variation telescopes over rational piece
    endpoint values: the answer is exact, an enclosure of width zero.
    """
    precision = rat(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    a, b = _endpoint(a), _endpoint(b)
    if not a < b:
        raise ValueError("variation_of_profile needs a < b")

    total = Fraction(0)
    for piece in profile.pieces:
        if not _is_neg_inf(a) and piece.hi is not None and piece.hi <= a:
            continue
        if not _is_pos_inf(b) and piece.lo is not None and piece.lo >= b:
            continue
        if piece.direction == 0:
            continue
        if not _is_neg_inf(a) and (piece.lo is None or piece.lo < a):
            start = piece.value_at(a)
        elif piece.lo is None:
            start = piece.limit_at(-1)
        else:
            start = piece.lo_value
        if not _is_pos_inf(b) and (piece.hi is None or piece.hi > b):
            end = piece.value_at(b)
        elif piece.hi is None:
            end = piece.limit_at(+1)
        else:
            end = piece.hi_value
        total += abs(end - start)
    return VariationEnclosure(total, total, precision)


def _difference_critical_quadratic(p1: MoebiusPiece, p2: MoebiusPiece):
    d1, d2 = p1.det, p2.det
    g1, dl1 = p1.gamma, p1.delta
    g2, dl2 = p2.gamma, p2.delta
    return (
        d1 * dl2 * dl2 - d2 * dl1 * dl1,
        2 * (d1 * g2 * dl2 - d2 * g1 * dl1),
        d1 * g2 * g2 - d2 * g1 * g1,
    )


def _root_inside(root: AlgebraicValue, s: Optional[Rat], t: Optional[Rat]) -> Optional[AlgebraicValue]:
    """A copy of root whose bracket lies inside (s, t), or None if root is outside.

    An irrational root equals neither end, so narrowing its bracket settles
    both comparisons; the original object is left as it is.
    """
    near = root
    while True:
        if (s is not None and near.hi <= s) or (t is not None and near.lo >= t):
            return None
        if _inside(near.lo, s, t) and _inside(near.hi, s, t):
            return near
        near = near.refine_below(near.width / 2**8)


def _difference_enclosure(
    m1: MoebiusPiece,
    m2: MoebiusPiece,
    bound: Optional[AlgebraicValue],
    direction: int,
    cache: Dict[int, AlgebraicValue],
    width: Rat,
) -> Tuple[Rat, Rat]:
    """Enclosure of (m1 - m2) at a cell endpoint (None = infinity)."""
    if bound is None:
        v = m1.limit_at(direction) - m2.limit_at(direction)
        return (v, v)
    if bound.is_rational:
        x0 = bound.rational_value
        v = m1.value_at(x0) - m2.value_at(x0)
        return (v, v)
    key = id(bound)
    av = cache.get(key, bound).refine_below(width)
    while True:
        signs = [
            sign(m.gamma + m.delta * edge)
            for m in (m1, m2)
            for edge in (av.lo, av.hi)
        ]
        if 0 not in signs and signs[0] == signs[1] and signs[2] == signs[3]:
            break
        av = av.refine_below(av.width / 4)
    cache[key] = av
    vals1 = sorted((m1.value_at(av.lo), m1.value_at(av.hi)))
    vals2 = sorted((m2.value_at(av.lo), m2.value_at(av.hi)))
    return (vals1[0] - vals2[1], vals1[1] - vals2[0])


def variation_of_difference(
    p1: MaximalProfile, p2: MaximalProfile, precision=Fraction(1, 10**9)
) -> VariationEnclosure:
    """Certified total variation of (p1 - p2) over the whole line.

    The piece grids are merged.  On a common cell (s, t) the derivative of
    m1 - m2 has the sign of the critical quadratic
    q = det1*(gamma2 + delta2*x)**2 - det2*(gamma1 + delta1*x)**2.  Neither
    piece has its pole on the closed cell, so the ratio
    r = (gamma1 + delta1*x)/(gamma2 + delta2*x) keeps one sign there and is
    monotone; q vanishes exactly where r**2 = det1/det2, and r meets the one
    square root of that ratio with its own sign at most once (a constant r
    makes q vanish everywhere or nowhere on the cell).  Hence q has at most
    one root on the closed cell and changes sign there: the cell splits into
    at most two monotone stretches, whose endpoint differences telescope.
    """
    precision = rat(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")

    walk: List[Optional[Rat]] = [None, *sorted({*p1.junctions(), *p2.junctions()}), None]
    monotone: List[Tuple[Optional[AlgebraicValue], Optional[AlgebraicValue], MoebiusPiece, MoebiusPiece, int]] = []
    for s, t in zip(walk, walk[1:]):
        x = _midpoint(s, t)
        m1, m2 = p1.piece_containing(x), p2.piece_containing(x)
        start, end = (None if e is None else AlgebraicValue.from_rat(e) for e in (s, t))
        stretches = [(start, end, x)]
        quad = _difference_critical_quadratic(m1, m2)
        if any(quad):
            for root in isolate_quadratic_roots(quad):
                near = _root_inside(root, s, t)
                if near is None:
                    continue
                if len(stretches) > 1:
                    raise AssertionError("two critical points of a profile difference in one cell")
                # Split at the original root: _difference_enclosure keys its
                # cache on that object and narrows it from its first bracket.
                stretches = [(start, root, _midpoint(s, near.lo)), (root, end, _midpoint(near.hi, t))]
        for u, w, sample in stretches:
            trend = sign(m1.derivative_at(sample) - m2.derivative_at(sample))
            if trend:
                monotone.append((u, w, m1, m2, trend))

    cache: Dict[int, AlgebraicValue] = {}
    width = Fraction(1, 2**40)
    while True:
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for u, w, m1, m2, trend in monotone:
            du = _difference_enclosure(m1, m2, u, -1, cache, width)
            dw = _difference_enclosure(m1, m2, w, +1, cache, width)
            if trend > 0:
                term_lo, term_hi = dw[0] - du[1], dw[1] - du[0]
            else:
                term_lo, term_hi = du[0] - dw[1], du[1] - dw[0]
            lo_sum += max(term_lo, Fraction(0))
            hi_sum += max(term_hi, Fraction(0))
        if hi_sum - lo_sum <= precision:
            return VariationEnclosure(lo_sum, hi_sum, precision)
        width /= 2**16


def bv_distance(
    f: StepFunction,
    g: StepFunction,
    precision=Fraction(1, 10**9),
    profile_f: Optional[MaximalProfile] = None,
    profile_g: Optional[MaximalProfile] = None,
) -> VariationEnclosure:
    """BV distance between the maximal functions of f and g: the gap of their
    limits at infinity plus the variation of their difference."""
    precision = rat(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    profile_f = profile_f or build_profile(f)
    profile_g = profile_g or build_profile(g)
    base = abs(maximal_limit_at_infinity(f) - maximal_limit_at_infinity(g))
    spread = variation_of_difference(profile_f, profile_g, precision)
    return VariationEnclosure(base + spread.lo, base + spread.hi, precision)
