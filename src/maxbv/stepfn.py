"""Step functions of bounded variation with explicit breakpoint values.

The model keeps the value *at* each breakpoint as first-class data: total
variation and the BV norm see point values, while interval averages do not,
and several identities checked by this package live exactly in that gap.
Functions are immutable and always held in canonical form (no breakpoint
whose point value equals both adjacent constants).

Interval endpoints may be ``NEG_INF`` / ``POS_INF`` (``-math.inf`` /
``math.inf``), the one encoding of an infinite end across the package;
comparisons between ``Fraction`` and the float infinities are exact, and no
arithmetic is ever performed on them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

from .exact import Rat, format_rat, parse_rat, rat

NEG_INF = -math.inf
POS_INF = math.inf

FORMAT_HEADER = "stepfn/1"


def _endpoint(x):
    """Coerce an interval endpoint: exact rational or one of the infinities."""
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise TypeError("finite endpoints must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function with explicit point values.

    ``right_constants[k]`` is the value on the open interval between
    breakpoint k and the next one (or +oo for the last); ``tail_left`` is
    the value on (-oo, first breakpoint).  Construction canonicalizes.
    """

    tail_left: Rat
    breakpoints: Tuple[Rat, ...] = ()
    point_values: Tuple[Rat, ...] = ()
    right_constants: Tuple[Rat, ...] = ()

    def __post_init__(self):
        tail = rat(self.tail_left)
        # Tuples here and below are built from lists: tuple() of a generator
        # resizes a tuple of guessed length, which moves it between CPython's
        # per-size tuple free lists, and over many calls those fill up to
        # megabytes of resident memory.
        bps = tuple([rat(x) for x in self.breakpoints])
        vals = tuple([rat(v) for v in self.point_values])
        cons = tuple([rat(c) for c in self.right_constants])
        if not (len(bps) == len(vals) == len(cons)):
            raise ValueError("breakpoints, point_values and right_constants must align")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        keep_bps: List[Rat] = []
        keep_vals: List[Rat] = []
        keep_cons: List[Rat] = []
        current = tail
        for x, v, c in zip(bps, vals, cons):
            if v == current == c:
                continue
            keep_bps.append(x)
            keep_vals.append(v)
            keep_cons.append(c)
            current = c
        object.__setattr__(self, "tail_left", tail)
        object.__setattr__(self, "breakpoints", tuple(keep_bps))
        object.__setattr__(self, "point_values", tuple(keep_vals))
        object.__setattr__(self, "right_constants", tuple(keep_cons))

    @staticmethod
    def constant(value) -> "StepFunction":
        return StepFunction(rat(value))

    @staticmethod
    def indicator(a, b, value=1, closed=True) -> "StepFunction":
        """value * characteristic function of [a, b] (closed) or (a, b)."""
        a, b, value = rat(a), rat(b), rat(value)
        if not a < b:
            raise ValueError("indicator needs a < b")
        point = value if closed else rat(0)
        return StepFunction(0, (a, b), (point, point), (value, rat(0)))

    @property
    def n(self) -> int:
        return len(self.breakpoints)

    @cached_property
    def lattice(self) -> "Lattice":
        """f on its integer lattice, made on first read: the scale D (lcm of
        the breakpoint denominators), the unit E (lcm of the |constant|
        denominators), the points X = D*b, the n + 1 levels L = E*|c| and
        P = D*E*F(b) at the breakpoints, with F the antiderivative of |f|
        based at the first one.  The pointwise engine and the profile build
        both read it.  It is checked once against f's own rationals when it
        is made (the way back), in one int pass."""
        scale, unit, xs, ls, ps = _lattice(self)
        for x, b in zip(xs, self.breakpoints, strict=True):
            if x * b.denominator != b.numerator * scale:
                raise AssertionError("lattice disagrees with the breakpoints of f")
        for ell, c in zip(ls, self.constants, strict=True):
            if ell * c.denominator != abs(c.numerator) * unit:
                raise AssertionError("lattice disagrees with the constants of f")
        return scale, unit, xs, ls, ps

    @cached_property
    def constants(self) -> Tuple[Rat, ...]:
        """Constant values on the n+1 open segments, left tail first, made
        on first read."""
        return (self.tail_left, *self.right_constants)

    def value(self, x) -> Rat:
        x = rat(x)
        i = bisect_left(self.breakpoints, x)
        if i < self.n and self.breakpoints[i] == x:
            return self.point_values[i]
        return self.constants[i]

    def left_limit(self, x) -> Rat:
        return self.constants[bisect_left(self.breakpoints, rat(x))]

    def right_limit(self, x) -> Rat:
        return self.constants[bisect_right(self.breakpoints, rat(x))]

    def __call__(self, x) -> Rat:
        return self.value(x)


# (D, E, X, L, P): see ``StepFunction.lattice``.
Lattice = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def _scaled(values: Sequence[Rat], k: int) -> Tuple[int, ...]:
    """The ints k*v, for k a common multiple of the values' denominators."""
    return tuple([v.numerator * (k // v.denominator) for v in values])


def _antiderivative(xs: Sequence[int], ls: Sequence[int]) -> Tuple[int, ...]:
    """P = D*E*F at the points X, with F the antiderivative of the levels
    L/E based at the first point."""
    ps = [0]
    for k in range(1, len(xs)):
        ps.append(ps[-1] + ls[k] * (xs[k] - xs[k - 1]))
    return tuple(ps)


def _lattice(f: StepFunction) -> Lattice:
    """The lattice of ``StepFunction.lattice``, before its way-back check."""
    scale = math.lcm(*[b.denominator for b in f.breakpoints])
    unit = math.lcm(*[c.denominator for c in f.constants])
    xs = _scaled(f.breakpoints, scale)
    ls = tuple([abs(c.numerator) * (unit // c.denominator) for c in f.constants])
    return scale, unit, xs, ls, _antiderivative(xs, ls)


def combine(f: StepFunction, g: StepFunction, alpha=1, beta=1) -> StepFunction:
    """Pointwise alpha*f + beta*g on the merged breakpoints, canonicalized.

    One pass over both breakpoint lists: with i breakpoints of f behind x,
    f is constants[i] just right of x, and also at x unless x is its own
    breakpoint i.
    """
    alpha, beta = rat(alpha), rat(beta)
    fb, gb = f.breakpoints, g.breakpoints
    fc, gc = f.constants, g.constants
    merged: List[Rat] = []
    values: List[Rat] = []
    constants: List[Rat] = []
    i = j = 0
    while i < len(fb) or j < len(gb):
        if j == len(gb) or (i < len(fb) and fb[i] <= gb[j]):
            x = fb[i]
        else:
            x = gb[j]
        fx = gx = None
        if i < len(fb) and fb[i] == x:
            fx = f.point_values[i]
            i += 1
        if j < len(gb) and gb[j] == x:
            gx = g.point_values[j]
            j += 1
        merged.append(x)
        values.append(alpha * (fc[i] if fx is None else fx) + beta * (gc[j] if gx is None else gx))
        constants.append(alpha * fc[i] + beta * gc[j])
    tail = alpha * f.tail_left + beta * g.tail_left
    return StepFunction(tail, tuple(merged), tuple(values), tuple(constants))


def modulus(f: StepFunction) -> StepFunction:
    """Pointwise absolute value |f|."""
    return StepFunction(
        abs(f.tail_left),
        f.breakpoints,
        tuple([abs(v) for v in f.point_values]),
        tuple([abs(c) for c in f.right_constants]),
    )


def adjusted_modulus(f: StepFunction) -> StepFunction:
    """|f| with each point value replaced by the larger adjacent constant.

    This is the limsup of averages of |f| over intervals shrinking onto the
    point: point values are invisible to averages, so only the one-sided
    limits survive.
    """
    consts = f.constants
    values = tuple(
        max(abs(consts[k]), abs(consts[k + 1])) for k in range(f.n)
    )
    return StepFunction(
        abs(f.tail_left),
        f.breakpoints,
        values,
        tuple([abs(c) for c in f.right_constants]),
    )


def variation_on(f: StepFunction, a=NEG_INF, b=POS_INF) -> Rat:
    """Total variation over the open interval (a, b).

    Partitions live strictly inside (a, b), so breakpoints sitting exactly at
    a or b contribute nothing.  For a step function the supremum is the sum
    of |v_k - c_{k-1}| + |c_k - v_k| over breakpoints strictly inside.  The
    jumps are summed on the ints of the rationals, over the lcm of their
    denominators, into one Fraction.
    """
    a, b = _endpoint(a), _endpoint(b)
    if not a < b:
        raise ValueError("variation_on needs a < b")
    # The breakpoints strictly inside (a, b), by bisection; an infinite end,
    # told by its type, cuts none off (comparing a Fraction with a float
    # infinity costs about 3 us).
    bps, consts, values = f.breakpoints, f.constants, f.point_values
    first = 0 if isinstance(a, float) else bisect_right(bps, a)
    last = len(bps) if isinstance(b, float) else bisect_left(bps, b)
    num, den = 0, 1
    for k in range(first, last):
        p, q = values[k].numerator, values[k].denominator
        for c in (consts[k], consts[k + 1]):
            below = q * c.denominator
            common = math.lcm(den, below)
            num = num * (common // den) + abs(p * c.denominator - c.numerator * q) * (common // below)
            den = common
    return Fraction(num, den)


def bv_norm(f: StepFunction) -> Rat:
    """|f(-oo)| + total variation over the whole line."""
    return abs(f.tail_left) + variation_on(f)


def variation_on_partition(f: StepFunction, partition) -> Rat:
    """Sum of |f(a_i) - f(a_{i-1})| over consecutive partition points."""
    pts = tuple([rat(x) for x in partition])
    return sum(
        (abs(f.value(pts[i]) - f.value(pts[i - 1])) for i in range(1, len(pts))),
        Fraction(0),
    )


@dataclass(frozen=True)
class JumpRecord:
    location: Rat
    left_jump: Rat
    right_jump: Rat
    modulus_left_jump: Rat
    modulus_right_jump: Rat


def jump_records(f: StepFunction) -> Tuple[JumpRecord, ...]:
    """One record per breakpoint where the function actually jumps."""
    records = []
    consts = f.constants
    for k, x in enumerate(f.breakpoints):
        v = f.point_values[k]
        left, right = consts[k], consts[k + 1]
        lj, rj = abs(v - left), abs(right - v)
        if lj or rj:
            records.append(
                JumpRecord(x, lj, rj, abs(abs(v) - abs(left)), abs(abs(right) - abs(v)))
            )
    return tuple(records)


def modulus_defect(f: StepFunction, a=NEG_INF, b=POS_INF) -> Rat:
    """Sum over jumps in (a, b) of how much taking |.| shrinks each jump.

    Equals variation_on(f, a, b) - variation_on(|f|, a, b) exactly; the two
    sides are computed through independent paths and tested against each
    other.
    """
    a, b = _endpoint(a), _endpoint(b)
    if not a < b:
        raise ValueError("modulus_defect needs a < b")
    total = Fraction(0)
    for rec in jump_records(f):
        if a < rec.location < b:
            total += (rec.left_jump - rec.modulus_left_jump) + (
                rec.right_jump - rec.modulus_right_jump
            )
    return total


class AbsIntegral:
    """Antiderivative of |f|: exact integrals and averages of the modulus."""

    def __init__(self, f: StepFunction):
        self.breakpoints = f.breakpoints
        self.abs_constants = tuple([abs(c) for c in f.constants])
        prefix = [Fraction(0)]
        for k in range(len(self.breakpoints) - 1):
            width = self.breakpoints[k + 1] - self.breakpoints[k]
            prefix.append(prefix[-1] + self.abs_constants[k + 1] * width)
        self.prefix = tuple(prefix)

    def at(self, t) -> Rat:
        """Antiderivative value with the first breakpoint as base point."""
        t = rat(t)
        if not self.breakpoints:
            return self.abs_constants[0] * t
        if t <= self.breakpoints[0]:
            return self.abs_constants[0] * (t - self.breakpoints[0])
        if t >= self.breakpoints[-1]:
            return self.prefix[-1] + self.abs_constants[-1] * (t - self.breakpoints[-1])
        i = bisect_right(self.breakpoints, t) - 1
        return self.prefix[i] + self.abs_constants[i + 1] * (t - self.breakpoints[i])

    def average(self, a, b) -> Rat:
        a, b = rat(a), rat(b)
        if not a < b:
            raise ValueError("average needs a < b")
        return (self.at(b) - self.at(a)) / (b - a)


# --- text format -----------------------------------------------------------


class StepFunctionParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def serialize(f: StepFunction) -> str:
    lines = [FORMAT_HEADER, f"tail {format_rat(f.tail_left)}"]
    for x, v, c in zip(f.breakpoints, f.point_values, f.right_constants):
        lines.append(f"bp {format_rat(x)} value {format_rat(v)} right {format_rat(c)}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> StepFunction:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != FORMAT_HEADER:
        raise StepFunctionParseError(1, f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2:
        raise StepFunctionParseError(2, "missing 'tail <rational>' line")

    def read_rat(token: str, line_no: int) -> Rat:
        try:
            return parse_rat(token)
        except ValueError as exc:
            raise StepFunctionParseError(line_no, str(exc)) from None

    tail_tokens = lines[1].split()
    if len(tail_tokens) != 2 or tail_tokens[0] != "tail":
        raise StepFunctionParseError(2, "expected 'tail <rational>'")
    tail = read_rat(tail_tokens[1], 2)

    bps: List[Rat] = []
    vals: List[Rat] = []
    cons: List[Rat] = []
    for offset, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if not tokens:
            raise StepFunctionParseError(offset, "blank line")
        if tokens[0] != "bp":
            raise StepFunctionParseError(offset, f"unknown directive {tokens[0]!r}")
        if len(tokens) != 6 or tokens[2] != "value" or tokens[4] != "right":
            raise StepFunctionParseError(offset, "expected 'bp <x> value <v> right <c>'")
        x = read_rat(tokens[1], offset)
        if bps and x <= bps[-1]:
            raise StepFunctionParseError(offset, f"breakpoint {format_rat(x)} not increasing")
        bps.append(x)
        vals.append(read_rat(tokens[3], offset))
        cons.append(read_rat(tokens[5], offset))
    return StepFunction(tail, tuple(bps), tuple(vals), tuple(cons))


def read_text(path) -> str:
    """The UTF-8 text of the file at path, in one bytes read and one decode,
    with its newlines read as text mode reads them: CR LF and a lone CR
    become LF.  A file that is not UTF-8 raises UnicodeDecodeError."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load(path) -> StepFunction:
    return parse(read_text(path))
