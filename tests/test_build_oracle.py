"""The one-pass build against the two-pass assembly it replaced.

``envelope._build`` closes each cell of the stack walks as soon as the next
distinct candidate starts, checking and emitting it on the spot.  The
oracle below is the assembly before that: one pass collects the merged
cells, a second checks them and reads off the skeleton.  Both call the same
module-level hull, anchor, walk and breakpoint-value functions, so they
differ only in how the cells are assembled, and their skeletons and
lattices must agree tuple for tuple.  The oracle also keeps the segment of
each piece's first cell, and with it the tag rule that the build used
before tags were read off each piece's left junction (``segment_tags``).
"""

from fractions import Fraction

import pytest

from maxbv import envelope
from maxbv.envelope import MaximalProfile, PerturbationFamily, build_profile
from maxbv.exact import format_pair
from maxbv.stepfn import StepFunction
from maxbv.verify import random_stepfn
from conftest import bench_pairs
from test_envelope import oracle_corpus
from test_family import SCALES


def two_pass_build(scale, unit, xs, ls, ps):
    """The profile on a lattice, as ``envelope._build`` assembled it with a
    list of cells and a second loop over them, and the segment of each
    piece's first cell."""
    n = len(xs)
    points = list(zip(xs, ps))
    backward = [(-x, -y) for x, y in reversed(points)]
    lower = envelope._hull_links(points)
    upper = envelope._hull_links(backward)
    tails = max(ls[0], ls[-1])

    # [lo, hi, candidate, segment of the first cell]; adjacent cells with
    # identical coefficients merge.
    cells = []
    for k in range(n + 1):
        start = (xs[k - 1], 1) if k >= 1 else envelope._NEG_END
        end = (xs[k], 1) if k <= n - 1 else envelope._POS_END
        ell = ls[k]
        ref = max(k - 1, 0)
        y0 = ps[ref] - ell * xs[ref] if n else 0
        c = max(ell, tails)
        candidates = []
        if k >= 1:
            for i in envelope._anchors(points, lower, k - 1, lower[k] if k <= n - 1 else -1, c):
                alpha, q = y0 - ps[i], xs[i]
                if alpha + ell * q:
                    candidates.append((alpha, ell, -q, 1))
        candidates.append((c, 0, 1, 0))
        if k <= n - 1:
            for j in reversed(envelope._anchors(backward, upper, n - 1 - k, upper[n - k] if k >= 1 else -1, c)):
                alpha, q = y0 - ps[n - 1 - j], xs[n - 1 - j]
                if alpha + ell * q:
                    candidates.append((alpha, ell, -q, 1))
        for cell in envelope._stack_walk(candidates, start, end):
            if cells and cell[2] == cells[-1][2]:
                cells[-1][1] = cell[1]
            else:
                cell.append(k)
                cells.append(cell)

    checks = envelope._breakpoint_values(xs, ps, ls, lower, upper)
    end_pairs, forms, segments = [], [], []
    i = 0
    for c, (_, hi, (a, b, g, d), k) in enumerate(cells):
        last = hi[1] == 0  # the last cell ends at +oo, (1, 0)
        if not last:
            p, q = hi
            num, den = a * q + b * p, g * q + d * p
            end_pairs.append((p, q * scale))
            ra, rb, rg, rd = cells[c + 1][2]
            if num * (rg * q + rd * p) != (ra * q + rb * p) * den:
                raise AssertionError("profile pieces disagree at a junction")
        while i < n and (last or xs[i] * hi[1] <= hi[0]):
            x = xs[i]
            at, over = checks[i]
            if (a + b * x) * over != at * (g + d * x):
                raise AssertionError("profile disagrees with the pointwise engine")
            i += 1
        forms.append((a, b * scale, g * unit, scale * unit) if d else (a, 0, unit, 0))
        segments.append(k)
    return MaximalProfile(tuple(end_pairs), tuple(forms), (scale, xs, ls, ps)), segments


def segment_tags(forms, segments, scale, xs, ls, ps):
    """The tag of each piece from its int form and the segment k of its
    first cell.  An anchored form (A, B, G, K) has its anchor at its pole
    -G/K, a left one when that lies at or before the segment's left end,
    -G*D <= X[k-1]*K; a constant form's lattice level is A."""
    tags = []
    for (a, _, g, d), k in zip(forms, segments, strict=True):
        if d:
            side = "left" if k >= 1 and -g * scale <= xs[k - 1] * d else "right"
            tags.append(f"{side}({format_pair(-g, d)})")
        else:
            tags.append(envelope._constant_tag(xs, ps, ls, k, a, scale))
    return tuple(tags)


def skeleton(profile):
    return profile.end_pairs, profile.int_forms, profile._tag_source


def test_one_pass_build_matches_the_two_pass_assembly(monkeypatch):
    # Every build of the oracle corpus and of the bench-shaped families at
    # the 15 scales, compared where it is made, its tags against those the
    # segments of the two-pass cells give.  The corpus must hold builds
    # whose cells merge across a breakpoint and builds whose last breakpoint
    # lies past the last junction, where the one pass checks it as it closes
    # the cell that reaches +oo.
    seen = {"builds": 0, "merged across a breakpoint": 0, "breakpoint past the last junction": 0}
    build = envelope._build

    def compared(scale, unit, xs, ls, ps):
        profile = build(scale, unit, xs, ls, ps)
        reference, segments = two_pass_build(scale, unit, xs, ls, ps)
        assert skeleton(profile) == skeleton(reference)
        assert profile.tags == segment_tags(reference.int_forms, segments, scale, xs, ls, ps)
        seen["builds"] += 1
        # Each walk ends at its segment's breakpoint: one that is no
        # junction lies inside a merged cell.
        junctions = {Fraction(p * scale, q) for p, q in profile.end_pairs}
        seen["merged across a breakpoint"] += any(x not in junctions for x in xs)
        if xs and profile.end_pairs:
            p, q = profile.end_pairs[-1]
            seen["breakpoint past the last junction"] += xs[-1] * q > p * scale
        return profile

    monkeypatch.setattr(envelope, "_build", compared)
    for f in oracle_corpus():
        build_profile(f)
    for f, g in bench_pairs():
        family = PerturbationFamily(f, g)
        for s in SCALES:
            family.profile(s)
    assert seen["builds"] == 40 * 20 + 500 + 21 * len(SCALES)
    assert all(seen.values()), seen


@pytest.mark.parametrize("f", [
    StepFunction(1, (0, 1), (1, 0), (0, 1)),  # one constant piece: no junction at all
    random_stepfn(25),  # three junctions, all left of the last breakpoint
], ids=["one piece", "past the last junction"])
def test_self_check_catches_the_last_breakpoint_one_unit_off(monkeypatch, f):
    # Only the last breakpoint's value read off the hull chains is one unit
    # 1/E off, and it lies past the profile's last junction: the one pass
    # checks it as it closes the cell that reaches +oo, which records no
    # junction.
    profile = build_profile(f)
    if profile.end_pairs:
        assert Fraction(*profile.end_pairs[-1]) < f.breakpoints[-1]
    breakpoint_values = envelope._breakpoint_values

    def last_off(*args):
        values = breakpoint_values(*args)
        num, den = values[-1]
        return [*values[:-1], (num + den, den)]

    monkeypatch.setattr(envelope, "_breakpoint_values", last_off)
    for build in (build_profile, lambda f: two_pass_build(*f.lattice)):
        with pytest.raises(AssertionError, match="profile disagrees with the pointwise engine"):
            build(f)
