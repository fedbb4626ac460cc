"""Each segment's candidates from a range of hull links, against the
whole-chain selection they replaced, and the dump printed from the int
skeleton against the dump lines of its pieces.

On segment k the build hands ``_upper_envelope`` only the chain vertices
between the links of the segment's two ends, on each side.  The reference
is the same build with ``_anchors`` walking every chain whole, as every
segment did before: both must give the same cells, int forms and pairs.
"""

import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from maxbv import envelope
from maxbv.envelope import build_profile
from maxbv.stepfn import StepFunction, parse
from maxbv.verify import random_stepfn
from conftest import exact_n_stepfn

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def bench_stepfn(seed, n):
    """The benchmark generator's function with exactly n breakpoints, read
    as the program reads it.  The generator is compiled from its source
    text, so nothing is written under ``bench/``."""
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module  # where its dataclasses look it up
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return parse(module.stepfn_text(*module.exact_n_stepfn(random.Random(seed), n)))


def increasing(n, right_tail=0):
    """Levels 1, ..., n - 1 on unit segments between n breakpoints, left tail
    0: the antiderivative is convex, so every earlier point is a vertex of
    the lower chain.  With right tail n the profile is one constant."""
    levels = (*range(1, n), right_tail)
    return StepFunction(0, tuple(range(n)), levels, levels)


def hump(n):
    """The concave hump: levels (k(n - k) + 1)/n on unit segments."""
    levels = (*[Fraction(k * (n - k) + 1, n) for k in range(1, n)], 0)
    return StepFunction(0, tuple(range(n)), levels, levels)


CONVEX = {
    "increasing": increasing,
    "hump": hump,
    "increasing, right tail n": lambda n: increasing(n, n),
}


def tie_heavy(rng):
    """Integer breakpoints and small integer levels, so that anchors are often
    collinear and candidates often tie."""
    n = rng.randint(1, 12)
    xs = sorted(rng.sample(range(-12, 13), n))
    tail = rng.randint(-2, 2)
    constants, values = [], []
    for k in range(n):
        constants.append(rng.randint(-3, 3))
        values.append(rng.choice([tail if k == 0 else constants[k - 1], constants[k], rng.randint(-3, 3)]))
    return StepFunction(tail, tuple(xs), tuple(values), tuple(constants))


def corpus():
    for seed in range(3000):
        yield random_stepfn(seed)
    for n in range(1, 61):
        for seed in range(20):
            yield exact_n_stepfn(random.Random(seed), n)
    for family in CONVEX.values():
        for n in (20, 40, 80, 160):
            yield family(n)
    rng = random.Random(113)
    for _ in range(500):
        yield tie_heavy(rng)


def collinear_points(f):
    """How many consecutive triples of the lattice points (X, P) are collinear."""
    _, _, xs, _, ps = f.lattice
    points = list(zip(xs, ps))
    return sum(
        (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in zip(points, points[1:], points[2:])
    )


def test_link_ranges_build_the_whole_chain_profile(monkeypatch):
    anchors = envelope._anchors
    inputs = ties = 0
    for f in corpus():
        built = build_profile(f)
        with monkeypatch.context() as whole_chains:
            whole_chains.setattr(envelope, "_anchors", lambda links, i, stop: anchors(links, i, -1))
            reference = build_profile(f)
        assert built._cells[0] == reference._cells[0]
        assert built.int_forms == reference.int_forms
        assert (built.end_pairs, built.value_pairs) == (reference.end_pairs, reference.value_pairs)
        assert built.dump() == "".join(f"{piece.dump_line()}\n" for piece in built.pieces)
        inputs += 1
        ties += collinear_points(f) > 0
    assert inputs == 4712 and ties > 100


def counted_candidates(monkeypatch):
    counts = []
    upper_envelope = envelope._upper_envelope

    def counted(candidates, u, v):
        counts.append(len(candidates))
        return upper_envelope(candidates, u, v)

    monkeypatch.setattr(envelope, "_upper_envelope", counted)
    return counts


@pytest.mark.parametrize("seed", [0, 1])
def test_candidates_stay_linear_on_the_bench_generator(monkeypatch, seed):
    f = bench_stepfn(seed, 640)
    assert f.n == 640
    counts = counted_candidates(monkeypatch)
    build_profile(f)
    assert len(counts) == f.n + 1 and sum(counts) <= 6 * f.n + 6


@pytest.mark.parametrize("family", CONVEX)
def test_candidates_stay_linear_on_convex_inputs(monkeypatch, family):
    # Each point joins the chain once and is popped at most once, so the
    # bounded segments share at most 2n anchors; the two unbounded segments
    # take their chain whole, at most n each.
    counts = counted_candidates(monkeypatch)
    for n in (20, 160, 320):
        f = CONVEX[family](n)
        counts.clear()
        build_profile(f)
        assert len(counts) == f.n + 1 and sum(counts) <= 6 * f.n + 6
