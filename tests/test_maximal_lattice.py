"""The int-lattice ``maximal_value`` against the Fraction scan it replaced.

``fraction_scan`` is the anchored-interval scan on ``Fraction`` averages:
it walks outward from x accumulating the integral of |f|, and keeps the
key (average, -length, -left end).  The lattice engine must give the same
value, the same witness (kind, value and ends) and the same one-sided
witness at every query, and its value must be the candidate-set maximum.
"""

import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

import maxbv
from maxbv import envelope, stepfn
from maxbv.cli import main
from maxbv.envelope import build_profile
from maxbv.maximal import MaximalValue, WitnessInterval, candidate_set, maximal_limit_at_infinity, maximal_value
from maxbv.stepfn import StepFunction, serialize
from maxbv.verify import counterexample_functions, random_stepfn
from conftest import exact_n_stepfn

SRC = Path(maxbv.__file__).resolve().parent.parent


def fraction_scan(f, x):
    """The anchored scan on Fraction averages: the oracle of the int engine."""
    x = Fraction(x)
    bps = f.breakpoints
    abs_consts = [abs(c) for c in f.constants]
    finite = None  # (average, -length, -left end, left end, right end)
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
        assert witness.kind == "finite"
        one_sided = witness
    return MaximalValue(witness, one_sided)


def corpus():
    for seed in range(1500):
        yield random_stepfn(seed)
    for n in range(17):
        for seed in range(40):
            yield exact_n_stepfn(random.Random(1000 * n + seed), n)
    for n in range(3, 11):
        for K in (n + 1, n + 2, 2 * n + 1):
            yield from counterexample_functions(n, K)


def queries(f):
    """Every breakpoint, points just beside each one, the midpoints between
    them and points outside the hull on both sides."""
    bps = f.breakpoints
    if not bps:
        return [Fraction(0), Fraction(-7, 3), Fraction(10**6)]
    points = [bps[0] - 1, bps[0] - Fraction(17, 3), bps[-1] + 1, bps[-1] + 10**6]
    for b in bps:
        points += [b, b - Fraction(1, 10**6), b + Fraction(1, 10**6), b - Fraction(1, 7), b + Fraction(1, 7)]
    points += [(s + t) / 2 for s, t in zip(bps, bps[1:])]
    return points


def test_int_engine_matches_the_fraction_scan_query_for_query():
    count = 0
    for f in corpus():
        for x in queries(f):
            mv, want = maximal_value(f, x), fraction_scan(f, x)
            assert (mv.value, str(mv.witness), mv.witness.a, mv.witness.b) == (
                want.value, str(want.witness), want.witness.a, want.witness.b
            ), (serialize(f), x)
            assert mv.witness == want.witness and mv.one_sided_witness == want.one_sided_witness, (serialize(f), x)
            count += 1
    assert count >= 50_000


def test_int_engine_value_is_the_candidate_set_maximum():
    count = 0
    for seed in range(300):
        for f in (random_stepfn(seed), exact_n_stepfn(random.Random(seed), seed % 9)):
            for x in queries(f):
                assert maximal_value(f, x).value == max(c.value for c in candidate_set(f, x)), (serialize(f), x)
                count += 1
    assert count >= 5_000


@pytest.mark.parametrize("part", ["breakpoints", "constants"])
def test_lattice_one_unit_off_fails_the_way_back_in_eval_and_build(monkeypatch, tmp_path, capsys, part):
    # One lattice unit off, in the last point or the last level, is a
    # lattice for another function: only the check against f's rationals
    # sees it, and it guards both engines, which read the same lattice.
    f = exact_n_stepfn(random.Random(5), 6)
    path = tmp_path / "f.txt"
    path.write_text(serialize(f), encoding="utf-8")
    assert main(["eval", "--file", str(path), "--x", "1"]) == 0
    capsys.readouterr()
    lattice = stepfn._lattice

    def off(g):
        scale, unit, xs, ls, ps = lattice(g)
        if part == "breakpoints":
            return scale, unit, (*xs[:-1], xs[-1] + 1), ls, ps
        return scale, unit, xs, (*ls[:-1], ls[-1] + 1), ps

    monkeypatch.setattr(stepfn, "_lattice", off)
    message = f"lattice disagrees with the {part} of f"
    for read in (lambda g: maximal_value(g, 1), build_profile):
        fresh = StepFunction(f.tail_left, f.breakpoints, f.point_values, f.right_constants)
        with pytest.raises(AssertionError, match=message):
            read(fresh)
    assert main(["eval", "--file", str(path), "--x", "1"]) == 3
    assert message in capsys.readouterr().err


def run_fresh(code):
    """Run Python code in a fresh interpreter with this package on its path."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


LAZY_PROBE = """
import sys, types
from maxbv.cli import main
assert main({argv!r}) == 0
print(*[type(sys.modules[name]) is types.ModuleType for name in ("maxbv.envelope", "maxbv.verify")])
"""


@pytest.mark.parametrize(
    "command, executed",
    [
        (["eval", "--x", "3/2"], ["False", "False"]),
        (["profile"], ["True", "False"]),
        (["counterexample", "--n", "4"], ["False", "True"]),
    ],
    ids=["eval", "profile", "counterexample"],
)
def test_commands_execute_only_the_modules_they_read(tmp_path, command, executed):
    # Whether maxbv.envelope and maxbv.verify were executed, in a fresh
    # interpreter: a lazily loaded module keeps its placeholder type until
    # one of its names is read.
    path = tmp_path / "f.txt"
    path.write_text(serialize(exact_n_stepfn(random.Random(2), 5)), encoding="utf-8")
    argv = [*command, *(["--file", str(path)] if command[0] != "counterexample" else []), "--out", str(tmp_path / "out")]
    assert run_fresh(LAZY_PROBE.format(argv=argv)) == executed


def test_package_reexports_resolve_to_the_envelope_objects():
    names = [
        "MaximalProfile", "PerturbationFamily", "RegionSet", "VariationEnclosure",
        "build_profile", "bv_distance", "detachment_regions", "profile_derivative",
        "variation_of_difference", "variation_of_profile",
    ]
    for name in names:
        assert getattr(maxbv, name) is getattr(envelope, name)
    from maxbv import build_profile as imported

    assert imported is envelope.build_profile
    assert maxbv.envelope is sys.modules["maxbv.envelope"]
    with pytest.raises(AttributeError):
        maxbv.no_such_name
    with pytest.raises(AttributeError):
        maxbv.MoebiusPiece


def test_tracer_test_passes_alone():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(Path(__file__).parent / "test_bench_tracer.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
