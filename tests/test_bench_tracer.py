"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps public names of the maxbv modules by name; a
renamed or deleted target would silently drop a per-layer metric from
``run.py --trace 1``.  Its hooks read what a build and a distance return,
on every traced op, so a change to what a profile exposes must keep them
working.  The tracer module is compiled from its source text, so nothing is
written under ``bench/``.
"""

import re
import types
from pathlib import Path
from time import perf_counter

import maxbv.cli  # loads every maxbv module the tracer patches
import maxbv.exact
import maxbv.maximal
from maxbv.envelope import build_profile, bv_distance
from maxbv.verify import random_stepfn
from conftest import bench_workloads

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves_and_is_restored():
    # Brackets have no refine_below: peaks take int levels, so that one
    # target is missing and its count reads 0.
    tracer = _tracing_module().Tracer()
    originals = (maxbv.maximal.maximal_value, maxbv.exact.isolate_quadratic_roots)
    with tracer.installed():
        assert tracer.missing == ["exact.AlgebraicValue.refine_below"]
        assert maxbv.maximal.maximal_value is not originals[0]
        maxbv.exact.isolate_quadratic_roots((1, 0, -2))
        assert tracer.counts["surd_roots"] == 2
    assert (maxbv.maximal.maximal_value, maxbv.exact.isolate_quadratic_roots) == originals


def test_tracer_hooks_read_a_profile_and_a_distance():
    # Seeds whose distance has irrational peaks, so its enclosure is wide.
    tracer = _tracing_module().Tracer()
    p1, p2 = build_profile(random_stepfn(10, n_max=9)), build_profile(random_stepfn(1010, n_max=9))
    tracer._profile(p1)
    assert p1._tags is None  # the hook makes no tags an untraced run would not
    pieces = len(p1.int_forms)
    assert pieces > 1 and tracer.counts["pieces"] == pieces and tracer.pieces_hist == {pieces: 1}
    assert tracer.counts["operand_bits_max"] > 0
    distance = bv_distance(p1, p2)
    assert distance.lo < distance.hi
    tracer._enclosure(distance)
    bits = max(v.bit_length() for v in (distance.hi.numerator, distance.hi.denominator))
    assert tracer.counts["operand_bits_max"] >= bits


def test_tracer_sees_the_variations_of_a_continuity_op(tmp_path):
    # An op of the seed-0 continuity pool, run as the harness runs a traced
    # op: the experiment's variations go through the traced
    # variation_of_profile, whose enclosure hook reads their int pairs.  The
    # pool's first op has variation 0 at every scale; its second does not.
    bench = bench_workloads()
    plan = bench.build_continuity(bench.SPECS["continuity"], 0, tmp_path)
    op = plan.cycles[1][0]
    out = tmp_path / "op.out"
    tracer = _tracing_module().Tracer()
    tracer.op_id = 0
    start = perf_counter()
    with tracer.installed():
        assert maxbv.cli.main([*op.argv, "--out", str(out)]) == 0
    metrics = tracer.metrics([perf_counter() - start])
    assert metrics["envelope.var_profile_ms"] > 0
    # Each row prints its variation and the base variation, p/q..p/q, after
    # the comment lines and the header.
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines() if line[0] not in "#j"]
    assert len(rows) == 15
    bits = max(int(part).bit_length() for row in rows for text in row[4:] for part in re.split(r"\.\.|/", text))
    assert bits > 20 and metrics["exact.operand_bits_max"] >= bits
