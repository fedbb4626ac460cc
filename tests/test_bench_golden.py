"""The benchmark's golden digests, checked in the test suite.

``bench/run.py`` compares each op's output digest with ``bench/golden.json``
only while it times a run.  Here every op of the golden seed's input pool of
each workload, and its warm-up op, runs once through ``cli.main`` as the
harness runs it, with ``--out`` pointed at a scratch file, and every digest
must match.  The generator is compiled from its source text
(``conftest.bench_workloads``) and writes its inputs under ``tmp_path``, so
nothing is written under ``bench/``.
"""

import json
from pathlib import Path

import pytest

from maxbv import cli
from conftest import bench_workloads

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


@pytest.mark.parametrize("name", ["profile", "continuity", "divergence"])
def test_bench_pool_matches_the_golden_digests(name, tmp_path):
    bench = bench_workloads()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    plan = getattr(bench, f"build_{name}")(bench.SPECS[name], golden["seed"], tmp_path)
    out = tmp_path / "op.out"
    digests = {}
    for op in [plan.warmup, *[op for cycle in plan.cycles for op in cycle]]:
        if op.key not in digests:
            out.unlink(missing_ok=True)
            assert cli.main([*op.argv, "--out", str(out)]) == 0, op.key
            digests[op.key] = bench.digest(op, out.read_text(encoding="utf-8"))
    assert digests == golden["workloads"][name]
