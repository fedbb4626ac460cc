"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps public names of the maxbv modules by name; a
renamed or deleted target would silently drop a per-layer metric from
``run.py --trace 1``.  The tracer module is compiled from its source text,
so nothing is written under ``bench/``.
"""

import types
from pathlib import Path

import maxbv.cli  # loads every maxbv module the tracer patches
import maxbv.exact
import maxbv.maximal

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves_and_is_restored():
    tracer = _tracing_module().Tracer()
    originals = (maxbv.maximal.maximal_value, vars(maxbv.exact.AlgebraicValue)["refine_below"])
    with tracer.installed():
        assert tracer.missing == []
        assert maxbv.maximal.maximal_value is not originals[0]
    assert (maxbv.maximal.maximal_value, vars(maxbv.exact.AlgebraicValue)["refine_below"]) == originals
