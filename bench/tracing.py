"""Per-layer spans and counts for maxbv, installed from outside the package.

Each target is a public name of one of the package's modules (its layers).
A span target records (name, start, end, parent, op id) for every call; a
count target only counts.  Installing a target rebinds every name under
which the loaded maxbv modules hold the same object, so names that another
module re-imports (``envelope.maximal_value``, ``envelope.isolate_quadratic_roots``)
are traced too; class attributes (``MaximalProfile.dump``,
``AlgebraicValue.refine_below``) are patched on the class.  Everything is
restored on exit.  Hot per-call helpers such as ``AbsIntegral.at`` or
``compare_with_rat`` are deliberately left alone.

A span's self time is its duration minus the time its child spans cover, and
is charged to the metric of its target.  Every span target has a metric, so
per op the self times plus ``unattributed_ms`` (op time outside any span)
add up to the traced op time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

TIME_METRICS = (
    "cli.self_ms",
    "stepfn.parse_ms",
    "stepfn.combine_ms",
    "stepfn.bv_norm_ms",
    "maximal.value_ms",
    "envelope.build_ms",
    "envelope.var_profile_ms",
    "envelope.var_difference_ms",
    "envelope.regions_ms",
    "envelope.dump_ms",
    "exact.roots_ms",
    "verify.experiment_self_ms",
    "verify.counterexample_self_ms",
)

COUNT_METRICS = {
    "maximal.queries": "count",
    "maximal.candidates_per_query": "count",
    "envelope.pieces": "count",
    "envelope.crossings": "count",
    "envelope.pieces_per_crossing": "ratio",
    "exact.surd_roots": "count",
    "exact.refine_calls": "count",
    "exact.operand_bits_max": "bits",
}


def _operand_bits(value) -> int:
    """Largest numerator or denominator bit-length inside a result object."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        value = Fraction(value)
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((_operand_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((_operand_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


class Tracer:
    """Spans kept in memory, plus the counters the layers' hooks update."""

    def __init__(self):
        self.spans: List[list] = []  # [target index, start, end, parent span, op id]
        self.stack: List[int] = []
        self.active = Counter()  # span name -> calls currently open
        self.counts = Counter()
        self.pieces_hist = Counter()
        self.op_id: Optional[int] = None
        self.missing: List[str] = []

    # --- hooks: (tracer, result) -> None --------------------------------------

    def _profile(self, profile):
        self.counts["pieces"] += len(profile.pieces)
        self.pieces_hist[len(profile.pieces)] += 1
        self.counts["operand_bits_max"] = max(self.counts["operand_bits_max"], _operand_bits(profile.pieces))

    def _enclosure(self, enclosure):
        self.counts["operand_bits_max"] = max(self.counts["operand_bits_max"], _operand_bits(enclosure))

    def _roots(self, roots):
        if self.active["envelope.build_profile"]:
            self.counts["crossings"] += 1
        self.counts["surd_roots"] += sum(1 for r in roots if not r.is_rational)

    def _candidates(self, candidates):
        self.counts["queries"] += 1
        self.counts["candidates"] += len(candidates)

    def _refine(self, _):
        self.counts["refine_calls"] += 1

    # (module, attribute, span name or None for count-only, self-time metric, hook)
    TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[str], Optional[Callable]], ...] = (
        ("cli", "main", "cli.main", "cli.self_ms", None),
        ("stepfn", "load", "stepfn.load", "stepfn.parse_ms", None),
        ("stepfn", "parse", "stepfn.parse", "stepfn.parse_ms", None),
        ("stepfn", "combine", "stepfn.combine", "stepfn.combine_ms", None),
        ("stepfn", "bv_norm", "stepfn.bv_norm", "stepfn.bv_norm_ms", None),
        ("maximal", "maximal_value", "maximal.maximal_value", "maximal.value_ms", None),
        ("maximal", "candidate_set", None, None, _candidates),
        ("envelope", "build_profile", "envelope.build_profile", "envelope.build_ms", _profile),
        ("envelope", "variation_of_profile", "envelope.variation_of_profile", "envelope.var_profile_ms", _enclosure),
        ("envelope", "variation_of_difference", "envelope.variation_of_difference",
         "envelope.var_difference_ms", _enclosure),
        ("envelope", "detachment_regions", "envelope.detachment_regions", "envelope.regions_ms", None),
        ("envelope", "MaximalProfile.dump", "envelope.MaximalProfile.dump", "envelope.dump_ms", None),
        ("exact", "isolate_quadratic_roots", "exact.isolate_quadratic_roots", "exact.roots_ms", _roots),
        ("exact", "AlgebraicValue.refine_below", None, None, _refine),
        ("verify", "continuity_experiment", "verify.continuity_experiment", "verify.experiment_self_ms", None),
        ("verify", "counterexample", "verify.counterexample", "verify.counterexample_self_ms", None),
    )

    # --- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, index: int, fn):
        tracer = self
        name, hook = self.TARGETS[index][2], self.TARGETS[index][4]
        spans, stack, active = self.spans, self.stack, self.active

        def wrapper(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, index: int, fn):
        tracer, hook = self, self.TARGETS[index][4]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target in the loaded maxbv modules; restore on exit."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "maxbv" or name.startswith("maxbv."))}
        undo: List[Tuple[object, str, object]] = []
        self.missing = []
        try:
            for index, (module, attribute, span, _, _) in enumerate(self.TARGETS):
                home = modules.get(f"maxbv.{module}")
                owner_name, _, method = attribute.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = None
                if owner is not None:
                    original = vars(owner).get(method) if owner_name else getattr(owner, method, None)
                if original is None:
                    self.missing.append(f"{module}.{attribute}")
                    continue
                wrapper = (self._span_wrapper if span else self._count_wrapper)(index, original)
                if owner_name:
                    bindings = [(owner, method)]
                else:
                    bindings = [(mod, name) for mod in modules.values()
                                for name, value in list(vars(mod).items()) if value is original]
                for target, name in bindings:
                    undo.append((target, name, original))
                    setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(undo):
                setattr(target, name, original)

    # --- results -------------------------------------------------------------------

    def metrics(self, op_seconds: Sequence[float]) -> Dict[str, float]:
        """Per-layer metrics over the traced ops (times are per op, in ms)."""
        ops = max(len(op_seconds), 1)
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = dict.fromkeys(TIME_METRICS, 0.0)
        covered = 0.0
        for i, (index, start, end, parent, _) in enumerate(self.spans):
            self_ms[self.TARGETS[index][3]] += (end - start - child[i]) * 1000.0
            if parent < 0:
                covered += end - start
        out = {name: total / ops for name, total in self_ms.items()}
        c = self.counts
        out.update({
            "maximal.queries": c["queries"],
            "maximal.candidates_per_query": c["candidates"] / c["queries"] if c["queries"] else 0.0,
            "envelope.pieces": c["pieces"],
            "envelope.crossings": c["crossings"],
            "envelope.pieces_per_crossing": c["pieces"] / c["crossings"] if c["crossings"] else 0.0,
            "exact.surd_roots": c["surd_roots"],
            "exact.refine_calls": c["refine_calls"],
            "exact.operand_bits_max": c["operand_bits_max"],
            "unattributed_ms": (sum(op_seconds) - covered) * 1000.0 / ops,
            "traced.op_ms": sum(op_seconds) * 1000.0 / ops,
        })
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: [name, start_s, end_s, parent line, op id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, start, end, parent, op in self.spans:
                out.write(json.dumps([self.TARGETS[index][2], start, end, parent, op]) + "\n")
