#!/usr/bin/env python3
"""maxbv benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload profile --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout, importing the package from
``src/``; nothing needs installing.  Each operation is one in-process call of
``maxbv.cli.main(argv)`` with ``--out`` pointed at a scratch file, so it
times what a user of the ``maxbv`` command waits for, minus interpreter
start-up.  Everything runs in this one process: no threads, no subprocesses.

The end-to-end times are wall times rescaled to a nominal machine speed.
Between ops the harness times a fixed pure-Python ``Fraction`` loop that does
not touch maxbv (the reference); an op's time is multiplied by
``REFERENCE_NOMINAL_MS`` over the mean of the reference times taken just
before and just after it.  A shared host whose speed swings between states
then moves the op and the reference together, and the ratio stays put.  The
raw wall-clock figures are printed beside them under ``wall.*``.

Untimed after each op: the exit code, the seed-independent output checks of
the workload and, for the seed the golden file was made with, the output
digest.  Any failure counts in ``failed``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload's fixed traced op list, each op once traced and once untraced, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is the JSON result.  ``--write-golden`` runs the whole input
pool of the golden seed once and stores its digests.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 9
REFERENCE_TERMS = 700
REFERENCE_NOMINAL_MS = 2.6  # the reference loop's time at the nominal speed
REFERENCE_EVERY_S = 0.25  # a reference sample at most this long after the last one
TRACE_TIME_LIMIT = 150.0  # seconds; a traced run stops early rather than overrun
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

# The result line carries exactly these metrics: END_TO_END untraced,
# PER_LAYER traced.  The untraced report also prints REPORTED_ONLY: the 90th
# percentile exists only on workloads with enough ops per run, and the fail
# ratio is zero on a healthy run (it also travels as attempted/failed).
END_TO_END = {"throughput_ops_s": "ops/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED_ONLY = {"op_p90_ms": "ms", "fail_ratio": "1",
                 "wall.throughput_ops_s": "ops/s", "wall.op_p50_ms": "ms", "wall.setup_s": "s"}

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402

PER_LAYER = {
    **dict.fromkeys(TIME_METRICS, "ms"),
    **COUNT_METRICS,
    "unattributed_ms": "ms",
    "traced.op_ms": "ms",
    "traced.throughput_ops_s": "ops/s",
    "untraced.throughput_ops_s": "ops/s",
}


class SetupError(Exception):
    pass


def import_program():
    """A fresh import of maxbv.cli from this checkout's src/."""
    if not (SRC / "maxbv" / "__init__.py").is_file():
        raise SetupError(f"no maxbv package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "maxbv" or m.startswith("maxbv.")]:
        del sys.modules[name]
    cli = importlib.import_module("maxbv.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "maxbv").resolve():
        raise SetupError(f"imported maxbv from {cli.__file__}, not from {SRC}")
    return cli


def build_plan(name: str, spec: workloads.Spec, seed: int, workdir: Path) -> workloads.Plan:
    return getattr(workloads, f"build_{name}")(spec, seed, workdir)


def reference_seconds() -> float:
    """Wall time of a fixed Fraction loop with operands of a few dozen bits,
    the same kind of work as the program's, from the standard library only."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(REFERENCE_TERMS):
        x = Fraction(i % 37 + 1, i % 41 + 2)
        total = total * x + x if i % 16 else Fraction(1, 3)
    return perf_counter() - start


def nominal(seconds: float, before: float, after: float) -> float:
    """Wall seconds rescaled by the reference times bracketing them."""
    return seconds * REFERENCE_NOMINAL_MS / ((before + after) * 500.0)


def load_golden(name: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != GOLDEN_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"].get(name)


@dataclass
class Outcome:
    seconds: float
    text: str = ""
    error: Optional[str] = None


class Runner:
    """Runs ops through the CLI and checks their outputs."""

    def __init__(self, cli, workdir: Path, golden: Optional[Dict[str, str]]):
        self.cli = cli
        self.out = workdir / "op.out"
        self.side = workdir / "check.out"
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.n_hist = Counter()
        self.pieces_hist = Counter()

    def call(self, argv: Sequence[str], out: Path) -> Outcome:
        """One timed call of maxbv.cli.main; looked up per call so tracing applies."""
        if out.exists():
            out.unlink()
        start = perf_counter()
        try:
            code = self.cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # a crash is a failed op, not the end of the run
            return Outcome(perf_counter() - start, error=f"raised {type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds, error=f"exit code {code}")
        return Outcome(seconds, out.read_text(encoding="utf-8"))

    def side_run(self, argv: Sequence[str]) -> str:
        outcome = self.call(argv, self.side)
        if outcome.error:
            raise RuntimeError(f"{' '.join(argv)}: {outcome.error}")
        return outcome.text

    def verify(self, op: workloads.Op, outcome: Outcome) -> Optional[str]:
        if outcome.error:
            return outcome.error
        try:
            problem = op.check(outcome.text, self.side_run) if op.check else None
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and self.golden is not None:
            want = self.golden.get(op.key)
            got = workloads.digest(op, outcome.text)
            if want != got:
                problem = f"digest {got} != golden {want}"
        return problem

    def run(self, op: workloads.Op) -> Outcome:
        outcome = self.call(op.argv, self.out)
        self.record(op, outcome, self.verify(op, outcome))
        return outcome

    def record(self, op: workloads.Op, outcome: Outcome, problem: Optional[str], histogram: bool = True) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.key}: {problem}")
            return
        if not histogram:
            return
        self.n_hist.update(op.sizes)
        if op.kind == "profile":
            self.pieces_hist[len(outcome.text.splitlines())] += 1


@dataclass
class Setup:
    seconds: float  # wall time
    nominal_s: float
    runner: Runner
    plan: workloads.Plan


def setup(name: str, spec: workloads.Spec, seed: int, workdir: Path) -> Setup:
    """Import, input generation, golden digests and one warm-up op, timed."""
    before = reference_seconds()
    start = perf_counter()
    cli = import_program()
    plan = build_plan(name, spec, seed, workdir)
    runner = Runner(cli, workdir, load_golden(name, seed))
    problem = runner.verify(plan.warmup, runner.call(plan.warmup.argv, runner.out))
    seconds = perf_counter() - start
    if problem is not None:
        runner.errors.append(f"warm-up {plan.warmup.key}: {problem}")
    return Setup(seconds, nominal(seconds, before, reference_seconds()), runner, plan)


def timing_metrics(op_seconds: Sequence[float]) -> Dict[str, float]:
    """Throughput over the time spent in ops, median and, with enough samples
    that ten lie beyond it, the 90th percentile of op time."""
    ms = [s * 1000.0 for s in op_seconds]
    metrics = {
        "throughput_ops_s": len(ms) / (sum(ms) / 1000.0),
        "op_p50_ms": statistics.median(ms),
    }
    if len(ms) >= P90_MIN_SAMPLES:
        metrics["op_p90_ms"] = statistics.quantiles(ms, n=10)[8]
    return metrics


def measure(runner: Runner, plan: workloads.Plan, seconds: float) -> Tuple[List[float], List[float], List[float]]:
    """Whole cycles in pool order until the next one would pass the deadline.

    Returns the ops' wall seconds, the same at the nominal speed, and the
    reference samples.  A
    reference sample is taken before an op whenever REFERENCE_EVERY_S has
    passed since the last one, and once at the end, so every op lies between
    two samples."""
    op_seconds: List[float] = []
    group: List[int] = []  # index of the reference sample taken before each op
    references = [reference_seconds()]
    start = last_reference = perf_counter()
    index = 0
    while True:
        cycle_start = perf_counter()
        for op in plan.cycles[index % len(plan.cycles)]:
            if perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference_seconds())
                last_reference = perf_counter()
            op_seconds.append(runner.run(op).seconds)
            group.append(len(references) - 1)
        index += 1
        now = perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    references.append(reference_seconds())
    scaled = [nominal(s, references[g], references[g + 1]) for s, g in zip(op_seconds, group)]
    return op_seconds, scaled, references


def traced(runner: Runner, plan: workloads.Plan):
    """Each op of the fixed traced list runs traced and untraced, alternating
    which goes first; the two outputs must be byte-identical."""
    tracer = Tracer()
    traced_s: List[float] = []
    untraced_s: List[float] = []
    start = perf_counter()
    for i, op in enumerate(plan.trace_ops()):
        if perf_counter() - start > TRACE_TIME_LIMIT:
            break
        outcomes = {}
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.op_id = i
                with tracer.installed():
                    outcomes[True] = runner.call(op.argv, runner.out)
                tracer.op_id = None
            else:
                outcomes[False] = runner.call(op.argv, runner.out)
        plain, with_spans = outcomes[False], outcomes[True]
        runner.record(op, plain, runner.verify(op, plain))
        problem = runner.verify(op, with_spans)
        if problem is None and with_spans.text != plain.text:
            problem = "traced output differs from untraced output"
        runner.record(op, with_spans, problem, histogram=False)
        untraced_s.append(plain.seconds)
        traced_s.append(with_spans.seconds)
    return tracer, traced_s, untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"store digests of every op of seed {GOLDEN_SEED}'s input pool")
    args = parser.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            return write_golden(args.workload, spec, workdir)
        return run(args.workload, args.seed, args.seconds, args.trace, spec, workdir)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def run(name: str, seed: int, seconds: float, trace: int, spec: workloads.Spec, workdir: Path) -> int:
    setups = [setup(name, spec, seed, workdir) for _ in range(SETUP_REPEATS)]
    runner, plan = setups[-1].runner, setups[-1].plan
    runner.errors = [e for s in setups for e in s.runner.errors]
    if trace:
        tracer, traced_s, untraced_s = traced(runner, plan)
        metrics = tracer.metrics(traced_s)
        metrics["traced.throughput_ops_s"] = len(traced_s) / sum(traced_s)
        metrics["untraced.throughput_ops_s"] = len(untraced_s) / sum(untraced_s)
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        units = PER_LAYER
        detail = {"traced_ops": len(traced_s), "spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT)),
                  "missing_targets": tracer.missing, "pieces_hist": sorted(tracer.pieces_hist.items())}
    else:
        op_seconds, scaled, references = measure(runner, plan, seconds)
        metrics = timing_metrics(scaled)
        metrics["setup_s"] = statistics.median(s.nominal_s for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = timing_metrics(op_seconds)
        metrics["wall.throughput_ops_s"] = wall["throughput_ops_s"]
        metrics["wall.op_p50_ms"] = wall["op_p50_ms"]
        metrics["wall.setup_s"] = statistics.median(s.seconds for s in setups)
        units = {**END_TO_END, **REPORTED_ONLY}
        detail = {"ops": len(op_seconds), "measured_s": sum(op_seconds),
                  "setup_runs_s": [s.seconds for s in setups], "pieces_hist": sorted(runner.pieces_hist.items()),
                  "reference_samples": len(references),
                  "reference_ms_quartiles": [q * 1000.0 for q in statistics.quantiles(references, n=4)]}
        if "op_p90_ms" not in metrics:
            detail["op_p90_ms"] = f"not reported: {len(op_seconds)} samples < {P90_MIN_SAMPLES}"
        metrics["fail_ratio"] = runner.failed / runner.attempted
    detail["n_hist"] = sorted(runner.n_hist.items())
    print(f"workload {name}  seed {seed}  trace {trace}"
          + ("" if trace else "  (times at the nominal speed; wall-clock under wall.*)"))
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:>14.6g} {units[metric]}")
    print("detail " + json.dumps(detail))
    for error in runner.errors:
        print(f"failure: {error}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items() if metric not in REPORTED_ONLY},
    }
    print(json.dumps(result))
    return 0


def write_golden(name: str, spec: workloads.Spec, workdir: Path) -> int:
    """Digests of every op in the golden seed's pool; an op that fails is
    stored as null, which keeps it failing for that seed."""
    runner = Runner(import_program(), workdir, None)
    plan = build_plan(name, spec, GOLDEN_SEED, workdir)
    digests = {}
    for op in (op for cycle in [[plan.warmup], *plan.cycles] for op in cycle):
        if op.key in digests:
            continue
        failed = runner.failed
        outcome = runner.run(op)
        digests[op.key] = workloads.digest(op, outcome.text) if runner.failed == failed else None
    data = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {"seed": GOLDEN_SEED, "workloads": {}}
    data["workloads"][name] = digests
    GOLDEN.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: {len(digests)} digests for seed {GOLDEN_SEED}, {runner.failed} of them null for failing ops")
    for error in runner.errors:
        print(f"failure: {error}", file=sys.stderr)
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
