"""Tests of the benchmark harness itself (stdlib unittest; pytest runs them too).

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TIME_METRICS, Tracer  # noqa: E402

TINY = {
    "profile": workloads.Spec(sizes=(3, 5, 6), pool_cycles=2, trace_cycles=1),
    "continuity": workloads.Spec(sizes=(1, 2), pool_cycles=2, trace_cycles=1),
    "divergence": workloads.Spec(sizes=(3, 4), pool_cycles=2, trace_cycles=1),
}
SEED = 7  # not the golden seed: only the seed-independent checks apply


class WorkDir(unittest.TestCase):
    def setUp(self):
        scratch = run.ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
        self.addCleanup(shutil.rmtree, self.workdir, True)


def maxbv_bindings():
    """Every name bound in the loaded maxbv modules and the patched classes."""
    cli = sys.modules["maxbv.cli"]
    classes = (cli.env.MaximalProfile, cli.env.AlgebraicValue)
    found = {(name, attr): value for name, module in sys.modules.items()
             if name == "maxbv" or name.startswith("maxbv.") for attr, value in vars(module).items()}
    found.update({(cls.__name__, attr): value for cls in classes for attr, value in vars(cls).items()})
    return found


class FailureCounting(WorkDir):
    def test_raising_op_and_wrong_digest_each_count(self):
        def main(argv):
            if argv[0] == "boom":
                raise RuntimeError("engine crashed")
            Path(argv[-1]).write_text(f"output of {argv[0]}\n", encoding="utf-8")
            return 0

        ops = [workloads.Op(name, "eval", (name,)) for name in ("boom", "wrong", "right")]
        golden = {
            "wrong": "0" * 16,
            "right": workloads.digest(ops[2], "output of right\n"),
        }
        runner = run.Runner(SimpleNamespace(main=main), self.workdir, golden)
        for op in ops:
            runner.run(op)
        self.assertEqual((runner.attempted, runner.failed), (3, 2))
        self.assertIn("raised RuntimeError", runner.errors[0])
        self.assertIn("golden", runner.errors[1])

    def test_nonzero_exit_and_failed_check_count(self):
        def main(argv):
            Path(argv[-1]).write_text("# verdict\tFAIL\n", encoding="utf-8")
            return 1 if argv[0] == "exit" else 0

        ops = [workloads.Op("exit", "experiment", ("exit",)),
               workloads.Op("verdict", "experiment", ("verdict",), check=workloads._check_verdicts)]
        runner = run.Runner(SimpleNamespace(main=main), self.workdir, None)
        for op in ops:
            runner.run(op)
        self.assertEqual((runner.attempted, runner.failed), (2, 2))

    def test_profile_digest_ignores_provenance_only(self):
        op = workloads.Op("k", "profile", ())
        base = "-inf\t1\t2\t0\t1\t0\tconst(0,1)\n"
        self.assertEqual(workloads.digest(op, base), workloads.digest(op, base.replace("const(0,1)", "const:local")))
        self.assertNotEqual(workloads.digest(op, base), workloads.digest(op, base.replace("\t2\t", "\t3\t")))


class PercentileRule(unittest.TestCase):
    def test_p90_needs_one_hundred_samples(self):
        self.assertNotIn("op_p90_ms", run.timing_metrics([0.01] * 99))
        metrics = run.timing_metrics([0.001 * i for i in range(1, 101)])
        self.assertAlmostEqual(metrics["op_p90_ms"], 90.9)
        self.assertAlmostEqual(metrics["op_p50_ms"], 50.5)
        self.assertAlmostEqual(metrics["throughput_ops_s"], 100 / 5.05)


class NominalSpeed(WorkDir):
    def test_op_times_scale_by_the_bracketing_reference_samples(self):
        nominal_s = run.REFERENCE_NOMINAL_MS / 1000.0
        self.assertAlmostEqual(run.nominal(0.3, nominal_s, nominal_s), 0.3)
        self.assertAlmostEqual(run.nominal(0.3, 2 * nominal_s, 2 * nominal_s), 0.15)
        self.assertAlmostEqual(run.nominal(0.3, nominal_s, 3 * nominal_s), 0.15)

    def test_every_measured_op_lies_between_two_reference_samples(self):
        cli = run.import_program()
        plan = workloads.build_divergence(TINY["divergence"], SEED, self.workdir)
        runner = run.Runner(cli, self.workdir, None)
        op_seconds, scaled, references = run.measure(runner, plan, 0.01)
        self.assertGreaterEqual(len(references), 2)
        self.assertEqual(len(op_seconds), len(plan.cycles[0]))
        self.assertEqual(len(scaled), len(op_seconds))
        self.assertTrue(all(s > 0 for s in scaled))
        self.assertEqual(runner.failed, 0, runner.errors)


class Inputs(WorkDir):
    def test_generated_functions_have_exactly_n_breakpoints(self):
        run.import_program()
        stepfn = sys.modules["maxbv.stepfn"]
        rng = workloads.random.Random(1)
        for n in range(0, 30):
            self.assertEqual(stepfn.parse(workloads.stepfn_text(*workloads.exact_n_stepfn(rng, n))).n, n)

    def test_divergence_family_matches_the_package(self):
        run.import_program()
        verify, stepfn = sys.modules["maxbv.verify"], sys.modules["maxbv.stepfn"]
        for n in (3, 4, 16):
            _, perturbed = verify.counterexample_functions(n, n + 2)
            self.assertEqual(workloads.stepfn_text(*workloads.divergence_family(n, n + 2)), stepfn.serialize(perturbed))

    def test_same_seed_same_inputs(self):
        spec = TINY["profile"]
        first = workloads.build_profile(spec, 3, self.workdir)
        texts = sorted(p.read_text() for p in self.workdir.iterdir())
        second = workloads.build_profile(spec, 3, self.workdir)
        self.assertEqual([op.argv for c in first.cycles for op in c], [op.argv for c in second.cycles for op in c])
        self.assertEqual(texts, sorted(p.read_text() for p in self.workdir.iterdir()))

    def test_golden_covers_the_golden_seed_pool(self):
        run.import_program()
        golden = json.loads(run.GOLDEN.read_text())["workloads"]
        for name, spec in workloads.SPECS.items():
            plan = run.build_plan(name, spec, run.GOLDEN_SEED, self.workdir)
            keys = {op.key for cycle in plan.cycles for op in cycle}
            self.assertEqual(keys - set(golden[name]), set(), name)


class Tracing(WorkDir):
    def test_traced_run_restores_names_and_keeps_output_bytes(self):
        cli = run.import_program()
        plan = workloads.build_profile(TINY["profile"], SEED, self.workdir)
        runner = run.Runner(cli, self.workdir, None)
        before = maxbv_bindings()
        tracer = Tracer()
        with tracer.installed():
            # names another module re-imports are wrapped as well
            self.assertIsNot(cli.env.maximal_value, before[("maxbv.envelope", "maximal_value")])
            self.assertIsNot(cli.env.isolate_quadratic_roots, before[("maxbv.envelope", "isolate_quadratic_roots")])
            self.assertIsNot(cli.maximal_value, before[("maxbv.cli", "maximal_value")])
            self.assertIsNot(cli.env.MaximalProfile.dump, before[("MaximalProfile", "dump")])
        after = maxbv_bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if before[k] is not after[k]], [])
        self.assertEqual(tracer.missing, [])

        with tracer.installed():  # count-only targets, on a surd whose bracket gets refined
            roots = cli.env.isolate_quadratic_roots((1, 0, -2))
            roots[0].refine(10)
        self.assertEqual((tracer.counts["surd_roots"], tracer.counts["refine_calls"]), (2, 1))

        tracer, traced_s, untraced_s = run.traced(runner, plan)
        self.assertEqual(runner.failed, 0, runner.errors)  # includes the byte comparison
        self.assertEqual([k for k, v in maxbv_bindings().items() if before[k] is not v], [])
        metrics = tracer.metrics(traced_s)
        accounted = sum(metrics[name] for name in TIME_METRICS) + metrics["unattributed_ms"]
        self.assertAlmostEqual(accounted, metrics["traced.op_ms"], places=6)
        self.assertGreater(metrics["envelope.build_ms"], 0)
        self.assertGreater(metrics["envelope.crossings"], 0)
        self.assertGreater(metrics["maximal.queries"], 0)

    def test_counts_repeat_for_a_seed(self):
        cli = run.import_program()
        counts = []
        for _ in range(2):
            plan = workloads.build_continuity(TINY["continuity"], SEED, self.workdir)
            tracer, traced_s, _ = run.traced(run.Runner(cli, self.workdir, None), plan)
            counts.append(dict(tracer.counts))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["operand_bits_max"], 0)


class Smoke(WorkDir):
    def test_every_workload_at_tiny_size(self):
        self.assertEqual(sorted(TINY), sorted(workloads.SPECS))
        for name, spec in TINY.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.run(name, SEED, 0.01, trace, spec, self.workdir)
                    self.assertEqual(code, 0)
                    result = json.loads(out.getvalue().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual((result["correct"], result["failed"]), (True, 0), out.getvalue())
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(sorted(result["metrics"]), sorted(expected))

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.SPECS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
