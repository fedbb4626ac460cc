"""Seeded inputs, operation cycles and output checks for the three workloads.

Every operation is one ``maxbv`` command line.  Inputs are written as
stepfn/1 files by the generator below, which does not use the package, so
the program under test receives only generated files and command lines.

A workload is a pool of *cycles*.  One cycle runs every input size of the
workload once; the harness runs cycles in pool order (wrapping around when a
run outlasts the pool) and stops only between cycles, so every run sees the
same mix of sizes.  The first ``trace_cycles`` cycles form the fixed op list
of a traced run, which keeps its counts exactly repeatable for a seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# A check receives the op's output text and a function that runs one maxbv
# command line and returns its output text; it returns an error or None.
Check = Callable[[str, Callable[[Sequence[str]], str]], Optional[str]]

SCALES = ",".join(str(Fraction(1, 2**j)) for j in range(15))  # 1 down to 2^-14
PERTURBATION_NORM = Fraction(1, 8)


@dataclass(frozen=True)
class Op:
    """One timed call of the command-line program."""

    key: str  # stable label; golden digests are keyed by it
    kind: str  # maxbv subcommand, plus ' --maximal' for var
    argv: Tuple[str, ...]  # without --out
    sizes: Tuple[int, ...] = ()  # breakpoint counts of the inputs this op introduces
    check: Optional[Check] = None


@dataclass(frozen=True)
class Spec:
    """Fixed shape of a workload: sizes per cycle, pool length, traced cycles."""

    sizes: Tuple[int, ...]
    pool_cycles: int
    trace_cycles: int


@dataclass
class Plan:
    cycles: List[List[Op]]
    warmup: Op
    trace_cycles: int

    def trace_ops(self) -> List[Op]:
        return [op for cycle in self.cycles[: self.trace_cycles] for op in cycle]


SPECS: Dict[str, Spec] = {
    # n = 8 is desk scale; n = 16 is the largest size for which a 30-second
    # run still holds enough cycles (about 1.5 s each today) that its median
    # op is steady from seed to seed: with n up to 20 the run held 8 to 10
    # cycles and op_p50_ms spread by 0.09 over ten seeds.  An odd number of
    # sizes puts the median op inside one size class.
    "profile": Spec(sizes=(8, 10, 12, 14, 16), pool_cycles=40, trace_cycles=3),
    # Breakpoints per function of each (f, g) pair; f + s*g has up to 2n.  One
    # size: the cost of a pair varies by about 25% at any n, so the median op
    # needs every op of the run behind it.
    "continuity": Spec(sizes=(3,), pool_cycles=200, trace_cycles=40),
    # Family parameter n of counterexample --n; the family has 2n + 5 breakpoints.
    "divergence": Spec(sizes=(4, 8, 12, 16), pool_cycles=16, trace_cycles=3),
}


# --- input generation --------------------------------------------------------


def _draw(rng: random.Random, bound: int, denom_bound: int) -> Fraction:
    den = rng.randint(1, denom_bound)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def exact_n_stepfn(rng: random.Random, n: int, value_bound: int = 3, denom_bound: int = 4):
    """(tail, breakpoints, point values, right constants) with exactly n breakpoints.

    Adjacent constants always differ, so canonical form drops no breakpoint.
    The value mix (signed constants, free-standing point values) follows the
    package's own desk-scale corpus.  Breakpoint k sits in [4k - 2n, 4k - 2n + 4) on a
    quarter grid, and both tails are at most 1 in size, so that interior
    constants usually dominate and the profile is rarely a lone constant;
    both keep the cost of one size steady from seed to seed.
    """
    points = [Fraction(4 * k - 2 * n) + Fraction(rng.randrange(16), 4) for k in range(n)]
    tail = _draw(rng, 1, denom_bound)
    constants: List[Fraction] = []
    previous = tail
    for k in range(n):
        bound = 1 if k == n - 1 else value_bound  # the right tail
        c = _draw(rng, bound, denom_bound)
        while c == previous:
            c = _draw(rng, bound, denom_bound)
        constants.append(c)
        previous = c
    values = []
    for k in range(n):
        left = tail if k == 0 else constants[k - 1]
        pick = rng.random()
        values.append(left if pick < 0.35 else constants[k] if pick < 0.7 else _draw(rng, value_bound, denom_bound))
    return tail, points, values, constants


def bv_norm(tail, breakpoints, values, constants) -> Fraction:
    total = abs(tail)
    left = tail
    for v, c in zip(values, constants):
        total += abs(v - left) + abs(c - v)
        left = c
    return total


def stepfn_text(tail, breakpoints, values, constants) -> str:
    lines = ["stepfn/1", f"tail {tail}"]
    lines += [f"bp {x} value {v} right {c}" for x, v, c in zip(breakpoints, values, constants)]
    return "\n".join(lines) + "\n"


def divergence_family(n: int, humps: int):
    """The perturbed divergence function: left tail 1, humps of height 1 on
    (4k-2, 4k) for k <= humps, plus 1/n on the open interval (0, 4n+2)."""
    bump = Fraction(1, n)
    inside = lambda x: 0 < x < 4 * n + 2  # noqa: E731
    breakpoints = [Fraction(0)] + [Fraction(x) for k in range(1, humps + 1) for x in (4 * k - 2, 4 * k)]
    values = [bump if inside(x) else Fraction(0) for x in breakpoints]
    constants = []
    for i, x in enumerate(breakpoints):
        hump = 1 if i % 2 == 1 else 0  # segments (4k-2, 4k) start at odd positions
        nxt = breakpoints[i + 1] if i + 1 < len(breakpoints) else x + 1
        constants.append(hump + (bump if inside((x + nxt) / 2) else 0))
    return Fraction(1), breakpoints, values, constants


# --- output checks -------------------------------------------------------------


def _eval_value(run: Callable[[Sequence[str]], str], path: str, x: Fraction) -> Fraction:
    return Fraction(run(("eval", "--file", path, "--x", str(x))).split()[0])


def _profile_value(text: str, x: Fraction) -> Fraction:
    for line in text.splitlines():
        lo, hi, alpha, beta, gamma, delta = line.split("\t")[:6]
        if (lo == "-inf" or Fraction(lo) <= x) and (hi == "inf" or x <= Fraction(hi)):
            a, b, g, d = map(Fraction, (alpha, beta, gamma, delta))
            return (a + b * x) / (g + d * x)
    raise ValueError(f"no profile piece contains {x}")


def _profile_check(path: str, points: Sequence[Fraction]) -> Check:
    def check(text, run):
        for x in points:
            got, want = _profile_value(text, x), _eval_value(run, path, x)
            if got != want:
                return f"profile({x}) = {got} but eval gives {want}"
        return None

    return check


def _check_enclosure(text, run):
    lo, sep, hi = text.strip().partition("..")
    if not sep or Fraction(lo) > Fraction(hi):
        return f"malformed enclosure {text.strip()!r}"
    return None


def _check_regions(text, run):
    lines = text.splitlines()
    if lines[:1] != ["set\tlo\thi"] or any(line[:2] not in ("E\t", "C\t") for line in lines[1:]):
        return "malformed e-set report"
    return None


def _check_verdicts(text, run):
    verdicts = [line for line in text.splitlines() if line.startswith("# verdict")]
    if not verdicts or any(line != "# verdict\tPASS" for line in verdicts):
        return "a report verdict is not PASS"
    return None


def _check_counterexample(text, run):
    claims = [line for line in text.splitlines() if " : " in line]
    if len(claims) != 5 or not all(line.endswith(" : PASS") for line in claims):
        return "a counterexample claim is not PASS"
    return None


def _eval_check(n: int, x: int) -> Check:
    # Hump midpoints 4k-1 average to exactly 1 + 1/n; gap midpoints 4k+1 stay <= 1.
    def check(text, run):
        value = Fraction(text.split()[0])
        ok = value == 1 + Fraction(1, n) if x % 4 == 3 else value <= 1
        return None if ok else f"eval at {x} gave {value}"

    return check


def digest(op: Op, text: str) -> str:
    """Output digest; profile dumps drop their provenance column, which an
    engine change may legitimately rename while keeping every value."""
    if op.kind == "profile":
        text = "\n".join(line.rsplit("\t", 1)[0] for line in text.splitlines())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --- workloads -------------------------------------------------------------------


# The warm-up op of a set-up comes from a fixed input, the same for every
# seed, so that setup_s does not follow the cost of a seed's first input.
WARM_UP_RNG = "warm-up"


def _profile_ops(rng: random.Random, label: str, n: int, workdir: Path) -> List[Op]:
    """One function with n breakpoints through profile, var --maximal and e-set."""
    fn = exact_n_stepfn(rng, n)
    path = workdir / f"profile_{label.replace('/', '_')}.txt"
    path.write_text(stepfn_text(*fn), encoding="utf-8")
    lo, hi = fn[1][0] - 2, fn[1][-1] + 2
    points = [lo + (hi - lo) * Fraction(rng.randint(0, 1000), 1000) for _ in range(3)]
    file_args = ("--file", str(path))
    return [
        Op(f"{label}/profile", "profile", ("profile", *file_args), (n,), _profile_check(str(path), points)),
        Op(f"{label}/var", "var --maximal", ("var", "--maximal", *file_args), (), _check_enclosure),
        Op(f"{label}/e-set", "e-set", ("e-set", *file_args), (), _check_regions),
    ]


def build_profile(spec: Spec, seed: int, workdir: Path) -> Plan:
    rng = random.Random(f"profile:{seed}")
    cycles = [[op for n in spec.sizes for op in _profile_ops(rng, f"c{c}/n{n}", n, workdir)]
              for c in range(spec.pool_cycles)]
    warmup = _profile_ops(random.Random(WARM_UP_RNG), f"warm-up/n{spec.sizes[0]}", spec.sizes[0], workdir)[0]
    return Plan(cycles, warmup, spec.trace_cycles)


def _experiment_op(rng: random.Random, label: str, n: int, workdir: Path) -> Op:
    """One experiment on a pair (f, g) with n breakpoints each."""
    f = exact_n_stepfn(rng, n)
    g = exact_n_stepfn(rng, n)
    scale = PERTURBATION_NORM / bv_norm(*g)
    g = (g[0] * scale, g[1], [v * scale for v in g[2]], [k * scale for k in g[3]])
    stem = workdir / f"continuity_{label.replace('/', '_')}"
    f_path, g_path, config = (stem.with_name(stem.name + s) for s in ("_f.txt", "_g.txt", ".cfg"))
    f_path.write_text(stepfn_text(*f), encoding="utf-8")
    g_path.write_text(stepfn_text(*g), encoding="utf-8")
    # Every key is pinned.  The perturbation file is already scaled to
    # BV norm 1/8, so the run depends on neither default of
    # perturbation_norm; seed and pairs are inert when file= is set.
    config.write_text(
        "\n".join((
            "seed=0", "pairs=1", f"file={f_path}", f"perturbation={g_path}",
            f"scales={SCALES}", "precision=1/1000000000", "threshold=1/1000",
            "variation_gap=1/1000", "tail_count=5", "perturbation_norm=raw",
        )) + "\n",
        encoding="utf-8",
    )
    return Op(f"{label}/experiment", "experiment", ("experiment", "--config", str(config)), (n, n), _check_verdicts)


def build_continuity(spec: Spec, seed: int, workdir: Path) -> Plan:
    rng = random.Random(f"continuity:{seed}")
    cycles = [[_experiment_op(rng, f"c{c}/n{n}", n, workdir) for n in spec.sizes]
              for c in range(spec.pool_cycles)]
    warmup = _experiment_op(random.Random(WARM_UP_RNG), f"warm-up/n{spec.sizes[0]}", spec.sizes[0], workdir)
    return Plan(cycles, warmup, spec.trace_cycles)


def build_divergence(spec: Spec, seed: int, workdir: Path) -> Plan:
    """The family is fixed by n, so the seed only orders each cycle's ops."""
    rng = random.Random(f"divergence:{seed}")
    ops = []
    for n in spec.sizes:
        path = workdir / f"divergence_n{n}.txt"
        path.write_text(stepfn_text(*divergence_family(n, n + 2)), encoding="utf-8")
        ops.append(Op(f"n{n}/counterexample", "counterexample", ("counterexample", "--n", str(n)),
                      (2 * n + 5,), _check_counterexample))
        points = [4 * k - 1 for k in range(1, n + 1)] + [4 * k + 1 for k in range(0, n + 1)]
        ops += [Op(f"n{n}/eval/{x}", "eval", ("eval", "--file", str(path), "--x", str(x)), (), _eval_check(n, x))
                for x in points]
    cycles = []
    for _ in range(spec.pool_cycles):
        cycle = list(ops)
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Plan(cycles, ops[1], spec.trace_cycles)  # warm-up: eval at the smallest n
