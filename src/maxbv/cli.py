"""Command-line front end.

Subcommands: eval, var, profile, e-set, check, experiment, counterexample.
All numeric output is exact ('p/q') or an enclosure ('lo..hi'); --decimal
on eval and var adds a fixed-point rendering column for human reading.
Exit codes: 0 pass, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import envelope as env
from . import stepfn as sf
from . import verify
from .exact import decimal_str, format_rat, parse_rat
from .maximal import maximal_value
from .stepfn import StepFunction, StepFunctionParseError

PASS, CHECK_FAILED, BAD_INPUT = 0, 1, 2


class InputError(Exception):
    pass


def _parse_endpoint(text: str):
    if text == "-inf":
        return -math.inf
    if text == "inf":
        return math.inf
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_precision(text: str) -> Fraction:
    try:
        value = parse_rat(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if value <= 0:
        raise InputError("precision must be positive")
    return value


def _parse_int(text: str, name: str, minimum: Optional[int] = None) -> int:
    if not re.fullmatch(r"-?\d+", text):
        raise InputError(f"{name} must be an integer, not {text!r}")
    value = int(text)
    if minimum is not None and value < minimum:
        raise InputError(f"{name} must be at least {minimum}")
    return value


def _option(parse, *extra):
    """An argparse type= converter from a parser that raises InputError."""

    def convert(text: str):
        try:
            return parse(text, *extra)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _load(path: str) -> StepFunction:
    try:
        return sf.load(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except StepFunctionParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"{out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    f = _load(args.file)
    try:
        x = parse_rat(args.x)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    result = maximal_value(f, x)
    line = f"{format_rat(result.value)} {result.witness}"
    if args.decimal:
        line += f"\t{decimal_str(result.value, args.decimal)}"
    _emit(line + "\n", args.out)
    return PASS


def cmd_var(args) -> int:
    f = _load(args.file)
    a = _parse_endpoint(getattr(args, "from"))
    b = _parse_endpoint(args.to)
    if not a < b:
        raise InputError("--from must be strictly below --to")
    if args.maximal:
        profile = env.build_profile(f)
        enclosure = env.variation_of_profile(profile, a, b, args.precision)
        line = str(enclosure)
        if args.decimal:
            line += f"\t{decimal_str(enclosure.midpoint, args.decimal)}"
    else:
        value = sf.variation_on(f, a, b)
        line = format_rat(value)
        if args.decimal:
            line += f"\t{decimal_str(value, args.decimal)}"
    _emit(line + "\n", args.out)
    return PASS


def cmd_profile(args) -> int:
    f = _load(args.file)
    profile = env.build_profile(f)
    _emit(profile.dump(), args.out)
    return PASS


def _region_bound_text(bound, direction: int) -> str:
    if bound is None:
        return "-inf" if direction < 0 else "inf"
    return format_rat(bound)


def cmd_e_set(args) -> int:
    f = _load(args.file)
    profile = env.build_profile(f)
    detached, touching = env.detachment_regions(f, profile)
    lines = ["set\tlo\thi"]
    for lo, hi in detached.intervals:
        lines.append(f"E\t{_region_bound_text(lo, -1)}\t{_region_bound_text(hi, +1)}")
    for lo, hi in touching.intervals:
        lines.append(f"C\t{_region_bound_text(lo, -1)}\t{_region_bound_text(hi, +1)}")
    _emit("\n".join(lines) + "\n", args.out)
    return PASS


def cmd_check(args) -> int:
    corpus: List[StepFunction] = []
    if args.corpus:
        directory = Path(args.corpus)
        if not directory.is_dir():
            raise InputError(f"{args.corpus}: not a directory")
        files = sorted(directory.glob("*.txt"))
        if not files:
            raise InputError(f"{args.corpus}: no step-function files")
        for path in files:
            corpus.append(_load(str(path)))
    else:
        lo, _, hi = args.seeds.partition(":")
        try:
            first, last = (int(lo), int(hi)) if hi else (0, int(lo))
        except ValueError:
            raise InputError(f"bad --seeds {args.seeds!r}; expected N or A:B") from None
        if last <= first:
            raise InputError("empty seed range")
        corpus = [verify.random_stepfn(seed) for seed in range(first, last)]
    report = verify.invariant_suite(corpus, precision=args.precision, seed=args.suite_seed)
    _emit(report.to_tsv(), args.out)
    return PASS if report.passed else CHECK_FAILED


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    config = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"{path}:{line_no}: expected key=value")
        config[key.strip()] = value.strip()
    return config


_CONFIG_KEYS = {
    "seed", "pairs", "file", "perturbation", "scales", "precision",
    "threshold", "variation_gap", "tail_count", "perturbation_norm",
}


def cmd_experiment(args) -> int:
    config = _read_config(args.config)
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        scales = [parse_rat(s) for s in config.get("scales", "").split(",") if s]
    except ValueError as exc:
        raise InputError(f"bad scales: {exc}") from None
    if not scales:
        scales = [Fraction(1, 2**j) for j in range(15)]
    if min(scales) <= 0 or any(second >= first for first, second in zip(scales, scales[1:])):
        raise InputError("bad scales: they must be positive and strictly decreasing")
    precision = _parse_precision(config.get("precision", "1/1000000000"))
    threshold = _parse_precision(config.get("threshold", "1/1000"))
    variation_gap = _parse_precision(config.get("variation_gap", "1/1000"))
    tail_count = _parse_int(config.get("tail_count", "5"), "tail_count", minimum=1)
    seed = _parse_int(config.get("seed", "0"), "seed")
    pairs = _parse_int(config.get("pairs", "1"), "pairs", minimum=1)
    norm_text = config.get("perturbation_norm", "1/8")
    target_norm = None if norm_text == "raw" else _parse_precision(norm_text)

    runs = []
    if "file" in config:
        if "perturbation" not in config:
            raise InputError("config with file= also needs perturbation=")
        runs.append(("file", _load(config["file"]), _load(config["perturbation"])))
    else:
        for i in range(pairs):
            f = verify.random_stepfn(seed + 2 * i)
            g = verify.random_stepfn(seed + 2 * i + 1)
            if target_norm is not None:
                norm = sf.bv_norm(g)
                if norm:
                    g = sf.combine(g, StepFunction.constant(0), target_norm / norm, 0)
            runs.append((f"pair{i}", f, g))

    blocks = []
    all_pass = True
    for label, f, g in runs:
        report = verify.continuity_experiment(
            f, g, scales, precision=precision, threshold=threshold,
            variation_gap=variation_gap, tail_count=tail_count,
        )
        all_pass = all_pass and report.passed
        blocks.append(f"# run\t{label}\n" + report.to_tsv())
    _emit("".join(blocks), args.out)
    return PASS if all_pass else CHECK_FAILED


def cmd_counterexample(args) -> int:
    try:
        report = verify.counterexample(args.n, args.K)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(report.to_text(), args.out)
    return PASS if report.passed else CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and rebuilding it on every in-process ``main`` call would
    cost about as much as a whole ``eval`` query (about 1 ms each)."""
    parser = argparse.ArgumentParser(
        prog="maxbv",
        description="Exact maximal-function computations on rational step functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_file=True):
        if needs_file:
            p.add_argument("--file", required=True, help="step-function file (stepfn/1 format)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_decimal(p):
        p.add_argument("--decimal", type=_option(_parse_int, "K", 1), metavar="K",
                       help="add a K-digit decimal rendering column (K >= 1)")

    precision = _option(_parse_precision)

    p = sub.add_parser("eval", help="maximal-function value and witness at a point")
    add_common(p)
    add_decimal(p)
    p.add_argument("--x", required=True, help="query point (rational)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("var", help="total variation over an interval")
    add_common(p)
    add_decimal(p)
    p.add_argument("--from", default="-inf", help="left endpoint (rational or -inf)")
    p.add_argument("--to", default="inf", help="right endpoint (rational or inf)")
    p.add_argument("--maximal", action="store_true",
                   help="variation of the maximal function instead of the function")
    p.add_argument("--precision", type=precision, default=Fraction(1, 10**9))
    p.set_defaults(handler=cmd_var)

    p = sub.add_parser("profile", help="dump the piecewise-Moebius maximal profile")
    add_common(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("e-set", help="detachment set and its complement")
    add_common(p)
    p.set_defaults(handler=cmd_e_set)

    p = sub.add_parser("check", help="run the invariant suite over a corpus")
    add_common(p, needs_file=False)
    p.add_argument("--corpus", help="directory of step-function files")
    p.add_argument("--seeds", default="100", help="seed count N or range A:B")
    p.add_argument("--suite-seed", type=int, default=0)
    p.add_argument("--precision", type=precision, default=Fraction(1, 10**9))
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("experiment", help="run a continuity experiment from a config file")
    add_common(p, needs_file=False)
    p.add_argument("--config", required=True, help="line-oriented key=value config")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("counterexample", help="exact divergence-family reproduction")
    add_common(p, needs_file=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(handler=cmd_counterexample)

    return parser


_VALUE_OPTIONS = {"--from", "--to", "--x"}


def _merge_value_options(argv):
    """Join '--from -inf' style pairs so leading-dash values parse."""
    merged = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in _VALUE_OPTIONS and index + 1 < len(argv):
            merged.append(f"{token}={argv[index + 1]}")
            index += 2
        else:
            merged.append(token)
            index += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_options(list(argv)))
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
