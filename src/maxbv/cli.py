"""Command-line front end.

Subcommands: eval, var, profile, e-set, check, experiment, counterexample.
All numeric output is exact ('p/q') or an enclosure ('lo..hi'); --decimal
on eval and var adds a fixed-point rendering column for human reading.
Exit codes: 0 pass, 1 a check failed, 2 bad input, 3 internal error (any
other exception, reported as one ``internal error:`` line on stderr, so that
a crash never reads as a verdict).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

# The profile engine and the oracles load on first use: an eval reads neither
# (see ``maxbv._lazy``).
from . import envelope as env, verify
from . import stepfn as sf
from .exact import decimal_str, format_rat, parse_rat
from .maximal import maximal_value
from .stepfn import StepFunction, StepFunctionParseError

PASS, CHECK_FAILED, BAD_INPUT, INTERNAL_ERROR = 0, 1, 2, 3

# The most digits --decimal renders: far more than anyone reads, and the
# rendering stays below Python's limit on the digits of an int.
DECIMAL_DIGITS_MAX = 1000


class InputError(Exception):
    pass


def _rat(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_endpoint(text: str):
    if text == "-inf":
        return sf.NEG_INF
    if text == "inf":
        return sf.POS_INF
    return _rat(text)


def _parse_positive(text: str, key: str) -> Fraction:
    value = _rat(text)
    if value <= 0:
        raise InputError(f"{key} must be positive")
    return value


def _parse_int(text: str, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise InputError(f"{name} must be an integer, not {text!r}")
    try:
        value = int(text)
    except ValueError:  # past Python's limit on the digits of an int
        raise InputError(f"{name} has too many digits ({len(text.lstrip('-'))})") from None
    if minimum is not None and value < minimum:
        raise InputError(f"{name} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise InputError(f"{name} must be at most {maximum}")
    return value


def _option(parse, *extra):
    """An argparse type= converter from a parser that raises InputError."""

    def convert(text: str):
        try:
            return parse(text, *extra)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _read(path: str, reader):
    """reader(path) on a file named on the command line: a file that cannot
    be read, or is not UTF-8, is an input error that names it."""
    try:
        return reader(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


def _load(path: str) -> StepFunction:
    try:
        return _read(path, sf.load)
    except StepFunctionParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "wb") as handle:
                handle.write(text.encode("utf-8"))
        except OSError as exc:
            raise InputError(f"{out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# A command returns its text and its exit code; main writes the text.
Outcome = Tuple[str, int]


def cmd_eval(args) -> Outcome:
    f = _load(args.file)
    result = maximal_value(f, _rat(args.x))
    line = f"{format_rat(result.value)} {result.witness}"
    if args.decimal:
        line += f"\t{decimal_str(result.value, args.decimal)}"
    return line + "\n", PASS


def cmd_var(args) -> Outcome:
    f = _load(args.file)
    a = _parse_endpoint(getattr(args, "from"))
    b = _parse_endpoint(args.to)
    if not a < b:
        raise InputError("--from must be strictly below --to")
    if args.maximal:
        profile = env.build_profile(f)
        enclosure = env.variation_of_profile(profile, a, b)
        line = str(enclosure)
        if args.decimal:
            line += f"\t{decimal_str(enclosure.midpoint, args.decimal)}"
    else:
        value = sf.variation_on(f, a, b)
        line = format_rat(value)
        if args.decimal:
            line += f"\t{decimal_str(value, args.decimal)}"
    return line + "\n", PASS


def cmd_profile(args) -> Outcome:
    return env.build_profile(_load(args.file)).dump(), PASS


def cmd_e_set(args) -> Outcome:
    f = _load(args.file)
    profile = env.build_profile(f)
    detached, touching = env.detachment_regions(f, profile)
    lines = ["set\tlo\thi"]
    for name, regions in (("E", detached), ("C", touching)):
        for lo, hi in regions.intervals:
            lines.append(f"{name}\t{format_rat(lo)}\t{format_rat(hi)}")
    return "\n".join(lines) + "\n", PASS


def cmd_check(args) -> Outcome:
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
        lo, colon, hi = args.seeds.partition(":")
        try:
            first = _parse_int(lo, "seed") if colon else 0
            last = _parse_int(hi if colon else lo, "seed")
        except InputError:
            raise InputError(f"bad --seeds {args.seeds!r}; expected N or A:B") from None
        if last <= first:
            raise InputError("empty seed range")
        corpus = [verify.random_stepfn(seed) for seed in range(first, last)]
    report = verify.invariant_suite(corpus, seed=args.suite_seed)
    return report.to_tsv(), PASS if report.passed else CHECK_FAILED


def _read_config(path: str, keys) -> dict:
    """key -> (line number, value text) from a line-oriented key=value file
    whose keys are among keys; an error names the first bad line."""
    text = _read(path, sf.read_text)
    config = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"{path}:{line_no}: expected key=value")
        key = key.strip()
        if not key:
            raise InputError(f"{path}:{line_no}: empty key")
        if key not in keys:
            raise InputError(f"{path}:{line_no}: unknown config key '{key}'")
        if key in config:
            raise InputError(f"{path}:{line_no}: {key} repeats line {config[key][0]}")
        config[key] = (line_no, value.strip())
    return config


def _parse_scales(text: str) -> List[Fraction]:
    if not text:
        return [Fraction(1, 2**j) for j in range(15)]
    try:
        scales = [parse_rat(s) for s in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad scales: {exc}") from None
    try:
        return verify.checked_scales(scales)
    except ValueError:
        raise InputError("bad scales: they must be positive and strictly decreasing") from None


def _parse_norm(text: str) -> Optional[Fraction]:
    return None if text == "raw" else _parse_positive(text, "perturbation_norm")


_CONFIG_KEYS = {
    "seed", "pairs", "file", "perturbation", "scales", "precision",
    "threshold", "variation_gap", "tail_count", "perturbation_norm",
}


def cmd_experiment(args) -> Outcome:
    """Run the continuity experiment from a key=value config.

    In random mode (no ``file=`` and no ``perturbation=``), ``pairs`` pairs
    are drawn from ``seed`` and each perturbation is rescaled to BV norm
    ``perturbation_norm`` ("raw" keeps it as drawn).  In fixed-function mode
    (``file=`` and ``perturbation=``, never one alone), the perturbation
    file is used as given: ``perturbation_norm`` is still validated, but it
    rescales nothing.
    """
    path = args.config
    config = _read_config(path, _CONFIG_KEYS)

    def value(key: str, default: Optional[str], parse, *extra):
        """The parsed value of key; an error names the line it came from."""
        if key not in config:
            return parse(default, *extra)
        line_no, text = config[key]
        try:
            return parse(text, *extra)
        except InputError as exc:
            raise InputError(f"{path}:{line_no}: {exc}") from None

    scales = value("scales", "", _parse_scales)
    # Keys left out of the config take the defaults of continuity_experiment.
    tuning = {
        key: value(key, None, parse, *extra)
        for key, parse, *extra in (
            ("precision", _parse_positive, "precision"),
            ("threshold", _parse_positive, "threshold"),
            ("variation_gap", _parse_positive, "variation_gap"),
            ("tail_count", _parse_int, "tail_count", 1),
        )
        if key in config
    }
    seed = value("seed", "0", _parse_int, "seed")
    pairs = value("pairs", "1", _parse_int, "pairs", 1)
    target_norm = value("perturbation_norm", "1/8", _parse_norm)

    for key, other in (("file", "perturbation"), ("perturbation", "file")):
        if key in config and other not in config:
            raise InputError(f"{path}:{config[key][0]}: {key}= also needs {other}=")
    runs = []
    if "file" in config:
        runs.append(("file", value("file", None, _load), value("perturbation", None, _load)))
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
        report = verify.continuity_experiment(f, g, scales, **tuning)
        all_pass = all_pass and report.passed
        blocks.append(f"# run\t{label}\n" + report.to_tsv())
    return "".join(blocks), PASS if all_pass else CHECK_FAILED


def cmd_counterexample(args) -> Outcome:
    try:
        report = verify.counterexample(args.n, args.K)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return report.to_text(), PASS if report.passed else CHECK_FAILED


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
        p.add_argument("--decimal", type=_option(_parse_int, "K", 1, DECIMAL_DIGITS_MAX), metavar="K",
                       help=f"add a K-digit decimal rendering column (1 <= K <= {DECIMAL_DIGITS_MAX})")

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
    p.add_argument("--suite-seed", type=_option(_parse_int, "suite seed"), default=0)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("experiment", help="run a continuity experiment from a config file")
    add_common(p, needs_file=False)
    p.add_argument("--config", required=True, help="line-oriented key=value config")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("counterexample", help="exact divergence-family reproduction")
    add_common(p, needs_file=False)
    p.add_argument("--n", type=_option(_parse_int, "n"), required=True)
    p.add_argument("--K", type=_option(_parse_int, "K"), default=None)
    p.set_defaults(handler=cmd_counterexample)

    return parser


_VALUE_OPTIONS = {"--from", "--to", "--x", "--seeds", "--file", "--out", "--config", "--corpus"}


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
        text, code = args.handler(args)
        _emit(text, args.out)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def entry_point():
    sys.exit(main())
