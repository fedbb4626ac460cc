"""The CLI contract under fuzzed input: every argv and every experiment
config ends in exit 0, 1, 2 or 3, and never prints a traceback.

Arguments are drawn from the subcommand and option names, with either
well-formed values, random tokens or nothing after each option.  Paths
come only from a fixed set inside a temporary directory, which is also the
working directory, so no run writes anywhere else.  Seed counts, --n,
--K and the configs' scales and pairs stay small, to keep each run cheap.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbv.cli import main
from maxbv.stepfn import StepFunction, serialize

SUBCOMMANDS = ("eval", "var", "profile", "e-set", "check", "experiment", "counterexample")
CONFIG_KEYS = (
    "seed", "pairs", "file", "perturbation", "scales", "precision",
    "threshold", "variation_gap", "tail_count", "perturbation_norm",
)
TOKENS = st.one_of(
    st.sampled_from([
        "", "-", "--", "-h", "--help", "-inf", "inf", "0", "1", "-1", "1/2", "-3/4",
        "1/0", "0/0", "1:3", "3:1", "nan", "1e3", "1.5", " 2", "x",
    ]),
    # No digits: a random token never asks for a large count or precision.
    st.text(alphabet="ab-/:.,=# ", max_size=6),
)
RATIONALS = st.sampled_from(["0", "2", "-1/3", "7/2", "-inf", "inf", "1/1000", "1/1000000000"])
SMALL_INTS = st.integers(-2, 8).map(str)
SETTINGS = settings(max_examples=60, deadline=None, database=None)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Fixed input paths in a temporary directory that is also the cwd."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "empty").mkdir()
    good = serialize(StepFunction(0, (0, 1, 3), (1, 2, 0), (2, -1, Fraction(1, 2))))
    (tmp_path / "good.txt").write_text(good, encoding="utf-8")
    (tmp_path / "corpus" / "good.txt").write_text(good, encoding="utf-8")
    (tmp_path / "bad.txt").write_text("stepfn/1\ntail 0\nbp 1 value x right 0\n", encoding="utf-8")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
    inputs = ["good.txt", "bad.txt", "binary.txt", "corpus", "missing.txt"]
    return {
        "inputs": inputs,
        "outs": ["out.txt", "corpus", "missing/out.txt", ""],
        "dirs": ["corpus", "empty", "good.txt", "missing"],
        "configs": ["exp.cfg", "binary.txt", "corpus", "missing.cfg"],
    }


def _config_lines(paths):
    files = st.sampled_from(paths["inputs"])
    values = {
        "seed": SMALL_INTS,
        "pairs": st.integers(-1, 2).map(str),
        "file": files,
        "perturbation": files,
        "scales": st.lists(st.sampled_from(["1", "1/2", "1/4", "1/8", "0", "-1", "2", "abc", ""]),
                           max_size=4).map(",".join),
        "precision": RATIONALS,
        "threshold": RATIONALS,
        "variation_gap": RATIONALS,
        "tail_count": SMALL_INTS,
        "perturbation_norm": st.sampled_from(["raw", "1/8", "0", "abc"]),
    }
    pair = st.sampled_from(CONFIG_KEYS).flatmap(
        lambda key: st.one_of(values[key], TOKENS).map(lambda value: f"{key}={value}")
    )
    junk = st.one_of(
        st.sampled_from(
            ["# comment", "", "   ", "novalue", "=", "seed==1", "pairs=1  # trailing", "bogus=1"]
        ),
        TOKENS,
    )
    return st.lists(st.one_of(pair, junk), max_size=6)


def _argv(paths):
    values = {
        "--file": st.sampled_from(paths["inputs"]),
        "--out": st.sampled_from(paths["outs"]),
        "--corpus": st.sampled_from(paths["dirs"]),
        "--config": st.sampled_from(paths["configs"]),
        "--decimal": SMALL_INTS,
        "--x": RATIONALS,
        "--from": RATIONALS,
        "--to": RATIONALS,
        "--maximal": st.just(None),
        "--precision": RATIONALS,
        "--seeds": st.sampled_from(["0", "2", "1:3", "3:1", "0:0", "-1", "1:"]),
        "--suite-seed": SMALL_INTS,
        "--n": SMALL_INTS,
        "--K": st.integers(-2, 12).map(str),
    }
    # Options that name paths never take a random token.
    free = {"--decimal", "--x", "--from", "--to", "--precision", "--seeds", "--suite-seed", "--n", "--K"}

    @st.composite
    def argv(draw):
        command = draw(st.one_of(st.sampled_from(SUBCOMMANDS), TOKENS))
        args = [command]
        if command == "check":
            args += ["--seeds", "2"]  # a bounded default; a later --seeds overrides it
        for _ in range(draw(st.integers(0, 6))):
            name = draw(st.sampled_from(sorted(values)))
            shape = draw(st.sampled_from(["value", "value", "bare", "token", "stray"]))
            if shape == "stray":
                args.append(draw(TOKENS))
            elif shape == "bare" or name == "--maximal":
                args.append(name)
            elif shape == "token" and name in free:
                args += [name, draw(TOKENS)]
            else:
                args += [name, draw(values[name])]
        return args

    return argv()


def _assert_contract(code, capsys):
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_fuzzed_argv_keeps_the_exit_contract(workdir, capsys):
    with open("exp.cfg", "w", encoding="utf-8") as handle:
        handle.write("pairs=1\nscales=1,1/2\ntail_count=1\n")

    @given(_argv(workdir))
    @SETTINGS
    def run(argv):
        _assert_contract(main(argv), capsys)

    run()


def test_fuzzed_experiment_config_keeps_the_exit_contract(workdir, capsys):
    @given(_config_lines(workdir))
    @SETTINGS
    def run(lines):
        with open("exp.cfg", "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        _assert_contract(main(["experiment", "--config", "exp.cfg"]), capsys)

    run()
