import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxbv.cli import _merge_value_options, build_parser, main
from maxbv.stepfn import StepFunction, serialize


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "maxbv", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def chi_file(tmp_path):
    path = tmp_path / "chi.txt"
    path.write_text(serialize(StepFunction.indicator(0, 1)), encoding="utf-8")
    return str(path)


@pytest.fixture
def const_file(tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(serialize(StepFunction.constant(5)), encoding="utf-8")
    return str(path)


def test_eval_indicator(chi_file, capsys):
    assert main(["eval", "--file", chi_file, "--x", "2"]) == 0
    assert capsys.readouterr().out == "1/2 finite(0,2)\n"


def test_eval_constant_reports_limit_witness(const_file, capsys):
    assert main(["eval", "--file", const_file, "--x", "0"]) == 0
    assert capsys.readouterr().out == "5 tail_left\n"


def test_eval_decimal_column(chi_file, capsys):
    assert main(["eval", "--file", chi_file, "--x", "2", "--decimal", "3"]) == 0
    assert capsys.readouterr().out == "1/2 finite(0,2)\t0.500\n"


@pytest.mark.parametrize("x", ["1/3\n", "3\n"])
def test_eval_point_with_a_trailing_newline_is_bad_input(chi_file, capsys, x):
    assert main(["eval", "--file", chi_file, "--x", x]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("x", ["\u0663", "1/1\u0663"])  # the Arabic-Indic digit three
def test_eval_point_with_a_non_ascii_digit_is_bad_input(chi_file, capsys, x):
    assert main(["eval", "--file", chi_file, "--x", x]) == 2
    assert capsys.readouterr().out == ""


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("stepfn/1\ntail 0\nbp x value 0 right 0\n", encoding="utf-8")
    assert main(["eval", "--file", str(bad), "--x", "0"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--file", "{chi}", "--out", "{tmp}/missing/dir/x"],
        ["eval", "--file", "{tmp}", "--x", "0"],
        ["experiment", "--config", "{tmp}"],
        ["eval", "--file", "{binary}", "--x", "0"],
        ["experiment", "--config", "{binary}"],
    ],
    ids=["unwritable-out", "directory-file", "directory-config", "binary-file", "binary-config"],
)
def test_unreadable_files_are_bad_input(argv, chi_file, tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"stepfn/1\ntail \xff\n")
    args = [arg.format(chi=chi_file, tmp=tmp_path, binary=binary) for arg in argv]
    assert main(args) == 2
    _assert_one_line_error(capsys)


def test_var_command(chi_file, capsys):
    assert main(["var", "--file", chi_file, "--from", "-inf", "--to", "inf"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["var", "--file", chi_file, "--from", "0", "--to", "1"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["var", "--file", chi_file, "--maximal"]) == 0
    assert capsys.readouterr().out == "2..2\n"


def test_var_rejects_bad_window(chi_file, capsys):
    assert main(["var", "--file", chi_file, "--from", "3", "--to", "2"]) == 2


def test_profile_constant_single_line(const_file, capsys):
    assert main(["profile", "--file", const_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].split("\t") == ["-inf", "inf", "5", "0", "1", "0", "const:tail_left"]


def test_profile_indicator(chi_file, capsys):
    assert main(["profile", "--file", chi_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split("\t")[:2] == ["0", "1"]


def test_e_set(chi_file, capsys):
    assert main(["e-set", "--file", chi_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "set\tlo\thi"
    assert "E\t-inf\t0" in lines and "C\t0\t1" in lines


def test_check_passes_and_is_deterministic(tmp_path):
    code1, out1, _ = run_cli(["check", "--seeds", "12", "--suite-seed", "5"])
    code2, out2, _ = run_cli(["check", "--seeds", "12", "--suite-seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# verdict\tPASS" in out1


def test_check_corpus_dir(tmp_path):
    target = tmp_path / "corpus"
    target.mkdir()
    (target / "a.txt").write_text(serialize(StepFunction.indicator(0, 1)), encoding="utf-8")
    code, out, _ = run_cli(["check", "--corpus", str(target)])
    assert code == 0 and "# verdict\tPASS" in out


def test_check_corpus_whose_breakpoints_fill_the_sampling_grid(tmp_path):
    # Breakpoints at every k/8 of [-12, 12], the grid the sampler draws its
    # random points from: the sampler stops once the grid is taken.
    points = [Fraction(k, 8) for k in range(-96, 97)]
    f = StepFunction(0, points, [Fraction(1, 2)] * len(points), [(k + 1) % 2 for k in range(len(points))])
    assert f.n == 193
    target = tmp_path / "corpus"
    target.mkdir()
    (target / "grid.txt").write_text(serialize(f), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "maxbv", "check", "--corpus", str(target)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and "# verdict\tPASS" in proc.stdout


def test_check_seed_range(tmp_path):
    code, out, _ = run_cli(["check", "--seeds", "5:12"])
    assert code == 0 and "# verdict\tPASS" in out


def test_check_negative_seed_range_parses_in_either_spelling(capsys):
    # A range of negative seeds starts with a dash, which argparse would
    # read as an option after a separate --seeds.
    results = []
    for argv in (["check", "--seeds", "-5:-3"], ["check", "--seeds=-5:-3"]):
        results.append((main(argv), capsys.readouterr().out))
    assert results[0] == results[1] == (0, results[0][1])
    assert "# verdict\tPASS" in results[0][1]


@pytest.mark.parametrize(
    "seeds",
    [
        "300042:300044",  # finite_difference: x = 38/7 lies 43/3052 < 2^-6 left of the junction 2373/436
        "100095:100097",  # local_variation_bound: the window (-15/4, 23/4) ends on a breakpoint
        "180358:180360",  # derivative_formula: f(6) = -5/3 at the breakpoint 6, but f = 1 on both sides
    ],
)
def test_check_has_no_false_fail_near_junctions_and_breakpoints(seeds, capsys):
    assert main(["check", "--seeds", seeds]) == 0
    assert capsys.readouterr().out.endswith("# verdict\tPASS\n")


def test_experiment_fixed_file_mode(tmp_path, capsys):
    fpath = tmp_path / "f.txt"
    gpath = tmp_path / "g.txt"
    fpath.write_text(serialize(StepFunction.indicator(0, 1)), encoding="utf-8")
    gpath.write_text(
        serialize(StepFunction.indicator(0, 1, value="1/4")), encoding="utf-8"
    )
    scales = ",".join(f"1/{2**j}" for j in range(15))
    config = tmp_path / "exp.cfg"
    config.write_text(f"file={fpath}\nperturbation={gpath}\nscales={scales}\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 0
    assert "# verdict\tPASS" in capsys.readouterr().out


def test_check_empty_corpus_exit_2(tmp_path):
    target = tmp_path / "empty"
    target.mkdir()
    code, _, err = run_cli(["check", "--corpus", str(target)])
    assert code == 2
    assert "no step-function" in err


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["var", "--file", "CHI", "--from", "1/0"], 2, "",
         "error: malformed rational '1/0' (expected 'p' or 'p/q', q > 0)\n"),
        (["var", "--file", "CHI", "--decimal", "3"], 0, "2\t2.000\n", ""),
        (["check", "--corpus", "CHI"], 2, "", "error: CHI: not a directory\n"),
        (["check", "--seeds", "5:5"], 2, "", "error: empty seed range\n"),
    ],
)
def test_input_branches_exit_with_their_line(chi_file, capsys, argv, code, out, err):
    assert main([arg.replace("CHI", chi_file) for arg in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err.replace("CHI", chi_file))


@pytest.mark.parametrize(
    "command, options",
    [
        ("profile", [("--file", "-f.txt"), ("--out", "-o.txt")]),
        ("experiment", [("--config", "-exp.cfg")]),
        ("check", [("--corpus", "-corpus")]),
    ],
)
def test_path_values_may_begin_with_a_dash(tmp_path, monkeypatch, capsys, command, options):
    # argparse would read a separate value that begins with '-' as an option.
    monkeypatch.chdir(tmp_path)
    Path("-f.txt").write_text(serialize(StepFunction.indicator(0, 1)), encoding="utf-8")
    Path("-corpus").mkdir()
    Path("-corpus", "g.txt").write_text(serialize(StepFunction.indicator(0, 1, value="1/4")), encoding="utf-8")
    Path("-exp.cfg").write_text("file=-f.txt\nperturbation=-corpus/g.txt\n", encoding="utf-8")
    results = []
    spaced = [token for option, value in options for token in (option, value)]
    for spelling in (spaced, [f"{option}={value}" for option, value in options]):
        code = main([command, *spelling])
        written = Path("-o.txt").read_text(encoding="utf-8") if Path("-o.txt").exists() else None
        Path("-o.txt").unlink(missing_ok=True)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, written))
    assert results[0] == results[1]
    code, out, err, written = results[0]
    assert code == 0 and err == "" and (out or written)


def test_counterexample_command(capsys):
    assert main(["counterexample", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n").splitlines()[-1] == "Var(P_4) >= 2 : PASS"


def test_counterexample_bad_n(capsys):
    assert main(["counterexample", "--n", "2"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["counterexample", "--n", "1_0"], "argument --n: n must be an integer, not '1_0'"),
        (["counterexample", "--n", " 5"], "argument --n: n must be an integer, not ' 5'"),
        (["counterexample", "--n", "\u0663"], "argument --n: n must be an integer, not '\u0663'"),
        (["counterexample", "--n", "4", "--K", "1_0"], "argument --K: K must be an integer, not '1_0'"),
        (["check", "--suite-seed", "1_0"], "argument --suite-seed: suite seed must be an integer, not '1_0'"),
        (["check", "--seeds", "1_0"], "bad --seeds '1_0'; expected N or A:B"),
        (["check", "--seeds", "0: 5"], "bad --seeds '0: 5'; expected N or A:B"),
        (["check", "--seeds", "\u0663"], "bad --seeds '\u0663'; expected N or A:B"),
        # A range names both ends: "3:" is not the count form "3".
        (["check", "--seeds", "3:"], "bad --seeds '3:'; expected N or A:B"),
        (["check", "--seeds", ":3"], "bad --seeds ':3'; expected N or A:B"),
    ],
)
def test_integer_options_take_only_ascii_digits(args, message, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_experiment_from_config(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "seed=3\npairs=1\nscales=1,1/2,1/4,1/8,1/16,1/32\n"
        "precision=1/1000000000\nthreshold=1/4\nvariation_gap=1/4\ntail_count=3\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# run\tpair0")
    assert "# verdict\tPASS" in out


def test_experiment_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("bogus=1\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("=5\n", 1, "empty key"),
        ("scales=1,1/2\n  = 5\n", 2, "empty key"),
        ("# a comment\nfoo=2\nbar=3\n", 2, "unknown config key 'foo'"),
        ("bar=3\nseed=1\nfoo=2\n", 1, "unknown config key 'bar'"),
        ("seed=1\nfoo=2\n=5\n", 2, "unknown config key 'foo'"),
        ("=5\nfoo=2\n", 1, "empty key"),
    ],
)
def test_experiment_key_errors_name_their_line(tmp_path, capsys, text, line, message):
    # The first bad key in line order, empty or unknown, names its line.
    config = tmp_path / "exp.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:{line}: {message}\n"


def test_experiment_file_without_perturbation_names_the_file_line(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("scales=1,1/2\nfile=f.txt\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:2: file= also needs perturbation=\n"


def test_round_trip_through_cli_formats(tmp_path):
    from maxbv.stepfn import load
    from maxbv.verify import random_stepfn

    f = random_stepfn(17)
    path = tmp_path / "f.txt"
    path.write_text(serialize(f), encoding="utf-8")
    assert load(str(path)) == f


def _experiment(tmp_path, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text, encoding="utf-8")
    return main(["experiment", "--config", str(config)])


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key", ["seed", "pairs", "tail_count"])
def test_experiment_rejects_non_integer_keys(tmp_path, capsys, key):
    assert _experiment(tmp_path, f"{key}=abc\nscales=1,1/2\n") == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("key", ["seed", "pairs", "tail_count"])
def test_experiment_rejects_non_ascii_digits(tmp_path, capsys, key):
    assert _experiment(tmp_path, f"{key}=\u0663\nscales=1,1/2\n") == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("scales", ["1,1", "1/2,1", "1,0", "-1", "1,,1/2", "1/2,", ",1/2"])
def test_experiment_rejects_bad_scales(tmp_path, capsys, scales):
    assert _experiment(tmp_path, f"scales={scales}\n") == 2
    _assert_one_line_error(capsys)


def test_experiment_rejects_a_repeated_key(tmp_path, capsys):
    # The second scales= would otherwise replace the first without a word.
    config = tmp_path / "exp.cfg"
    config.write_text("scales=1,1/2\n# a comment\nscales=1/4\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:3: scales repeats line 1\n"


def test_experiment_empty_scales_take_the_default(tmp_path, capsys, monkeypatch):
    from maxbv import verify

    calls = []
    experiment = verify.continuity_experiment

    def recorded(f, g, scales, **tuning):
        calls.append(scales)
        return experiment(f, g, scales, **tuning)

    monkeypatch.setattr(verify, "continuity_experiment", recorded)
    assert _experiment(tmp_path, "scales=\n") in (0, 1)
    capsys.readouterr()
    assert calls == [[Fraction(1, 2**j) for j in range(15)]]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "abc", "seed must be an integer, not 'abc'"),
        ("pairs", "0", "pairs must be at least 1"),
        ("tail_count", "1.5", "tail_count must be an integer, not '1.5'"),
        ("precision", "abc", "malformed rational 'abc' (expected 'p' or 'p/q', q > 0)"),
        ("threshold", "0", "threshold must be positive"),
        ("variation_gap", "-1/2", "variation_gap must be positive"),
        ("perturbation_norm", "1/0", "malformed rational '1/0' (expected 'p' or 'p/q', q > 0)"),
        ("perturbation_norm", "0", "perturbation_norm must be positive"),
        ("scales", "1,1", "bad scales: they must be positive and strictly decreasing"),
        ("scales", "1,,1/2", "bad scales: malformed rational '' (expected 'p' or 'p/q', q > 0)"),
    ],
)
def test_experiment_value_errors_name_the_line(tmp_path, capsys, key, value, message):
    config = tmp_path / "exp.cfg"
    config.write_text(f"# a comment\n{key}={value}\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:2: {message}\n"


def test_experiment_rejects_zero_pairs(tmp_path, capsys):
    assert _experiment(tmp_path, "pairs=0\nscales=1,1/2\n") == 2
    _assert_one_line_error(capsys)


def test_experiment_rejects_zero_tail_count(tmp_path, capsys):
    assert _experiment(tmp_path, "tail_count=0\nscales=1,1/2\n") == 2
    _assert_one_line_error(capsys)


def test_experiment_default_perturbation_norm_is_one_eighth(tmp_path, capsys):
    keys = "seed=3\npairs=2\nscales=1,1/2,1/4\nthreshold=1/4\nvariation_gap=1/4\ntail_count=2\n"
    implicit = _experiment(tmp_path, keys)
    implicit_out = capsys.readouterr().out
    explicit = _experiment(tmp_path, keys + "perturbation_norm=1/8\n")
    assert implicit == explicit
    assert implicit_out == capsys.readouterr().out


def test_experiment_leaves_unset_keys_to_the_experiment_defaults(tmp_path, capsys, monkeypatch):
    # The defaults of precision, threshold, variation_gap and tail_count live
    # in the signature of continuity_experiment alone.
    from maxbv import verify

    calls = []
    experiment = verify.continuity_experiment

    def recorded(f, g, scales, **tuning):
        calls.append(tuning)
        return experiment(f, g, scales, **tuning)

    monkeypatch.setattr(verify, "continuity_experiment", recorded)
    assert _experiment(tmp_path, "scales=1,1/2\n") in (0, 1)
    assert _experiment(tmp_path, "scales=1,1/2\nthreshold=1/4\ntail_count=2\n") in (0, 1)
    capsys.readouterr()
    assert calls == [{}, {"threshold": Fraction(1, 4), "tail_count": 2}]


@pytest.mark.parametrize("command", ["var", "check"])
def test_precision_is_not_an_option(chi_file, capsys, command):
    # Variations of one maximal function and the invariant suite are exact;
    # only the experiment's distances take a precision, from its config.
    args = [command, "--precision", "1/10"]
    if command == "var":
        args += ["--file", chi_file, "--maximal"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --precision 1/10" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_decimal_needs_a_positive_digit_count(chi_file, capsys, digits):
    assert main(["eval", "--file", chi_file, "--x", "2", "--decimal", digits]) == 2
    assert "--decimal" in capsys.readouterr().err


@pytest.mark.parametrize("digits", ["1001", "4301", "100000000"])
def test_decimal_above_its_bound_is_bad_input_before_any_work(chi_file, capsys, digits):
    assert main(["eval", "--file", chi_file, "--x", "2", "--decimal", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --decimal: K must be at most 1000" in captured.err


def test_decimal_at_its_bound_renders(chi_file, capsys):
    assert main(["eval", "--file", chi_file, "--x", "3", "--decimal", "1000"]) == 0
    assert capsys.readouterr().out == "1/3 finite(0,3)\t0." + "3" * 1000 + "\n"


LONG_INT = "9" * 5000


def test_seeds_past_the_int_digit_limit_are_bad_input(capsys):
    assert main(["check", "--seeds", f"0:{LONG_INT}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --seeds '0:999")
    assert "internal error" not in captured.err


def test_config_int_past_the_digit_limit_names_its_line(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(f"seed=0\ntail_count={LONG_INT}\n", encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:2: tail_count has too many digits (5000)\n"


def test_point_past_the_int_digit_limit_is_bad_input(chi_file, capsys):
    assert main(["eval", "--file", chi_file, "--x", LONG_INT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("command", ["profile", "e-set", "check", "counterexample"])
def test_decimal_only_on_eval_and_var(chi_file, capsys, command):
    args = {"check": ["--seeds", "1"], "counterexample": ["--n", "3"]}.get(command, ["--file", chi_file])
    assert main([command, *args, "--decimal", "3"]) == 2
    assert "unrecognized arguments: --decimal 3" in capsys.readouterr().err


def test_internal_error_exits_3_with_one_line(chi_file, capsys, monkeypatch):
    import maxbv.envelope

    def broken(f):
        raise RuntimeError("profile engine broke")

    monkeypatch.setattr(maxbv.envelope, "build_profile", broken)
    assert main(["profile", "--file", chi_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: profile engine broke\n"
    assert "Traceback" not in captured.err


def test_readme_experiment_config_runs_as_written(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config", 1)[1]
    block = section.split("```\n", 2)[1]
    config = tmp_path / "exp.cfg"
    config.write_text(block, encoding="utf-8")
    assert main(["experiment", "--config", str(config)]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# verdict")]
    assert verdicts and verdicts == ["# verdict\tPASS"] * len(verdicts)


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("maxbv ")]
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            build_parser().parse_args(_merge_value_options(argv))
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")


def test_python_dash_m_maxbv_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "maxbv", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: maxbv")


# --- files are read and written as bytes, with text mode's newlines ---------


def _newlines(text: str, newline: str) -> bytes:
    return text.replace("\n", newline).encode("utf-8")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_files_read_as_lf(tmp_path, capsys, newline):
    # Text mode reads CR LF and a lone CR as LF; the bytes read does too, in
    # step-function files and in configs alike.
    f = StepFunction(Fraction(-1, 2), (0, 1, Fraction(5, 2)), (2, 0, 1), (1, -1, Fraction(1, 3)))
    g = StepFunction.indicator(-1, 2, Fraction(1, 4))
    outputs = {}
    for name, ending in (("lf", "\n"), ("other", newline)):
        paths = []
        for stem, h in (("f", f), ("g", g)):
            path = tmp_path / f"{stem}-{name}.txt"
            path.write_bytes(_newlines(serialize(h), ending))
            paths.append(path)
        config = tmp_path / f"exp-{name}.cfg"
        config.write_bytes(_newlines(
            f"# fixed pair\nfile={paths[0]}\nperturbation={paths[1]}\n\nscales=1,1/2,1/4\ntail_count=2\n", ending
        ))
        texts = []
        for argv in (
            ["profile", "--file", str(paths[0])],
            ["eval", "--file", str(paths[0]), "--x", "1/3"],
            ["var", "--maximal", "--file", str(paths[0])],
            ["e-set", "--file", str(paths[0])],
            ["experiment", "--config", str(config)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            texts.append((code, captured.out.replace(f"-{name}.", "."), captured.err))
        outputs[name] = texts
    assert outputs["other"] == outputs["lf"]
    assert all(code in (0, 1) and out and not err for code, out, err in outputs["lf"])


@pytest.mark.parametrize("command", ["eval", "experiment"])
def test_a_file_that_is_not_utf8_names_itself(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("stepfn/1\ntail 0\n# déjà\n".encode("latin-1"))
    argv = ["eval", "--file", str(path), "--x", "0"] if command == "eval" else ["experiment", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: not UTF-8 text\n")


def test_out_bytes_equal_stdout_bytes_for_every_golden_command(tmp_path, monkeypatch):
    # Each command line of tests/golden/cli.txt runs twice, once to stdout and
    # once with --out; the file holds the bytes stdout received, and the
    # transcript still matches the golden file.
    import test_golden

    run = test_golden._run
    out = tmp_path / "out.txt"
    commands = []

    def run_both(argv, labels):
        block, text = run(argv, labels)
        out.write_bytes(b"stale\n" * 4096)  # --out replaces what the file held
        assert main([*argv, "--out", str(out)]) == int(block.rsplit("[exit ", 1)[1][:-2])
        assert out.read_bytes() == text.encode("utf-8")
        commands.append(argv[0])
        return block, text

    monkeypatch.setattr(test_golden, "_run", run_both)
    assert test_golden._fresh(test_golden.transcript) == test_golden.GOLDEN.read_text(encoding="utf-8")
    assert set(commands) == {"profile", "e-set", "var", "eval", "counterexample", "experiment"}
