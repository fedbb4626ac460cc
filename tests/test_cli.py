import subprocess
import sys

import pytest

from maxbv.cli import main
from maxbv.stepfn import StepFunction, serialize


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "maxbv.cli", *args], capture_output=True, text=True
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


def test_check_seed_range(tmp_path):
    code, out, _ = run_cli(["check", "--seeds", "5:12"])
    assert code == 0 and "# verdict\tPASS" in out


@pytest.mark.parametrize(
    "seeds",
    [
        "300042:300044",  # finite_difference: x = 38/7 lies 43/3052 < 2^-6 left of the junction 2373/436
        "100095:100097",  # local_variation_bound: the window (-15/4, 23/4) ends on a breakpoint
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


def test_counterexample_command(capsys):
    assert main(["counterexample", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n").splitlines()[-1] == "Var(P_4) >= 2 : PASS"


def test_counterexample_bad_n(capsys):
    assert main(["counterexample", "--n", "2"]) == 2


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


@pytest.mark.parametrize("scales", ["1,1", "1/2,1", "1,0", "-1"])
def test_experiment_rejects_bad_scales(tmp_path, capsys, scales):
    assert _experiment(tmp_path, f"scales={scales}\n") == 2
    _assert_one_line_error(capsys)


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


@pytest.mark.parametrize("command", ["var", "check"])
def test_zero_precision_is_bad_input(chi_file, capsys, command):
    args = [command, "--precision", "0"]
    if command == "var":
        args += ["--file", chi_file, "--maximal"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "precision must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_decimal_needs_a_positive_digit_count(chi_file, capsys, digits):
    assert main(["eval", "--file", chi_file, "--x", "2", "--decimal", digits]) == 2
    assert "--decimal" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["profile", "e-set", "check", "counterexample"])
def test_decimal_only_on_eval_and_var(chi_file, capsys, command):
    args = {"check": ["--seeds", "1"], "counterexample": ["--n", "3"]}.get(command, ["--file", chi_file])
    assert main([command, *args, "--decimal", "3"]) == 2
    assert "unrecognized arguments: --decimal 3" in capsys.readouterr().err
