"""Frozen end-to-end outputs of the maxbv command line.

A fixed list of command lines runs in-process on seeded inputs (random
step functions with up to 9 breakpoints, so profile junctions fall away
from breakpoints too).  Their full text, the serialized inputs included, is
compared byte for byte with ``tests/golden/cli.txt``.  A second list runs
``experiment`` on fixed pairs whose BV distances have irrational critical
points, so their ``lo..hi`` enclosures hold the certified-variation path
byte for byte; it is compared with ``tests/golden/distances.txt``.  A
third runs ``experiment`` in file mode on ``conftest.bench_pairs()`` (n = 3,
5 and 8, g at BV norm 1/8) with the continuity workload's pinned config; it
is compared with ``tests/golden/continuity.txt``.  The invariant suite's default run, ``maxbv check --seeds 0:200``, is compared
with ``tests/golden/check.txt`` once, with ``envelope._tags`` made to
raise: on passing profiles the suite reads only their skeletons and makes
no tags.  A tag made inside a check would print a ``raised AssertionError``
FAIL row, so a run equal to the file made no tag, and the unpatched run
executes the same code.  Refresh the files
only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from maxbv.cli import main
from maxbv.stepfn import serialize
from maxbv.verify import random_stepfn
from conftest import bench_pairs

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
DISTANCES = Path(__file__).parent / "golden" / "distances.txt"
CHECK = Path(__file__).parent / "golden" / "check.txt"
CONTINUITY = Path(__file__).parent / "golden" / "continuity.txt"

# The continuity workload's pinned config: 15 scales 1 ... 2^-14, every key set.
CONTINUITY_SETTINGS = (
    "seed=0\npairs=1\nscales=" + ",".join(str(Fraction(1, 2**j)) for j in range(15)) + "\n"
    "precision=1/1000000000\nthreshold=1/1000\nvariation_gap=1/1000\ntail_count=5\nperturbation_norm=raw\n"
)

# Seeds of random_stepfn(seed, n_max=9) paired with random_stepfn(seed + 1000,
# n_max=9): 3 (seed 10, a FAIL verdict) and 4 (seed 30) of the six distances
# per run are non-degenerate enclosures.
DISTANCE_SEEDS = (10, 30)
DISTANCE_PRECISIONS = ("1/1000000000", "1/1000000000000000")

# Seeds of random_stepfn(seed, n_max=9) whose profiles have several pieces,
# most of them with junctions strictly between breakpoints; 69 is constant.
SEEDS = (1, 5, 10, 23, 53, 69, 126, 157)


def _run(argv, labels):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    shown = " ".join(labels.get(arg, arg) for arg in argv)
    return f"$ maxbv {shown}\n{out.getvalue()}[exit {code}]\n", out.getvalue()


def _points(profile_text, breakpoints):
    """Breakpoints, profile junctions, and the midpoints between them."""
    junctions = {Fraction(line.split("\t")[0]) for line in profile_text.splitlines()[1:]}
    marks = sorted(set(breakpoints) | junctions)
    return marks + [(s + t) / 2 for s, t in zip(marks, marks[1:])]


def transcript(workdir: Path) -> str:
    blocks = []
    labels = {}
    paths = {}
    for seed in SEEDS:
        f = random_stepfn(seed, n_max=9)
        path = workdir / f"f{seed}.txt"
        path.write_text(serialize(f), encoding="utf-8")
        labels[str(path)] = f"f{seed}"
        paths[seed] = str(path)
        blocks.append(f"# input f{seed}\n{serialize(f)}")
        file_args = ("--file", str(path))
        block, profile_text = _run(("profile", *file_args), labels)
        blocks.append(block)
        blocks.append(_run(("e-set", *file_args), labels)[0])
        blocks.append(_run(("var", "--maximal", *file_args), labels)[0])
        blocks.append(_run(("var", "--maximal", "--from", "-2", "--to", "7/3", *file_args), labels)[0])
        blocks.append(_run(("var", "--maximal", "--decimal", "6", *file_args), labels)[0])
        for x in _points(profile_text, f.breakpoints):
            blocks.append(_run(("eval", *file_args, "--x", str(x)), labels)[0])
        blocks.append(_run(("eval", *file_args, "--x", "1/3", "--decimal", "6"), labels)[0])
    for n in range(3, 7):
        blocks.append(_run(("counterexample", "--n", str(n)), labels)[0])
    # Every config key set explicitly: file mode, where seed, pairs and
    # perturbation_norm are accepted but inert, then the same keys in random
    # mode without file and perturbation.
    settings = (
        "seed=5\npairs=2\nscales=1,1/2,1/4,1/8,1/16,1/32\nprecision=1/1000000\n"
        "threshold=1/2\nvariation_gap=1/2\ntail_count=3\nperturbation_norm=1/8\n"
    )
    configs = {
        "file-mode.cfg": f"file={paths[23]}\nperturbation={paths[1]}\n{settings}",
        "random-mode.cfg": settings,
    }
    for name, text in configs.items():
        config = workdir / name
        config.write_text(text, encoding="utf-8")
        labels[str(config)] = name
        blocks.append(_run(("experiment", "--config", str(config)), labels)[0])
    return "".join(blocks)


def distance_transcript(workdir: Path) -> str:
    blocks = []
    labels = {}
    for seed in DISTANCE_SEEDS:
        paths = []
        for name, offset in ((f"f{seed}", 0), (f"g{seed}", 1000)):
            f = random_stepfn(seed + offset, n_max=9)
            path = workdir / f"{name}.txt"
            path.write_text(serialize(f), encoding="utf-8")
            labels[str(path)] = name
            paths.append(path)
            blocks.append(f"# input {name}\n{serialize(f)}")
        for precision in DISTANCE_PRECISIONS:
            config = workdir / f"distance-{seed}-{len(precision)}.cfg"
            config.write_text(
                f"file={paths[0]}\nperturbation={paths[1]}\n"
                "scales=1,1/2,1/4,1/8,1/16,1/32\n"
                f"precision={precision}\nthreshold=1/2\nvariation_gap=1/2\ntail_count=3\n",
                encoding="utf-8",
            )
            labels[str(config)] = f"f{seed}+g{seed}@{precision}"
            blocks.append(_run(("experiment", "--config", str(config)), labels)[0])
    return "".join(blocks)


def continuity_transcript(workdir: Path) -> str:
    blocks = []
    labels = {}
    for index, (f, g) in enumerate(bench_pairs()):
        paths = []
        for name, h in ((f"f{index}", f), (f"g{index}", g)):
            path = workdir / f"{name}.txt"
            path.write_text(serialize(h), encoding="utf-8")
            labels[str(path)] = name
            paths.append(path)
            blocks.append(f"# input {name}\n{serialize(h)}")
        config = workdir / f"continuity-{index}.cfg"
        config.write_text(f"file={paths[0]}\nperturbation={paths[1]}\n{CONTINUITY_SETTINGS}", encoding="utf-8")
        labels[str(config)] = f"f{index}+g{index}"
        blocks.append(_run(("experiment", "--config", str(config)), labels)[0])
    return "".join(blocks)


def check_transcript() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["check", "--seeds", "0:200"])
    return out.getvalue()


def _fresh(make) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return make(Path(tmp))


def test_cli_outputs_match_golden():
    assert _fresh(transcript) == GOLDEN.read_text(encoding="utf-8")


def test_irrational_distances_match_golden():
    assert _fresh(distance_transcript) == DISTANCES.read_text(encoding="utf-8")


def test_continuity_experiments_match_golden():
    assert _fresh(continuity_transcript) == CONTINUITY.read_text(encoding="utf-8")


def test_check_report_makes_no_tags(monkeypatch):
    # The invariant suite reads the profiles' skeletons, and a tag only to
    # name a failing piece; a check that made tags would report the error
    # as a FAIL.
    from maxbv import envelope

    def no_tags(*args):
        raise AssertionError("a tag was made")

    monkeypatch.setattr(envelope, "_tags", no_tags)
    assert check_transcript() == CHECK.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_fresh(transcript), encoding="utf-8")
    DISTANCES.write_text(_fresh(distance_transcript), encoding="utf-8")
    CONTINUITY.write_text(_fresh(continuity_transcript), encoding="utf-8")
    CHECK.write_text(check_transcript(), encoding="utf-8")
