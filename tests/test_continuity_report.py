"""The continuity report on int pairs, against the enclosure readers.

``continuity_experiment`` keeps the enclosures of its distances and
variations, decides its verdicts on their int pairs by cross-multiplication
and prints them with ``str``.  The oracle here is the Fraction path:
``bv_distance`` and ``variation_of_profile`` on the family's profiles, read
through their ``lo`` and ``hi``, and the verdicts computed on the rows they
give.
"""

import dataclasses
import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import maxbv.envelope as env
import maxbv.stepfn as sf
import maxbv.verify as verify
from maxbv.cli import main
from maxbv.exact import format_rat
from maxbv.envelope import PerturbationFamily, build_profile, bv_distance, variation_of_profile
from maxbv.verify import continuity_experiment, random_stepfn
from conftest import bench_pairs

SCALES = [Fraction(1, 2**j) for j in range(15)]


def _pairs():
    """The benchmark's kind of pairs (n = 3, 5, 8), random corpus pairs, and
    a pair whose distances have irrational peaks (wide enclosures)."""
    yield from bench_pairs(3)
    for seed in range(0, 24, 2):
        yield random_stepfn(seed), random_stepfn(seed + 1)
    yield random_stepfn(10, n_max=9), random_stepfn(1010, n_max=9)


@pytest.fixture(scope="module")
def walked():
    """The reports, and the den of every sum ``_sum_at_turns`` gave while
    they were made."""
    sum_at_turns, dens = env._sum_at_turns, []

    def recorded(turns):
        total = sum_at_turns(turns)
        dens.append(total[1])
        return total

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(env, "_sum_at_turns", recorded)
        reports = [(f, g, continuity_experiment(f, g, SCALES)) for f, g in _pairs()]
    return reports, dens


@pytest.fixture(scope="module")
def reports(walked):
    return walked[0]


def test_rows_equal_the_enclosure_readers(reports):
    wide = 0
    for f, g, report in reports:
        profile_f = build_profile(f)
        family = PerturbationFamily(f, g)
        base = variation_of_profile(profile_f)
        assert (report.base_variation.lo, report.base_variation.hi) == (base.lo, base.hi)
        assert [row.scale for row in report.rows] == SCALES
        norm = sf.bv_norm(g)
        for index, (scale, row) in enumerate(zip(SCALES, report.rows), start=1):
            profile_j = family.profile(scale)
            distance = bv_distance(profile_j, profile_f)
            variation = variation_of_profile(profile_j)
            assert row.index == index
            assert row.delta_norm == scale * norm
            assert (row.distance.lo, row.distance.hi) == (distance.lo, distance.hi)
            assert (row.distance.lo_pair is row.distance.hi_pair) == (distance.lo_pair is distance.hi_pair)
            assert (row.variation.lo, row.variation.hi) == (variation.lo, variation.hi)
            wide += distance.lo < distance.hi
        # The rows are made once.
        assert report.rows is report.rows
    assert wide > 0


def _fraction_verdicts(report):
    """The three verdicts on the Fraction rows, as the report computed them
    before it kept int pairs."""
    rows, tail = report.rows, report.rows[-report.tail_count:]
    base = report.base_variation
    return (
        rows[-1].distance.hi <= report.threshold,
        all(second.distance.lo <= first.distance.hi for first, second in zip(tail, tail[1:])),
        all(abs(row.variation.lo - base.lo) <= report.variation_gap for row in tail),
    )


def test_verdicts_equal_those_on_the_fraction_rows(walked):
    # Each report is read again with tail counts 1, 5 and 15 and with the
    # threshold and the variation gap at the exact largest value each verdict
    # compares, and just below it, so that every verdict falls both ways.
    reports, dens = walked
    seen = set()
    for _, _, report in reports:
        for enclosure in (*report.distances, *report.variations, report.base_variation):
            for num, den in (enclosure.lo_pair, enclosure.hi_pair):
                assert den > 0 and math.gcd(num, den) == 1
        for tail_count in (1, 5, 15):
            tail = report.rows[-tail_count:]
            hi = report.rows[-1].distance.hi
            gap = max(abs(row.variation.lo - report.base_variation.lo) for row in tail)
            for threshold, variation_gap in (
                (report.threshold, report.variation_gap),
                (hi, gap),
                (hi - Fraction(1, 10**30), gap - Fraction(1, 10**30)),
            ):
                variant = dataclasses.replace(
                    report, tail_count=tail_count, threshold=threshold, variation_gap=variation_gap
                )
                verdicts = (
                    variant.final_distance_ok,
                    variant.distance_eventually_nonincreasing,
                    variant.variation_converged,
                )
                assert verdicts == _fraction_verdicts(variant)
                assert variant.passed == all(verdicts)
                seen.update(enumerate(verdicts))
    # The walks summed pairs with a negative den, which the enclosures put
    # in lowest terms with den > 0 before a verdict compared them, and each
    # verdict came out both ways.
    assert any(den < 0 for den in dens)
    assert seen == {(k, v) for k in range(3) for v in (False, True)}


def test_tsv_prints_the_rows_as_their_enclosures_print(reports):
    for _, _, report in reports:
        lines = report.to_tsv().splitlines()[1 : 1 + len(SCALES)]
        base = str(report.base_variation)
        for line, row in zip(lines, report.rows, strict=True):
            fields = (
                str(row.index), format_rat(row.scale), format_rat(row.delta_norm),
                str(row.distance), str(row.variation), base,
            )
            assert line == "\t".join(fields)


def _fail(*args, **kwargs):
    raise AssertionError("a row or a Fraction view was made")


def test_experiment_command_makes_no_row_and_reads_no_fraction_view(tmp_path, monkeypatch):
    # The golden continuity runs (file mode on the benchmark's kind of pairs,
    # every verdict PASS, some distances wide) and a random-mode run print
    # the same bytes, and exit 0, with the rows' constructor and every
    # Fraction view of an enclosure made to fail.
    import test_golden

    config = tmp_path / "random.cfg"
    config.write_text("seed=3\npairs=4\nthreshold=1\nvariation_gap=1\n", encoding="utf-8")

    def random_mode():
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["experiment", "--config", str(config)])
        return code, out.getvalue()

    expected = random_mode()
    assert expected[0] == 0
    for view in ("lo", "hi", "width", "midpoint"):
        monkeypatch.setattr(env.VariationEnclosure, view, property(_fail))
    monkeypatch.setattr(verify.ExperimentRow, "__init__", _fail)
    golden = test_golden.CONTINUITY.read_text(encoding="utf-8")
    assert "[exit 0]" in golden and "[exit 1]" not in golden
    assert test_golden._fresh(test_golden.continuity_transcript) == golden
    assert random_mode() == expected
    # The patches bite: a library caller's read of the rows, or of an
    # enclosure's ends, makes them.
    report = continuity_experiment(random_stepfn(4), random_stepfn(5), SCALES)
    with pytest.raises(AssertionError, match="a row or a Fraction view was made"):
        report.rows
    with pytest.raises(AssertionError, match="a row or a Fraction view was made"):
        report.distances[0].hi
