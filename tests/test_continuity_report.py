"""The continuity report on int pairs, against the enclosure readers.

``continuity_experiment`` keeps each distance's enclosure ends, each
variation and the base variation as int pairs, decides its verdicts on them
by cross-multiplication and prints them through ``format_pair``.  The oracle
here is the Fraction path: ``bv_distance`` and ``variation_of_profile`` on
the family's profiles, and the verdicts computed on the rows they give.
"""

import dataclasses
import io
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
def reports():
    return [(f, g, continuity_experiment(f, g, SCALES)) for f, g in _pairs()]


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
            assert (row.distance.lo is row.distance.hi) == (distance.lo is distance.hi)
            assert (row.variation.lo, row.variation.hi) == (variation.lo, variation.hi)
            wide += distance.lo < distance.hi
        # The readers are made once.
        assert report.rows is report.rows and report.base_variation is report.base_variation
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


def test_verdicts_equal_those_on_the_fraction_rows(reports):
    # Each report is read again with tail counts 1, 5 and 15 and with the
    # threshold and the variation gap at the exact largest value each verdict
    # compares, and just below it, so that every verdict falls both ways.
    negative = 0
    seen = set()
    for _, _, report in reports:
        negative += sum(den < 0 for _, den in (*report.variations, report.base))
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
    # Variation pairs with a negative den were compared, and each verdict
    # came out both ways.
    assert negative > 0
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
    raise AssertionError("an enclosure or a row was made")


def test_experiment_command_makes_no_enclosure_and_no_row(tmp_path, monkeypatch):
    # The golden continuity runs (file mode on the benchmark's kind of pairs,
    # every verdict PASS, some distances wide) and a random-mode run print
    # the same bytes, and exit 0, with both constructors made to fail.
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
    monkeypatch.setattr(env.VariationEnclosure, "__init__", _fail)
    monkeypatch.setattr(verify.ExperimentRow, "__init__", _fail)
    golden = test_golden.CONTINUITY.read_text(encoding="utf-8")
    assert "[exit 0]" in golden and "[exit 1]" not in golden
    assert test_golden._fresh(test_golden.continuity_transcript) == golden
    assert random_mode() == expected
    # The patches bite: a library caller's read of the rows makes both.
    with pytest.raises(AssertionError, match="an enclosure or a row was made"):
        continuity_experiment(random_stepfn(4), random_stepfn(5), SCALES).rows
