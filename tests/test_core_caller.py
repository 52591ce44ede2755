"""End-to-end caller tests: sensitivity, specificity and the paper's
headline equivalence claim."""

import pytest

from repro.core.config import CallerConfig
from repro.io.regions import Region
from repro.pipeline import BamSource, Pipeline, ReadsSource, SampleSource


class TestRecovery:
    def test_recovers_panel_at_depth(self, sample, panel):
        result = Pipeline(SampleSource(sample), config=CallerConfig.improved()).run()
        called = {(c.pos, c.ref, c.alt) for c in result.passed}
        truth = {(v.pos, v.ref, v.alt) for v in panel}
        # 5-20% variants at 200x: all recoverable.
        assert truth <= called

    def test_no_false_positives_on_null(self, null_sample):
        result = Pipeline(
            SampleSource(null_sample), config=CallerConfig.improved()
        ).run()
        assert result.passed == []

    def test_original_no_false_positives_on_null(self, null_sample):
        result = Pipeline(
            SampleSource(null_sample), config=CallerConfig.original()
        ).run()
        assert result.passed == []

    def test_call_fields_consistent(self, sample):
        result = Pipeline(SampleSource(sample)).run()
        for call in result.passed:
            assert 0 < call.alt_count <= call.depth
            assert call.af == pytest.approx(call.alt_count / call.depth)
            assert call.pvalue <= call.corrected_pvalue <= 1.0
            rf, rr, af_, ar = call.dp4
            assert af_ + ar == call.alt_count
            assert call.quality > 0

    def test_calls_sorted_by_position(self, sample):
        result = Pipeline(SampleSource(sample)).run()
        positions = [c.pos for c in result.calls]
        assert positions == sorted(positions)


class TestEquivalenceClaim:
    """Table I: 'the number of variants called was identical between
    versions' -- here strengthened to identical call *sets*."""

    def test_identical_at_200x(self, sample):
        improved = Pipeline(SampleSource(sample), config=CallerConfig.improved()).run()
        original = Pipeline(SampleSource(sample), config=CallerConfig.original()).run()
        assert improved.keys() == original.keys()

    def test_identical_at_1500x(self, deep_sample):
        improved = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.improved()
        ).run()
        original = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.original()
        ).run()
        assert improved.keys() == original.keys()
        # And the approximation must actually have fired at this depth.
        assert improved.stats.exact_skipped > 0

    def test_improved_does_less_dp_work(self, deep_sample):
        improved = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.improved()
        ).run()
        original = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.original()
        ).run()
        # Most allele tests are resolved without invoking the DP at
        # all (the called columns still run it in full, in both modes).
        assert improved.stats.dp_invocations < original.stats.dp_invocations / 5
        assert improved.stats.dp_steps < original.stats.dp_steps

    def test_zero_margin_still_subset(self, deep_sample):
        """Even with margin 0 (no safety margin at all) the improved
        caller can only lose calls, never gain."""
        aggressive = Pipeline(
            SampleSource(deep_sample),
            config=CallerConfig.improved(approx_margin=0.0),
        ).run()
        original = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.original()
        ).run()
        assert aggressive.keys() <= original.keys()


class TestSubstrates:
    """The same sample through every input path gives the same calls."""

    def test_reads_path_matches_sample_path(self, sample, genome, whole_region):
        via_sample = Pipeline(SampleSource(sample)).run()
        via_reads = Pipeline(
            ReadsSource(sample.reads(), genome.sequence, whole_region)
        ).run()
        assert via_sample.keys() == via_reads.keys()

    def test_bam_path_matches_sample_path(self, sample, genome, tmp_path):
        bam = tmp_path / "sample.bam"
        sample.write_bam(bam)
        via_sample = Pipeline(SampleSource(sample)).run()
        via_bam = Pipeline(BamSource(bam, genome.sequence)).run()
        assert via_sample.keys() == via_bam.keys()

    def test_region_restriction(self, sample, genome, panel):
        positions = sorted(v.pos for v in panel)
        mid = positions[len(positions) // 2]
        region = Region(genome.name, 0, mid)
        result = Pipeline(SampleSource(sample, region=region)).run()
        assert all(c.pos < mid for c in result.passed)
        truth_in_region = {
            (v.pos, v.ref, v.alt) for v in panel if v.pos < mid
        }
        assert truth_in_region <= {(c.pos, c.ref, c.alt) for c in result.passed}

    def test_region_restriction_uses_region_bonferroni(self, sample, genome):
        """Smaller regions mean fewer tests -> looser threshold; the
        caller must use the region length, not the genome length."""
        region = Region(genome.name, 0, 100)
        config = CallerConfig(bonferroni=None)
        assert config.corrected_alpha(len(region)) == pytest.approx(
            0.05 / 300
        )


class TestFilters:
    def test_filter_stage_annotates(self, sample):
        from repro.core.filters import DynamicFilterPolicy

        result = Pipeline(
            SampleSource(sample),
            filter_policy=DynamicFilterPolicy(min_depth=10_000),
        ).run()
        # Everything fails min_dp at 200x.
        assert result.passed == []
        assert all("min_dp" in c.filter for c in result.calls)

    def test_no_filter_policy(self, sample):
        result = Pipeline(SampleSource(sample), filter_policy=None).run()
        assert all(c.filter == "PASS" for c in result.calls)
