"""Tests for the accuracy-scoring module."""

import pytest

from repro.analysis.accuracy import frequency_band_recall, score_calls
from repro.core.config import CallerConfig
from repro.core.results import VariantCall
from repro.pipeline import Pipeline, SampleSource
from repro.sim.haplotypes import VariantPanel, VariantSpec


def make_call(pos, ref="A", alt="T", filter="PASS"):
    return VariantCall(
        chrom="c", pos=pos, ref=ref, alt=alt, pvalue=1e-9,
        corrected_pvalue=1e-5, depth=100, alt_count=5, af=0.05,
        dp4=(45, 45, 3, 2), strand_bias=1.0, filter=filter,
    )


@pytest.fixture
def truth_panel():
    return VariantPanel(
        [
            VariantSpec(10, "A", "T", 0.005),
            VariantSpec(20, "A", "T", 0.03),
            VariantSpec(30, "A", "T", 0.10),
            VariantSpec(40, "A", "T", 0.50),
        ]
    )


class TestScoreCalls:
    def test_perfect_calls(self, truth_panel):
        calls = [make_call(p) for p in (10, 20, 30, 40)]
        report = score_calls(calls, truth_panel)
        assert report.n_tp == 4
        assert report.n_fp == 0
        assert report.n_fn == 0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_mixed_calls(self, truth_panel):
        calls = [make_call(10), make_call(20), make_call(99)]
        report = score_calls(calls, truth_panel)
        assert report.n_tp == 2
        assert report.n_fp == 1
        assert report.n_fn == 2
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(0.5)

    def test_alt_allele_must_match(self, truth_panel):
        calls = [make_call(10, alt="G")]  # right position, wrong allele
        report = score_calls(calls, truth_panel)
        assert report.n_tp == 0
        assert report.n_fp == 1

    def test_non_pass_calls_ignored(self, truth_panel):
        calls = [make_call(10, filter="sb")]
        report = score_calls(calls, truth_panel)
        assert report.n_tp == 0
        assert report.n_fn == 4

    def test_empty_everything(self):
        report = score_calls([], VariantPanel())
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_no_calls_nonempty_truth(self, truth_panel):
        report = score_calls([], truth_panel)
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_summary_text(self, truth_panel):
        text = score_calls([make_call(10)], truth_panel).summary()
        assert "TP=1" in text and "FN=3" in text


class TestFrequencyBands:
    def test_band_assignment(self, truth_panel):
        calls = [make_call(10), make_call(30)]
        bands = frequency_band_recall(calls, truth_panel)
        assert bands[(0.0, 0.01)] == (1, 1)     # the 0.5% variant
        assert bands[(0.01, 0.05)] == (0, 1)    # 3% missed
        assert bands[(0.05, 0.20)] == (1, 1)    # 10% hit
        assert bands[(0.20, 1.01)] == (0, 1)    # 50% missed

    def test_custom_bands(self, truth_panel):
        bands = frequency_band_recall(
            [], truth_panel, bands=[(0.0, 1.01)]
        )
        assert bands[(0.0, 1.01)] == (0, 4)


class TestEndToEndAccuracy:
    def test_caller_scores_well_on_its_regime(self, sample, panel):
        result = Pipeline(SampleSource(sample), config=CallerConfig.improved()).run()
        report = score_calls(result.calls, panel)
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_recall_improves_with_depth(self, genome):
        """More depth, more low-frequency sensitivity -- the premise of
        ultra-deep sequencing (paper Introduction)."""
        from repro.sim.haplotypes import random_panel
        from repro.sim.reads import ReadSimulator

        panel = random_panel(
            genome.sequence, 12, freq_range=(0.004, 0.02), seed=31
        )
        sim = ReadSimulator(genome, panel, read_length=80)
        recalls = []
        for depth in (100, 600, 3000):
            result = Pipeline(
                SampleSource(sim.simulate(depth, seed=32)),
                config=CallerConfig.improved(),
            ).run()
            recalls.append(score_calls(result.calls, panel).recall)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] > recalls[0]
        assert recalls[2] > 0.8
