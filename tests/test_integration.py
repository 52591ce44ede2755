"""Cross-module integration tests: the full pipeline end to end,
including the paper-suite structure and the workflow-census behaviour
Figure 1b describes."""

import numpy as np
import pytest

from repro.analysis.concordance import compare_call_sets
from repro.analysis.upset import compute_upset
from repro.core.config import CallerConfig
from repro.io.bam import BamReader
from repro.io.fasta import FastaRecord, write_fasta, load_reference
from repro.io.regions import Region
from repro.io.vcf import read_vcf, write_vcf
from repro.pipeline import BamSource, Pipeline, ReadsSource, SampleSource
from repro.sim.datasets import paper_dataset_suite
from repro.sim.genome import random_genome
from repro.sim.haplotypes import random_panel
from repro.sim.reads import ReadSimulator


class TestFullPipelineOnDisk:
    """simulate -> BAM on disk -> call -> VCF on disk -> analyse."""

    def test_files_round_trip_through_pipeline(self, tmp_path):
        genome = random_genome(700, seed=55)
        panel = random_panel(
            genome.sequence, 5, freq_range=(0.08, 0.2), seed=56
        )
        sample = ReadSimulator(genome, panel, read_length=70).simulate(
            depth=250, seed=57
        )

        # Write everything through the real file formats.
        ref_path = tmp_path / "ref.fa"
        bam_path = tmp_path / "s.bam"
        vcf_path = tmp_path / "calls.vcf"
        write_fasta(ref_path, [genome])
        sample.write_bam(bam_path)

        reference = load_reference(ref_path)[genome.name]
        result = Pipeline(
            BamSource(bam_path, reference), config=CallerConfig.improved()
        ).run()
        write_vcf(
            vcf_path,
            [c.to_vcf_record() for c in result.calls],
            reference=[(genome.name, len(genome))],
        )

        _, records = read_vcf(vcf_path)
        called = {
            (r.pos, r.ref, r.alt) for r in records if r.filter == "PASS"
        }
        truth = {(v.pos, v.ref, v.alt) for v in panel}
        assert truth <= called

        # VCF INFO integrity.
        for r in records:
            assert r.info["DP"] > 0
            assert 0 < r.info["AF"] <= 1
            assert len(r.info["DP4"]) == 4

    def test_bam_header_survives(self, tmp_path):
        genome = random_genome(300, seed=60)
        sample = ReadSimulator(genome, read_length=50).simulate(30, seed=61)
        bam_path = tmp_path / "h.bam"
        sample.write_bam(bam_path)
        with BamReader(bam_path) as reader:
            assert reader.header.references == [(genome.name, len(genome))]
            assert reader.header.sort_order == "coordinate"


class TestPaperSuiteEndToEnd:
    """Scaled-down Figure 3: call the five datasets, intersect."""

    @pytest.fixture(scope="class")
    def suite_calls(self):
        suite = paper_dataset_suite(
            genome_length=800, depth_scale=400.0, panel_scale=15.0, seed=17
        )
        return {
            ds.label: (
                ds,
                Pipeline(
                    SampleSource(ds.sample), config=CallerConfig.improved()
                ).run(),
            )
            for ds in suite
        }

    def test_calls_track_truth_panels(self, suite_calls):
        for label, (ds, result) in suite_calls.items():
            truth = {("NC_045512.2-sim", v.pos, v.ref, v.alt) for v in ds.panel}
            called = result.keys()
            recall = len(truth & called) / len(truth)
            assert recall > 0.5, f"{label}: recall {recall:.2f}"

    def test_upset_core_recovered(self, suite_calls):
        """The two all-five core variants must be called everywhere."""
        sets = {label: r.keys() for label, (_, r) in suite_calls.items()}
        upset = compute_upset(sets)
        assert upset.shared_by_all() >= 2

    def test_improved_equals_original_on_all_five(self, suite_calls):
        for label, (ds, improved_result) in suite_calls.items():
            original_result = Pipeline(
                SampleSource(ds.sample), config=CallerConfig.original()
            ).run()
            report = compare_call_sets(
                improved_result.keys(), original_result.keys()
            )
            assert report.identical, f"{label}: {report.summary()}"


class TestWorkflowCensus:
    """Figure 1b as numbers: where do columns go at depth?"""

    def test_skip_dominates_at_depth(self, deep_sample):
        result = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.improved()
        ).run()
        stats = result.stats
        d = stats.decisions
        # At 1500x every column has candidates; the vast majority are
        # resolved by the approximation alone.
        assert stats.skip_fraction() > 0.8
        assert d.get("skipped_approx", 0) > 10 * d.get("exact_pruned", 0)

    def test_census_sums_to_tests_plus_short_circuits(self, deep_sample):
        result = Pipeline(
            SampleSource(deep_sample), config=CallerConfig.improved()
        ).run()
        d = result.stats.decisions
        allele_level = (
            d.get("skipped_approx", 0)
            + d.get("exact_pruned", 0)
            + d.get("exact_not_significant", 0)
            + d.get("called", 0)
            + d.get("rejected_filter", 0)
        )
        assert allele_level == result.stats.tests_run

    def test_timings_recorded(self, deep_sample):
        result = Pipeline(SampleSource(deep_sample)).run()
        assert result.stats.time_total > 0
        assert 0 < result.stats.time_stats <= result.stats.time_total


class TestMixedCigarPipeline:
    """Reads with clips and indels flow through SAM->pileup->caller."""

    def test_clipped_reads_still_call(self):
        genome = FastaRecord("g", "", "ACGT" * 100)
        seq = genome.sequence
        from repro.io.records import AlignedRead

        reads = []
        pos = 0
        rng = np.random.default_rng(3)
        for i in range(800):
            pos = int(rng.integers(0, 340))
            window = seq[pos : pos + 50]
            # Put a variant at genome position 200 in half the reads.
            if pos <= 200 < pos + 50 and rng.random() < 0.5:
                j = 200 - pos
                window = window[:j] + ("G" if window[j] != "G" else "T") + window[j + 1:]
            reads.append(
                AlignedRead(
                    qname=f"r{i}", flag=0, rname="g", pos=pos, mapq=60,
                    cigar=[(0, 50)], seq=window,
                    qual=np.full(50, 35, dtype=np.uint8),
                )
            )
        reads.sort(key=lambda r: r.pos)
        result = Pipeline(
            ReadsSource(reads, seq, Region("g", 0, 400)),
            config=CallerConfig.improved(),
        ).run()
        assert any(c.pos == 200 for c in result.passed)
