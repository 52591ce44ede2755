"""Tests reproducing the legacy wrapper's inconsistency and the fix.

The bug needs *borderline* calls to bite: strand-biased artifact calls
whose SB score sits near the Holm cutoff, so that thresholds fitted to
different call subsets flip them.  Clean simulations never produce
those, so the fixture injects amplicon-style strand-biased artifacts
(exactly the failure mode LoFreq's SB filter targets on real data).
"""

import pytest

from repro.core.config import CallerConfig
from repro.core.filters import DynamicFilterPolicy
from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource
from repro.sim.genome import random_genome
from repro.sim.haplotypes import ArtifactSpec, random_panel
from repro.sim.reads import ReadSimulator


@pytest.fixture(scope="module")
def artifact_genome():
    return random_genome(2000, seed=201)


@pytest.fixture(scope="module")
def artifact_sample(artifact_genome):
    g = artifact_genome
    panel = random_panel(
        g.sequence, 10, freq_range=(0.03, 0.1), seed=1,
        exclude_positions={100, 600, 1100, 1600},
    )
    artifacts = [
        ArtifactSpec(p, "T" if g.sequence[p] != "T" else "G", rate)
        for p, rate in [(100, 0.04), (600, 0.05), (1100, 0.06), (1600, 0.045)]
    ]
    sim = ReadSimulator(g, panel, read_length=80, artifacts=artifacts)
    return sim.simulate(depth=500, seed=1)


class TestLegacyBug:
    def test_output_depends_on_partitioning(self, artifact_sample):
        """The defining symptom: different partition counts, different
        results (with everything else identical)."""
        results = {}
        for n in (1, 2, 4, 8):
            r = Pipeline(
                SampleSource(artifact_sample),
                config=CallerConfig.improved(),
                policy=ExecutionPolicy(mode="legacy", n_workers=n),
            ).run()
            results[n] = r.keys()
        distinct = {frozenset(k) for k in results.values()}
        assert len(distinct) > 1, (
            "expected the legacy pipeline to be partition-dependent; "
            f"got identical outputs of sizes {[len(v) for v in results.values()]}"
        )

    def test_openmp_mode_is_partition_independent(self, artifact_sample):
        """The fix: worker count and chunking never change the output,
        even on the artifact-laden sample that trips the legacy mode."""
        outputs = set()
        for n in (1, 2, 4, 8):
            policy = ExecutionPolicy(
                mode="thread", n_workers=n, chunk_columns=100 + n
            )
            r = Pipeline(SampleSource(artifact_sample), policy=policy).run()
            outputs.add(frozenset(r.keys()))
        assert len(outputs) == 1

    def test_openmp_matches_single_process(self, artifact_sample):
        single = Pipeline(
            SampleSource(artifact_sample), config=CallerConfig.improved()
        ).run()
        policy = ExecutionPolicy(mode="thread", n_workers=4, chunk_columns=256)
        par = Pipeline(SampleSource(artifact_sample), policy=policy).run()
        assert par.keys() == single.keys()

    def test_legacy_diverges_from_single_process(self, artifact_sample):
        """At 4+ partitions the legacy output loses calls the correct
        single-pass pipeline keeps."""
        single = Pipeline(
            SampleSource(artifact_sample), config=CallerConfig.improved()
        ).run()
        legacy4 = Pipeline(
            SampleSource(artifact_sample),
            policy=ExecutionPolicy(mode="legacy", n_workers=4),
        ).run()
        assert legacy4.keys() != single.keys()

    def test_legacy_single_partition_matches_single_run(self, sample):
        """n=1: both filter stages see the same call set, so the double
        filter degenerates to the correct result."""
        one = Pipeline(
            SampleSource(sample), policy=ExecutionPolicy(mode="legacy", n_workers=1)
        ).run()
        single = Pipeline(SampleSource(sample)).run()
        assert one.keys() == single.keys()

    def test_custom_policy_threads_through(self, sample):
        policy = DynamicFilterPolicy(sb_alpha=0.5, holm=False)
        r = Pipeline(
            SampleSource(sample),
            filter_policy=policy,
            policy=ExecutionPolicy(mode="legacy", n_workers=2),
        ).run()
        assert isinstance(r.keys(), set)


class TestArtifactSimulation:
    """The strand-biased artifact mechanism itself."""

    def test_artifact_shows_only_on_one_strand(self, artifact_sample):
        from repro.io.regions import Region
        from repro.pileup.column import BASE_TO_CODE
        from repro.pileup.vectorized import pileup_sample

        g = artifact_sample.genome
        (col,) = list(
            pileup_sample(artifact_sample, Region(g.name, 600, 601))
        )
        alt = "T" if g.sequence[600] != "T" else "G"
        fwd, rev = col.strand_counts(BASE_TO_CODE[alt])
        assert fwd >= 5
        # Reverse strand shows at most stray sequencing errors.
        assert rev <= 2

    def test_artifact_validation(self):
        with pytest.raises(ValueError):
            ArtifactSpec(10, "T", 0.0)
        with pytest.raises(ValueError):
            ArtifactSpec(-1, "T", 0.1)
        with pytest.raises(ValueError):
            ArtifactSpec(10, "X", 0.1)

    def test_artifact_beyond_genome_rejected(self, artifact_genome):
        with pytest.raises(ValueError, match="beyond"):
            ReadSimulator(
                artifact_genome, artifacts=[ArtifactSpec(99_999, "T", 0.1)]
            )

    def test_sb_filter_catches_strong_artifact(self):
        """A hard one-strand artifact gets called significant but then
        filtered by strand bias -- the filter doing its job."""
        g = random_genome(500, seed=300)
        pos = 250
        alt = "T" if g.sequence[pos] != "T" else "G"
        sim = ReadSimulator(
            g, artifacts=[ArtifactSpec(pos, alt, 0.15)], read_length=80
        )
        sample = sim.simulate(depth=600, seed=3)
        result = Pipeline(SampleSource(sample)).run()
        artifact_calls = [c for c in result.calls if c.pos == pos]
        assert artifact_calls, "artifact should be significant pre-filter"
        assert all("sb" in c.filter for c in artifact_calls)
