"""Tests for the OpenMP-style parallel driver: the correctness
guarantee is exact equivalence with a single-process run, for every
scheduler, worker count and backend."""

import bisect
import dataclasses
import time

import pytest

from repro.core.config import CallerConfig
from repro.parallel.trace import Category, Tracer, imbalance_metrics
from repro.pipeline import BamSource, ExecutionPolicy, Pipeline, SampleSource


@pytest.fixture(scope="module")
def single_result(sample):
    return Pipeline(SampleSource(sample), config=CallerConfig.improved()).run()


#: The chunked parallel-for the grid compares against a serial run.
THREADS = ExecutionPolicy(mode="thread", n_workers=4, chunk_columns=256)


class TestEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4, 7])
    def test_matches_single_process_thread_backend(
        self, sample, single_result, n_workers
    ):
        policy = dataclasses.replace(THREADS, n_workers=n_workers)
        result = Pipeline(SampleSource(sample), policy=policy).run()
        assert result.keys() == single_result.keys()

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_matches_for_every_schedule(self, sample, single_result, schedule):
        policy = dataclasses.replace(THREADS, n_workers=3, schedule=schedule)
        result = Pipeline(SampleSource(sample), policy=policy).run()
        assert result.keys() == single_result.keys()

    def test_matches_serial_backend(self, sample, single_result):
        policy = ExecutionPolicy(mode="serial", chunk_columns=256)
        result = Pipeline(SampleSource(sample), policy=policy).run()
        assert result.keys() == single_result.keys()

    def test_matches_process_backend(self, sample, single_result):
        policy = ExecutionPolicy(mode="process", n_workers=3, chunk_columns=256)
        result = Pipeline(SampleSource(sample), policy=policy).run()
        assert result.keys() == single_result.keys()

    def test_chunk_size_does_not_matter(self, sample, single_result):
        for chunk in (64, 256, 1024):
            policy = dataclasses.replace(THREADS, chunk_columns=chunk)
            result = Pipeline(SampleSource(sample), policy=policy).run()
            assert result.keys() == single_result.keys()

    def test_original_config_also_equivalent(self, sample):
        config = CallerConfig.original()
        single = Pipeline(SampleSource(sample), config=config).run()
        parallel = Pipeline(
            SampleSource(sample), config=config, policy=THREADS
        ).run()
        assert parallel.keys() == single.keys()


class TestBamSource:
    def test_bam_parallel_matches_single(self, sample, genome, tmp_path):
        bam = tmp_path / "p.bam"
        sample.write_bam(bam)
        single = Pipeline(
            BamSource(bam, genome.sequence),
            config=CallerConfig(engine="streaming"),
        ).run()
        for engine in ("streaming", "batched"):
            for mode in ("thread", "process"):
                policy = ExecutionPolicy(
                    mode=mode, n_workers=3, chunk_columns=256
                )
                result = Pipeline(
                    BamSource(str(bam), genome.sequence),
                    config=CallerConfig(engine=engine),
                    policy=policy,
                ).run()
                assert result.keys() == single.keys(), (engine, mode)

    def test_bam_source_traces_decompression(self, sample, genome, tmp_path):
        bam = tmp_path / "t.bam"
        sample.write_bam(bam)
        tracer = Tracer()
        Pipeline(
            BamSource(str(bam), genome.sequence),
            policy=dataclasses.replace(THREADS, n_workers=2),
            tracer=tracer,
        ).run()
        cats = {e.category for e in tracer.events}
        assert Category.DECOMPRESS in cats
        assert Category.BAM_ITER in cats
        assert Category.PROB in cats

    def test_streaming_trace_is_disjoint(self, sample, genome, tmp_path):
        """Under the streaming engine every column is pulled outside
        the probability spans: no DECOMPRESS or BAM_ITER event starts
        inside a PROB event of the same worker, so the reported busy
        time never exceeds the run's wall time."""
        bam = tmp_path / "d.bam"
        sample.write_bam(bam)
        tracer = Tracer()
        t0 = time.perf_counter()
        Pipeline(
            BamSource(str(bam), genome.sequence),
            config=CallerConfig(engine="streaming"),
            tracer=tracer,
        ).run()
        wall = time.perf_counter() - t0
        events = tracer.events
        prob = sorted(
            (e.start, e.end)
            for e in events
            if e.category is Category.PROB and e.worker == 0
        )
        pulls = [
            e
            for e in events
            if e.category in (Category.DECOMPRESS, Category.BAM_ITER)
        ]
        assert prob and pulls
        assert {e.worker for e in events} == {0}
        starts = [start for start, _ in prob]
        for e in pulls:
            i = bisect.bisect_right(starts, e.start) - 1
            assert i < 0 or e.start >= prob[i][1], e
        assert imbalance_metrics(events)["busy_max"] <= wall


class TestStatsAndTrace:
    def test_stats_merged_across_workers(self, sample, single_result):
        result = Pipeline(SampleSource(sample), policy=THREADS).run()
        assert result.stats.columns_seen == single_result.stats.columns_seen
        assert result.stats.tests_run == single_result.stats.tests_run

    def test_trace_covers_all_workers(self, sample):
        tracer = Tracer()
        Pipeline(SampleSource(sample), policy=THREADS, tracer=tracer).run()
        workers = {e.worker for e in tracer.events}
        assert workers == {0, 1, 2, 3}
        metrics = imbalance_metrics(tracer.events)
        assert metrics["imbalance"] >= 1.0
        assert 0.0 < metrics["share_prob"] <= 1.0
