"""Streaming vs batched engine equivalence.

The batched engine's contract (ISSUE: "only false negatives vs. the
original, byte-for-byte") is that swapping ``engine="batched"`` in
changes *nothing* observable: identical call records (down to the raw
p-values), identical VCF bytes, identical :class:`RunStats` decision
censuses -- across datasets, both ``use_approximation`` settings, the
depth cap, and the parallel driver.
"""

import dataclasses

import pytest

from repro.core import CallerConfig, VariantCaller
from repro.io.vcf import write_vcf
from repro.pileup.engine import PileupConfig
from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource
from repro.sim.genome import random_genome, sars_cov_2_like
from repro.sim.haplotypes import VariantPanel, random_panel
from repro.sim.reads import ReadSimulator


def _dataset(kind):
    """Three structurally different simulated datasets."""
    if kind == "shallow":
        # Below approx_min_depth everywhere: screening never engages.
        genome = random_genome(900, gc_content=0.45, name="chrS", seed=5)
        panel = random_panel(genome.sequence, 6, freq_range=(0.05, 0.2), seed=6)
        sample = ReadSimulator(genome, panel, read_length=80).simulate(
            depth=60, seed=7
        )
    elif kind == "deep":
        # Deep enough that most tests resolve in the screening pass.
        genome = sars_cov_2_like(length=600, seed=15)
        panel = random_panel(
            genome.sequence, 8, freq_range=(0.02, 0.1), seed=16
        )
        sample = ReadSimulator(genome, panel, read_length=100).simulate(
            depth=1200, seed=17
        )
    elif kind == "null":
        # No true variants: every candidate is sequencing error.
        genome = random_genome(700, gc_content=0.5, name="chrN", seed=25)
        sample = ReadSimulator(
            genome, VariantPanel(), read_length=80
        ).simulate(depth=400, seed=27)
    else:  # pragma: no cover - guard against fixture typos
        raise ValueError(kind)
    return sample


@pytest.fixture(scope="module", params=["shallow", "deep", "null"])
def dataset(request):
    return _dataset(request.param)


def call_tuple(c):
    """Every observable field of a VariantCall, for exact comparison."""
    return dataclasses.astuple(c)


def assert_equivalent(streaming, batched):
    assert [call_tuple(c) for c in streaming.calls] == [
        call_tuple(c) for c in batched.calls
    ]
    s, b = streaming.stats, batched.stats
    assert s.decisions == b.decisions
    assert s.columns_seen == b.columns_seen
    assert s.tests_run == b.tests_run
    assert s.dp_invocations == b.dp_invocations
    assert s.dp_steps == b.dp_steps
    assert s.approx_invocations == b.approx_invocations
    assert s.exact_skipped == b.exact_skipped


@pytest.mark.parametrize("use_approximation", [True, False])
def test_engines_identical(dataset, use_approximation):
    streaming = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(
            use_approximation=use_approximation, engine="streaming"
        ),
    ).run()
    batched = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(use_approximation=use_approximation, engine="batched"),
    ).run()
    assert_equivalent(streaming, batched)


@pytest.mark.parametrize("use_approximation", [True, False])
def test_engines_identical_merge_mapq(dataset, use_approximation):
    """The merged (base x mapping) quality model runs columnar in the
    batched engine (no per-column fallback since PR 4); its calls and
    censuses must still match the streaming engine byte-for-byte."""
    streaming = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(
            use_approximation=use_approximation,
            merge_mapq=True,
            engine="streaming",
        ),
    ).run()
    batched = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(
            use_approximation=use_approximation,
            merge_mapq=True,
            engine="batched",
        ),
    ).run()
    assert_equivalent(streaming, batched)


@pytest.mark.parametrize("use_approximation", [True, False])
def test_engines_identical_at_depth_cap(dataset, use_approximation):
    """With a tight max_depth the columns are capped; both engines must
    consume the capped columns identically (n_capped is a pileup
    property, so calls and censuses still match exactly)."""
    pileup_config = PileupConfig(max_depth=40)
    streaming = Pipeline(
        SampleSource(dataset, pileup_config=pileup_config),
        config=CallerConfig(
            use_approximation=use_approximation, engine="streaming"
        ),
    ).run()
    batched = Pipeline(
        SampleSource(dataset, pileup_config=pileup_config),
        config=CallerConfig(use_approximation=use_approximation, engine="batched"),
    ).run()
    assert_equivalent(streaming, batched)
    # The cap genuinely engaged somewhere on every dataset (all are
    # deeper than 40x on average), so this is not a vacuous check.
    from repro.pileup.vectorized import pileup_sample

    columns = list(pileup_sample(dataset, config=pileup_config))
    assert any(c.n_capped > 0 for c in columns)
    assert all(c.depth <= 40 for c in columns)


def test_vcf_bytes_identical(tmp_path, dataset):
    paths = {}
    for engine in ("streaming", "batched"):
        result = Pipeline(
            SampleSource(dataset), config=CallerConfig(engine=engine)
        ).run()
        path = tmp_path / f"{engine}.vcf"
        write_vcf(
            path,
            [c.to_vcf_record() for c in result.calls],
            reference=[(dataset.genome.name, len(dataset.genome))],
        )
        paths[engine] = path
    assert paths["streaming"].read_bytes() == paths["batched"].read_bytes()


def test_batched_engine_under_parallel_driver():
    """config.engine dispatches per chunk inside the parallel driver;
    the merged result must match the streaming parallel run exactly."""
    dataset = _dataset("deep")
    results = {}
    for engine in ("streaming", "batched"):
        results[engine] = Pipeline(
            SampleSource(dataset),
            config=CallerConfig(engine=engine),
            policy=ExecutionPolicy(mode="thread", n_workers=2, chunk_columns=128),
        ).run()
    assert_equivalent(results["streaming"], results["batched"])


def test_qual_prob_table_bitwise_identical():
    """The batched engine's Phred lookup table must reproduce the
    scalar error model bit-for-bit for every possible uint8 quality --
    this is what lets table-derived vectors feed the exact DP without
    perturbing any output."""
    import numpy as np

    from repro.core.batched import qual_prob_table
    from repro.core.model import allele_error_probabilities
    from repro.pileup.column import PileupColumn

    quals = np.arange(256, dtype=np.uint8)
    n = quals.size
    column = PileupColumn(
        chrom="c",
        pos=0,
        ref_base="A",
        base_codes=np.zeros(n, dtype=np.uint8),
        quals=quals,
        reverse=np.zeros(n, dtype=bool),
        mapqs=np.full(n, 60, dtype=np.uint8),
    )
    table = qual_prob_table()
    assert np.array_equal(table[quals], allele_error_probabilities(column))
    assert not table.flags.writeable


def test_batched_skips_most_tests_when_deep():
    """Sanity: on the deep dataset the screening pass does the bulk of
    the work (the paper's whole point), so the equivalence above is
    exercising the vectorised skip path, not an empty batch."""
    result = Pipeline(
        SampleSource(_dataset("deep")), config=CallerConfig(engine="batched")
    ).run()
    assert result.stats.skip_fraction() > 0.5
    assert result.stats.exact_skipped > 100


# -- the columnar ColumnBatch spine -------------------------------------------


def test_call_columns_takes_each_engines_unit(dataset):
    """Each engine evaluates its own unit type: the streaming engine
    over a batch's per-column view equals the batched engine over the
    batch itself."""
    from repro.pileup.vectorized import pileup_sample_batch

    batch = pileup_sample_batch(dataset)
    scope = len(dataset.genome)
    streaming = VariantCaller(CallerConfig(engine="streaming")).call_columns(
        batch.columns(), scope
    )
    batched = VariantCaller(CallerConfig(engine="batched")).call_columns(
        [batch], scope
    )
    assert_equivalent(streaming, batched)


def test_batched_engine_over_bam_pipeline(tmp_path):
    """The BAM columnar deposit path (BamSource.batches_for) must
    yield byte-identical calls and censuses to the streaming engine
    over the same file."""
    from repro.pipeline import BamSource

    dataset = _dataset("deep")
    bam = tmp_path / "deep.bam"
    dataset.write_bam(bam)
    results = {}
    for engine in ("streaming", "batched"):
        results[engine] = Pipeline(
            BamSource(bam, dataset.genome.sequence),
            config=CallerConfig(engine=engine),
        ).run()
    assert_equivalent(results["streaming"], results["batched"])
    assert results["batched"].stats.exact_skipped > 100


def test_batched_engine_under_parallel_driver_with_batches():
    """Chunked parallel execution streams per-chunk batches through
    the native screen; the merged result must still match streaming."""
    dataset = _dataset("deep")
    results = {}
    for engine in ("streaming", "batched"):
        results[engine] = Pipeline(
            SampleSource(dataset),
            config=CallerConfig(engine=engine),
            policy=ExecutionPolicy(mode="thread", n_workers=3, chunk_columns=97),
        ).run()
    assert_equivalent(results["streaming"], results["batched"])


class _ColumnCensus:
    """Counts every PileupColumn construction while installed."""

    def __init__(self, monkeypatch):
        from repro.pileup.column import PileupColumn

        self.constructed = 0
        original = PileupColumn.__post_init__

        def counting(column):
            self.constructed += 1
            return original(column)

        monkeypatch.setattr(PileupColumn, "__post_init__", counting)


def test_screened_out_columns_build_no_python_objects(monkeypatch):
    """Evaluating a ColumnBatch whose every allele is screened out
    constructs zero PileupColumn objects."""
    import numpy as np

    from repro.core.batched import evaluate_batch
    from repro.core.results import RunStats
    from repro.pileup.vectorized import pileup_sample_batch

    dataset = _dataset("null")  # no true variants: everything screens out
    config = CallerConfig()
    batch = pileup_sample_batch(dataset)
    # Restrict to columns above the approximation gate so every pair
    # is eligible for screening.
    deep_enough = np.nonzero(batch.depths >= config.approx_min_depth)[0]
    lo, hi = int(deep_enough[0]), int(deep_enough[-1]) + 1
    batch = batch.slice_columns(lo, hi)
    assert bool((batch.depths >= config.approx_min_depth).all())

    census = _ColumnCensus(monkeypatch)
    stats = RunStats()
    calls = evaluate_batch(
        batch, config.corrected_alpha(len(dataset.genome)), config, stats
    )
    assert stats.tests_run > 50
    assert stats.exact_skipped == stats.tests_run, (
        "premise broken: a pair survived screening on the null dataset"
    )
    assert calls == []
    assert census.constructed == 0, (
        f"{census.constructed} PileupColumn objects built for "
        "screened-out columns"
    )


@pytest.mark.parametrize("merge_mapq", [False, True])
def test_batched_engine_zero_pileup_columns_end_to_end(
    monkeypatch, merge_mapq
):
    """The PR 4 acceptance claim: the batched engine constructs **no**
    PileupColumn anywhere, end to end -- screened-out columns, exact-DP
    survivors, emitted calls, ``merge_mapq`` included -- while staying
    byte-identical to the streaming engine."""
    dataset = _dataset("deep")  # has survivors and emitted calls
    streaming = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(merge_mapq=merge_mapq, engine="streaming"),
    ).run()

    census = _ColumnCensus(monkeypatch)
    batched = Pipeline(
        SampleSource(dataset),
        config=CallerConfig(merge_mapq=merge_mapq, engine="batched"),
    ).run()
    assert census.constructed == 0, (
        f"{census.constructed} PileupColumn objects built by the "
        "batched engine end-to-end"
    )
    # The run genuinely exercised the exact stage, not just the screen.
    assert batched.stats.dp_invocations > 0
    assert len(batched.calls) > 0
    assert_equivalent(streaming, batched)


def test_batched_engine_zero_pileup_columns_over_bam(monkeypatch, tmp_path):
    """Same census over the BAM pipeline: decode -> columnar deposit
    -> screen -> batch exact stage, zero per-column objects."""
    from repro.pipeline import BamSource

    dataset = _dataset("deep")
    bam = tmp_path / "census.bam"
    dataset.write_bam(bam)
    streaming = Pipeline(
        BamSource(bam, dataset.genome.sequence),
        config=CallerConfig(engine="streaming"),
    ).run()

    census = _ColumnCensus(monkeypatch)
    batched = Pipeline(
        BamSource(bam, dataset.genome.sequence),
        config=CallerConfig(engine="batched"),
    ).run()
    assert census.constructed == 0
    assert len(batched.calls) > 0
    assert_equivalent(streaming, batched)


def test_legacy_batched_builds_no_pileup_columns(monkeypatch, tmp_path):
    """The legacy demo reads each partition in the engine's own unit
    type: under the batched engine it builds zero PileupColumn
    objects, and its calls equal the streaming legacy run's."""
    from repro.pipeline import BamSource

    dataset = _dataset("deep")
    bam = tmp_path / "legacy.bam"
    dataset.write_bam(bam)
    legacy = ExecutionPolicy(mode="legacy", n_workers=4)
    streaming = Pipeline(
        BamSource(bam, dataset.genome.sequence),
        config=CallerConfig(engine="streaming"),
        policy=legacy,
    ).run()

    census = _ColumnCensus(monkeypatch)
    batched = Pipeline(
        BamSource(bam, dataset.genome.sequence),
        config=CallerConfig(engine="batched"),
        policy=legacy,
    ).run()
    assert census.constructed == 0
    assert len(batched.calls) > 0
    assert_equivalent(streaming, batched)


def test_merged_qual_prob_table_bitwise_identical():
    """The fused (base quality x mapping quality) table must reproduce
    the scalar merged error model bit-for-bit for every possible pair
    of uint8 qualities -- what licenses the columnar merge_mapq path."""
    import numpy as np

    from repro.core.batched import merged_qual_prob_table
    from repro.core.model import allele_error_probabilities
    from repro.pileup.column import PileupColumn

    rng = np.random.default_rng(99)
    quals = rng.integers(0, 256, size=4096).astype(np.uint8)
    mapqs = rng.integers(0, 256, size=4096).astype(np.uint8)
    column = PileupColumn(
        chrom="c",
        pos=0,
        ref_base="A",
        base_codes=np.zeros(4096, dtype=np.uint8),
        quals=quals,
        reverse=np.zeros(4096, dtype=bool),
        mapqs=mapqs,
    )
    table = merged_qual_prob_table()
    assert np.array_equal(
        table[quals, mapqs],
        allele_error_probabilities(column, merge_mapq=True),
    )
    assert not table.flags.writeable


def test_screen_leaves_lazy_planes_untouched(tmp_path):
    """The ROADMAP deferral, regression-tested: a BAM-built batch
    carries its strand/mapq planes lazily, a pure screen-out pass
    never materialises them, and the screen's results are unchanged
    from an eager batch."""
    from repro.core.batched import screen_batch
    from repro.core.results import RunStats
    from repro.io.regions import Region
    from repro.pileup.column import ColumnBatch
    from repro.pileup.vectorized import pileup_batch_from_reads

    dataset = _dataset("null")
    bam = tmp_path / "lazy.bam"
    dataset.write_bam(bam)
    from repro.io.bam import BamReader

    config = CallerConfig()
    corrected_alpha = config.corrected_alpha(len(dataset.genome))
    region = Region(dataset.genome.name, 0, len(dataset.genome))

    def build():
        with BamReader(bam) as reader:
            return pileup_batch_from_reads(
                iter(reader), dataset.genome.sequence, region
            )

    lazy = build()
    assert not lazy.planes_materialised
    lazy_stats = RunStats()
    lazy_survivors = screen_batch(lazy, corrected_alpha, config, lazy_stats)
    assert not lazy.planes_materialised, (
        "screening alone materialised the strand/mapq planes"
    )

    eager_src = build()
    eager = ColumnBatch(
        chrom=eager_src.chrom,
        positions=eager_src.positions,
        ref_bases=eager_src.ref_bases,
        base_codes=eager_src.base_codes,
        quals=eager_src.quals,
        reverse=eager_src.reverse,  # materialises
        mapqs=eager_src.mapqs,
        offsets=eager_src.offsets,
        n_capped=eager_src.n_capped,
    )
    eager_stats = RunStats()
    eager_survivors = screen_batch(
        eager, corrected_alpha, config, eager_stats
    )
    assert lazy_survivors == eager_survivors
    assert lazy_stats.decisions == eager_stats.decisions
    assert lazy_stats.exact_skipped == eager_stats.exact_skipped
    # The planes themselves are identical once materialised.
    import numpy as np

    assert np.array_equal(lazy.reverse, eager.reverse)
    assert np.array_equal(lazy.mapqs, eager.mapqs)


# -- the streaming columnar builder (PR 5) ------------------------------------


def test_builder_streamed_bam_pipeline_byte_identical(monkeypatch, tmp_path):
    """The PR 5 acceptance claim: with BamSource streaming bounded
    batches straight out of ColumnBatchBuilder (many flushes, reads
    spanning every boundary), the batched engine's calls, stats and
    censuses stay byte-identical to streaming -- and still zero
    PileupColumn constructions end to end."""
    from repro.pipeline import BamSource

    dataset = _dataset("deep")
    bam = tmp_path / "builder.bam"
    dataset.write_bam(bam)
    streaming = Pipeline(
        BamSource(bam, dataset.genome.sequence),
        config=CallerConfig(engine="streaming"),
    ).run()

    census = _ColumnCensus(monkeypatch)
    batched = Pipeline(
        # 64-column flushes: every 100-base read spans boundaries.
        BamSource(bam, dataset.genome.sequence, batch_columns=64),
        config=CallerConfig(engine="batched"),
    ).run()
    assert census.constructed == 0, (
        f"{census.constructed} PileupColumn objects built on the "
        "builder-streamed path"
    )
    assert len(batched.calls) > 0
    assert_equivalent(streaming, batched)


@pytest.mark.parametrize("merge_mapq", [False, True])
def test_builder_batch_size_does_not_change_output(tmp_path, merge_mapq):
    """Flush granularity is an implementation knob: any batch_columns
    must produce identical calls and censuses."""
    from repro.pipeline import BamSource

    dataset = _dataset("shallow")
    bam = tmp_path / "sizes.bam"
    dataset.write_bam(bam)
    results = []
    for cap in (len(dataset.genome), 17, 256):
        results.append(
            Pipeline(
                BamSource(
                    bam, dataset.genome.sequence, batch_columns=cap
                ),
                config=CallerConfig(
                    engine="batched", merge_mapq=merge_mapq
                ),
            ).run()
        )
    for other in results[1:]:
        assert_equivalent(results[0], other)


def test_dp4_batch_matches_per_column():
    """The fused DP4 bincount must reproduce PileupColumn.dp4 for
    every (column, alt) pair, duplicates included."""
    import numpy as np

    from repro.core.batched import dp4_batch
    from repro.pileup.vectorized import pileup_sample_batch

    dataset = _dataset("deep")
    batch = pileup_sample_batch(dataset)
    rng = np.random.default_rng(3)
    cols = rng.integers(0, batch.n_columns, size=200)
    cols = np.concatenate([cols, cols[:20]])  # duplicate pairs
    alts = rng.integers(0, 4, size=cols.size)
    ref_codes = batch.ref_codes.astype(np.int64)[cols]
    rf, rr, af, ar = dp4_batch(batch, cols, ref_codes, alts)
    for i in range(cols.size):
        column = batch.column(int(cols[i]))
        expected = column.dp4(int(alts[i]))
        assert (int(rf[i]), int(rr[i]), int(af[i]), int(ar[i])) == expected


def test_mapq_profile_engine_equivalence():
    """Per-read mapq sampled from a profile, min_mapq filtering and
    merge_mapq on: both engines must still agree byte-for-byte."""
    from repro.pileup.engine import PileupConfig
    from repro.sim.quality import MapqProfile

    genome = random_genome(700, gc_content=0.5, name="chrQ", seed=55)
    panel = random_panel(genome.sequence, 5, freq_range=(0.03, 0.15), seed=56)
    sample = ReadSimulator(
        genome, panel, read_length=80,
        mapq_profile=MapqProfile.aligner_like(),
    ).simulate(depth=300, seed=57)
    pileup_config = PileupConfig(min_mapq=25)
    for merge_mapq in (False, True):
        streaming = Pipeline(
            SampleSource(sample, pileup_config=pileup_config),
            config=CallerConfig(merge_mapq=merge_mapq, engine="streaming"),
        ).run()
        batched = Pipeline(
            SampleSource(sample, pileup_config=pileup_config),
            config=CallerConfig(merge_mapq=merge_mapq, engine="batched"),
        ).run()
        assert_equivalent(streaming, batched)


def _sink_bytes(source, engine, sink_kind, contigs):
    """Pipeline.run() output bytes through a VCF or JSONL sink."""
    import io as _io

    from repro.pipeline import JsonlSink, VcfSink

    buf = _io.StringIO()
    sink = (
        VcfSink(buf, contigs=contigs)
        if sink_kind == "vcf"
        else JsonlSink(buf)
    )
    Pipeline(
        source, config=CallerConfig(engine=engine), sinks=[sink]
    ).run()
    return buf.getvalue()


@pytest.mark.parametrize("engine", ["streaming", "batched"])
@pytest.mark.parametrize("sink_kind", ["vcf", "jsonl"])
def test_all_sources_byte_identical(
    tmp_path, dataset, engine, sink_kind
):
    """All three source flavours (BAM, reads, sample) produce
    bit-for-bit the same pipeline output, for both engines and both
    sink formats."""
    from repro.io.regions import Region
    from repro.pipeline import BamSource, ReadsSource

    genome = dataset.genome
    region = Region(genome.name, 0, len(genome))
    contigs = [(genome.name, len(genome))]
    bam = tmp_path / "equiv.bam"
    dataset.write_bam(bam)

    baseline = _sink_bytes(SampleSource(dataset), engine, sink_kind, contigs)
    assert (
        _sink_bytes(
            ReadsSource(dataset.reads(), genome.sequence, region),
            engine,
            sink_kind,
            contigs,
        )
        == baseline
    )
    assert (
        _sink_bytes(BamSource(bam, genome.sequence), engine, sink_kind, contigs)
        == baseline
    )
