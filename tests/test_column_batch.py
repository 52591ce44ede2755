"""Property tests for the columnar ``ColumnBatch`` spine.

Seeded-random equivalence over many generated workloads: the
streaming sweep, the batch-emitting sweep, the vectorised matrix path
and the BAM columnar deposit path must all produce *identical*
batches -- same flat arrays, same offsets, same ``n_capped`` -- and
identical per-column :class:`PileupColumn` views, across quality
filters, depth caps and sub-regions.
"""

import io

import numpy as np
import pytest

from repro.io.bam import BamReader, BamWriter, aligned_base_arrays
from repro.io.cigar import CigarOp
from repro.io.records import AlignedRead
from repro.io.regions import Region
from repro.pileup.column import ColumnBatch, PileupColumn, encode_read_bases
from repro.pileup.engine import PileupConfig, pileup, pileup_batches
from repro.pileup.vectorized import pileup_batch_from_reads, pileup_sample_batch
from repro.sim.genome import random_genome
from repro.sim.haplotypes import random_panel
from repro.sim.reads import ReadSimulator


def assert_columns_identical(a: PileupColumn, b: PileupColumn) -> None:
    assert a.chrom == b.chrom
    assert a.pos == b.pos
    assert a.ref_base == b.ref_base
    assert a.n_capped == b.n_capped
    assert np.array_equal(a.base_codes, b.base_codes)
    assert np.array_equal(a.quals, b.quals)
    assert np.array_equal(a.reverse, b.reverse)
    assert np.array_equal(a.mapqs, b.mapqs)


def assert_batches_identical(a: ColumnBatch, b: ColumnBatch) -> None:
    assert a.chrom == b.chrom
    assert a.ref_bases == b.ref_bases
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.n_capped, b.n_capped)
    assert np.array_equal(a.base_codes, b.base_codes)
    assert np.array_equal(a.quals, b.quals)
    assert np.array_equal(a.reverse, b.reverse)
    assert np.array_equal(a.mapqs, b.mapqs)


def _bam_round_trip(sample):
    buf = io.BytesIO()
    writer = BamWriter(buf, sample.header())
    for read in sample.reads():
        writer.write(read)
    writer.close()
    buf.seek(0)
    with BamReader(buf) as reader:
        return list(reader)


def _workload(seed):
    """One seeded-random workload: genome, panel, sample, config, region."""
    rng = np.random.default_rng(seed)
    length = int(rng.integers(300, 800))
    read_length = int(rng.integers(40, 101))
    genome = random_genome(
        length, gc_content=float(rng.uniform(0.3, 0.6)), name="chrP",
        seed=seed,
    )
    panel = random_panel(
        genome.sequence, int(rng.integers(0, 6)),
        freq_range=(0.05, 0.3), seed=seed + 1,
    )
    sample = ReadSimulator(
        genome, panel, read_length=read_length
    ).simulate(depth=float(rng.uniform(30, 120)), seed=seed + 2)
    config = PileupConfig(
        min_baseq=int(rng.integers(0, 25)),
        max_depth=int(rng.integers(20, 200)),
    )
    if rng.random() < 0.5:
        lo = int(rng.integers(0, length // 2))
        hi = int(rng.integers(lo + 1, length + 1))
        region = Region(genome.name, lo, hi)
    else:
        region = Region(genome.name, 0, length)
    return genome, sample, config, region


class TestFourPathEquivalence:
    """Streaming / sweep / matrix / BAM must agree batch-for-batch."""

    @pytest.mark.parametrize("seed", [101, 202, 303, 404, 505, 606])
    def test_all_paths_identical(self, seed):
        genome, sample, config, region = _workload(seed)
        reads = sample.read_list()

        streaming = ColumnBatch.from_columns(
            list(pileup(iter(reads), genome.sequence, region, config)),
            chrom=region.chrom,
        )
        swept = list(
            pileup_batches(
                iter(reads), genome.sequence, region, config,
                batch_columns=max(1, streaming.n_columns or 1),
            )
        )
        assert len(swept) <= 1
        sweep = swept[0] if swept else ColumnBatch.empty(region.chrom)
        matrix = pileup_sample_batch(sample, region, config)
        bam = pileup_batch_from_reads(
            iter(_bam_round_trip(sample)), genome.sequence, region, config
        )

        assert_batches_identical(streaming, sweep)
        assert_batches_identical(streaming, matrix)
        assert_batches_identical(streaming, bam)

    @pytest.mark.parametrize("seed", [17, 29])
    def test_column_views_identical(self, seed):
        genome, sample, config, region = _workload(seed)
        stream_cols = list(
            pileup(
                iter(sample.read_list()), genome.sequence, region, config
            )
        )
        batch = pileup_sample_batch(sample, region, config)
        batch_cols = list(batch.columns())
        assert len(batch_cols) == len(stream_cols)
        for a, b in zip(batch_cols, stream_cols):
            assert_columns_identical(a, b)

    @pytest.mark.parametrize("seed", [42, 77])
    def test_max_depth_capping_parity(self, seed):
        """A tight cap must drop the *same* reads on every path and
        census them identically in ``n_capped``."""
        genome, sample, _, _ = _workload(seed)
        region = Region(genome.name, 0, len(genome))
        config = PileupConfig(max_depth=15)
        streaming = ColumnBatch.from_columns(
            list(
                pileup(
                    iter(sample.read_list()), genome.sequence, region, config
                )
            ),
            chrom=region.chrom,
        )
        matrix = pileup_sample_batch(sample, region, config)
        bam = pileup_batch_from_reads(
            iter(_bam_round_trip(sample)), genome.sequence, region, config
        )
        assert int(streaming.n_capped.sum()) > 0, "cap never engaged"
        assert (streaming.depths <= 15).all()
        assert_batches_identical(streaming, matrix)
        assert_batches_identical(streaming, bam)

    def test_sweep_batch_boundaries(self):
        """Splitting the sweep into small batches re-concatenates to
        the single-batch result."""
        genome, sample, config, region = _workload(808)
        reads = sample.read_list()
        whole = pileup_batch_from_reads(
            iter(reads), genome.sequence, region, config
        )
        pieces = list(
            pileup_batches(
                iter(reads), genome.sequence, region, config,
                batch_columns=7,
            )
        )
        assert all(p.n_columns <= 7 for p in pieces)
        merged = ColumnBatch.from_columns(
            [c for p in pieces for c in p.columns()], chrom=region.chrom
        )
        assert_batches_identical(whole, merged)


class TestColumnBatchBuilder:
    """The incremental bounded-memory builder (PR 5): streamed batches
    must re-concatenate to the whole-chunk build bit-for-bit, across
    flush boundaries, filters and the depth cap."""

    def _merged(self, pieces, chrom):
        return ColumnBatch.from_columns(
            [c for p in pieces for c in p.columns()], chrom=chrom
        )

    @pytest.mark.parametrize("seed", [101, 404])
    @pytest.mark.parametrize("batch_columns", [1, 7, 64, 4096])
    def test_streamed_equals_whole_chunk(self, seed, batch_columns):
        from repro.pileup.vectorized import iter_pileup_batches

        genome, sample, config, region = _workload(seed)
        reads = sample.read_list()
        whole = pileup_batch_from_reads(
            iter(reads), genome.sequence, region, config
        )
        pieces = list(
            iter_pileup_batches(
                iter(reads), genome.sequence, region, config,
                batch_columns=batch_columns,
            )
        )
        assert all(p.n_columns <= batch_columns for p in pieces)
        assert all(p.n_columns > 0 for p in pieces)
        assert_batches_identical(
            whole, self._merged(pieces, region.chrom)
        )

    def test_reads_span_flush_boundaries(self):
        """With a flush window far smaller than the read length every
        read straddles several boundaries; each window must still get
        exactly its bases, in streaming deposit order."""
        from repro.pileup.vectorized import iter_pileup_batches

        genome, sample, config, region = _workload(202)
        reads = sample.read_list()
        rl = sample.read_length
        batch_columns = max(2, rl // 8)  # windows much narrower than a read
        whole = pileup_batch_from_reads(
            iter(reads), genome.sequence, region, config
        )
        pieces = list(
            iter_pileup_batches(
                iter(reads), genome.sequence, region, config,
                batch_columns=batch_columns,
            )
        )
        assert len(pieces) > 3
        assert_batches_identical(whole, self._merged(pieces, region.chrom))
        # And the per-column views match the streaming engine exactly.
        stream_cols = list(
            pileup(iter(reads), genome.sequence, region, config)
        )
        flat_cols = [c for p in pieces for c in p.columns()]
        assert len(flat_cols) == len(stream_cols)
        for a, b in zip(flat_cols, stream_cols):
            assert_columns_identical(a, b)

    def test_flushed_batches_keep_planes_lazy(self):
        from repro.pileup.vectorized import iter_pileup_batches

        genome, sample, config, region = _workload(303)
        pieces = list(
            iter_pileup_batches(
                iter(sample.read_list()), genome.sequence, region, config,
                batch_columns=16,
            )
        )
        assert pieces
        assert all(not p.planes_materialised for p in pieces)

    def test_empty_input_yields_no_batches(self):
        from repro.pileup.vectorized import ColumnBatchBuilder, iter_pileup_batches

        region = Region("chrE", 0, 500)
        assert (
            list(iter_pileup_batches(iter([]), "A" * 500, region)) == []
        )
        builder = ColumnBatchBuilder("A" * 500, region, batch_columns=8)
        assert builder.finish() == []
        with pytest.raises(ValueError, match="finished"):
            builder.add_read(
                AlignedRead(
                    qname="r", flag=0, rname="chrE", pos=0, mapq=60,
                    cigar=[(CigarOp.M, 4)], seq="ACGT",
                    qual=np.full(4, 30, dtype=np.uint8),
                )
            )

    def test_all_filtered_input_yields_no_batches(self):
        """Bases all below min_baseq: windows assemble to nothing and
        no empty batches leak out."""
        from repro.pileup.vectorized import iter_pileup_batches

        genome, sample, _, region = _workload(505)
        config = PileupConfig(min_baseq=60)  # above every emitted qual
        pieces = list(
            iter_pileup_batches(
                iter(sample.read_list()), genome.sequence, region, config,
                batch_columns=8,
            )
        )
        assert pieces == []

    def test_max_depth_caps_at_flush_boundaries(self):
        """A tight cap must drop the same reads whether a column sits
        mid-window or exactly at a flush boundary."""
        from repro.pileup.vectorized import iter_pileup_batches

        genome, sample, _, _ = _workload(42)
        region = Region(genome.name, 0, len(genome))
        config = PileupConfig(max_depth=15)
        reads = sample.read_list()
        whole = pileup_batch_from_reads(
            iter(reads), genome.sequence, region, config
        )
        assert int(whole.n_capped.sum()) > 0, "cap never engaged"
        for batch_columns in (1, 3, 50):
            pieces = list(
                iter_pileup_batches(
                    iter(reads), genome.sequence, region, config,
                    batch_columns=batch_columns,
                )
            )
            merged = self._merged(pieces, region.chrom)
            assert_batches_identical(whole, merged)
            assert (merged.depths <= 15).all()

    def test_unsorted_input_raises(self):
        from repro.pileup.vectorized import ColumnBatchBuilder

        def read_at(pos, name):
            return AlignedRead(
                qname=name, flag=0, rname="chrU", pos=pos, mapq=60,
                cigar=[(CigarOp.M, 4)], seq="ACGT",
                qual=np.full(4, 30, dtype=np.uint8),
            )

        builder = ColumnBatchBuilder("A" * 100, Region("chrU", 0, 100))
        builder.add_read(read_at(50, "a"))
        with pytest.raises(ValueError, match="coordinate-sorted"):
            builder.add_read(read_at(10, "b"))

    def test_invalid_batch_columns_rejected(self):
        from repro.pileup.vectorized import ColumnBatchBuilder

        with pytest.raises(ValueError, match="batch_columns"):
            ColumnBatchBuilder(
                "A" * 10, Region("c", 0, 10), batch_columns=0
            )

    def test_done_flag_stops_the_scan(self):
        from repro.pileup.vectorized import ColumnBatchBuilder

        region = Region("chrD", 10, 20)
        builder = ColumnBatchBuilder("A" * 100, region)
        read = AlignedRead(
            qname="late", flag=0, rname="chrD", pos=25, mapq=60,
            cigar=[(CigarOp.M, 4)], seq="ACGT",
            qual=np.full(4, 30, dtype=np.uint8),
        )
        assert builder.add_read(read) == []
        assert builder.done


class TestColumnBatchValueType:
    def test_from_columns_round_trip(self, columns):
        batch = ColumnBatch.from_columns(columns)
        assert batch.n_columns == len(columns)
        for a, b in zip(batch.columns(), columns):
            assert_columns_identical(a, b)

    def test_empty_batch(self):
        batch = ColumnBatch.empty("chrE")
        assert batch.n_columns == 0
        assert len(batch) == 0
        assert list(batch.columns()) == []
        assert batch.ref_codes.size == 0

    def test_from_columns_empty_requires_chrom(self):
        with pytest.raises(ValueError, match="chrom"):
            ColumnBatch.from_columns([])
        assert ColumnBatch.from_columns([], chrom="c").n_columns == 0

    def test_from_columns_rejects_mixed_chroms(self, columns):
        import dataclasses

        other = dataclasses.replace(columns[0], chrom="chrOther")
        with pytest.raises(ValueError, match="one chromosome"):
            ColumnBatch.from_columns([columns[0], other])

    def test_parallel_array_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            ColumnBatch(
                chrom="c",
                positions=np.array([0]),
                ref_bases="A",
                base_codes=np.zeros(2, dtype=np.uint8),
                quals=np.zeros(1, dtype=np.uint8),
                reverse=np.zeros(2, dtype=bool),
                mapqs=np.zeros(2, dtype=np.uint8),
                offsets=np.array([0, 2]),
                n_capped=np.array([0]),
            )

    def test_offsets_validation(self):
        with pytest.raises(ValueError, match="offsets"):
            ColumnBatch(
                chrom="c",
                positions=np.array([0, 1]),
                ref_bases="AC",
                base_codes=np.zeros(2, dtype=np.uint8),
                quals=np.zeros(2, dtype=np.uint8),
                reverse=np.zeros(2, dtype=bool),
                mapqs=np.zeros(2, dtype=np.uint8),
                offsets=np.array([0, 2]),
                n_capped=np.array([0, 0]),
            )

    def test_ref_bases_validation(self):
        with pytest.raises(ValueError, match="reference base"):
            ColumnBatch(
                chrom="c",
                positions=np.array([0, 1]),
                ref_bases="A",
                base_codes=np.zeros(0, dtype=np.uint8),
                quals=np.zeros(0, dtype=np.uint8),
                reverse=np.zeros(0, dtype=bool),
                mapqs=np.zeros(0, dtype=np.uint8),
                offsets=np.array([0, 0, 0]),
                n_capped=np.array([0, 0]),
            )

    def test_slice_columns(self, columns):
        batch = ColumnBatch.from_columns(columns)
        lo, hi = 3, 17
        sub = batch.slice_columns(lo, hi)
        assert sub.n_columns == hi - lo
        for a, b in zip(sub.columns(), columns[lo:hi]):
            assert_columns_identical(a, b)
        # Views, not copies: the flat arrays share memory.
        assert np.shares_memory(sub.base_codes, batch.base_codes)

    def test_depths_and_ref_codes(self, columns):
        batch = ColumnBatch.from_columns(columns)
        assert np.array_equal(
            batch.depths, np.array([c.depth for c in columns])
        )
        assert np.array_equal(
            batch.ref_codes, np.array([c.ref_code for c in columns])
        )

    def test_views_are_zero_copy(self, columns):
        batch = ColumnBatch.from_columns(columns)
        col = batch.column(0)
        assert np.shares_memory(col.base_codes, batch.base_codes)


class TestLazyPlanes:
    """Deferred strand/mapq planes (PR 4): built on first access,
    bit-identical to eager construction, laziness preserved by
    ``slice_columns``."""

    def _lazy_and_eager(self, seed=17):
        genome, sample, config, region = _workload(seed)
        eager = pileup_batch_from_reads(
            iter(_bam_round_trip(sample)), genome.sequence, region, config
        )
        # pileup_batch_from_reads itself defers the planes; force an
        # eager twin through the constructor.
        lazy = pileup_batch_from_reads(
            iter(_bam_round_trip(sample)), genome.sequence, region, config
        )
        forced = ColumnBatch(
            chrom=eager.chrom,
            positions=eager.positions,
            ref_bases=eager.ref_bases,
            base_codes=eager.base_codes,
            quals=eager.quals,
            reverse=eager.reverse,
            mapqs=eager.mapqs,
            offsets=eager.offsets,
            n_capped=eager.n_capped,
        )
        return lazy, forced

    def test_from_reads_defers_planes(self):
        lazy, forced = self._lazy_and_eager()
        assert not lazy.planes_materialised
        assert forced.planes_materialised
        # Everything the screen reads is available without touching
        # the planes.
        assert lazy.depths.sum() == forced.depths.sum()
        assert not lazy.planes_materialised

    def test_materialised_planes_identical(self):
        lazy, forced = self._lazy_and_eager()
        assert np.array_equal(lazy.reverse, forced.reverse)
        assert np.array_equal(lazy.mapqs, forced.mapqs)
        assert lazy.planes_materialised

    def test_slice_preserves_laziness(self):
        lazy, forced = self._lazy_and_eager()
        n = lazy.n_columns
        sub = lazy.slice_columns(1, n - 1)
        assert not lazy.planes_materialised
        assert not sub.planes_materialised
        sub_forced = forced.slice_columns(1, n - 1)
        assert np.array_equal(sub.reverse, sub_forced.reverse)
        assert np.array_equal(sub.mapqs, sub_forced.mapqs)
        assert sub.planes_materialised
        # Materialising a slice does not materialise the parent's own
        # cached planes eagerly... but the thunk chain reads through
        # the parent, which materialises it as a side effect.
        assert lazy.planes_materialised

    def test_column_view_materialises(self):
        lazy, forced = self._lazy_and_eager()
        col = lazy.column(0)
        assert lazy.planes_materialised
        assert np.array_equal(col.mapqs, forced.column(0).mapqs)

    def test_depth_cap_composes_with_lazy_planes(self):
        genome, sample, _, _ = _workload(42)
        region = Region(genome.name, 0, len(genome))
        config = PileupConfig(max_depth=15)
        lazy = pileup_batch_from_reads(
            iter(_bam_round_trip(sample)), genome.sequence, region, config
        )
        assert not lazy.planes_materialised
        streaming = ColumnBatch.from_columns(
            list(
                pileup(
                    iter(sample.read_list()), genome.sequence, region, config
                )
            ),
            chrom=region.chrom,
        )
        assert int(streaming.n_capped.sum()) > 0, "cap never engaged"
        assert_batches_identical(streaming, lazy)

    def test_constructor_validation(self):
        base = dict(
            chrom="c",
            positions=np.array([0]),
            ref_bases="A",
            base_codes=np.zeros(1, dtype=np.uint8),
            quals=np.zeros(1, dtype=np.uint8),
            offsets=np.array([0, 1]),
            n_capped=np.array([0]),
        )
        with pytest.raises(ValueError, match="reverse and mapqs"):
            ColumnBatch(**base)
        with pytest.raises(ValueError, match="either"):
            ColumnBatch(
                **base,
                reverse=np.zeros(1, dtype=bool),
                mapqs=np.zeros(1, dtype=np.uint8),
                planes=lambda: (None, None),
            )
        # A thunk returning non-parallel planes fails at access time.
        bad = ColumnBatch(
            **base,
            planes=lambda: (
                np.zeros(2, dtype=bool),
                np.zeros(2, dtype=np.uint8),
            ),
        )
        with pytest.raises(ValueError, match="parallel"):
            bad.reverse


class TestEncodeReadBases:
    def test_matches_scalar_lookup(self):
        from repro.pileup.column import BASE_TO_CODE, N_CODE

        seq = "ACGTNacgtRYKM=.*X"
        expected = [BASE_TO_CODE.get(c, N_CODE) for c in seq]
        assert encode_read_bases(seq).tolist() == expected

    def test_empty(self):
        assert encode_read_bases("").size == 0


class TestAlignedBaseArrays:
    def _read(self, cigar, seq, qual=None, pos=10):
        qual = (
            np.asarray(qual, dtype=np.uint8)
            if qual is not None
            else np.full(len(seq), 30, dtype=np.uint8)
        )
        return AlignedRead(
            qname="r1", flag=0, rname="c", pos=pos, mapq=60,
            cigar=cigar, seq=seq, qual=qual,
        )

    def test_simple_match(self):
        read = self._read([(CigarOp.M, 4)], "ACGT")
        positions, codes, quals = aligned_base_arrays(read)
        assert positions.tolist() == [10, 11, 12, 13]
        assert codes.tolist() == [0, 1, 2, 3]
        assert quals.tolist() == [30] * 4

    def test_insertion_consumes_query_only(self):
        read = self._read(
            [(CigarOp.M, 2), (CigarOp.I, 2), (CigarOp.M, 2)], "ACGTAC"
        )
        positions, codes, quals = aligned_base_arrays(read)
        assert positions.tolist() == [10, 11, 12, 13]
        assert codes.tolist() == [0, 1, 0, 1]  # A C | (GT skipped) | A C

    def test_deletion_consumes_reference_only(self):
        read = self._read(
            [(CigarOp.M, 2), (CigarOp.D, 3), (CigarOp.M, 2)], "ACGT"
        )
        positions, codes, _ = aligned_base_arrays(read)
        assert positions.tolist() == [10, 11, 15, 16]
        assert codes.tolist() == [0, 1, 2, 3]

    def test_soft_clip(self):
        read = self._read(
            [(CigarOp.S, 2), (CigarOp.M, 2)], "GGAC"
        )
        positions, codes, _ = aligned_base_arrays(read)
        assert positions.tolist() == [10, 11]
        assert codes.tolist() == [0, 1]

    def test_missing_quality_reads_as_zero(self):
        read = self._read([(CigarOp.M, 3)], "ACG", qual=[])
        _, _, quals = aligned_base_arrays(read)
        assert quals.tolist() == [0, 0, 0]

    def test_missing_seq_has_no_bases(self):
        read = self._read([(CigarOp.M, 20)], "", qual=[])
        positions, codes, quals = aligned_base_arrays(read)
        assert positions.size == codes.size == quals.size == 0

    def test_matches_streaming_deposit(self):
        """The CIGAR-aware arrays reproduce the streaming engine's
        per-base deposit over a gapped read exactly."""
        read = self._read(
            [(CigarOp.S, 1), (CigarOp.M, 3), (CigarOp.D, 2), (CigarOp.M, 2)],
            "NACGTC",
        )
        region = Region("c", 0, 40)
        reference = "T" * 40
        config = PileupConfig(min_baseq=0)
        stream = list(pileup([read], reference, region, config))
        positions, codes, quals = aligned_base_arrays(read)
        assert [c.pos for c in stream] == positions.tolist()
        assert [int(c.base_codes[0]) for c in stream] == codes.tolist()
        assert [int(c.quals[0]) for c in stream] == quals.tolist()
