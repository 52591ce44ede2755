"""Equivalence tests: vectorised pileup vs the streaming engine."""

import numpy as np
import pytest

from repro.io.regions import Region
from repro.pileup.engine import PileupConfig, pileup
from repro.pileup.vectorized import pileup_batch_from_arrays, pileup_sample


def columns_equal(a, b):
    assert a.pos == b.pos, f"position {a.pos} != {b.pos}"
    assert a.ref_base == b.ref_base
    assert np.array_equal(np.sort(a.base_codes), np.sort(b.base_codes))
    assert np.array_equal(np.sort(a.quals), np.sort(b.quals))
    assert a.reverse.sum() == b.reverse.sum()


class TestEquivalence:
    def test_matches_streaming_engine(self, sample, genome, whole_region):
        cfg = PileupConfig(min_baseq=10)
        vec = list(pileup_sample(sample, whole_region, cfg))
        reads = sample.read_list()
        stream = list(pileup(reads, genome.sequence, whole_region, cfg))
        assert len(vec) == len(stream)
        for a, b in zip(vec, stream):
            columns_equal(a, b)

    def test_matches_on_subregion(self, sample, genome):
        region = Region(genome.name, 300, 450)
        cfg = PileupConfig()
        vec = list(pileup_sample(sample, region, cfg))
        stream = list(
            pileup(sample.read_list(), genome.sequence, region, cfg)
        )
        assert len(vec) == len(stream)
        for a, b in zip(vec, stream):
            columns_equal(a, b)

    def test_depth_cap_consistent(self, sample, genome, whole_region):
        cfg = PileupConfig(max_depth=50)
        vec = list(pileup_sample(sample, whole_region, cfg))
        assert all(c.depth <= 50 for c in vec)
        capped = [c for c in vec if c.n_capped > 0]
        assert capped, "200x sample should exceed a 50x cap somewhere"


class TestDirect:
    @pytest.mark.parametrize("span", [1, 300, 65_535, 65_536, 1 << 20])
    def test_stable_order_matches_argsort(self, span):
        """The deposit's stable order equals numpy's stable argsort on
        16-bit keys (span below 65536) and on full ones alike."""
        from repro.pileup.vectorized import _stable_order

        rng = np.random.default_rng(span)
        positions = 7_000 + rng.integers(0, span, size=5_000)
        positions[:2] = [7_000, 7_000 + span - 1]
        assert np.array_equal(
            _stable_order(positions), np.argsort(positions, kind="stable")
        )

    def test_single_read_matrix(self):
        starts = np.array([2], dtype=np.int64)
        codes = np.array([[0, 1, 2]], dtype=np.uint8)  # A C G
        quals = np.full((1, 3), 30, dtype=np.uint8)
        rev = np.array([False])
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTTTT", Region("c", 0, 7)
            ).columns()
        )
        assert [c.pos for c in cols] == [2, 3, 4]
        assert [c.depth for c in cols] == [1, 1, 1]

    def test_baseq_filter(self):
        starts = np.array([0], dtype=np.int64)
        codes = np.array([[0, 0]], dtype=np.uint8)
        quals = np.array([[5, 30]], dtype=np.uint8)
        rev = np.array([False])
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(min_baseq=10),
            ).columns()
        )
        assert [c.pos for c in cols] == [1]

    def test_mapq_below_threshold_drops_everything(self):
        starts = np.array([0], dtype=np.int64)
        codes = np.zeros((1, 2), dtype=np.uint8)
        quals = np.full((1, 2), 30, dtype=np.uint8)
        rev = np.array([False])
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(min_mapq=70), mapq=60,
            ).columns()
        )
        assert cols == []

    def _one_read(self):
        starts = np.array([0], dtype=np.int64)
        codes = np.zeros((1, 2), dtype=np.uint8)
        quals = np.full((1, 2), 30, dtype=np.uint8)
        rev = np.array([False])
        return starts, codes, quals, rev

    def test_mapq_above_255_passes_filter_and_saturates(self):
        """A mapq above the uint8 ceiling must still be compared raw
        against min_mapq (300 > 260 passes) and only saturate to 255 in
        the stored column arrays."""
        starts, codes, quals, rev = self._one_read()
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(min_mapq=260), mapq=300,
            ).columns()
        )
        assert [c.pos for c in cols] == [0, 1]
        assert all(int(c.mapqs[0]) == 255 for c in cols)

    def test_mapq_above_255_below_threshold_drops(self):
        starts, codes, quals, rev = self._one_read()
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(min_mapq=400), mapq=300,
            ).columns()
        )
        assert cols == []

    def test_negative_mapq_raises(self):
        starts, codes, quals, rev = self._one_read()
        with pytest.raises(ValueError, match="mapq"):
            list(
                pileup_batch_from_arrays(
                    starts, codes, quals, rev, "TT", Region("c", 0, 2),
                    mapq=-1,
                ).columns()
            )

    def test_flag_filters_documented_as_inapplicable(self):
        """Matrix input has no SAM flags: toggling the flag-based
        filters must not change the pileup."""
        starts, codes, quals, rev = self._one_read()
        base = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(),
            ).columns()
        )
        toggled = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TT", Region("c", 0, 2),
                PileupConfig(
                    include_duplicates=True,
                    include_secondary=True,
                    include_qcfail=True,
                ),
            ).columns()
        )
        assert [c.depth for c in base] == [c.depth for c in toggled]

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ValueError, match="consistent"):
            list(
                pileup_batch_from_arrays(
                    np.zeros(2, dtype=np.int64),
                    np.zeros((1, 3), dtype=np.uint8),
                    np.zeros((1, 3), dtype=np.uint8),
                    np.zeros(1, dtype=bool),
                    "TTT",
                    Region("c", 0, 3),
                ).columns()
            )

    def test_empty_region(self, sample, genome):
        cols = list(pileup_sample(sample, Region(genome.name, 0, 0)))
        assert cols == []


class TestPerReadMapq:
    """Per-read mapping-quality vectors in the matrix path (PR 4)."""

    def _three_reads(self):
        starts = np.array([0, 1, 2], dtype=np.int64)
        codes = np.tile(
            np.array([[0, 1]], dtype=np.uint8), (3, 1)
        )  # A C per read
        quals = np.full((3, 2), 30, dtype=np.uint8)
        rev = np.array([False, True, False])
        return starts, codes, quals, rev

    def test_vector_stamps_per_read_values(self):
        starts, codes, quals, rev = self._three_reads()
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                mapq=np.array([10, 20, 30]),
            ).columns()
        )
        # Column 1 holds read 0 (deposited first) then read 1.
        by_pos = {c.pos: c for c in cols}
        assert by_pos[1].mapqs.tolist() == [10, 20]
        assert by_pos[2].mapqs.tolist() == [20, 30]

    def test_vector_min_mapq_drops_exactly_failing_reads(self):
        starts, codes, quals, rev = self._three_reads()
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                PileupConfig(min_mapq=20),
                mapq=np.array([10, 20, 30]),
            ).columns()
        )
        by_pos = {c.pos: c for c in cols}
        assert 0 not in by_pos  # only read 0 covered position 0
        assert by_pos[1].mapqs.tolist() == [20]
        assert by_pos[2].mapqs.tolist() == [20, 30]

    def test_vector_matches_streaming_reads_path(self, genome):
        """A matrix with per-read mapq must pileup identically to the
        same reads streamed through the CIGAR-aware engine (which has
        always applied ``min_mapq`` per read)."""
        from repro.io.records import AlignedRead
        from repro.pileup.column import CODE_TO_BASE

        rng = np.random.default_rng(5)
        n, rl = 40, 30
        starts = np.sort(rng.integers(0, 200, size=n)).astype(np.int64)
        codes = rng.integers(0, 4, size=(n, rl)).astype(np.uint8)
        quals = rng.integers(10, 40, size=(n, rl)).astype(np.uint8)
        rev = rng.random(n) < 0.5
        mapqs = rng.integers(0, 60, size=n)
        region = Region(genome.name, 0, 240)
        cfg = PileupConfig(min_mapq=25)

        batch = pileup_batch_from_arrays(
            starts, codes, quals, rev, genome.sequence, region, cfg,
            mapq=mapqs,
        )
        reads = [
            AlignedRead(
                qname=f"r{i}",
                flag=16 if rev[i] else 0,
                rname=genome.name,
                pos=int(starts[i]),
                mapq=int(mapqs[i]),
                cigar=[(0, rl)],
                seq="".join(CODE_TO_BASE[c] for c in codes[i]),
                qual=quals[i],
            )
            for i in range(n)
        ]
        stream = list(pileup(reads, genome.sequence, region, cfg))
        batch_cols = list(batch.columns())
        assert len(batch_cols) == len(stream)
        for a, b in zip(batch_cols, stream):
            assert a.pos == b.pos
            assert np.array_equal(a.base_codes, b.base_codes)
            assert np.array_equal(a.quals, b.quals)
            assert np.array_equal(a.reverse, b.reverse)
            assert np.array_equal(a.mapqs, b.mapqs)

    def test_unsorted_fallback_carries_vector(self):
        starts = np.array([2, 0], dtype=np.int64)  # unsorted on purpose
        codes = np.tile(np.array([[0, 1]], dtype=np.uint8), (2, 1))
        quals = np.full((2, 2), 30, dtype=np.uint8)
        rev = np.array([False, False])
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                mapq=np.array([7, 9]),
            ).columns()
        )
        by_pos = {c.pos: c for c in cols}
        assert by_pos[0].mapqs.tolist() == [9]
        assert by_pos[2].mapqs.tolist() == [7]

    def test_vector_saturates_above_255(self):
        starts, codes, quals, rev = self._three_reads()
        cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                PileupConfig(min_mapq=260),
                mapq=np.array([300, 100, 400]),
            ).columns()
        )
        flat = np.concatenate([c.mapqs for c in cols])
        assert set(flat.tolist()) == {255}  # reads 0 and 2 survive

    def test_vector_validation(self):
        starts, codes, quals, rev = self._three_reads()
        with pytest.raises(ValueError, match="shape"):
            list(
                pileup_batch_from_arrays(
                    starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                    mapq=np.array([1, 2]),
                ).columns()
            )
        with pytest.raises(ValueError, match="non-negative"):
            list(
                pileup_batch_from_arrays(
                    starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                    mapq=np.array([1, -2, 3]),
                ).columns()
            )

    def test_all_reads_filtered_yields_empty(self):
        starts, codes, quals, rev = self._three_reads()
        batch_cols = list(
            pileup_batch_from_arrays(
                starts, codes, quals, rev, "TTTTT", Region("c", 0, 5),
                PileupConfig(min_mapq=50),
                mapq=np.array([1, 2, 3]),
            ).columns()
        )
        assert batch_cols == []
