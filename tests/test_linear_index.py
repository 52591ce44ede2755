"""Unit tests for the linear BAM index."""

import pytest

from repro.io.bam import BamReader, write_bam
from repro.io.index import build_linear_index
from repro.io.records import FLAG_UNMAPPED, AlignedRead, SamHeader


@pytest.fixture
def indexed_bam(tmp_path):
    header = SamHeader(references=[("chr1", 100_000)], sort_order="coordinate")
    reads = [
        AlignedRead.simple(f"r{i}", "chr1", i * 7, "ACGTACGTAC", [30] * 10)
        for i in range(1000)
    ]
    path = tmp_path / "idx.bam"
    write_bam(path, header, reads)
    return path


class TestBuild:
    def test_checkpoints_at_granularity(self, indexed_bam):
        index = build_linear_index(indexed_bam, granularity=100)["chr1"]
        assert len(index.checkpoints) == 10  # 1000 reads / 100
        positions = [p for p, _ in index.checkpoints]
        assert positions == sorted(positions)

    def test_max_read_span(self, indexed_bam):
        index = build_linear_index(indexed_bam)["chr1"]
        assert index.max_read_span == 10

    def test_unsorted_bam_rejected(self, tmp_path):
        header = SamHeader(references=[("chr1", 1000)])
        reads = [
            AlignedRead.simple("a", "chr1", 50, "AC", [30, 30]),
            AlignedRead.simple("b", "chr1", 10, "AC", [30, 30]),
        ]
        path = tmp_path / "unsorted.bam"
        write_bam(path, header, reads)
        with pytest.raises(ValueError, match="unsorted"):
            build_linear_index(path)

    def test_unsorted_unmapped_placed_rejected(self, tmp_path):
        """The sortedness check covers every placed record, unmapped
        ones too (they are not indexed, but BAI files them)."""
        header = SamHeader(references=[("chr1", 1000)])
        late = AlignedRead.simple("a", "chr1", 50, "AC", [30, 30])
        early = AlignedRead("b", FLAG_UNMAPPED, "chr1", 10, 0, [], "AC", [30, 30])
        path = tmp_path / "unsorted_unmapped.bam"
        write_bam(path, header, [late, early])
        with pytest.raises(ValueError, match="unsorted"):
            build_linear_index(path)

    def test_bad_granularity_raises(self, indexed_bam):
        with pytest.raises(ValueError):
            build_linear_index(indexed_bam, granularity=0)["chr1"]


class TestQuery:
    def test_seek_covers_all_overlapping_reads(self, indexed_bam):
        """Scanning from query(p) must see every read overlapping p."""
        index = build_linear_index(indexed_bam, granularity=64)["chr1"]
        with BamReader(indexed_bam) as reader:
            all_reads = list(reader)
        for pos in (0, 35, 500, 3500, 6990):
            expected = {
                r.qname for r in all_reads if r.pos <= pos < r.reference_end
            }
            with BamReader(indexed_bam) as reader:
                reader.seek(index.query(pos))
                seen = set()
                while True:
                    rec = reader.read_record()
                    if rec is None or rec.pos > pos:
                        break
                    if rec.pos <= pos < rec.reference_end:
                        seen.add(rec.qname)
            assert expected <= seen

    def test_query_before_first_read_returns_data_start(self, indexed_bam):
        index = build_linear_index(indexed_bam)["chr1"]
        with BamReader(indexed_bam) as reader:
            reader.seek(index.query(0))
            rec = reader.read_record()
            assert rec is not None
            assert rec.qname == "r0"


class TestSharedPositionCheckpoint:
    """A checkpoint is one record; reads that share its position but
    precede it in the file must not be skipped by a seek."""

    def test_seek_keeps_earlier_reads(self, tmp_path):
        header = SamHeader(references=[("chr1", 1000)], sort_order="coordinate")
        reads = [
            AlignedRead.simple(f"r{i}", "chr1", pos, "ACGTACGTAC", [30] * 10)
            for i, pos in enumerate((0, 0, 0, 5, 5, 5, 20))
        ]
        path = tmp_path / "shared.bam"
        write_bam(path, header, reads)
        # granularity 2 checkpoints r0, r2, r4 and r6: r4 is the second
        # read at position 5, so r3 precedes its checkpoint.
        index = build_linear_index(path, granularity=2)
        (chunk,) = index.chunks_for("chr1", 14, 15)
        with BamReader(path) as reader:
            reader.seek(chunk.vbegin)
            seen = [
                rec.qname
                for rec in iter(reader.read_record, None)
                if rec.pos <= 14 < rec.reference_end
            ]
        assert seen == ["r3", "r4", "r5"]

