"""Unit tests for genomic region parsing and arithmetic."""

import pytest

from repro.io.regions import (
    Region,
    merge_regions,
    parse_region,
    resolve_region,
    split_region,
)


class TestRegion:
    def test_length_and_contains(self):
        r = Region("c", 10, 20)
        assert len(r) == 10
        assert 10 in r
        assert 19 in r
        assert 20 not in r
        assert 9 not in r

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Region("c", -1, 5)
        with pytest.raises(ValueError):
            Region("c", 10, 5)

    def test_overlaps(self):
        a = Region("c", 0, 10)
        assert a.overlaps(Region("c", 9, 20))
        assert not a.overlaps(Region("c", 10, 20))
        assert not a.overlaps(Region("d", 0, 10))

    def test_intersect(self):
        a = Region("c", 0, 10)
        assert a.intersect(Region("c", 5, 20)) == Region("c", 5, 10)
        assert a.intersect(Region("c", 10, 20)) is None

    def test_to_samtools(self):
        assert Region("chr1", 0, 100).to_samtools() == "chr1:1-100"


class TestParse:
    def test_full_form(self):
        assert parse_region("chr1:11-20") == Region("chr1", 10, 20)

    def test_round_trips_samtools_text(self):
        r = Region("chrX", 123, 456)
        assert parse_region(r.to_samtools()) == r

    def test_thousands_separators(self):
        assert parse_region("c:1,001-2,000") == Region("c", 1000, 2000)

    def test_bare_chromosome_needs_length(self):
        assert parse_region("chr2", reference_length=500) == Region("chr2", 0, 500)
        with pytest.raises(ValueError):
            parse_region("chr2")

    def test_open_ended(self):
        assert parse_region("c:101", reference_length=300) == Region("c", 100, 300)

    def test_zero_start_raises(self):
        with pytest.raises(ValueError):
            parse_region("c:0-10")


class TestResolve:
    CONTIGS = [("c1", 600), ("c2", 300)]

    def resolve(self, text, references=("c1", "c2")):
        return resolve_region(text, self.CONTIGS, references, "ref.fa")

    def test_in_range_region_unchanged(self):
        assert self.resolve("c2:11-20") == Region("c2", 10, 20)
        assert self.resolve("c1") == Region("c1", 0, 600)

    def test_end_clamped_to_contig(self):
        assert self.resolve("c1:1-60000") == Region("c1", 0, 600)
        assert self.resolve("c2:300-999") == Region("c2", 299, 300)

    def test_start_past_end_rejected(self):
        with pytest.raises(ValueError, match="past the end of 'c2'"):
            self.resolve("c2:301-400")

    def test_contig_must_be_in_header_and_reference(self):
        with pytest.raises(ValueError, match="not in the BAM header"):
            self.resolve("c3:1-10")
        with pytest.raises(ValueError, match="not in ref.fa"):
            self.resolve("c2:1-10", references=("c1",))


class TestSplit:
    def test_exact_tiling(self):
        parts = split_region(Region("c", 0, 10), 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert parts[0].start == 0
        assert parts[-1].end == 10
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.start

    def test_more_chunks_than_length(self):
        parts = split_region(Region("c", 0, 2), 5)
        assert len(parts) == 2
        assert all(len(p) == 1 for p in parts)

    def test_single_chunk(self):
        (part,) = split_region(Region("c", 5, 9), 1)
        assert part == Region("c", 5, 9)

    def test_bad_count_raises(self):
        with pytest.raises(ValueError):
            split_region(Region("c", 0, 10), 0)


class TestMerge:
    def test_merges_overlapping(self):
        merged = merge_regions([Region("c", 0, 5), Region("c", 3, 10)])
        assert merged == [Region("c", 0, 10)]

    def test_merges_adjacent(self):
        merged = merge_regions([Region("c", 0, 5), Region("c", 5, 8)])
        assert merged == [Region("c", 0, 8)]

    def test_keeps_disjoint(self):
        merged = merge_regions([Region("c", 0, 2), Region("c", 5, 8)])
        assert merged == [Region("c", 0, 2), Region("c", 5, 8)]

    def test_multiple_chromosomes(self):
        merged = merge_regions(
            [Region("b", 0, 2), Region("a", 0, 4), Region("a", 1, 2)]
        )
        assert merged == [Region("a", 0, 4), Region("b", 0, 2)]
