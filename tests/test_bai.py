"""Tests for the BAI binning index and the unified random-access API.

Covers the ISSUE 6 acceptance criteria: ``.bai`` files round-trip
through writer -> reader, the writer's layout byte-compares against a
hand-assembled spec-layout fixture (and external-layout fixtures
parse), ``reg2bins`` agrees with brute-force interval overlap, and
region calls planned through a :class:`~repro.io.bai.BaiIndex` are
byte-identical to the linear-index path.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.bai import (
    BAI_MAGIC,
    MAX_BIN,
    PSEUDO_BIN,
    BaiIndex,
    BaiReference,
    bin_interval,
    build_bai,
    reg2bins,
)
from repro.io.bam import BamReader, BamWriter, reg2bin
from repro.io.index import (
    MAX_VOFFSET,
    Chunk,
    MultiContigIndex,
    RandomAccessIndex,
    build_bai_index,
    build_linear_index,
    load_index,
)
from repro.io.records import SamHeader
from repro.io.regions import Region
from repro.io.vcf import write_vcf
from repro.pipeline import BamSource, Pipeline


@pytest.fixture(scope="module")
def two_contig(tmp_path_factory):
    """A coordinate-sorted two-contig BAM with references and truth."""
    from repro.sim import ReadSimulator, random_panel
    from repro.sim.genome import random_genome

    root = tmp_path_factory.mktemp("bai")
    genome_a = random_genome(900, gc_content=0.4, name="ctgA", seed=31)
    genome_b = random_genome(600, gc_content=0.45, name="ctgB", seed=32)
    panel_a = random_panel(genome_a.sequence, 4, freq_range=(0.08, 0.2), seed=33)
    panel_b = random_panel(genome_b.sequence, 3, freq_range=(0.08, 0.2), seed=34)
    sample_a = ReadSimulator(genome_a, panel_a, read_length=70).simulate(
        depth=150, seed=35
    )
    sample_b = ReadSimulator(genome_b, panel_b, read_length=70).simulate(
        depth=150, seed=36
    )
    bam = root / "two.bam"
    header = SamHeader(
        references=[("ctgA", len(genome_a)), ("ctgB", len(genome_b))],
        sort_order="coordinate",
    )
    with BamWriter(bam, header) as writer:
        for read in sample_a.reads():
            writer.write(read)
        for read in sample_b.reads():
            writer.write(read)
    return {
        "root": root,
        "bam": bam,
        "refs": {"ctgA": genome_a.sequence, "ctgB": genome_b.sequence},
        "lengths": {"ctgA": len(genome_a), "ctgB": len(genome_b)},
    }


def brute_force_overlaps(bam_path, contig, start, end):
    """Oracle: qnames of records overlapping the region, by full scan."""
    out = []
    with BamReader(bam_path) as reader:
        for rec in reader:
            if rec.rname != contig or rec.is_unmapped:
                continue
            if rec.pos < end and rec.reference_end > start:
                out.append(rec.qname)
    return out


def scan_plan(bam_path, plan, contig, start, end):
    """Qnames of in-region records reached by walking a chunk plan."""
    out = []
    with BamReader(bam_path) as reader:
        for chunk in plan:
            reader.seek(chunk.vbegin)
            while True:
                if chunk.vend < MAX_VOFFSET and reader.tell() >= chunk.vend:
                    break
                rec = reader.read_record()
                if rec is None:
                    break
                if rec.rname != contig or rec.pos >= end:
                    continue
                if rec.reference_end > start and not rec.is_unmapped:
                    out.append(rec.qname)
    return out


class TestReg2bins:
    def test_empty_region(self):
        assert reg2bins(100, 100) == []
        assert reg2bins(100, 50) == []

    def test_small_region_levels(self):
        # A sub-16kbp region at the origin touches exactly one bin per
        # level.
        assert reg2bins(0, 1) == [0, 1, 9, 73, 585, 4681]

    def test_ascending_and_unique(self):
        bins = reg2bins(123_456, 9_876_543)
        assert bins == sorted(bins)
        assert len(bins) == len(set(bins))

    @given(
        rec_beg=st.integers(min_value=0, max_value=(1 << 29) - 200),
        rec_len=st.integers(min_value=1, max_value=150),
        q_beg=st.integers(min_value=0, max_value=(1 << 29) - 200),
        q_len=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_overlapping_record_bin_is_candidate(
        self, rec_beg, rec_len, q_beg, q_len
    ):
        """Soundness: a record overlapping the query must be filed in
        one of ``reg2bins``' candidate bins."""
        rec_end = rec_beg + rec_len
        q_end = q_beg + q_len
        bin_id = reg2bin(rec_beg, rec_end)
        candidates = reg2bins(q_beg, q_end)
        overlaps = rec_beg < q_end and rec_end > q_beg
        if overlaps:
            assert bin_id in candidates
        # Completeness of the converse: every candidate bin's tile
        # intersects the query.
        for b in candidates:
            beg, end = bin_interval(b)
            assert beg < q_end and end > q_beg


class TestBinInterval:
    @pytest.mark.parametrize("bin_id,beg,width_log2", [
        (0, 0, 29),
        (1, 0, 26),
        (8, 7 << 26, 26),
        (9, 0, 23),
        (73, 0, 20),
        (585, 0, 17),
        (4681, 0, 14),
        (4682, 1 << 14, 14),
    ])
    def test_known_tiles(self, bin_id, beg, width_log2):
        lo, hi = bin_interval(bin_id)
        assert lo == beg
        assert hi - lo == 1 << width_log2

    def test_rejects_pseudo_bin(self):
        with pytest.raises(ValueError):
            bin_interval(PSEUDO_BIN)
        with pytest.raises(ValueError):
            bin_interval(MAX_BIN)

    def test_matches_reg2bin(self):
        # A record exactly filling a bin's tile is filed in that bin.
        for bin_id in (0, 1, 9, 73, 585, 4681, 4700, 37448):
            lo, hi = bin_interval(bin_id)
            assert reg2bin(lo, hi) == bin_id


class TestRoundTrip:
    def test_save_load_byte_identical(self, two_contig):
        index = build_bai(two_contig["bam"])
        path = two_contig["root"] / "rt.bai"
        index.save(path)
        loaded = BaiIndex.load(path)
        assert loaded.to_bytes() == index.to_bytes()
        assert path.read_bytes() == index.to_bytes()

    def test_structure_survives(self, two_contig):
        index = build_bai(two_contig["bam"])
        path = two_contig["root"] / "rt2.bai"
        index.save(path)
        loaded = BaiIndex.load(path)
        assert len(loaded.references) == 2
        for built, parsed in zip(index.references, loaded.references):
            assert parsed.bins == built.bins
            assert parsed.intervals == built.intervals
            assert parsed.mapped == built.mapped
            assert parsed.ref_beg == built.ref_beg
            assert parsed.ref_end == built.ref_end
        assert loaded.n_no_coor == index.n_no_coor

    def test_metadata_counts(self, two_contig):
        index = build_bai(two_contig["bam"])
        with BamReader(two_contig["bam"]) as reader:
            per_contig = {"ctgA": 0, "ctgB": 0}
            for rec in reader:
                per_contig[rec.rname] += 1
        assert index.references[0].mapped == per_contig["ctgA"]
        assert index.references[1].mapped == per_contig["ctgB"]
        assert index.n_no_coor == 0

    def test_loaded_index_needs_names(self, two_contig):
        path = two_contig["root"] / "rt3.bai"
        build_bai(two_contig["bam"]).save(path)
        loaded = BaiIndex.load(path)
        with pytest.raises(ValueError, match="names"):
            loaded.chunks_for("ctgA", 0, 100)
        loaded.attach_names(["ctgA", "ctgB"])
        assert loaded.chunks_for("ctgA", 0, 100)

    def test_attach_names_count_mismatch(self, two_contig):
        index = build_bai(two_contig["bam"])
        with pytest.raises(ValueError, match="references"):
            index.attach_names(["onlyone"])


def spec_layout_bytes():
    """Hand-assembled spec-layout BAI: 2 references; the first holds
    bin 4681 with one chunk and bin 0 with one chunk plus the
    pseudo-bin; the second is empty.  Returns (bytes, BaiIndex equal
    by construction)."""
    raw = bytearray()
    raw += BAI_MAGIC
    raw += struct.pack("<i", 2)  # n_ref
    # -- reference 0: 2 real bins + pseudo-bin
    raw += struct.pack("<i", 3)  # n_bin
    raw += struct.pack("<Ii", 0, 1)  # bin 0, 1 chunk
    raw += struct.pack("<QQ", 200 << 16, 300 << 16)
    raw += struct.pack("<Ii", 4681, 1)  # bin 4681, 1 chunk
    raw += struct.pack("<QQ", 100 << 16, (150 << 16) | 7)
    raw += struct.pack("<Ii", PSEUDO_BIN, 2)  # metadata pseudo-bin
    raw += struct.pack("<QQ", 100 << 16, 300 << 16)  # ref_beg, ref_end
    raw += struct.pack("<QQ", 41, 1)  # mapped, unmapped
    raw += struct.pack("<i", 2)  # n_intv
    raw += struct.pack("<Q", 100 << 16)
    raw += struct.pack("<Q", 180 << 16)
    # -- reference 1: no records
    raw += struct.pack("<i", 0)  # n_bin
    raw += struct.pack("<i", 0)  # n_intv
    raw += struct.pack("<Q", 5)  # n_no_coor trailer
    index = BaiIndex(
        [
            BaiReference(
                bins={
                    0: [Chunk(200 << 16, 300 << 16)],
                    4681: [Chunk(100 << 16, (150 << 16) | 7)],
                },
                intervals=[100 << 16, 180 << 16],
                ref_beg=100 << 16,
                ref_end=300 << 16,
                mapped=41,
                unmapped=1,
            ),
            BaiReference(),
        ],
        n_no_coor=5,
    )
    return bytes(raw), index


class TestInterop:
    def test_parse_external_layout(self):
        """A spec-layout index assembled byte by byte (as an external
        tool would write it) parses into the expected structure."""
        raw, expected = spec_layout_bytes()
        parsed = BaiIndex.from_handle(io.BytesIO(raw))
        assert len(parsed.references) == 2
        ref0 = parsed.references[0]
        assert ref0.bins == expected.references[0].bins
        assert ref0.intervals == expected.references[0].intervals
        assert ref0.ref_beg == 100 << 16
        assert ref0.ref_end == 300 << 16
        assert (ref0.mapped, ref0.unmapped) == (41, 1)
        assert parsed.references[1].bins == {}
        assert parsed.n_no_coor == 5

    def test_writer_matches_spec_layout(self):
        """The writer emits exactly the hand-assembled layout for the
        same logical index -- the byte-compare interop criterion."""
        raw, index = spec_layout_bytes()
        assert index.to_bytes() == raw

    def test_missing_trailer_tolerated(self):
        raw, _ = spec_layout_bytes()
        parsed = BaiIndex.from_handle(io.BytesIO(raw[:-8]))
        assert parsed.n_no_coor is None

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            BaiIndex.from_handle(io.BytesIO(b"BAM\x01" + b"\x00" * 16))

    def test_truncation_rejected(self):
        raw, _ = spec_layout_bytes()
        with pytest.raises(ValueError, match="truncated"):
            BaiIndex.from_handle(io.BytesIO(raw[:20]))

    def test_out_of_range_bin_rejected(self):
        raw = bytearray()
        raw += BAI_MAGIC
        raw += struct.pack("<i", 1)
        raw += struct.pack("<i", 1)
        raw += struct.pack("<Ii", MAX_BIN + 10, 0)  # not the pseudo-bin
        raw += struct.pack("<i", 0)
        with pytest.raises(ValueError, match="out of range"):
            BaiIndex.from_handle(io.BytesIO(bytes(raw)))


class TestQueries:
    @pytest.mark.parametrize("contig,start,end", [
        ("ctgA", 0, 900),
        ("ctgA", 200, 400),
        ("ctgA", 850, 900),
        ("ctgB", 0, 600),
        ("ctgB", 10, 11),
        ("ctgB", 590, 600),
    ])
    def test_plan_reaches_every_overlapping_record(
        self, two_contig, contig, start, end
    ):
        index = build_bai(two_contig["bam"])
        plan = index.chunks_for(contig, start, end)
        got = scan_plan(two_contig["bam"], plan, contig, start, end)
        want = brute_force_overlaps(two_contig["bam"], contig, start, end)
        assert got == want

    def test_plan_sorted_non_overlapping(self, two_contig):
        index = build_bai(two_contig["bam"])
        plan = index.chunks_for("ctgA", 0, 900)
        assert plan == sorted(plan)
        for a, b in zip(plan, plan[1:]):
            assert a.vend < b.vbegin

    def test_unknown_contig_empty(self, two_contig):
        index = build_bai(two_contig["bam"])
        assert index.chunks_for("ctgZ", 0, 100) == []

    def test_empty_region_empty(self, two_contig):
        index = build_bai(two_contig["bam"])
        assert index.chunks_for("ctgA", 50, 50) == []

    def test_protocol_conformance(self, two_contig):
        bai = build_bai(two_contig["bam"])
        linear = build_linear_index(two_contig["bam"])
        assert isinstance(bai, RandomAccessIndex)
        assert isinstance(linear, RandomAccessIndex)
        assert bai.contigs() == ["ctgA", "ctgB"]
        assert linear.contigs() == ["ctgA", "ctgB"]

    def test_linear_plan_equivalent(self, two_contig):
        """The linear index's open-ended plan reaches the same record
        set as the BAI's binned plan."""
        linear = build_linear_index(two_contig["bam"])
        for contig, start, end in [("ctgA", 300, 500), ("ctgB", 100, 250)]:
            plan = linear.chunks_for(contig, start, end)
            assert len(plan) == 1 and plan[0].vend == MAX_VOFFSET
            got = scan_plan(two_contig["bam"], plan, contig, start, end)
            want = brute_force_overlaps(two_contig["bam"], contig, start, end)
            assert got == want


def vcf_bytes(result, contigs):
    buf = io.StringIO()
    write_vcf(buf, [c.to_vcf_record() for c in result.calls], reference=contigs)
    return buf.getvalue()


class TestPipelineEquivalence:
    """BAI-path region calls are byte-identical to the linear path."""

    REGIONS = [
        [Region("ctgA", 100, 700)],
        [Region("ctgB", 50, 550)],
        [Region("ctgA", 0, 900), Region("ctgB", 0, 600)],
    ]

    @pytest.mark.parametrize("regions", REGIONS)
    def test_bai_vs_linear_byte_identical(self, two_contig, regions):
        contigs = [(name, two_contig["lengths"][name])
                   for name in ("ctgA", "ctgB")]
        outputs = {}
        for label, index in [
            ("linear", None),
            ("bai", build_bai_index(two_contig["bam"])),
        ]:
            source = BamSource(
                two_contig["bam"],
                two_contig["refs"],
                regions=regions,
                index=index,
            )
            outputs[label] = vcf_bytes(Pipeline(source).run(), contigs)
        assert outputs["bai"] == outputs["linear"]
        assert outputs["bai"].count("\n") > len(contigs)  # not header-only

    def test_sidecar_path_byte_identical(self, two_contig):
        """``index=<path>`` (the CLI ``--index`` route) loads the
        sidecar and produces the same calls as the in-memory index."""
        contigs = [(name, two_contig["lengths"][name])
                   for name in ("ctgA", "ctgB")]
        bai_path = two_contig["root"] / "sidecar.bai"
        build_bai_index(two_contig["bam"]).save(bai_path)
        regions = [Region("ctgA", 150, 800), Region("ctgB", 0, 400)]
        results = {}
        for label, index in [("memory", None), ("sidecar", bai_path)]:
            source = BamSource(
                two_contig["bam"],
                two_contig["refs"],
                regions=regions,
                index=index,
            )
            results[label] = vcf_bytes(Pipeline(source).run(), contigs)
        assert results["sidecar"] == results["memory"]

    def test_threaded_bai_matches_serial(self, two_contig):
        from repro.pipeline import ExecutionPolicy

        contigs = [(name, two_contig["lengths"][name])
                   for name in ("ctgA", "ctgB")]
        index = build_bai_index(two_contig["bam"])
        serial = Pipeline(
            BamSource(two_contig["bam"], two_contig["refs"], index=index)
        ).run()
        threaded = Pipeline(
            BamSource(two_contig["bam"], two_contig["refs"], index=index),
            policy=ExecutionPolicy(
                mode="thread", n_workers=3, chunk_columns=128
            ),
        ).run()
        assert vcf_bytes(threaded, contigs) == vcf_bytes(serial, contigs)

    def test_cache_stats_reported(self, two_contig):
        source = BamSource(
            two_contig["bam"], two_contig["refs"], cache_blocks=4
        )
        result = Pipeline(source).run()
        stats = result.stats.to_dict()
        assert stats["cache_misses"] > 0
        assert stats["cache_hits"] >= 0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        io_stats = source.io_stats()
        assert io_stats["blocks_read"] > 0
        assert io_stats["cache_misses"] == stats["cache_misses"]

    def test_invalid_cache_blocks_rejected(self, two_contig):
        with pytest.raises(ValueError, match="cache_blocks"):
            BamSource(
                two_contig["bam"], two_contig["refs"], cache_blocks=0
            )


class TestMultiContigIndexPersistence:
    def test_save_load_round_trip(self, two_contig):
        index = build_linear_index(two_contig["bam"])
        path = two_contig["root"] / "multi.rmi"
        index.save(path)
        loaded = MultiContigIndex.load(path)
        assert list(loaded) == list(index)
        for name in index:
            assert loaded[name].checkpoints == index[name].checkpoints
            assert loaded[name].max_read_span == index[name].max_read_span
            assert loaded[name].data_start == index[name].data_start

    def test_mapping_interface(self, two_contig):
        index = build_linear_index(two_contig["bam"])
        assert len(index) == 2
        assert "ctgA" in index
        assert index.get("nope") is None

    def test_load_index_sniffs_bai(self, two_contig):
        path = two_contig["root"] / "sniff.bai"
        build_bai_index(two_contig["bam"]).save(path)
        index = load_index(path, names=["ctgA", "ctgB"])
        assert isinstance(index, BaiIndex)
        assert index.contigs() == ["ctgA", "ctgB"]

    def test_load_index_sniffs_multi(self, two_contig):
        path = two_contig["root"] / "sniff.rmi"
        build_linear_index(two_contig["bam"]).save(path)
        index = load_index(path)
        assert isinstance(index, MultiContigIndex)
        assert index.contigs() == ["ctgA", "ctgB"]

    def test_load_index_unknown_magic(self, two_contig):
        path = two_contig["root"] / "garbage.idx"
        # RLI1 is the retired single-contig linear sidecar.
        for magic in (b"NOPE", b"RLI1"):
            path.write_bytes(magic + b"\x00" * 16)
            with pytest.raises(ValueError, match="magic"):
                load_index(path)

    def test_load_index_rejects_truncated_multi(self, two_contig):
        """Every proper prefix of a valid sidecar is a typed error,
        never a ``struct.error`` from a short read."""
        full = two_contig["root"] / "whole.rmi"
        build_linear_index(two_contig["bam"]).save(full)
        data = full.read_bytes()
        path = two_contig["root"] / "cut.rmi"
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_index(path)

    def test_load_index_rejects_negative_counts(self, two_contig):
        """A negative contig or checkpoint count is corruption, not an
        empty index that would silently plan no records."""
        path = two_contig["root"] / "negative.rmi"
        path.write_bytes(b"RMI1" + struct.pack("<i", -1))
        with pytest.raises(ValueError, match="negative contig count"):
            load_index(path)
        name = b"ctgA"
        path.write_bytes(
            b"RMI1" + struct.pack("<iH", 1, len(name)) + name
            + struct.pack("<qqq", 70, 0, -1)
        )
        with pytest.raises(ValueError, match="negative checkpoint count"):
            load_index(path)

