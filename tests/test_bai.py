"""Tests for the BAI binning index and the unified random-access API.

Covers the ISSUE 6 acceptance criteria: ``.bai`` files round-trip
through writer -> reader, the writer's layout byte-compares against a
hand-assembled spec-layout fixture (and external-layout fixtures
parse), ``reg2bins`` agrees with brute-force interval overlap, and
region calls planned through a :class:`~repro.io.bai.BaiIndex` are
byte-identical to the linear-index path.
"""

import functools
import io
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import FormatError
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
from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.index import (
    MAX_VOFFSET,
    Chunk,
    RandomAccessIndex,
    build_bai_index,
    build_linear_index,
    load_index,
)
from repro.io.records import FLAG_UNMAPPED, AlignedRead, SamHeader
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
        source = BamSource(two_contig["bam"], two_contig["refs"])
        result = Pipeline(source).run()
        stats = result.stats.to_dict()
        assert stats["cache_misses"] > 0
        assert stats["cache_hits"] >= 0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        # A serial run on a fresh source reads through one reader, so
        # the run's counters are that reader's lifetime counters.
        bgzf = source._local.reader._bgzf
        assert bgzf.blocks_read > 0
        assert bgzf.cache_misses == stats["cache_misses"]


class TestMultiContigIndexPersistence:
    """The in-memory linear index's mapping view, and ``load_index``:
    BAI is the one on-disk index format."""

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

    def test_load_index_unknown_magic(self, two_contig):
        path = two_contig["root"] / "garbage.idx"
        # RLI1 and RMI1 are the retired linear-index sidecars.
        for magic in (b"NOPE", b"RLI1", b"RMI1"):
            path.write_bytes(magic + b"\x00" * 16)
            with pytest.raises(ValueError, match="unrecognised index magic"):
                load_index(path)

    def test_load_index_rejects_truncated_bai(self, two_contig):
        """Every prefix that cuts into the references is a typed error,
        never a ``struct.error`` from a short read.  The last 8 bytes
        are the optional ``n_no_coor`` trailer."""
        data = build_bai_index(two_contig["bam"]).to_bytes()
        path = two_contig["root"] / "cut.bai"
        for size in range(len(data) - 8):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_index(path)
        path.write_bytes(data[:-8])
        assert load_index(path).n_no_coor is None

    def test_load_index_rejects_negative_counts(self, two_contig):
        """A negative bin, chunk or interval count is corruption, not
        an empty index that would silently plan no records."""
        path = two_contig["root"] / "negative.bai"
        head = BAI_MAGIC + struct.pack("<i", 1)
        for body, noun in [
            (struct.pack("<i", -1), "bin"),
            (struct.pack("<iIi", 1, 4681, -1), "chunk"),
            (struct.pack("<ii", 0, -1), "interval"),
        ]:
            path.write_bytes(head + body)
            with pytest.raises(ValueError, match=f"negative {noun} count"):
                load_index(path)
        path.write_bytes(BAI_MAGIC + struct.pack("<i", -1))
        with pytest.raises(ValueError, match="negative reference count"):
            load_index(path)


def _bgzf(payload: bytes) -> io.BytesIO:
    """``payload`` wrapped in a valid BGZF stream."""
    buf = io.BytesIO()
    with BgzfWriter(buf) as writer:
        writer.write(payload)
    buf.seek(0)
    return buf


def _inflate(raw: bytes) -> bytes:
    with BgzfReader(io.BytesIO(raw)) as reader:
        return reader.read()


@functools.lru_cache(maxsize=None)
def small_bam_payload():
    """``(header bytes, record bytes)`` of a small decompressed BAM:
    two contigs, clipped and gapped CIGARs, a placed unmapped read and
    an unplaced one."""
    header = SamHeader(
        references=[("chrA", 5_000), ("chrB", 3_000)], sort_order="coordinate"
    )
    seq, qual = "ACGTACGTACGTACGTACGT", [30] * 20

    def unmapped(qname, rname, pos):
        return AlignedRead(qname, FLAG_UNMAPPED, rname, pos, 0, [], seq, qual)

    reads = [
        AlignedRead.simple("a1", "chrA", 10, seq, qual),
        AlignedRead.simple("a2", "chrA", 12, seq, qual, cigar="5S15M"),
        AlignedRead.simple("a3", "chrA", 40, seq, qual, cigar="8M3D4M2I6M"),
        unmapped("a4", "chrA", 40),
        AlignedRead.simple("b1", "chrB", 7, seq, qual, cigar="10M100N10M"),
        AlignedRead.simple("b2", "chrB", 90, seq, qual),
        unmapped("u1", "*", -1),
    ]
    empty, full = io.BytesIO(), io.BytesIO()
    BamWriter(empty, header).close()
    with BamWriter(full, header) as writer:
        for read in reads:
            writer.write(read)
    head = _inflate(empty.getvalue())
    payload = _inflate(full.getvalue())
    return head, payload[len(head):]


BUILDERS = [build_linear_index, build_bai_index]


class TestIndexBuildInput:
    """Both builders walk fixed fields only, and a malformed record is a
    ``ValueError`` naming its virtual offset."""

    def test_builds_decode_no_records(self, two_contig, monkeypatch):
        import repro.io.bam

        def refuse(body, header):
            raise AssertionError("an index build decoded a record")

        monkeypatch.setattr(repro.io.bam, "decode_record", refuse)
        assert build_linear_index(two_contig["bam"]).contigs() == [
            "ctgA", "ctgB"
        ]
        bai = build_bai_index(two_contig["bam"])
        assert [ref.mapped > 0 for ref in bai.references] == [True, True]

    def test_small_payload_indexes(self):
        head, records = small_bam_payload()
        linear = build_linear_index(_bgzf(head + records), granularity=1)
        # The placed unmapped a4 is not a checkpoint; a3 spans 21 bases.
        assert [pos for pos, _ in linear["chrA"].checkpoints] == [10, 12, 40]
        assert linear["chrA"].max_read_span == 21
        assert linear["chrB"].max_read_span == 120
        bai = build_bai_index(_bgzf(head + records))
        assert (bai.references[0].mapped, bai.references[0].unmapped) == (3, 1)
        assert bai.n_no_coor == 1

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize(
        "case, match",
        [
            ("cut", "cut short"),
            ("small_block", "block_size -5"),
            ("long_cigar", "run past"),
            ("ref_id", "refID 7"),
            ("cigar_op", "CIGAR op code 9"),
        ],
    )
    def test_malformed_record_raises(self, builder, case, match):
        head, records = small_bam_payload()
        records = bytearray(records)
        first_cigar = 4 + 32 + records[12]  # block_size, core, read name
        if case == "cut":
            records = records[:-5]
        elif case == "small_block":
            records[0:4] = struct.pack("<i", -5)
        elif case == "long_cigar":
            records[16:18] = struct.pack("<H", 0xFFFF)
        elif case == "ref_id":
            records[4:8] = struct.pack("<i", 7)
        else:
            records[first_cigar] = (records[first_cigar] & 0xF0) | 9
        with pytest.raises(ValueError, match=match) as info:
            builder(_bgzf(head + bytes(records)))
        assert "voffset" in str(info.value)

    @given(
        mode=st.sampled_from(["truncate", "flip"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_damaged_records_build_or_raise_value_error(self, mode, seed):
        """Truncated or byte-flipped records, re-wrapped in valid BGZF:
        each builder returns or raises ``ValueError`` -- never
        ``EOFError``, ``IndexError`` or ``struct.error``."""
        head, records = small_bam_payload()
        records = bytearray(records)
        rng = random.Random(seed)
        if mode == "truncate":
            records = records[: rng.randrange(len(records))]
        else:
            records[rng.randrange(len(records))] ^= rng.randint(1, 255)
        for builder in BUILDERS:
            try:
                builder(_bgzf(head + bytes(records)))
            except ValueError:
                pass


class TestBaiInputErrors:
    """A damaged ``.bai`` is a ``FormatError`` naming the file and the
    byte offset; misuse of the API stays a plain ``ValueError``."""

    @staticmethod
    def _bai_bytes() -> bytes:
        head, records = small_bam_payload()
        return build_bai_index(_bgzf(head + records)).to_bytes()

    def test_errors_name_file_and_offset(self, tmp_path):
        data = self._bai_bytes()
        path = tmp_path / "damaged.bai"
        for raw, match in [
            (data[:30], "truncated BAI index at byte 20"),
            (data[:8] + struct.pack("<i", -3) + data[12:], "negative bin count -3 at byte 8"),
            (b"BAM\x01" + data[4:], "unrecognised index magic b'BAM.* at byte 0"),
            (data[:12] + struct.pack("<I", MAX_BIN + 10) + data[16:], "bin id .* at byte 12 out of range"),
        ]:
            path.write_bytes(raw)
            with pytest.raises(FormatError, match=f"^{path}: {match}"):
                load_index(path)
        with pytest.raises(FormatError, match="^truncated BAI index at byte 20"):
            BaiIndex.from_handle(io.BytesIO(data[:30]))

    def test_api_misuse_stays_value_error(self):
        index = BaiIndex.from_handle(io.BytesIO(self._bai_bytes()))
        for misuse in (
            lambda: index.chunks_for("chrA", 0, 10),
            lambda: index.attach_names(["only one"]),
            lambda: bin_interval(PSEUDO_BIN),
        ):
            with pytest.raises(ValueError) as info:
                misuse()
            assert not isinstance(info.value, FormatError)

    @given(
        mode=st.sampled_from(["truncate", "flip"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_bai_loads_or_raises_format_error(self, tmp_path_factory, mode, seed):
        """Shaped like ``TestCorruptStreams``: a damaged encoding either
        loads as an index or raises ``FormatError``, nothing else."""
        rng = random.Random(seed)
        raw = bytearray(self._bai_bytes())
        if mode == "truncate":
            raw = raw[: rng.randrange(len(raw))]
        else:
            for _ in range(rng.randint(1, 4)):
                raw[rng.randrange(len(raw))] ^= rng.randint(1, 255)
        path = tmp_path_factory.mktemp("bai") / "mutated.bai"
        path.write_bytes(bytes(raw))
        try:
            index = load_index(path)
        except FormatError:
            return
        assert isinstance(index, BaiIndex)
