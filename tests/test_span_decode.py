"""The batched engine's BAM path: records decoded a span at a time.

``BamSource.batches_for`` walks records by their fixed fields and
decodes each window's records together (``RecordSpan`` plus
``pileup_batch_from_records``), building no ``AlignedRead``.  These
tests hold it to the streaming engine's per-record path
(``BamSource.columns_for``): the same columns on every plane under
every seek plan, and the same error for every damaged record.
"""

import io
import itertools
import random
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CallerConfig
from repro.io import FormatError
from repro.io.bam import (
    BamReader,
    BamWriter,
    RecordSpan,
    decode_record,
    encode_record,
    read_bam,
    walk_spans,
)
from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.cigar import CigarOp, collapse
from repro.io.index import build_bai_index
from repro.io.records import (
    FLAG_DUPLICATE,
    FLAG_QCFAIL,
    FLAG_REVERSE,
    FLAG_SECONDARY,
    FLAG_SUPPLEMENTARY,
    FLAG_UNMAPPED,
    AlignedRead,
    SamHeader,
)
from repro.io.regions import Region
from repro.pileup.column import BATCH_COLUMNS, ColumnBatch
from repro.pileup.engine import PileupConfig
from repro.pileup.vectorized import iter_pileup_batches
from repro.pipeline import BamSource, Pipeline, VcfSink

CONTIGS = [("ctgA", 260), ("ctgB", 180), ("ctgC", 120)]
HEADER = SamHeader(references=CONTIGS, sort_order="coordinate")
_rng = np.random.default_rng(7)
REFERENCE = {
    name: "".join(_rng.choice(list("ACGT"), size=length))
    for name, length in CONTIGS
}
FLAGS = [
    0,
    FLAG_UNMAPPED,
    FLAG_SECONDARY,
    FLAG_SUPPLEMENTARY,
    FLAG_DUPLICATE,
    FLAG_QCFAIL,
]


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


def merged(batches, chrom) -> ColumnBatch:
    return ColumnBatch.from_columns(
        [c for b in batches for c in b.columns()], chrom=chrom
    )


def streaming_batch(source: BamSource, region: Region) -> ColumnBatch:
    """The per-record path: ``AlignedRead`` through the streaming sweep."""
    return ColumnBatch.from_columns(
        list(source.columns_for(region)), chrom=region.chrom
    )


@st.composite
def cigars(draw, ungapped_length):
    if ungapped_length:
        return [(CigarOp.M, ungapped_length)]
    ops = []
    if draw(st.integers(0, 4)) == 0:
        ops.append((CigarOp.H, draw(st.integers(1, 5))))
    if draw(st.integers(0, 2)) == 0:
        ops.append((CigarOp.S, draw(st.integers(1, 8))))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(
            st.sampled_from(
                [CigarOp.M, CigarOp.M, CigarOp.EQ, CigarOp.X, CigarOp.I,
                 CigarOp.D, CigarOp.N]
            )
        )
        ops.append((op, draw(st.integers(1, 25))))
    if draw(st.integers(0, 2)) == 0:
        ops.append((CigarOp.S, draw(st.integers(1, 8))))
    if draw(st.integers(0, 4)) == 0:
        ops.append((CigarOp.H, draw(st.integers(1, 5))))
    return collapse(ops)


@st.composite
def reads_on(draw, name, length, ungapped_length, first):
    out = []
    positions = sorted(
        draw(st.lists(st.integers(0, length - 1), max_size=28))
    )
    for i, pos in enumerate(positions):
        cigar = draw(cigars(ungapped_length))
        n_query = sum(n for op, n in cigar if op in (
            CigarOp.M, CigarOp.I, CigarOp.S, CigarOp.EQ, CigarOp.X))
        kind = draw(st.integers(0, 15))
        if kind == 0:  # SEQ '*'
            seq, qual = "", []
        else:
            seq = "".join(
                draw(
                    st.lists(
                        st.sampled_from("ACGTACGTACGTN=RYa"),
                        min_size=n_query,
                        max_size=n_query,
                    )
                )
            )
            if kind == 1:  # qualities unavailable: all 0xff
                qual = [0xFF] * n_query
            else:
                qual = draw(
                    st.lists(
                        st.integers(0, 41), min_size=n_query, max_size=n_query
                    )
                )
        flag = draw(st.sampled_from(FLAGS)) if draw(st.integers(0, 2)) == 0 else 0
        if draw(st.booleans()):
            flag |= FLAG_REVERSE
        out.append(
            AlignedRead(
                qname=f"{name}_{first + i}",
                flag=flag,
                rname=name,
                pos=pos,
                mapq=draw(st.integers(0, 60)),
                cigar=[] if flag & FLAG_UNMAPPED and kind == 2 else cigar,
                seq=seq,
                qual=np.array(qual, dtype=np.uint8),
            )
        )
    return out


@st.composite
def bam_cases(draw):
    ungapped_length = draw(st.sampled_from([0, 0, 15, 30]))
    reads = []
    for name, length in CONTIGS:
        reads += draw(reads_on(name, length, ungapped_length, len(reads)))
    for i in range(draw(st.integers(0, 2))):
        reads.append(
            AlignedRead(
                qname=f"u{i}", flag=FLAG_UNMAPPED, rname="*", pos=-1,
                mapq=0, cigar=[], seq="ACGT",
                qual=np.full(4, 30, dtype=np.uint8),
            )
        )
    name, length = draw(st.sampled_from(CONTIGS))
    start = 0 if draw(st.booleans()) else draw(st.integers(0, length - 1))
    end = draw(st.integers(start + 1, length))
    config = PileupConfig(
        min_mapq=draw(st.sampled_from([0, 0, 20])),
        min_baseq=draw(st.sampled_from([0, 6, 20])),
        max_depth=draw(st.sampled_from([1_000_000, 4, 1])),
        include_duplicates=draw(st.booleans()),
        include_secondary=draw(st.booleans()),
        include_qcfail=draw(st.booleans()),
    )
    return reads, Region(name, start, end), config


@pytest.fixture(scope="module")
def bam_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("span")


_counter = itertools.count()


def write(dirpath, reads) -> str:
    path = dirpath / f"case{next(_counter)}.bam"
    with BamWriter(str(path), HEADER) as writer:
        for read in reads:
            writer.write(read)
    return str(path)


class TestSpanMatchesStreaming:
    @given(case=bam_cases(), caps=st.lists(
        st.sampled_from([1, 7, 40, 16384]), min_size=1, max_size=2,
        unique=True,
    ))
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_plan_and_window(self, bam_dir, case, caps):
        """Mixed CIGARs, lengths, flags, SEQ-less and 0xff reads,
        neighbouring contigs: the span path's batches equal the
        streaming columns under the rewind, linear and BAI plans."""
        reads, region, config = case
        path = write(bam_dir, reads)
        bai = build_bai_index(path)
        expected = streaming_batch(
            BamSource(path, REFERENCE, regions=[region], pileup_config=config),
            region,
        )
        for cap, index in itertools.product(caps, (None, bai)):
            source = BamSource(
                path, REFERENCE, regions=[region], pileup_config=config,
                batch_columns=cap, index=index,
            )
            batches = list(source.batches_for(region))
            assert all(b.n_columns > 0 for b in batches)
            assert all(b.n_columns <= cap for b in batches)
            assert_batches_identical(expected, merged(batches, region.chrom))

    @given(case=bam_cases(), caps=st.lists(
        st.sampled_from([1, 7, 40, 16384]), min_size=1, max_size=3,
        unique=True,
    ))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_records_and_reads_cut_alike(self, bam_dir, case, caps):
        """One window rule: raw records (``BamSource.batches_for``) and
        the same reads decoded (``iter_pileup_batches``) give batches
        with the same first and last positions at every window size."""
        reads, region, config = case
        path = write(bam_dir, reads)
        _, decoded = read_bam(path)

        def bounds(batches):
            return [(int(b.positions[0]), int(b.positions[-1])) for b in batches]

        for cap in caps:
            source = BamSource(
                path, REFERENCE, regions=[region], pileup_config=config,
                batch_columns=cap,
            )
            assert bounds(source.batches_for(region)) == bounds(
                iter_pileup_batches(
                    decoded, REFERENCE[region.chrom], region, config,
                    batch_columns=cap,
                )
            )

    def test_depth_cap_and_windows_on_gapped_reads(self, tmp_path):
        """A deep pile of clipped, gapped reads of several lengths: the
        stable-sort deposit caps first-come like the streaming sweep."""
        rng = random.Random(3)
        reads = []
        for i in range(300):
            left = rng.randint(0, 3)
            cigar = ([(CigarOp.S, left)] if left else []) + [
                (CigarOp.M, rng.randint(5, 20)),
                (rng.choice([CigarOp.D, CigarOp.I, CigarOp.N]), rng.randint(1, 4)),
                (CigarOp.M, rng.randint(5, 20)),
            ]
            n_query = sum(n for op, n in cigar if op != CigarOp.D and op != CigarOp.N)
            reads.append(
                AlignedRead(
                    qname=f"g{i}", flag=rng.choice([0, FLAG_REVERSE]),
                    rname="ctgA", pos=rng.randint(0, 60), mapq=60,
                    cigar=cigar,
                    seq="".join(rng.choice("ACGT") for _ in range(n_query)),
                    qual=np.array(
                        [rng.randint(0, 40) for _ in range(n_query)],
                        dtype=np.uint8,
                    ),
                )
            )
        reads.sort(key=lambda r: r.pos)
        path = write(tmp_path, reads)
        region = Region("ctgA", 0, 260)
        config = PileupConfig(max_depth=25)
        expected = streaming_batch(
            BamSource(path, REFERENCE, pileup_config=config), region
        )
        assert int(expected.n_capped.sum()) > 0, "cap never engaged"
        for cap in (len(region), 3, 50):
            batches = list(
                BamSource(
                    path, REFERENCE, pileup_config=config, batch_columns=cap
                ).batches_for(region)
            )
            assert_batches_identical(expected, merged(batches, "ctgA"))

    def test_long_reads_deposit_only_each_window(self, tmp_path, monkeypatch):
        """Ungapped reads of one length, longer than ``BATCH_COLUMNS``,
        go through the counting deposit (which expands each read whole)
        only in windows at least as wide as a read, through the
        stable-sort deposit in narrower ones, and equal the streaming
        columns either way."""
        from repro.pileup import vectorized

        length, rl = 4000, 1500
        assert rl > BATCH_COLUMNS
        rng = np.random.default_rng(9)
        reference = {"chr": "".join(rng.choice(list("ACGT"), length))}
        reads = [
            AlignedRead(
                qname=f"l{i}", flag=FLAG_REVERSE if i % 2 else 0, rname="chr",
                pos=int(pos), mapq=60, cigar=[(CigarOp.M, rl)],
                seq="".join(rng.choice(list("ACGT"), rl)),
                qual=rng.integers(0, 41, rl).astype(np.uint8),
            )
            for i, pos in enumerate(np.sort(rng.integers(0, length - rl, 40)))
        ]
        path = tmp_path / "long.bam"
        with BamWriter(str(path), SamHeader(references=[("chr", length)])) as writer:
            for read in reads:
                writer.write(read)
        region = Region("chr", 0, length)
        config = PileupConfig(max_depth=25)
        expected = streaming_batch(
            BamSource(str(path), reference, pileup_config=config), region
        )
        widths, sorts = [], []
        counting = vectorized.pileup_batch_from_arrays
        sort = vectorized._sorted_deposit

        def spy_counting(*args, **kwargs):
            widths.append(len(args[5]))
            return counting(*args, **kwargs)

        def spy_sort(*args, **kwargs):
            sorts.append(args[0])
            return sort(*args, **kwargs)

        monkeypatch.setattr(vectorized, "pileup_batch_from_arrays", spy_counting)
        monkeypatch.setattr(vectorized, "_sorted_deposit", spy_sort)
        for cap in (BATCH_COLUMNS, length):
            widths.clear()
            sorts.clear()
            source = BamSource(
                str(path), reference, pileup_config=config, batch_columns=cap
            )
            batches = list(source.batches_for(region))
            assert all(width >= rl for width in widths), cap
            assert bool(sorts) == (cap < rl), cap
            assert_batches_identical(expected, merged(batches, "chr"))

    def test_builds_no_aligned_read(self, tmp_path, monkeypatch):
        """The batched BAM path decodes records without AlignedRead."""
        import repro.io.bam

        reads = [
            AlignedRead.simple(f"r{i}", "ctgA", i, "ACGTACGTAC", [30] * 10)
            for i in range(50)
        ]
        path = write(tmp_path, reads)
        expected = streaming_batch(
            BamSource(path, REFERENCE), Region("ctgA", 0, 260)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the span path built an AlignedRead")

        monkeypatch.setattr(repro.io.bam, "AlignedRead", refuse)
        batches = list(BamSource(path, REFERENCE).batches_for(Region("ctgA", 0, 260)))
        assert_batches_identical(expected, merged(batches, "ctgA"))


class TestSeqlessRead:
    """A mapped read without SEQ (``*``, ``l_seq = 0``) deposits no
    bases, in every engine at every ``min_baseq``."""

    @pytest.fixture
    def bams(self, tmp_path):
        def simple(i, pos):
            return AlignedRead.simple(
                f"r{i}", "ctgA", pos, "ACGTACGTACGTACGTACGT", [30] * 20
            )

        with_seqless = [simple(0, 10), simple(1, 12), simple(2, 15)]
        with_seqless.append(
            AlignedRead(
                qname="noseq", flag=0, rname="ctgA", pos=16, mapq=60,
                cigar=[(CigarOp.M, 20)], seq="", qual=np.zeros(0, np.uint8),
            )
        )
        with_seqless += [simple(4, 18), simple(5, 20)]
        without = [r for r in with_seqless if r.qname != "noseq"]
        return write(tmp_path, with_seqless), write(tmp_path, without)

    @pytest.mark.parametrize("engine", ["streaming", "batched"])
    @pytest.mark.parametrize("min_baseq", [0, 6])
    def test_deposits_nothing(self, bams, engine, min_baseq):
        seqless, without = bams
        config = CallerConfig.improved(engine=engine)
        pileup = PileupConfig(min_baseq=min_baseq)
        bodies = []
        for path in (seqless, without):
            buf = io.StringIO()
            Pipeline(
                BamSource(path, REFERENCE, pileup_config=pileup),
                config=config,
                sinks=[VcfSink(buf, contigs=CONTIGS)],
            ).run()
            bodies.append(buf.getvalue())
        assert bodies[0] == bodies[1]
        region = Region("ctgA", 0, 260)
        source = BamSource(seqless, REFERENCE, pileup_config=pileup)
        expected = streaming_batch(
            BamSource(without, REFERENCE, pileup_config=pileup), region
        )
        assert_batches_identical(expected, streaming_batch(source, region))
        assert_batches_identical(
            expected, merged(list(source.batches_for(region)), "ctgA")
        )


# -- damaged records -----------------------------------------------------------


def _inflate(raw: bytes) -> bytes:
    with BgzfReader(io.BytesIO(raw)) as reader:
        return reader.read()


def _payload():
    """``(header bytes, record bytes)`` of a small decompressed BAM with
    gapped and clipped reads, SEQ-less and 0xff reads, tags and reads
    on every contig."""
    reads = []
    rng = random.Random(11)
    for name, length in CONTIGS:
        for i in range(6):
            pos = 5 + 12 * i
            cigar = rng.choice(
                [
                    [(CigarOp.M, 20)],
                    [(CigarOp.S, 3), (CigarOp.M, 17)],
                    [(CigarOp.M, 8), (CigarOp.D, 2), (CigarOp.M, 12)],
                    [(CigarOp.H, 2), (CigarOp.M, 10), (CigarOp.I, 2),
                     (CigarOp.M, 8)],
                ]
            )
            seq = "".join(rng.choice("ACGT") for _ in range(20))
            qual = [rng.randint(0, 40) for _ in range(20)]
            if i == 2:
                qual = [0xFF] * 20
            read = AlignedRead(
                qname=f"{name}r{i}", flag=rng.choice([0, FLAG_REVERSE]),
                rname=name, pos=pos, mapq=60, cigar=cigar, seq=seq,
                qual=np.array(qual, dtype=np.uint8),
            )
            if i == 4:
                read.seq, read.qual = "", np.zeros(0, np.uint8)
            if i % 2:
                read.tags = {
                    "NM": ("i", i),
                    "MD": ("Z", "20"),
                    "XT": ("A", "U"),
                    "ZB": ("B", ("s", np.array([1, -2, 3], dtype=np.int16))),
                }
            reads.append(read)
    empty, full = io.BytesIO(), io.BytesIO()
    BamWriter(empty, HEADER).close()
    with BamWriter(full, HEADER) as writer:
        for read in reads:
            writer.write(read)
    head = _inflate(empty.getvalue())
    return head, _inflate(full.getvalue())[len(head):]


HEAD, RECORDS = _payload()


def _bgzf_file(path, payload: bytes) -> str:
    with BgzfWriter(str(path)) as writer:
        writer.write(payload)
    return str(path)


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - compared below
        return None, exc


QUERIES = [
    Region("ctgA", 0, 260),  # rewind plan
    Region("ctgA", 30, 70),
    Region("ctgB", 0, 180),
    Region("ctgC", 20, 60),
]


class TestDamagedRecords:
    """Truncated or byte-flipped records, re-wrapped in valid BGZF: the
    span path raises exactly what the per-record path raises -- a
    ``FormatError`` naming the voffset, or the coordinate-sort
    ``ValueError`` -- and otherwise yields its batches."""

    @given(
        mode=st.sampled_from(["truncate", "flip"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_span_path_equals_per_record_path(self, bam_dir, mode, seed):
        rng = random.Random(seed)
        records = bytearray(RECORDS)
        if mode == "truncate":
            records = records[: rng.randrange(len(records))]
        else:
            for _ in range(rng.randint(1, 3)):
                records[rng.randrange(len(records))] ^= rng.randint(1, 255)
        path = _bgzf_file(
            bam_dir / f"damaged{next(_counter)}.bam", HEAD + bytes(records)
        )
        bai, bai_error = _outcome(lambda: build_bai_index(path))
        for region in QUERIES:
            for index in (None, bai) if bai_error is None else (None,):
                for cap in (len(region), 9):
                    def source():
                        return BamSource(
                            path, REFERENCE, regions=[region], index=index,
                            batch_columns=cap,
                        )

                    want, want_exc = _outcome(
                        lambda: streaming_batch(source(), region)
                    )
                    got, got_exc = _outcome(
                        lambda: merged(
                            list(source().batches_for(region)), region.chrom
                        )
                    )
                    if want_exc is not None:
                        assert isinstance(want_exc, ValueError), want_exc
                        assert isinstance(want_exc, FormatError) or (
                            "sorted" in str(want_exc)
                        ), want_exc
                        assert type(got_exc) is type(want_exc), (want_exc, got_exc)
                        assert str(got_exc) == str(want_exc)
                    else:
                        assert got_exc is None, got_exc
                        assert_batches_identical(want, got)

    def test_damage_past_the_scan_is_not_an_error(self, tmp_path):
        """The chunk's scan stops at the first record past it; a cut
        record after that point is never read."""
        path = _bgzf_file(tmp_path / "cut.bam", HEAD + RECORDS[:-5])
        region = Region("ctgA", 0, 260)
        source = BamSource(path, REFERENCE, regions=[region])
        want = streaming_batch(source, region)
        assert want.n_columns > 0
        assert_batches_identical(
            want, merged(list(source.batches_for(region)), "ctgA")
        )
        with pytest.raises(FormatError, match="voffset .* cut short"):
            list(source.batches_for(Region("ctgC", 0, 120)))

    @pytest.mark.parametrize(
        "at, value, match",
        [("tag", b"!", "tag type"), (20, struct.pack("<i", 3), "next refID 3")],
        ids=["tag", "next_ref_id"],
    )
    def test_damage_past_the_stop_record_in_its_block(self, tmp_path, at, value, match):
        """The walk reads whole BGZF blocks, but only the records the
        plan reads are checked: damage to the record after the chunk's
        stop record, in the same block, is not an error -- a bad tag,
        or a fixed field the walk itself rejects."""
        offsets, pos = [], 0
        while pos < len(RECORDS):
            offsets.append(pos)
            pos += 4 + struct.unpack_from("<i", RECORDS, pos)[0]
        # Records 0-5 are on ctgA and 6 (the ctgA scan's stop) on ctgB;
        # record 7 carries tags.
        body_at = offsets[7] + 4
        body = RECORDS[body_at : offsets[8]]
        if at == "tag":
            at = int(RecordSpan([body]).tag_off[0]) + 2
        records = bytearray(RECORDS)
        records[body_at + at : body_at + at + len(value)] = value
        with pytest.raises(FormatError, match=match):
            decode_record(bytes(records[body_at : offsets[8]]), HEADER)
        path = _bgzf_file(tmp_path / "damaged.bam", HEAD + bytes(records))
        clean = _bgzf_file(tmp_path / "clean.bam", HEAD + RECORDS)
        region = Region("ctgA", 0, 260)
        want = streaming_batch(BamSource(clean, REFERENCE, regions=[region]), region)
        source = BamSource(path, REFERENCE, regions=[region])
        assert_batches_identical(want, streaming_batch(source, region))
        assert_batches_identical(want, merged(list(source.batches_for(region)), "ctgA"))
        for engine_view in ("columns_for", "batches_for"):
            with pytest.raises(FormatError, match=f"voffset .* {match}"):
                list(getattr(source, engine_view)(Region("ctgB", 0, 180)))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (0, -5, "block_size -5"),
            (4 + 16, -7, "l_seq -7"),
            (4, 9, "refID 9"),
            (4 + 20, 3, "next refID 3"),
        ],
    )
    def test_bad_fixed_field_raises_with_voffset(
        self, tmp_path, field, value, match
    ):
        records = bytearray(RECORDS)
        records[field : field + 4] = struct.pack("<i", value)
        path = _bgzf_file(tmp_path / "bad.bam", HEAD + bytes(records))
        region = Region("ctgA", 0, 260)
        for engine_view in ("columns_for", "batches_for"):
            source = BamSource(path, REFERENCE, regions=[region])
            with pytest.raises(FormatError, match=match) as info:
                list(getattr(source, engine_view)(region))
            assert "voffset" in str(info.value)


class TestWalkSpans:
    def test_voffsets_equal_read_record_tells(self, tmp_path):
        """Over several BGZF blocks -- records straddling each block
        boundary, one ending exactly at a block's end -- every span's
        ``vbegin``/``vend`` are ``BamReader.tell()`` before and after
        that record's ``read_record``."""
        rng = random.Random(5)
        path = tmp_path / "blocks.bam"
        with BgzfWriter(str(path)) as writer:
            writer.write(HEAD)
            for i in range(1200):
                n = rng.randint(60, 240)
                read = AlignedRead.simple(
                    f"b{i}", "ctgA", i // 10, "".join(rng.choice("ACGT") for _ in range(n)),
                    [rng.randint(0, 40) for _ in range(n)],
                )
                body = encode_record(read, HEADER)
                writer.write(struct.pack("<i", len(body)) + body)
                if i == 150:
                    writer.flush()  # record 150 ends at its block's end
        expected = []
        with BamReader(str(path)) as reader:
            while True:
                vbegin = reader.tell()
                if reader.read_record() is None:
                    break
                expected.append((vbegin, reader.tell()))
        with BamReader(str(path)) as reader:
            spans = list(walk_spans(reader))
        got = [
            pair for span in spans
            for pair in zip(span.vbegin.tolist(), span.vend.tolist())
        ]
        assert got == expected
        assert len(spans) > 4
        assert got[150][1] & 0xFFFF == 0 and got[151][0] == got[150][1]
        straddling = [b for b, e in got if b >> 16 != e >> 16 and e & 0xFFFF]
        assert len(straddling) >= 3


class TestDecodeRecordTotal:
    """``decode_record`` either decodes a body or raises
    ``FormatError``; ``RecordSpan.suspects`` flags exactly the bodies
    it rejects."""

    def _bodies(self):
        reader_bytes = io.BytesIO()
        with BgzfWriter(reader_bytes) as writer:
            writer.write(HEAD + RECORDS)
        reader_bytes.seek(0)
        from repro.io.bam import BamReader

        with BamReader(reader_bytes) as reader:
            return [body for span in walk_spans(reader) for body in span.bodies]

    @pytest.mark.parametrize(
        "cigar, seq_len",
        [
            ([(CigarOp.S, 3), (CigarOp.M, 5), (CigarOp.S, 2), (CigarOp.M, 10)], 20),
            ([(CigarOp.M, 5), (CigarOp.H, 2), (CigarOp.M, 15)], 20),
            ([(CigarOp.S, 2), (CigarOp.H, 1), (CigarOp.M, 18)], 20),
            ([(CigarOp.H, 2), (CigarOp.S, 3), (CigarOp.M, 17)], 20),
            ([(CigarOp.M, 17), (CigarOp.S, 3), (CigarOp.H, 2)], 20),
            ([(CigarOp.H, 2), (CigarOp.M, 17), (CigarOp.S, 3), (CigarOp.H, 2)], 20),
            ([(CigarOp.M, 0), (CigarOp.M, 20)], 20),
            ([(CigarOp.M, 19)], 20),
            ([(CigarOp.M, 20), (CigarOp.P, 3)], 20),
            ([(CigarOp.D, 5)], 20),
            ([(CigarOp.D, 5)], 0),
            ([], 20),
        ],
    )
    def test_cigar_rules(self, cigar, seq_len):
        """Every SAM CIGAR rule ``decode_record`` enforces is one the
        span screen flags."""
        from repro.io.bam import encode_record

        read = AlignedRead.simple("r", "ctgA", 5, "A" * 20, [30] * 20)
        read.cigar = cigar  # set after construction: unvalidated
        read.seq = "A" * seq_len
        read.qual = np.full(seq_len, 30, dtype=np.uint8)
        body = encode_record(read, HEADER)
        try:
            decode_record(body, HEADER)
            rejected = False
        except FormatError:
            rejected = True
        assert list(RecordSpan([body]).suspects()) == ([0] if rejected else [])

    @given(
        areas=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(
                        st.tuples(st.just("A"), st.sampled_from("AZ!")),
                        st.tuples(st.sampled_from("cCsSiI"), st.integers(0, 100)),
                        st.tuples(st.just("f"), st.floats(-1, 1, width=32)),
                        st.tuples(st.just("Z"), st.text("ACGT0", max_size=6)),
                        st.tuples(
                            st.just("B"),
                            st.tuples(
                                st.sampled_from("cCsSiIf"),
                                st.lists(st.integers(0, 100), max_size=4),
                            ),
                        ),
                    ),
                    max_size=4,
                ),
                st.lists(
                    st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                    max_size=2,
                ),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=5,
        ),
        pad=st.binary(max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_tag_screen(self, areas, pad):
        """The lockstep tag-area screen rejects exactly the areas
        ``_decode_tags`` does, with areas side by side in one buffer
        (byte overwrites and cut ends make most of them malformed)."""
        from repro.io.bam import _bad_tag_areas, _decode_tags, _encode_tags

        buf, begin, end, expected = b"", [], [], []
        for tags, overwrites, cut in areas:
            area = bytearray(
                _encode_tags({f"X{i}": tag for i, tag in enumerate(tags)})
            )
            for at, value in overwrites if area else ():
                area[at % len(area)] = value
            area = bytes(area[: max(len(area) - cut, 0)])
            try:
                _decode_tags(area)
                expected.append(False)
            except FormatError:
                expected.append(True)
            buf += pad
            begin.append(len(buf))
            buf += area
            end.append(len(buf))
        got = _bad_tag_areas(
            np.frombuffer(buf + pad, dtype=np.uint8),
            np.array(begin, dtype=np.int64),
            np.array(end, dtype=np.int64),
        )
        assert got.tolist() == expected

    @given(
        index=st.integers(0, 17),
        flips=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(1, 255)),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_bodies(self, index, flips):
        bodies = self._bodies()
        body = bytearray(bodies[index])
        for at, mask in flips:
            body[at % len(body)] ^= mask
        body = bytes(body)
        try:
            decode_record(body, HEADER)
            rejected = False
        except FormatError:
            rejected = True
        # RecordSpan sees only bodies past the fixed-field walk.
        try:
            from repro.io.bam import _fixed_fields

            _fixed_fields(body, len(CONTIGS))
        except FormatError:
            assert rejected
            return
        span = RecordSpan([bodies[0], body, bodies[-1]])
        assert list(span.suspects()) == ([1] if rejected else [])
        # Checking from a later record leaves the earlier ones out.
        assert list(span.suspects(1)) == ([1] if rejected else [])
        assert list(span.suspects(2)) == []
        assert list(span.suspects(3)) == []
