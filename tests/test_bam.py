"""Unit tests for the BAM binary codec."""

import io

import numpy as np
import pytest

from repro.io.bam import (
    BamReader,
    BamWriter,
    decode_record,
    encode_record,
    read_bam,
    reg2bin,
    write_bam,
)
from repro.io.cigar import parse_cigar
from repro.io.records import AlignedRead, SamHeader


@pytest.fixture
def header():
    return SamHeader(
        references=[("chr1", 10_000), ("chr2", 5_000)], sort_order="coordinate"
    )


def make_read(**kwargs):
    defaults = dict(
        qname="read/1",
        flag=16,
        rname="chr1",
        pos=1234,
        mapq=42,
        cigar=parse_cigar("3S10M2I5M"),
        seq="ACGTACGTACGTACGTACGT",
        qual=np.arange(20, dtype=np.uint8) + 20,
        rnext="chr2",
        pnext=99,
        tlen=-150,
        tags={"NM": ("i", 3), "RG": ("Z", "grp1"), "XF": ("f", 1.5)},
    )
    defaults.update(kwargs)
    return AlignedRead(**defaults)


class TestRecordCodec:
    def test_round_trip_all_fields(self, header):
        read = make_read()
        back = decode_record(encode_record(read, header), header)
        assert back.qname == read.qname
        assert back.flag == read.flag
        assert back.rname == read.rname
        assert back.pos == read.pos
        assert back.mapq == read.mapq
        assert back.cigar == read.cigar
        assert back.seq == read.seq
        assert np.array_equal(back.qual, read.qual)
        assert back.rnext == read.rnext
        assert back.pnext == read.pnext
        assert back.tlen == read.tlen
        assert back.tags["NM"] == ("i", 3)
        assert back.tags["RG"] == ("Z", "grp1")
        assert back.tags["XF"][0] == "f"
        assert back.tags["XF"][1] == pytest.approx(1.5)

    def test_odd_length_sequence(self, header):
        read = make_read(
            cigar=parse_cigar("5M"), seq="ACGTN",
            qual=np.array([1, 2, 3, 4, 5], dtype=np.uint8),
        )
        back = decode_record(encode_record(read, header), header)
        assert back.seq == "ACGTN"

    def test_b_array_tag(self, header):
        arr = np.array([1, 2, 3], dtype=np.int32)
        read = make_read(tags={"ZB": ("B", ("i", arr))})
        back = decode_record(encode_record(read, header), header)
        sub, vals = back.tags["ZB"][1]
        assert sub == "i"
        assert np.array_equal(vals, arr)

    def test_a_char_tag(self, header):
        read = make_read(tags={"XT": ("A", "U")})
        back = decode_record(encode_record(read, header), header)
        assert back.tags["XT"] == ("A", "U")

    def test_unknown_reference_raises(self, header):
        read = make_read(rname="chrX")
        with pytest.raises(ValueError, match="not in header"):
            encode_record(read, header)

    def test_long_name_raises(self, header):
        read = make_read(qname="q" * 300)
        with pytest.raises(ValueError, match="name"):
            encode_record(read, header)

    @pytest.mark.parametrize(
        "field",
        [
            {"mapq": 300},
            {"flag": 1 << 16},
            {"pos": 1 << 31},
            {"tags": {"XC": ("c", 300)}},
        ],
    )
    def test_out_of_range_number_raises(self, header, field):
        """A number outside its BAM field is a ``ValueError``, not a
        leaked ``struct.error``."""
        read = make_read(**field)
        with pytest.raises(ValueError, match="does not fit BAM"):
            encode_record(read, header)


class TestReg2Bin:
    def test_small_interval_deep_bin(self):
        assert reg2bin(0, 1) == 4681

    def test_known_levels(self):
        # Intervals crossing a 16 kb boundary climb a level.
        assert reg2bin(0, 1 << 14) == 4681
        assert reg2bin(0, (1 << 14) + 1) == 585

    def test_whole_chromosome_is_root(self):
        assert reg2bin(0, 1 << 29) == 0


class TestBamFile:
    def test_file_round_trip(self, header, tmp_path):
        reads = [
            make_read(qname=f"r{i}", pos=100 * i, flag=0, rnext="*", pnext=-1)
            for i in range(50)
        ]
        path = tmp_path / "t.bam"
        assert write_bam(path, header, reads) == 50
        hdr_back, back = read_bam(path)
        assert hdr_back.references == header.references
        assert len(back) == 50
        for a, b in zip(back, reads):
            assert a.qname == b.qname
            assert a.pos == b.pos
            assert a.seq == b.seq

    def test_in_memory_round_trip(self, header):
        buf = io.BytesIO()
        with BamWriter(buf, header) as writer:
            writer.write(make_read())
        buf.seek(0)
        with BamReader(buf) as reader:
            records = list(reader)
        assert len(records) == 1
        assert records[0].qname == "read/1"

    def test_magic_check(self):
        from repro.io.bgzf import BgzfWriter

        buf = io.BytesIO()
        with BgzfWriter(buf) as w:
            w.write(b"NOTBAM..")
        buf.seek(0)
        with pytest.raises(ValueError, match="magic"):
            BamReader(buf)

    def test_every_cut_header_is_a_format_error(self, header):
        """A BAM cut anywhere inside its header -- every proper prefix
        of the header bytes, re-wrapped in valid BGZF -- raises
        ``FormatError`` naming the field that was cut."""
        from repro.io import FormatError
        from repro.io.bgzf import BgzfReader, BgzfWriter

        buf = io.BytesIO()
        with BamWriter(buf, header):
            pass
        buf.seek(0)
        with BgzfReader(buf) as reader:
            payload = reader.read()
        assert len(payload) > 60
        for n in range(len(payload)):
            cut = io.BytesIO()
            with BgzfWriter(cut) as writer:
                writer.write(payload[:n])
            cut.seek(0)
            with pytest.raises(FormatError, match="cut short in"):
                BamReader(cut)

    def test_negative_header_length_is_a_format_error(self, header):
        from repro.io import FormatError
        from repro.io.bgzf import BgzfWriter

        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"BAM\x01" + (-3).to_bytes(4, "little", signed=True))
        buf.seek(0)
        with pytest.raises(FormatError, match="text has negative length"):
            BamReader(buf)

    def test_seek_to_written_voffset(self, header, tmp_path):
        path = tmp_path / "seek.bam"
        offsets = {}
        with BamWriter(path, header) as writer:
            for i in range(200):
                offsets[i] = writer.write(
                    make_read(qname=f"r{i}", pos=i, flag=0, rnext="*", pnext=-1)
                )
        with BamReader(path) as reader:
            reader.seek(offsets[150])
            rec = reader.read_record()
            assert rec.qname == "r150"
            reader.rewind()
            assert reader.read_record().qname == "r0"

    def test_empty_bam(self, header, tmp_path):
        path = tmp_path / "empty.bam"
        write_bam(path, header, [])
        hdr_back, records = read_bam(path)
        assert records == []
        assert hdr_back.references == header.references

    def test_large_file_many_blocks(self, header, tmp_path):
        path = tmp_path / "big.bam"
        reads = (
            make_read(qname=f"r{i}", pos=i, flag=0, rnext="*", pnext=-1)
            for i in range(5000)
        )
        write_bam(path, header, reads)
        with BamReader(path) as reader:
            n = sum(1 for _ in reader)
            assert n == 5000
            assert reader.blocks_read > 1
