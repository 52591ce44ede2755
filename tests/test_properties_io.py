"""Property-based tests (hypothesis) for the I/O codecs: round-trips
must be the identity on arbitrary inputs."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.bam import decode_record, encode_record
from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.cigar import CigarOp, cigar_to_string, parse_cigar
from repro.io.records import AlignedRead, SamHeader

HEADER = SamHeader(references=[("chr1", 1 << 20)], sort_order="coordinate")

dna = st.text(alphabet="ACGTN", min_size=1, max_size=60)
qname = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="@\t"),
    min_size=1,
    max_size=20,
)


@st.composite
def aligned_reads(draw):
    seq = draw(dna)
    qual = draw(
        st.lists(st.integers(0, 93), min_size=len(seq), max_size=len(seq))
    )
    pos = draw(st.integers(0, 10_000))
    flag = draw(st.integers(0, 0xFFF)) & ~0x4  # keep mapped
    mapq = draw(st.integers(0, 254))
    # Simple CIGAR consistent with the sequence: optional clips.
    left = draw(st.integers(0, min(3, len(seq) - 1)))
    right = draw(st.integers(0, min(3, len(seq) - 1 - left)))
    middle = len(seq) - left - right
    cigar = []
    if left:
        cigar.append((CigarOp.S, left))
    cigar.append((CigarOp.M, middle))
    if right:
        cigar.append((CigarOp.S, right))
    return AlignedRead(
        qname=draw(qname),
        flag=flag,
        rname="chr1",
        pos=pos,
        mapq=mapq,
        cigar=cigar,
        seq=seq,
        qual=np.array(qual, dtype=np.uint8),
        tags={"NM": ("i", draw(st.integers(-100, 100)))},
    )


class TestBgzfProperties:
    @given(st.binary(max_size=200_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_identity(self, payload):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(payload)
        buf.seek(0)
        assert BgzfReader(buf).read() == payload

    @given(st.lists(st.binary(min_size=0, max_size=5_000), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_chunked_writes_equal_single_write(self, chunks):
        whole = b"".join(chunks)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        with BgzfWriter(buf_a) as w:
            for chunk in chunks:
                w.write(chunk)
        with BgzfWriter(buf_b) as w:
            w.write(whole)
        buf_a.seek(0)
        buf_b.seek(0)
        assert BgzfReader(buf_a).read() == BgzfReader(buf_b).read() == whole

    @given(st.binary(min_size=1, max_size=100_000), st.integers(0, 99_999))
    @settings(max_examples=30, deadline=None)
    def test_seek_anywhere(self, payload, offset):
        offset = offset % len(payload)
        buf = io.BytesIO()
        writer = BgzfWriter(buf)
        marks = {}
        for i in range(0, len(payload), 7_000):
            marks[i] = writer.tell()
            writer.write(payload[i : i + 7_000])
        writer.close()
        base = max(i for i in marks if i <= offset)
        buf.seek(0)
        reader = BgzfReader(buf)
        reader.seek(marks[base])
        reader.read(offset - base)
        assert reader.read() == payload[offset:]


class TestRecordCodecProperties:
    @given(aligned_reads())
    @settings(max_examples=60, deadline=None)
    def test_bam_round_trip(self, read):
        back = decode_record(encode_record(read, HEADER), HEADER)
        assert back.qname == read.qname
        assert back.flag == read.flag
        assert back.pos == read.pos
        assert back.mapq == read.mapq
        assert back.cigar == read.cigar
        assert back.seq == read.seq
        assert np.array_equal(back.qual, read.qual)
        assert back.tags == read.tags


class TestTextCodecs:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(CigarOp)), st.integers(1, 10_000)
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cigar_string_round_trip(self, raw):
        from repro.io.cigar import collapse

        cigar = collapse(raw)
        assert parse_cigar(cigar_to_string(cigar)) == cigar

    @given(dna)
    @settings(max_examples=60, deadline=None)
    def test_seq_nibble_round_trip(self, seq):
        from repro.io.bam import _pack_seq, _unpack_seq

        assert _unpack_seq(_pack_seq(seq), len(seq)) == seq


def _pack_seq_loop(seq: str) -> bytes:
    """The per-base reference for ``_pack_seq``: unknown characters
    pack to nibble 15."""
    from repro.io.bam import SEQ_NIBBLES

    nibble = {base: i for i, base in enumerate(SEQ_NIBBLES)}
    out = bytearray((len(seq) + 1) // 2)
    for i, base in enumerate(seq):
        nib = nibble.get(base, 15)
        if i % 2 == 0:
            out[i // 2] = nib << 4
        else:
            out[i // 2] |= nib
    return bytes(out)


def _unpack_seq_loop(data: bytes, n: int) -> str:
    """The per-base reference for ``_unpack_seq``."""
    from repro.io.bam import SEQ_NIBBLES

    out = []
    for i in range(n):
        byte = data[i // 2]
        out.append(SEQ_NIBBLES[(byte >> 4) if i % 2 == 0 else (byte & 0xF)])
    return "".join(out)


#: Any string: the nibble alphabet, lowercase and other ASCII, and any
#: code point at all (surrogates included).
any_seq = st.text(
    alphabet=st.sampled_from(list("=ACMGRSVTWYHKDBNacgtn.*-")) | st.characters(
        exclude_categories=()
    ),
    max_size=80,
)


class TestSeqNibbleTables:
    @given(any_seq)
    @settings(max_examples=200, deadline=None)
    def test_pack_matches_per_base_loop(self, seq):
        from repro.io.bam import _pack_seq

        assert _pack_seq(seq) == _pack_seq_loop(seq)

    @given(st.binary(max_size=60), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_unpack_matches_per_base_loop(self, data, n):
        from repro.io.bam import _unpack_seq

        n = min(n, 2 * len(data))
        assert _unpack_seq(data, n) == _unpack_seq_loop(data, n)

    def test_non_ascii_packs_to_n(self):
        from repro.io.bam import _pack_seq

        for seq in ["é", "ACé", "\u00ff", "\U0001f600G", "\ud800"]:
            assert _pack_seq(seq) == _pack_seq_loop(seq)
        assert _pack_seq("Aé") == bytes([0x1F])
