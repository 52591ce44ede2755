"""BAM: the binary alignment format (BGZF-compressed).

Implements the BAM v1 encoding from the SAM specification:

* magic ``BAM\\x01``, SAM header text, reference dictionary;
* one binary record per alignment -- fixed 32-byte core, then read
  name, packed CIGAR (``len << 4 | op``), 4-bit packed sequence
  (two bases per byte via the ``=ACMGRSVTWYHKDBN`` nibble code),
  raw Phred qualities, and optional tags;
* the whole stream wrapped in :class:`repro.io.bgzf.BgzfWriter`.

Records round-trip exactly: ``decode(encode(r)) == r`` for every field
the model carries, which the test suite checks property-style.
"""

from __future__ import annotations

import os
import struct
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Tuple,
    Union,
)

import numpy as np

from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.cigar import CONSUMES_QUERY, CONSUMES_REFERENCE, CigarOp
from repro.io.records import AlignedRead, SamHeader

__all__ = [
    "write_bam",
    "read_bam",
    "BamWriter",
    "BamReader",
    "aligned_base_arrays",
    "encode_record",
    "decode_record",
    "reg2bin",
    "walk_records",
]

PathOrFile = Union[str, os.PathLike, BinaryIO]

BAM_MAGIC = b"BAM\x01"

#: The fixed 32-byte record core: refID, pos, l_read_name, mapq, bin,
#: n_cigar_op, flag, l_seq, next refID, next pos, tlen.
_CORE = struct.Struct("<iiBBHHHiiii")
_INT32 = struct.Struct("<i")

#: Bit ``op`` is set for each CIGAR operation that consumes reference.
_REF_OPS_MASK = sum(1 << int(op) for op in CONSUMES_REFERENCE)

#: BAM 4-bit base codes ("=ACMGRSVTWYHKDBN").
SEQ_NIBBLES = "=ACMGRSVTWYHKDBN"
_BASE_TO_NIBBLE = {b: i for i, b in enumerate(SEQ_NIBBLES)}
_NIBBLE_TO_BASE = {i: b for i, b in enumerate(SEQ_NIBBLES)}

_TAG_PACK = {
    "c": ("<b", int),
    "C": ("<B", int),
    "s": ("<h", int),
    "S": ("<H", int),
    "i": ("<i", int),
    "I": ("<I", int),
    "f": ("<f", float),
}


def reg2bin(beg: int, end: int) -> int:
    """UCSC binning index bin for the 0-based half-open ``[beg, end)``.

    Used to fill the ``bin`` field of BAM records (required by the
    spec even when no index is written).
    """
    end -= 1
    if beg >> 14 == end >> 14:
        return ((1 << 15) - 1) // 7 + (beg >> 14)
    if beg >> 17 == end >> 17:
        return ((1 << 12) - 1) // 7 + (beg >> 17)
    if beg >> 20 == end >> 20:
        return ((1 << 9) - 1) // 7 + (beg >> 20)
    if beg >> 23 == end >> 23:
        return ((1 << 6) - 1) // 7 + (beg >> 23)
    if beg >> 26 == end >> 26:
        return ((1 << 3) - 1) // 7 + (beg >> 26)
    return 0


def _pack_seq(seq: str) -> bytes:
    """Pack bases two-per-byte using the BAM nibble code.

    Unknown characters map to ``N`` (nibble 15), matching htslib.
    """
    n = len(seq)
    out = bytearray((n + 1) // 2)
    for i, base in enumerate(seq):
        nib = _BASE_TO_NIBBLE.get(base, 15)
        if i % 2 == 0:
            out[i // 2] = nib << 4
        else:
            out[i // 2] |= nib
    return bytes(out)


def _unpack_seq(data: bytes, n: int) -> str:
    out = []
    for i in range(n):
        byte = data[i // 2]
        nib = (byte >> 4) if i % 2 == 0 else (byte & 0xF)
        out.append(_NIBBLE_TO_BASE[nib])
    return "".join(out)


def _encode_tags(tags: Dict[str, Tuple[str, Any]]) -> bytes:
    out = bytearray()
    for tag, (typ, value) in sorted(tags.items()):
        if len(tag) != 2:
            raise ValueError(f"SAM tag {tag!r} must be two characters")
        out.extend(tag.encode("ascii"))
        if typ == "A":
            out.append(ord("A"))
            out.append(ord(value))
        elif typ in _TAG_PACK:
            fmt, cast = _TAG_PACK[typ]
            out.append(ord(typ))
            out.extend(struct.pack(fmt, cast(value)))
        elif typ == "i":  # pragma: no cover - folded into _TAG_PACK
            out.append(ord("i"))
            out.extend(struct.pack("<i", int(value)))
        elif typ == "Z":
            out.append(ord("Z"))
            out.extend(str(value).encode("ascii") + b"\x00")
        elif typ == "B":
            sub, arr = value
            if sub not in _TAG_PACK:
                raise ValueError(f"unsupported B-array subtype {sub!r}")
            out.append(ord("B"))
            out.append(ord(sub))
            arr = np.asarray(arr)
            out.extend(struct.pack("<i", len(arr)))
            fmt, cast = _TAG_PACK[sub]
            for x in arr:
                out.extend(struct.pack(fmt, cast(x)))
        else:
            raise ValueError(f"unsupported tag type {typ!r}")
    return bytes(out)


def _decode_tags(data: bytes) -> Dict[str, Tuple[str, Any]]:
    tags: Dict[str, Tuple[str, Any]] = {}
    i = 0
    while i < len(data):
        tag = data[i : i + 2].decode("ascii")
        typ = chr(data[i + 2])
        i += 3
        if typ == "A":
            tags[tag] = ("A", chr(data[i]))
            i += 1
        elif typ in _TAG_PACK:
            fmt, _ = _TAG_PACK[typ]
            size = struct.calcsize(fmt)
            (val,) = struct.unpack(fmt, data[i : i + size])
            tags[tag] = (typ, val)
            i += size
        elif typ == "Z":
            end = data.index(b"\x00", i)
            tags[tag] = ("Z", data[i:end].decode("ascii"))
            i = end + 1
        elif typ == "B":
            sub = chr(data[i])
            (count,) = struct.unpack("<i", data[i + 1 : i + 5])
            i += 5
            fmt, _ = _TAG_PACK[sub]
            size = struct.calcsize(fmt)
            vals = [
                struct.unpack(fmt, data[i + j * size : i + (j + 1) * size])[0]
                for j in range(count)
            ]
            dtype = {
                "c": np.int8,
                "C": np.uint8,
                "s": np.int16,
                "S": np.uint16,
                "i": np.int32,
                "I": np.uint32,
                "f": np.float32,
            }[sub]
            tags[tag] = ("B", (sub, np.array(vals, dtype=dtype)))
            i += count * size
        else:
            raise ValueError(f"unsupported BAM tag type {typ!r}")
    return tags


def aligned_base_arrays(
    read: AlignedRead,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columnar deposit path: one record's aligned bases as flat
    arrays ``(reference positions int64, base codes uint8, quals
    uint8)``.

    CIGAR-expanded in O(#operations) array slices -- no per-base
    Python tuples -- with semantics matching the streaming pileup's
    deposit loop exactly: only operations consuming both query and
    reference contribute; base codes follow
    ``BASE_TO_CODE.get(char, N_CODE)`` (no case folding); a missing
    quality string reads as all-zero qualities (which the default
    ``min_baseq`` then drops, as in the streaming engine).

    This is the decode half of the streaming columnar spine: each
    record's arrays feed
    :meth:`repro.pileup.vectorized.ColumnBatchBuilder.add_read` as
    one zero-copy segment (the ungapped common case returns direct
    views into the record), and the builder flushes bounded
    :class:`~repro.pileup.column.ColumnBatch` work units as the
    coordinate-sorted scan advances -- BAM bytes to screened batches
    without a whole-chunk array anywhere.
    """
    from repro.pileup.column import encode_read_bases

    seq_codes = encode_read_bases(read.seq)
    if read.qual.size:
        qual = np.asarray(read.qual, dtype=np.uint8)
    else:
        qual = np.zeros(len(read.seq), dtype=np.uint8)
    pos_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    qual_parts: List[np.ndarray] = []
    qi = 0
    ri = read.pos
    for op, length in read.cigar:
        op = CigarOp(op)
        in_q = op in CONSUMES_QUERY
        in_r = op in CONSUMES_REFERENCE
        if in_q and in_r:
            pos_parts.append(np.arange(ri, ri + length, dtype=np.int64))
            code_parts.append(seq_codes[qi : qi + length])
            qual_parts.append(qual[qi : qi + length])
            qi += length
            ri += length
        elif in_q:
            qi += length
        elif in_r:
            ri += length
    if not pos_parts:
        empty = np.zeros(0, dtype=np.uint8)
        return np.zeros(0, dtype=np.int64), empty, empty.copy()
    if len(pos_parts) == 1:
        # The ungapped common case: zero-copy views into the record.
        return pos_parts[0], code_parts[0], qual_parts[0]
    return (
        np.concatenate(pos_parts),
        np.concatenate(code_parts),
        np.concatenate(qual_parts),
    )


def encode_record(read: AlignedRead, header: SamHeader) -> bytes:
    """Serialise one record as its BAM binary body (without the leading
    ``block_size`` word, which the writer prepends).

    Raises:
        ValueError: if the read references a sequence missing from the
            header or a name/CIGAR exceeds format limits.
    """
    ref_id = header.reference_id(read.rname) if read.rname != "*" else -1
    next_ref_id = (
        ref_id
        if read.rnext == "="
        else (header.reference_id(read.rnext) if read.rnext != "*" else -1)
    )
    if read.rname != "*" and ref_id < 0:
        raise ValueError(f"reference {read.rname!r} not in header")
    name = read.qname.encode("ascii") + b"\x00"
    if len(name) > 255:
        raise ValueError("read name longer than 254 characters")
    n_cigar = len(read.cigar)
    if n_cigar >= 1 << 16:
        raise ValueError("more than 65535 CIGAR operations")
    end = read.reference_end if read.cigar else read.pos + 1
    core = _CORE.pack(
        ref_id,
        read.pos,
        len(name),
        read.mapq,
        reg2bin(read.pos, max(end, read.pos + 1)) if read.pos >= 0 else 4680,
        n_cigar,
        read.flag,
        len(read.seq),
        next_ref_id,
        read.pnext,
        read.tlen,
    )
    cigar_words = b"".join(
        struct.pack("<I", (length << 4) | int(op)) for op, length in read.cigar
    )
    qual = read.qual.astype(np.uint8).tobytes()
    if len(read.seq) and not len(qual):
        qual = b"\xff" * len(read.seq)  # 0xff = quality unavailable
    return (
        core
        + name
        + cigar_words
        + _pack_seq(read.seq)
        + qual
        + _encode_tags(read.tags)
    )


def decode_record(body: bytes, header: SamHeader) -> AlignedRead:
    """Inverse of :func:`encode_record`."""
    (
        ref_id,
        pos,
        l_read_name,
        mapq,
        _bin,
        n_cigar,
        flag,
        l_seq,
        next_ref_id,
        pnext,
        tlen,
    ) = _CORE.unpack_from(body)
    off = 32
    qname = body[off : off + l_read_name - 1].decode("ascii")
    off += l_read_name
    cigar: List[Tuple[CigarOp, int]] = []
    for _ in range(n_cigar):
        (word,) = struct.unpack("<I", body[off : off + 4])
        cigar.append((CigarOp(word & 0xF), word >> 4))
        off += 4
    seq = _unpack_seq(body[off : off + (l_seq + 1) // 2], l_seq)
    off += (l_seq + 1) // 2
    qual_raw = body[off : off + l_seq]
    off += l_seq
    if qual_raw == b"\xff" * l_seq and l_seq:
        qual = np.zeros(l_seq, dtype=np.uint8)
    else:
        qual = np.frombuffer(qual_raw, dtype=np.uint8).copy()
    tags = _decode_tags(body[off:])
    rname = header.references[ref_id][0] if ref_id >= 0 else "*"
    rnext = header.references[next_ref_id][0] if next_ref_id >= 0 else "*"
    return AlignedRead(
        qname=qname,
        flag=flag,
        rname=rname,
        pos=pos,
        mapq=mapq,
        cigar=cigar,
        seq=seq,
        qual=qual,
        rnext=rnext,
        pnext=pnext,
        tlen=tlen,
        tags=tags,
    )


class BamWriter:
    """Streaming BAM writer over a BGZF stream.

    Args:
        dest: path or writable binary file object.
        header: SAM header written up front.
        compress_threads: BGZF deflate pool size (see
            :class:`repro.io.bgzf.BgzfWriter`); output bytes are
            identical to the serial writer's.
    """

    def __init__(
        self,
        dest: PathOrFile,
        header: SamHeader,
        *,
        compress_threads: int = 0,
    ) -> None:
        self._bgzf = BgzfWriter(dest, compress_threads=compress_threads)
        self.header = header
        text = header.to_text().encode("ascii")
        self._bgzf.write(BAM_MAGIC)
        self._bgzf.write(struct.pack("<i", len(text)) + text)
        self._bgzf.write(struct.pack("<i", len(header.references)))
        for name, length in header.references:
            nm = name.encode("ascii") + b"\x00"
            self._bgzf.write(struct.pack("<i", len(nm)) + nm)
            self._bgzf.write(struct.pack("<i", length))
        self.records_written = 0

    def write(self, read: AlignedRead) -> int:
        """Append one record; returns its starting virtual offset."""
        voffset = self._bgzf.tell()
        body = encode_record(read, self.header)
        self._bgzf.write(struct.pack("<i", len(body)) + body)
        self.records_written += 1
        return voffset

    def close(self) -> None:
        """Flush the BGZF stream (EOF sentinel included) and close."""
        self._bgzf.close()

    def __enter__(self) -> "BamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BamReader:
    """Random-access BAM reader.

    Iterating yields :class:`AlignedRead`; :meth:`seek` accepts a
    virtual offset previously returned by :meth:`tell` or by
    :meth:`BamWriter.write`, enabling the per-worker partitioned
    readers used by :mod:`repro.parallel`.

    Args:
        source: path or binary file object holding a BAM stream.
        cache_blocks: decompressed BGZF blocks kept resident in the
            reader's LRU buffer (see :class:`repro.io.bgzf.BgzfReader`);
            more blocks make repeated/overlapping region seeks skip
            re-inflation at ~64 KiB of memory per block.
    """

    def __init__(self, source: PathOrFile, cache_blocks: int = 1) -> None:
        self._bgzf = BgzfReader(source, cache_blocks=cache_blocks)
        magic = self._bgzf.readexact(4)
        if magic != BAM_MAGIC:
            raise ValueError(f"not a BAM file (magic {magic!r})")
        (l_text,) = struct.unpack("<i", self._bgzf.readexact(4))
        text = self._bgzf.readexact(l_text).decode("ascii")
        (n_ref,) = struct.unpack("<i", self._bgzf.readexact(4))
        refs: List[Tuple[str, int]] = []
        for _ in range(n_ref):
            (l_name,) = struct.unpack("<i", self._bgzf.readexact(4))
            name = self._bgzf.readexact(l_name)[:-1].decode("ascii")
            (l_ref,) = struct.unpack("<i", self._bgzf.readexact(4))
            refs.append((name, l_ref))
        self.header = SamHeader.from_text(text)
        if not self.header.references:
            self.header.references = refs
        self._data_start = self._bgzf.tell()

    @property
    def blocks_read(self) -> int:
        """Decompressed-block counter (tracer instrumentation)."""
        return self._bgzf.blocks_read

    @property
    def data_start(self) -> int:
        """Virtual offset of the first alignment record."""
        return self._data_start

    def tell(self) -> int:
        """Virtual offset of the next record to be read."""
        return self._bgzf.tell()

    def seek(self, voffset: int) -> None:
        """Position the reader at a virtual offset from :meth:`tell`."""
        self._bgzf.seek(voffset)

    def rewind(self) -> None:
        """Seek back to the first alignment record."""
        self._bgzf.seek(self._data_start)

    def read_record(self) -> AlignedRead | None:
        """Read the next record, or ``None`` at EOF."""
        size_raw = self._bgzf.read(4)
        if len(size_raw) == 0:
            return None
        if len(size_raw) < 4:
            raise EOFError("truncated BAM record length")
        (block_size,) = struct.unpack("<i", size_raw)
        body = self._bgzf.readexact(block_size)
        return decode_record(body, self.header)

    def __iter__(self) -> Iterator[AlignedRead]:
        while True:
            rec = self.read_record()
            if rec is None:
                return
            yield rec

    def close(self) -> None:
        """Release the underlying BGZF reader."""
        self._bgzf.close()

    def __enter__(self) -> "BamReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def walk_records(
    reader: BamReader,
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """Walk a BAM's records by their fixed fields, for the index builders.

    From the reader's current position, yields one
    ``(ref_id, pos, end, flag, vbegin, vend)`` per record: ``end`` is
    ``pos`` plus the CIGAR's reference span and ``[vbegin, vend)`` are
    the record's virtual offsets.  The read name, sequence, qualities
    and tags are skipped unparsed, so no :class:`AlignedRead` is built.

    Placed records (``ref_id >= 0`` and ``pos >= 0``) must come in
    coordinate order: contigs in header order, positions
    non-decreasing within each.  Unplaced records are yielded
    unchecked.

    Raises:
        ValueError: if the BAM is not coordinate-sorted, or a record is
            malformed -- cut short, ``block_size`` below the 32-byte
            core, read name plus CIGAR running past ``block_size``, a
            refID outside ``[-1, n_ref)`` or a CIGAR op code above 8.
            A malformed record's message names its virtual offset.
    """
    bgzf = reader._bgzf
    references = reader.header.references
    n_ref = len(references)
    last_ref = -1
    last_pos = -1
    vbegin = bgzf.tell()
    while True:
        size_raw = bgzf.read(4)
        if not size_raw:
            return
        if len(size_raw) < 4:
            raise ValueError(f"BAM record at voffset {vbegin} is cut short")
        (block_size,) = _INT32.unpack(size_raw)
        if block_size < _CORE.size:
            raise ValueError(
                f"BAM record at voffset {vbegin} has block_size "
                f"{block_size}, below the {_CORE.size}-byte core"
            )
        body = bgzf.read(block_size)
        if len(body) < block_size:
            raise ValueError(
                f"BAM record at voffset {vbegin} is cut short: wanted "
                f"{block_size} bytes, got {len(body)}"
            )
        vend = bgzf.tell()
        ref_id, pos, l_read_name, _mapq, _bin, n_cigar, flag = (
            _CORE.unpack_from(body)[:7]
        )
        off = _CORE.size + l_read_name
        if off + 4 * n_cigar > block_size:
            raise ValueError(
                f"BAM record at voffset {vbegin}: read name and CIGAR "
                f"run past its block_size {block_size}"
            )
        if not -1 <= ref_id < n_ref:
            raise ValueError(
                f"BAM record at voffset {vbegin} has refID {ref_id}, "
                f"outside [-1, {n_ref})"
            )
        span = 0
        for word in struct.unpack_from(f"<{n_cigar}I", body, off):
            op = word & 0xF
            if op > CigarOp.X:
                raise ValueError(
                    f"BAM record at voffset {vbegin} has CIGAR op code {op}"
                )
            if _REF_OPS_MASK >> op & 1:
                span += word >> 4
        if ref_id >= 0 and pos >= 0:
            if ref_id < last_ref:
                raise ValueError(
                    "cannot index an unsorted BAM (contig "
                    f"{references[ref_id][0]!r} appears after a later "
                    "header contig)"
                )
            if ref_id > last_ref:
                last_ref = ref_id
                last_pos = -1
            if pos < last_pos:
                qname = body[_CORE.size : off - 1].decode("ascii", "replace")
                raise ValueError(
                    "cannot index an unsorted BAM "
                    f"({qname} at {pos} after {last_pos})"
                )
            last_pos = pos
        yield ref_id, pos, pos + span, flag, vbegin, vend
        vbegin = vend


def write_bam(
    dest: PathOrFile, header: SamHeader, reads: Iterable[AlignedRead]
) -> int:
    """Write all ``reads`` to a BAM file; returns the record count."""
    with BamWriter(dest, header) as writer:
        for read in reads:
            writer.write(read)
        return writer.records_written


def read_bam(source: PathOrFile) -> Tuple[SamHeader, List[AlignedRead]]:
    """Read an entire BAM file into memory."""
    with BamReader(source) as reader:
        return reader.header, list(reader)
