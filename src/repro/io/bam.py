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

Every record scan but :meth:`BamReader.read_record` shares one walk
(:func:`walk_spans`): a BGZF block's records at a time as a
:class:`RecordSpan`, whose named numpy columns the index builders,
the seek-plan walk and the batched engine's gathers read, so no other
module knows the core's layout.  A record that does not decode is a
:class:`~repro.io.errors.FormatError` naming its virtual offset, the
same on every path.
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
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.cigar import (
    CONSUMES_QUERY,
    CONSUMES_REFERENCE,
    invalid_cigars,
    op_table,
    unpack_cigar,
)
from repro.io.errors import FormatError
from repro.io.records import AlignedRead, SamHeader

__all__ = [
    "write_bam",
    "read_bam",
    "BamWriter",
    "BamReader",
    "RecordSpan",
    "encode_record",
    "decode_record",
    "decode_record_at",
    "reg2bin",
    "walk_spans",
]

PathOrFile = Union[str, os.PathLike, BinaryIO]

BAM_MAGIC = b"BAM\x01"

#: The fixed 32-byte record core: refID, pos, l_read_name, mapq, bin,
#: n_cigar_op, flag, l_seq, next refID, next pos, tlen.
_CORE = struct.Struct("<iiBBHHHiiii")
_INT32 = struct.Struct("<i")

#: The same core as a numpy record, to unpack a whole span at once.
_CORE_DTYPE = np.dtype(
    [
        ("ref_id", "<i4"),
        ("pos", "<i4"),
        ("l_read_name", "u1"),
        ("mapq", "u1"),
        ("bin", "<u2"),
        ("n_cigar", "<u2"),
        ("flag", "<u2"),
        ("l_seq", "<i4"),
        ("next_ref_id", "<i4"),
        ("pnext", "<i4"),
        ("tlen", "<i4"),
    ]
)


_QUERY_OPS = op_table(CONSUMES_QUERY)
_REF_OPS = op_table(CONSUMES_REFERENCE)
#: M, = and X: the operations that align read bases to the reference.
_MATCH_OPS = _QUERY_OPS & _REF_OPS

#: BAM 4-bit base codes ("=ACMGRSVTWYHKDBN").
SEQ_NIBBLES = "=ACMGRSVTWYHKDBN"
#: Nibble -> character code.
_NIBBLE_TO_CHAR = np.frombuffer(SEQ_NIBBLES.encode("ascii"), dtype=np.uint8)
#: Character code -> nibble; every character outside ``SEQ_NIBBLES``
#: (lowercase and non-ASCII included) packs to 15, ``N``, as in htslib.
_CHAR_TO_NIBBLE = np.full(256, 15, dtype=np.uint8)
_CHAR_TO_NIBBLE[_NIBBLE_TO_CHAR] = np.arange(16, dtype=np.uint8)

_TAG_PACK = {
    "c": ("<b", int),
    "C": ("<B", int),
    "s": ("<h", int),
    "S": ("<H", int),
    "i": ("<i", int),
    "I": ("<I", int),
    "f": ("<f", float),
}
_TAG_ARRAY_DTYPES = {
    "c": np.int8,
    "C": np.uint8,
    "s": np.int16,
    "S": np.uint16,
    "i": np.int32,
    "I": np.uint32,
    "f": np.float32,
}
#: Tag type byte -> value size for the fixed-size types (``A``, the
#: integers and ``f``); 0 for every other byte.
_TAG_SIZES = np.zeros(256, dtype=np.int64)
_TAG_SIZES[ord("A")] = 1
for _typ, (_fmt, _) in _TAG_PACK.items():
    _TAG_SIZES[ord(_typ)] = struct.calcsize(_fmt)
#: B-array subtype byte -> element size; 0 for an undefined subtype.
_ARRAY_SIZES = np.zeros(256, dtype=np.int64)
for _typ, _dtype in _TAG_ARRAY_DTYPES.items():
    _ARRAY_SIZES[ord(_typ)] = np.dtype(_dtype).itemsize


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
    if seq.isascii():
        chars = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    else:
        # One code point per character; past 0xff nothing is in
        # SEQ_NIBBLES, so clamping keeps the table at 256 entries.
        chars = np.minimum(
            np.frombuffer(
                seq.encode("utf-32-le", "surrogatepass"), dtype="<u4"
            ),
            255,
        )
    nibbles = _CHAR_TO_NIBBLE[chars]
    if nibbles.size % 2:
        nibbles = np.append(nibbles, np.uint8(0))
    return ((nibbles[0::2] << 4) | nibbles[1::2]).tobytes()


def _unpack_seq(data: bytes, n: int) -> str:
    """The first ``n`` bases packed in ``data`` (inverse of
    :func:`_pack_seq` on the nibble alphabet)."""
    if n <= 0:
        return ""
    packed = np.frombuffer(data, dtype=np.uint8, count=(n + 1) // 2)
    chars = np.empty(2 * packed.size, dtype=np.uint8)
    chars[0::2] = _NIBBLE_TO_CHAR[packed >> 4]
    chars[1::2] = _NIBBLE_TO_CHAR[packed & 0xF]
    return chars[:n].tobytes().decode("ascii")


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
    """Parse a record's tag area.

    Raises:
        FormatError: if a tag is cut short, its name or string value
            is not ASCII, or its type, array subtype or array count is
            not one BAM defines.
    """
    tags: Dict[str, Tuple[str, Any]] = {}
    i = 0
    end = len(data)
    while i < end:
        if i + 3 > end:
            raise FormatError(f"tag at byte {i} of the tag area is cut short")
        try:
            tag = data[i : i + 2].decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(
                f"tag name {data[i : i + 2]!r} is not ASCII"
            ) from None
        typ = chr(data[i + 2])
        i += 3
        if typ == "A":
            if i >= end:
                raise FormatError(f"tag {tag} is cut short")
            tags[tag] = ("A", chr(data[i]))
            i += 1
        elif typ in _TAG_PACK:
            fmt, _ = _TAG_PACK[typ]
            size = struct.calcsize(fmt)
            if i + size > end:
                raise FormatError(f"tag {tag} is cut short")
            (val,) = struct.unpack_from(fmt, data, i)
            tags[tag] = (typ, val)
            i += size
        elif typ == "Z":
            stop = data.find(b"\x00", i)
            if stop < 0:
                raise FormatError(f"tag {tag} is not NUL-terminated")
            try:
                tags[tag] = ("Z", data[i:stop].decode("ascii"))
            except UnicodeDecodeError:
                raise FormatError(f"tag {tag} is not ASCII") from None
            i = stop + 1
        elif typ == "B":
            if i + 5 > end:
                raise FormatError(f"tag {tag} is cut short")
            sub = chr(data[i])
            (count,) = _INT32.unpack_from(data, i + 1)
            i += 5
            if sub not in _TAG_ARRAY_DTYPES:
                raise FormatError(f"unsupported B-array subtype {sub!r}")
            dtype = np.dtype(_TAG_ARRAY_DTYPES[sub])
            if count < 0 or i + count * dtype.itemsize > end:
                raise FormatError(
                    f"tag {tag} array of {count} values runs past the record"
                )
            vals = np.frombuffer(
                data, dtype=dtype.newbyteorder("<"), count=count, offset=i
            ).astype(dtype)
            tags[tag] = ("B", (sub, vals))
            i += count * dtype.itemsize
        else:
            raise FormatError(f"unsupported BAM tag type {typ!r}")
    return tags


def _bad_tag_areas(
    buf: np.ndarray, begin: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """True for each tag area ``buf[begin[j] : end[j]]`` that
    :func:`_decode_tags` rejects, by the same rules.

    The areas are gathered into one array and their tags walked in
    lockstep -- one round of numpy operations per tag position, not
    per record -- building no values.
    """
    bad = np.zeros(begin.size, dtype=bool)
    sizes = end - begin
    live = np.flatnonzero(sizes > 0)
    if live.size == 0:
        return bad
    # Zero padding keeps a cut-short tag's header reads in bounds.
    data = np.concatenate(
        [buf[_ranges(begin[live], sizes[live])], np.zeros(8, dtype=np.uint8)]
    )
    at = _starts(sizes[live])
    stop = at + sizes[live]
    nul = np.flatnonzero(data == 0)
    while live.size:
        ok = at + 3 <= stop
        head = np.where(ok, at, 0)
        ok &= (data[head] < 0x80) & (data[head + 1] < 0x80)
        typ = data[head + 2]
        value = head + 3
        nxt = value + _TAG_SIZES[typ]
        is_z = ok & (typ == ord("Z"))
        is_b = ok & (typ == ord("B"))
        ok &= (nxt <= stop) & ((_TAG_SIZES[typ] > 0) | is_z | is_b)
        if is_z.any():
            # A string runs to the next NUL, which must lie in its area;
            # every byte before it must be ASCII.
            z = np.flatnonzero(is_z)
            # The padding's NULs leave every search something to find.
            term = nul[np.searchsorted(nul, value[z])]
            found = term < stop[z]
            term = np.where(found, term, value[z])
            text = _ranges(value[z], term - value[z])
            high = np.repeat(np.arange(z.size), term - value[z])[data[text] >= 0x80]
            found[high] = False
            ok[z] = found
            nxt[z] = term + 1
        if is_b.any():
            # Subtype byte, int32 count, then count elements.
            b = np.flatnonzero(is_b)
            fits = value[b] + 5 <= stop[b]
            safe = np.where(fits, value[b], 0)
            item = _ARRAY_SIZES[data[safe]]
            count = _rows(data, safe + 1, 4).view("<i4").reshape(b.size)
            after = value[b] + 5 + count.astype(np.int64) * item
            ok[b] = fits & (item > 0) & (count >= 0) & (after <= stop[b])
            nxt[b] = after
        bad[live[~ok]] = True
        more = ok & (nxt < stop)
        live, at, stop = live[more], nxt[more], stop[more]
    return bad


def encode_record(read: AlignedRead, header: SamHeader) -> bytes:
    """Serialise one record as its BAM binary body (without the leading
    ``block_size`` word, which the writer prepends).

    Raises:
        ValueError: if the read references a sequence missing from the
            header, a name/CIGAR exceeds format limits, or a number
            (position, mapping quality, flag, mate field, CIGAR length
            or tag value) lies outside its BAM field's range.
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
    try:
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
            struct.pack("<I", (length << 4) | int(op))
            for op, length in read.cigar
        )
        tags = _encode_tags(read.tags)
    except struct.error as exc:
        raise ValueError(f"read {read.qname} does not fit BAM: {exc}") from None
    qual = read.qual.astype(np.uint8).tobytes()
    if len(read.seq) and not len(qual):
        qual = b"\xff" * len(read.seq)  # 0xff = quality unavailable
    return core + name + cigar_words + _pack_seq(read.seq) + qual + tags


def _fixed_fields(body: bytes, n_ref: int) -> Tuple[int, ...]:
    """Unpack a record body's 32-byte core and check its length and
    range fields against the body's size -- the checks every decoder
    shares, so a later slice or gather never runs into the next record.

    Raises:
        FormatError: if the body is shorter than the core, the read
            name and CIGAR or the sequence and qualities run past it,
            ``l_seq`` is negative, or refID or next refID lies outside
            ``[-1, n_ref)``.  The message does not name a position;
            callers that know the record's virtual offset add it.
    """
    size = len(body)
    if size < _CORE.size:
        raise FormatError(
            f"record body of {size} bytes is below the {_CORE.size}-byte core"
        )
    core = _CORE.unpack_from(body)
    ref_id, _pos, l_read_name, _mapq, _bin, n_cigar, _flag, l_seq = core[:8]
    next_ref_id = core[8]
    off = _CORE.size + l_read_name + 4 * n_cigar
    if off > size:
        raise FormatError(f"read name and CIGAR run past its block_size {size}")
    if l_seq < 0 or off + (l_seq + 1) // 2 + l_seq > size:
        raise FormatError(
            f"sequence and qualities (l_seq {l_seq}) run past its "
            f"block_size {size}"
        )
    if not -1 <= ref_id < n_ref:
        raise FormatError(f"refID {ref_id} outside [-1, {n_ref})")
    if not -1 <= next_ref_id < n_ref:
        raise FormatError(f"next refID {next_ref_id} outside [-1, {n_ref})")
    return core


def decode_record(body: bytes, header: SamHeader) -> AlignedRead:
    """Inverse of :func:`encode_record`.

    Raises:
        FormatError: if the body does not decode: a length or range
            field disagrees with its size (see :func:`_fixed_fields`),
            the read name is not ASCII, a CIGAR op code is above 8 or
            the CIGAR breaks a SAM rule (zero-length operation,
            misplaced clip, query length other than ``l_seq``), or
            the tag area does not parse.
    """
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
    ) = _fixed_fields(body, len(header.references))
    off = _CORE.size
    try:
        qname = body[off : off + l_read_name - 1].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("read name is not ASCII") from None
    off += l_read_name
    try:
        cigar = unpack_cigar(struct.unpack_from(f"<{n_cigar}I", body, off))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    off += 4 * n_cigar
    seq = _unpack_seq(body[off : off + (l_seq + 1) // 2], l_seq)
    off += (l_seq + 1) // 2
    qual_raw = body[off : off + l_seq]
    off += l_seq
    if l_seq and qual_raw == b"\xff" * l_seq:
        qual = np.zeros(l_seq, dtype=np.uint8)  # 0xff = unavailable
    else:
        qual = np.frombuffer(qual_raw, dtype=np.uint8).copy()
    tags = _decode_tags(body[off:])
    rname = header.references[ref_id][0] if ref_id >= 0 else "*"
    rnext = header.references[next_ref_id][0] if next_ref_id >= 0 else "*"
    try:
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
    except ValueError as exc:  # the CIGAR breaks a SAM rule
        raise FormatError(str(exc)) from None


def _at(vbegin: int, exc: FormatError) -> FormatError:
    """``exc`` with the virtual offset of its record prepended."""
    return FormatError(f"BAM record at voffset {vbegin}: {exc}")


def decode_record_at(
    body: bytes, header: SamHeader, vbegin: int
) -> AlignedRead:
    """:func:`decode_record` for the record read at virtual offset
    ``vbegin``, whose errors name that offset."""
    try:
        return decode_record(body, header)
    except FormatError as exc:
        raise _at(vbegin, exc) from None


def _read_body(bgzf: BgzfReader, vbegin: int) -> Optional[bytes]:
    """The next record's body (without its ``block_size``), or ``None``
    at EOF.

    Raises:
        FormatError: if the record is cut short or its ``block_size``
            is below the 32-byte core.
    """
    size_raw = bgzf.read(4)
    if not size_raw:
        return None
    if len(size_raw) < 4:
        raise FormatError(f"BAM record at voffset {vbegin} is cut short")
    (block_size,) = _INT32.unpack(size_raw)
    if block_size < _CORE.size:
        raise FormatError(
            f"BAM record at voffset {vbegin} has block_size "
            f"{block_size}, below the {_CORE.size}-byte core"
        )
    body = bgzf.read(block_size)
    if len(body) < block_size:
        raise FormatError(
            f"BAM record at voffset {vbegin} is cut short: wanted "
            f"{block_size} bytes, got {len(body)}"
        )
    return body


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

    Raises:
        FormatError: if the magic is wrong or the header is cut short,
            has a negative length or holds non-ASCII text; the message
            names the field.
    """

    def __init__(self, source: PathOrFile, cache_blocks: int = 1) -> None:
        self._bgzf = BgzfReader(source, cache_blocks=cache_blocks)
        try:
            magic = self._header_bytes(4, "magic")
            if magic != BAM_MAGIC:
                raise FormatError(f"not a BAM file (magic {magic!r})")
            l_text = self._header_int("l_text")
            text = self._header_text(l_text, "text")
            n_ref = self._header_int("n_ref")
            refs: List[Tuple[str, int]] = []
            for i in range(n_ref):
                l_name = self._header_int(f"l_name of reference {i}")
                name = self._header_text(l_name, f"name of reference {i}")
                l_ref = self._header_int(f"l_ref of reference {i}")
                refs.append((name[:-1], l_ref))
        except BaseException:
            self._bgzf.close()  # closes the file only if it opened it
            raise
        self.header = SamHeader.from_text(text)
        if not self.header.references:
            self.header.references = refs
        self._data_start = self._bgzf.tell()

    def _header_bytes(self, n: int, field: str) -> bytes:
        """The header's next ``n`` bytes, which hold ``field``.

        Raises:
            FormatError: if ``n`` is negative or the stream ends first.
        """
        if n < 0:
            raise FormatError(f"BAM header {field} has negative length {n}")
        data = self._bgzf.read(n)
        if len(data) < n:
            raise FormatError(
                f"BAM header cut short in {field}: wanted {n} bytes, "
                f"got {len(data)}"
            )
        return data

    def _header_int(self, field: str) -> int:
        """The header's next int32, ``field``."""
        return _INT32.unpack(self._header_bytes(4, field))[0]

    def _header_text(self, n: int, field: str) -> str:
        """The header's next ``n`` bytes as ASCII text, ``field``."""
        try:
            return self._header_bytes(n, field).decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"BAM header {field} is not ASCII") from None

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
        """Read the next record, or ``None`` at EOF.

        Raises:
            FormatError: if the record is cut short or does not decode
                (see :func:`decode_record`); the message names its
                virtual offset.
        """
        vbegin = self._bgzf.tell()
        body = _read_body(self._bgzf, vbegin)
        if body is None:
            return None
        return decode_record_at(body, self.header, vbegin)

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


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive running sum: where each of ``counts``' runs begins."""
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``first[j] .. first[j] + counts[j]``."""
    return np.repeat(first - _starts(counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


def _rows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``(len(at), width)`` copy of ``buf[a : a + width]`` for each
    ``a`` in ``at`` (a strided-window gather, no index matrix)."""
    if at.size == 0 or width == 0:
        return np.zeros((at.size, width), dtype=buf.dtype)
    return np.lib.stride_tricks.sliding_window_view(buf, width)[at]


def _run_sums(
    values: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Sum of ``values[first[j] : first[j] + counts[j]]`` for every j."""
    acc = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=acc[1:])
    return acc[first + counts] - acc[first]


def _byte_codes(table: np.ndarray) -> np.ndarray:
    """Packed sequence byte -> its two bases' codes through the 16-entry
    ``table``, as one uint16 whose bytes in memory are (high nibble's
    code, low nibble's code): one gather decodes two bases."""
    nibbles = np.arange(256)
    return np.stack(
        [table[nibbles >> 4], table[nibbles & 0xF]], axis=1
    ).view(np.uint16)[:, 0]


class RecordSpan:
    """A run of BAM records decoded together, with no
    :class:`AlignedRead` built.

    The bodies are joined into one buffer; the 32-byte cores are
    unpacked as one structured array and the CIGARs as flat op/length
    arrays, so per-record fields, section offsets and reference ends
    are numpy vectors.  Bases come out by gathers over the buffer
    (:meth:`bases`, :meth:`aligned_bases`): sequence nibbles expand
    through a caller's 16-entry table and qualities are read in place,
    all-``0xff`` ("unavailable") strings reading as zeros, exactly as
    :func:`decode_record` gives them.

    This is every record scan's view (bamnostic-style: straight from
    the decompressed bytes).  :meth:`suspects` flags what
    :func:`decode_record` rejects.

    Args:
        bodies: record bodies (without ``block_size``) in file order,
            each past :func:`_fixed_fields`' checks (see
            :func:`walk_spans`).
        vbegin, vend: the records' virtual offsets, when read from a
            file.
    """

    def __init__(
        self, bodies: Sequence[bytes], vbegin: Sequence[int] = (), vend: Sequence[int] = ()
    ) -> None:
        n = len(bodies)
        self.bodies = bodies
        self.vbegin = np.asarray(vbegin, dtype=np.int64)
        self.vend = np.asarray(vend, dtype=np.int64)
        sizes = np.fromiter(map(len, bodies), dtype=np.int64, count=n)
        begin = _starts(sizes)
        self.buf = np.frombuffer(b"".join(bodies), dtype=np.uint8)
        core = _rows(self.buf, begin, _CORE.size).view(_CORE_DTYPE).reshape(n)
        self.ref_id = core["ref_id"].astype(np.int64)
        self.next_ref_id = core["next_ref_id"].astype(np.int64)
        self.pos = core["pos"].astype(np.int64)
        self.flag = core["flag"].astype(np.int64)
        self.mapq = core["mapq"].copy()
        self.l_seq = core["l_seq"].astype(np.int64)
        self.n_cigar = core["n_cigar"].astype(np.int64)
        self.name_off = begin + _CORE.size
        self.cigar_off = self.name_off + core["l_read_name"]
        self.seq_off = self.cigar_off + 4 * self.n_cigar
        self.qual_off = self.seq_off + (self.l_seq + 1) // 2
        self.tag_off = self.qual_off + self.l_seq
        self.end = begin + sizes
        #: every record's CIGAR, flattened: op i of record j is at
        #: ``op_first[j] + i``
        self.op_first = _starts(self.n_cigar)
        word_at = np.repeat(
            self.cigar_off - 4 * self.op_first, self.n_cigar
        ) + 4 * np.arange(int(self.n_cigar.sum()), dtype=np.int64)
        # Clamped: walk_spans reads the columns of records that fail the
        # fixed-field checks, whose CIGAR may run past the buffer.
        np.minimum(word_at, self.buf.size - 4, out=word_at)
        words = _rows(self.buf, word_at, 4).view("<u4").reshape(word_at.size)
        self.ops = (words & 0xF).astype(np.int64)
        self.lens = (words >> 4).astype(np.int64)
        self.ref_end = self.pos + _run_sums(
            np.where(_REF_OPS[self.ops], self.lens, 0),
            self.op_first,
            self.n_cigar,
        )
        single = np.flatnonzero(self.n_cigar == 1)
        #: one M, = or X operation covering all of SEQ: the read's
        #: bases are one contiguous run of reference positions
        self.ungapped = np.zeros(n, dtype=bool)
        only = self.op_first[single]
        self.ungapped[single] = _MATCH_OPS[self.ops[only]] & (
            self.lens[only] == self.l_seq[single]
        )

    def __len__(self) -> int:
        return len(self.bodies)

    def name(self, j: int) -> str:
        """Record ``j``'s read name (non-ASCII bytes replaced)."""
        raw = self.buf[self.name_off[j] : self.cigar_off[j] - 1].tobytes()
        return raw.decode("ascii", "replace")

    def suspects(self, first: int = 0) -> np.ndarray:
        """Indices, from record ``first`` on, of the records
        :func:`decode_record` rejects: a non-ASCII read name, a CIGAR
        that :func:`repro.io.cigar.invalid_cigars` flags, or a tag area
        that does not parse.  (The fixed fields were checked by the
        walk.)  Records before ``first`` are not looked at."""
        tail = slice(first, len(self.bodies))
        name_off = self.name_off[tail]
        name_len = np.maximum(self.cigar_off[tail] - name_off - 1, 0)
        name_bytes = self.buf[_ranges(name_off, name_len)]
        op0 = int(self.op_first[first]) if name_off.size else self.ops.size
        bad = invalid_cigars(
            self.ops[op0:], self.lens[op0:], self.n_cigar[tail], self.l_seq[tail]
        )
        bad[np.repeat(np.arange(name_off.size), name_len)[name_bytes >= 0x80]] = True
        bad |= _bad_tag_areas(self.buf, self.tag_off[tail], self.end[tail])
        return first + np.flatnonzero(bad)

    def bases(
        self, rows: np.ndarray, length: int, table: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, quals)``, each ``(len(rows), length)`` uint8: the
        first ``length`` bases of each of ``rows`` (records with at
        least that many), sequence nibbles mapped through ``table``."""
        packed = _rows(self.buf, self.seq_off[rows], (length + 1) // 2)
        codes = _byte_codes(table)[packed].view(np.uint8)[:, :length]
        quals = _rows(self.buf, self.qual_off[rows], length)
        quals[self._unavailable(rows)] = 0
        return np.ascontiguousarray(codes), quals

    def aligned_bases(
        self, rows: np.ndarray, table: np.ndarray, start: int, end: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The bases ``rows`` align to reference positions in
        ``[start, end)`` (CIGAR ``M``, ``=`` and ``X``) as flat
        ``(positions, codes, quals, counts)``: read after read in
        ``rows`` order, each read's bases in reference order, ``counts``
        bases per read; sequence nibbles mapped through ``table``.  A
        read without SEQ has none.

        Work is per CIGAR operation until the window clip; only the
        bases inside it are expanded, each by one gather for its code
        and one for its quality."""
        rows = np.asarray(rows, dtype=np.int64)
        n_ops = np.where(self.l_seq[rows] > 0, self.n_cigar[rows], 0)
        at = _ranges(self.op_first[rows], n_ops)
        ops = self.ops[at]
        lens = self.lens[at]
        read = np.repeat(np.arange(rows.size), n_ops)
        q_len = np.where(_QUERY_OPS[ops], lens, 0)
        r_len = np.where(_REF_OPS[ops], lens, 0)
        # Each op's query and reference offsets within its read.
        q_at = np.cumsum(q_len) - q_len
        r_at = np.cumsum(r_len) - r_len
        has = n_ops > 0
        first = _starts(n_ops)[has]
        q_at -= np.repeat(q_at[first], n_ops[has])
        r_at -= np.repeat(r_at[first], n_ops[has])
        # The aligned segments, clipped to the window.
        match = _MATCH_OPS[ops]
        seg_read = read[match]
        seg_pos = self.pos[rows][seg_read] + r_at[match]
        lo = np.maximum(seg_pos, start)
        seg_len = np.maximum(np.minimum(seg_pos + lens[match], end) - lo, 0)
        seg_q = q_at[match] + (lo - seg_pos)
        # Base k of the output is base k - out[s] of its segment s.
        out = _starts(seg_len)
        index = np.arange(int(seg_len.sum()), dtype=np.int64)
        positions = np.repeat(lo - out, seg_len) + index
        # Nibble k of the buffer is byte k >> 1's high (k even) or low
        # half: only the window's bases are gathered and mapped.
        nibble = np.repeat(2 * self.seq_off[rows][seg_read] + seg_q - out, seg_len)
        nibble += index
        low = nibble.astype(np.uint8) & 1
        nibble >>= 1
        codes = _byte_codes(table).view(np.uint8).reshape(256, 2)[
            self.buf[nibble], low
        ]
        del nibble, low
        quals = self.buf[
            np.repeat(self.qual_off[rows][seg_read] + seg_q - out, seg_len)
            + index
        ]
        unavailable = self._unavailable(rows)
        if unavailable.any():
            quals[np.repeat(unavailable[seg_read], seg_len)] = 0
        counts = np.bincount(
            seg_read, weights=seg_len, minlength=rows.size
        ).astype(np.int64)
        return positions, codes, quals, counts

    def _unavailable(self, rows: np.ndarray) -> np.ndarray:
        """True for each of ``rows`` whose qualities are all ``0xff``
        (never for a read without SEQ)."""
        out = np.zeros(rows.size, dtype=bool)
        seq = np.flatnonzero(self.l_seq[rows] > 0)
        if seq.size == 0:
            return out
        bounds = np.empty(2 * seq.size, dtype=np.int64)
        bounds[0::2] = self.qual_off[rows[seq]]
        bounds[1::2] = bounds[0::2] + self.l_seq[rows[seq]]
        if bounds[-1] == self.buf.size:
            bounds = bounds[:-1]  # the last run reduces to the end
        out[seq] = np.minimum.reduceat(self.buf, bounds)[0::2] == 0xFF
        return out


def walk_spans(reader: BamReader) -> Iterator[RecordSpan]:
    """The record walk every scan shares: from the reader's current
    position, the records a BGZF block at a time as
    :class:`RecordSpan` values, each holding the record straddling in
    from the previous block (if any), then every record lying wholly
    inside the block, sliced straight out of its decompressed bytes.
    ``vbegin[j]``/``vend[j]`` are :meth:`BamReader.tell` before and
    after :meth:`BamReader.read_record` of record ``j``.

    Every length and range field is checked on the span's columns by
    :func:`_fixed_fields`' rules, so slices and gathers by them stay
    inside the record.  The first record that fails raises after the
    records before it were yielded: a scan that stops first never
    sees the error.

    Raises:
        FormatError: if a record is cut short or fails
            :func:`_fixed_fields`; the message names its virtual
            offset.
    """
    bgzf = reader._bgzf
    n_ref = len(reader.header.references)
    size_at = _INT32.unpack_from
    bodies, vbegin, vend = [], [], []
    while True:
        data, w = bgzf._block_data, bgzf._within
        top, base = len(data), bgzf._block_start << 16
        while w + 4 <= top:
            (block_size,) = size_at(data, w)
            end = w + 4 + block_size
            if block_size < _CORE.size or end > top:
                break  # straddling or malformed: the general path
            bodies.append(data[w + 4 : end])
            vbegin.append(base | w)
            vend.append(base | end)
            w = end
        if bodies:
            bgzf._within = w
            if w == top:
                vend[-1] = bgzf.tell()  # the next block's start
            span = RecordSpan(bodies, vbegin, vend)
            # tag_off >= seq_off when l_seq >= 0: name and CIGAR overruns too
            bad = (span.l_seq < 0) | (span.tag_off > span.end)
            for ref_ids in (span.ref_id, span.next_ref_id):
                bad |= (ref_ids < -1) | (ref_ids >= n_ref)
            if bad.any():
                j = int(bad.argmax())
                if j:
                    yield RecordSpan(bodies[:j], vbegin[:j], vend[:j])
                try:
                    _fixed_fields(bodies[j], n_ref)
                except FormatError as exc:
                    raise _at(vbegin[j], exc) from None
            yield span
            bodies, vbegin, vend = [], [], []
        at = bgzf.tell()
        body = _read_body(bgzf, at)
        if body is None:
            return
        bodies.append(body)
        vbegin.append(at)
        vend.append(bgzf.tell())


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
