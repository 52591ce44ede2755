"""BAI: the standard BAM binning index (reader *and* writer).

Implements the ``.bai`` format from the SAM specification (section
5.2, "The BAI index format"), byte-compatible with htslib/samtools in
both directions: indexes produced by ``samtools index`` load here, and
indexes written by :func:`build_bai` load there.  Implementing the
*standard* wire format -- not a private sidecar -- is the point: like
the CLNP/ES-IS kernel modules that interoperate because they speak the
published protocol, region queries against externally produced BAMs
need externally produced indexes to just work.

The scheme is UCSC's R-tree flattened into bins:

* the reference axis is tiled at six granularities (one 512 Mbp bin,
  8 x 64 Mbp, 64 x 8 Mbp, 512 x 1 Mbp, 4096 x 128 kbp, 32768 x
  16 kbp); every record lands in the *smallest* bin that contains its
  whole alignment span (:func:`repro.io.bam.reg2bin`);
* each bin holds *chunks* -- ``(virtual offset begin, virtual offset
  end)`` file ranges covering that bin's records;
* a query ``[beg, end)`` touches at most ``O(log)``-deep bin lists
  (:func:`reg2bins`: <= 6 levels regardless of reference length),
  whose chunks are pruned by a 16 kbp *linear index* of minimum
  offsets and coalesced into a short seek plan.

:func:`build_bai` reads the ``ref_id``, ``pos``, ``ref_end``,
``flag`` and voffset columns of :func:`repro.io.bam.walk_spans`; a
malformed ``.bai`` is a :class:`~repro.io.errors.FormatError` naming
the file and the byte offset.

On-disk layout (all integers little-endian)::

    magic "BAI\\x01", n_ref:int32
    per reference:
        n_bin:int32
        per bin: bin:uint32, n_chunk:int32, (beg:uint64, end:uint64)*
        n_intv:int32, ioffset:uint64 *
    n_no_coor:uint64            # optional trailer

Bin 37450 is the spec's pseudo-bin carrying per-reference metadata
(start/stop virtual offsets and mapped/unmapped counts); it is written
for interoperability and parsed (not treated as a real bin) on read.

:class:`BaiIndex` satisfies the
:class:`repro.io.index.RandomAccessIndex` protocol, so
:class:`~repro.pipeline.sources.BamSource` consumes it exactly like
the in-memory linear index.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

from repro.io.bam import BamReader, reg2bin
from repro.io.errors import FormatError
from repro.io.index import Chunk, _index_spans
from repro.io.records import FLAG_UNMAPPED

__all__ = [
    "BAI_MAGIC",
    "BaiIndex",
    "BaiReference",
    "MAX_BIN",
    "PSEUDO_BIN",
    "WINDOW_SHIFT",
    "bin_interval",
    "build_bai",
    "reg2bins",
]

BAI_MAGIC = b"BAI\x01"

#: The metadata pseudo-bin id (``37450 = 4681 + 32768 + 1``).
PSEUDO_BIN = 37450

#: Width of a linear-index window (16 kbp).
WINDOW_SHIFT = 14

#: ``(offset, shift)`` of each binning level, coarsest first; level
#: ``i`` tiles the reference with ``8**i`` bins of ``1 << shift`` bp.
_LEVELS: Tuple[Tuple[int, int], ...] = (
    (0, 29),
    (1, 26),
    (9, 23),
    (73, 20),
    (585, 17),
    (4681, WINDOW_SHIFT),
)

#: Largest real bin id + 1 (bins 0..37448 inclusive are addressable).
MAX_BIN = 4681 + (1 << 15)


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes of a ``.bai`` from ``fh``.

    Raises:
        FormatError: ``"truncated BAI index at byte N"`` when the file
            ends first, so a short file never surfaces as a
            ``struct.error``.
    """
    at = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated BAI index at byte {at}")
    return data


def _read_count(fh: BinaryIO, noun: str) -> int:
    """Read one ``int32`` count of a ``.bai``.

    Raises:
        FormatError: on truncation or a negative count, which would
            otherwise load as an empty index that plans no records.
    """
    at = fh.tell()
    (n,) = struct.unpack("<i", _read_exact(fh, 4))
    if n < 0:
        raise FormatError(f"negative {noun} count {n} at byte {at} of BAI index")
    return n


def reg2bins(beg: int, end: int) -> List[int]:
    """Every bin that may hold a record overlapping ``[beg, end)``.

    The query-side complement of :func:`repro.io.bam.reg2bin`: a
    record whose span overlaps the region necessarily lives in one of
    the returned bins, whichever level it was filed at.  At most
    ``1 + 8 + 64 + ...`` candidates bounded by the region width -- the
    O(log) seek math that replaces a linear checkpoint scan.

    Args:
        beg: 0-based inclusive region start (clamped at 0).
        end: 0-based exclusive region end (clamped at the scheme's
            512 Mbp ceiling).

    Returns:
        Ascending bin ids (empty when the region is empty).
    """
    beg = max(beg, 0)
    end = min(end, 1 << 29)  # the binning scheme addresses < 512 Mbp
    if end <= beg:
        return []
    end -= 1
    bins: List[int] = []
    for offset, shift in _LEVELS:
        bins.extend(range(offset + (beg >> shift), offset + (end >> shift) + 1))
    return bins


def bin_interval(bin_id: int) -> Tuple[int, int]:
    """The half-open reference interval ``[beg, end)`` a bin tiles.

    Raises:
        ValueError: if ``bin_id`` is not a real bin (the pseudo-bin
            included).
    """
    for level, (offset, shift) in enumerate(_LEVELS):
        if offset <= bin_id < offset + 8**level:
            idx = bin_id - offset
            return idx << shift, (idx + 1) << shift
    raise ValueError(f"not a real BAI bin id: {bin_id}")


@dataclasses.dataclass
class BaiReference:
    """One reference's slice of a BAI index.

    Attributes:
        bins: real bins only -- ``{bin id: chunk list}`` (the
            pseudo-bin is unpacked into the metadata fields below).
        intervals: the 16 kbp linear index: ``intervals[w]`` is the
            virtual offset before which no record overlapping window
            ``w`` can start (0 = no information).
        ref_beg / ref_end: virtual offsets of the first/last record
            (pseudo-bin metadata; 0 when the reference has no records).
        mapped / unmapped: placed record counts (pseudo-bin metadata).
    """

    bins: Dict[int, List[Chunk]] = dataclasses.field(default_factory=dict)
    intervals: List[int] = dataclasses.field(default_factory=list)
    ref_beg: int = 0
    ref_end: int = 0
    mapped: int = 0
    unmapped: int = 0

    def min_offset(self, beg: int) -> int:
        """Linear-index lower bound for a query starting at ``beg``."""
        if not self.intervals:
            return 0
        w = min(max(beg, 0) >> WINDOW_SHIFT, len(self.intervals) - 1)
        return self.intervals[w]


class BaiIndex:
    """A parsed (or freshly built) BAI index.

    The index itself is keyed by reference *id* (the ``.bai`` format
    stores no names); attach the BAM header's reference names with
    :meth:`attach_names` -- :class:`~repro.pipeline.sources.BamSource`
    and the CLI do this automatically -- to query by contig through
    the :class:`repro.io.index.RandomAccessIndex` interface.

    Args:
        references: one :class:`BaiReference` per BAM header reference.
        n_no_coor: count of coordinate-less records, or ``None`` when
            the producer omitted the optional trailer.
        names: reference names aligned with ``references`` (optional).
    """

    def __init__(
        self,
        references: Sequence[BaiReference],
        n_no_coor: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self.references: List[BaiReference] = list(references)
        self.n_no_coor = n_no_coor
        self._name_to_id: Dict[str, int] = {}
        self.names: Optional[List[str]] = None
        if names is not None:
            self.attach_names(names)

    def attach_names(self, names: Sequence[str]) -> "BaiIndex":
        """Bind reference names (from a BAM header) to the index.

        Returns ``self`` so the call chains off :meth:`load`.

        Raises:
            ValueError: if the name count disagrees with the index's
                reference count.
        """
        if len(names) != len(self.references):
            raise ValueError(
                f"BAI has {len(self.references)} references, header "
                f"names {len(names)}"
            )
        self.names = list(names)
        self._name_to_id = {name: i for i, name in enumerate(self.names)}
        return self

    def contigs(self) -> List[str]:
        """Names this index can answer queries for.

        Raises:
            ValueError: if no names were attached.
        """
        if self.names is None:
            raise ValueError(
                "no reference names attached; call attach_names() with "
                "the BAM header's reference names"
            )
        return list(self.names)

    # -- queries -------------------------------------------------------------

    def chunks_for_id(self, ref_id: int, beg: int, end: int) -> List[Chunk]:
        """The coalesced seek plan for ``[beg, end)`` on reference
        ``ref_id``: every file range that can hold an overlapping
        record, ascending and non-overlapping.

        This is the binned query proper: candidate bins from
        :func:`reg2bins`, their chunks pruned against the linear
        index's minimum offset, then sorted and merged (ranges that
        overlap, touch, or share a compressed BGZF block coalesce into
        one seek).
        """
        if not (0 <= ref_id < len(self.references)):
            return []
        ref = self.references[ref_id]
        if not ref.bins:
            return []
        min_off = ref.min_offset(beg)
        raw: List[Chunk] = []
        for bin_id in reg2bins(beg, end):
            for chunk in ref.bins.get(bin_id, ()):
                if chunk.vend <= min_off:
                    continue  # wholly before any overlapping record
                raw.append(
                    Chunk(max(chunk.vbegin, min_off), chunk.vend)
                )
        if not raw:
            return []
        raw.sort()
        merged = [raw[0]]
        for chunk in raw[1:]:
            last = merged[-1]
            # Merge overlapping/adjacent ranges (correctness: a record
            # must never be scanned twice) and ranges whose gap sits
            # inside one compressed block (economy: the block is
            # inflated once either way).
            if chunk.vbegin <= last.vend or (
                chunk.vbegin >> 16 == last.vend >> 16
            ):
                if chunk.vend > last.vend:
                    merged[-1] = Chunk(last.vbegin, chunk.vend)
            else:
                merged.append(chunk)
        return merged

    def chunks_for(self, contig: str, start: int, end: int) -> List[Chunk]:
        """:class:`~repro.io.index.RandomAccessIndex` interface: the
        seek plan for a named contig (empty when the contig is unknown
        or has no records).

        Raises:
            ValueError: if no names were attached (the raw index is
                id-keyed; see :meth:`attach_names`).
        """
        if self.names is None:
            raise ValueError(
                "no reference names attached; call attach_names() with "
                "the BAM header's reference names"
            )
        ref_id = self._name_to_id.get(contig)
        if ref_id is None:
            return []
        return self.chunks_for_id(ref_id, start, end)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the index in the standard ``.bai`` layout.

        Deterministic layout choices (all spec-conforming, matching
        samtools): bins ascending, the pseudo-bin last, trailing
        zero linear-index windows kept, the optional ``n_no_coor``
        trailer always written.
        """
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        """The serialised index (see :meth:`save`)."""
        out = bytearray()
        out += BAI_MAGIC
        out += struct.pack("<i", len(self.references))
        for ref in self.references:
            has_records = bool(ref.bins) or ref.mapped or ref.unmapped
            n_bin = len(ref.bins) + (1 if has_records else 0)
            out += struct.pack("<i", n_bin)
            for bin_id in sorted(ref.bins):
                chunks = ref.bins[bin_id]
                out += struct.pack("<Ii", bin_id, len(chunks))
                for chunk in chunks:
                    out += struct.pack("<QQ", chunk.vbegin, chunk.vend)
            if has_records:
                # The metadata pseudo-bin: two pseudo-chunks holding
                # (ref_beg, ref_end) and (mapped, unmapped).
                out += struct.pack("<Ii", PSEUDO_BIN, 2)
                out += struct.pack("<QQ", ref.ref_beg, ref.ref_end)
                out += struct.pack("<QQ", ref.mapped, ref.unmapped)
            out += struct.pack("<i", len(ref.intervals))
            for ioffset in ref.intervals:
                out += struct.pack("<Q", ioffset)
        out += struct.pack("<Q", self.n_no_coor or 0)
        return bytes(out)

    @classmethod
    def load(cls, path) -> "BaiIndex":
        """Parse a ``.bai`` file (ours or an external tool's).

        Raises:
            FormatError: if the file is not a BAI index (see
                :meth:`from_handle`); the message names the file.
        """
        with open(path, "rb") as fh:
            try:
                return cls.from_handle(fh)
            except FormatError as exc:
                raise FormatError(f"{os.fspath(path)}: {exc}") from None

    @classmethod
    def from_handle(cls, fh: BinaryIO) -> "BaiIndex":
        """Parse a BAI index from an open binary handle.

        Raises:
            FormatError: on bad magic, truncation, a negative count or
                an out-of-range bin id; the message names the byte
                offset.
        """
        magic = fh.read(4)
        if magic != BAI_MAGIC:
            raise FormatError(f"unrecognised index magic {magic!r} at byte 0: not a BAI index")
        references: List[BaiReference] = []
        for _ in range(_read_count(fh, "reference")):
            ref = BaiReference()
            for _ in range(_read_count(fh, "bin")):
                at = fh.tell()
                (bin_id,) = struct.unpack("<I", _read_exact(fh, 4))
                chunks = [
                    Chunk(*struct.unpack("<QQ", _read_exact(fh, 16)))
                    for _ in range(_read_count(fh, "chunk"))
                ]
                if bin_id == PSEUDO_BIN:
                    # Metadata, not a real bin: (ref_beg, ref_end),
                    # (mapped, unmapped).  Tolerate producers that
                    # write fewer pseudo-chunks.
                    if len(chunks) >= 1:
                        ref.ref_beg = chunks[0].vbegin
                        ref.ref_end = chunks[0].vend
                    if len(chunks) >= 2:
                        ref.mapped = chunks[1].vbegin
                        ref.unmapped = chunks[1].vend
                elif bin_id >= MAX_BIN:
                    raise FormatError(f"bin id {bin_id} at byte {at} out of range")
                else:
                    ref.bins[bin_id] = chunks
            ref.intervals = [
                struct.unpack("<Q", _read_exact(fh, 8))[0]
                for _ in range(_read_count(fh, "interval"))
            ]
            references.append(ref)
        trailer = fh.read(8)
        n_no_coor = (
            struct.unpack("<Q", trailer)[0] if len(trailer) == 8 else None
        )
        return cls(references, n_no_coor=n_no_coor)


class _RefAccumulator:
    """Per-reference builder state for the single-scan index pass."""

    __slots__ = (
        "bins", "intervals", "ref_beg", "ref_end", "mapped", "unmapped"
    )

    def __init__(self) -> None:
        self.bins: Dict[int, List[Chunk]] = {}
        self.intervals: List[int] = []
        self.ref_beg = 0
        self.ref_end = 0
        self.mapped = 0
        self.unmapped = 0

    def add(self, bin_id: int, vbegin: int, vend: int, beg: int, end: int,
            mapped: bool) -> None:
        """Fold one record (bin, file range, reference span) in."""
        chunks = self.bins.setdefault(bin_id, [])
        if chunks and vbegin <= chunks[-1].vend:
            # Contiguous records in the same bin extend one chunk --
            # the coalescing that keeps real-world BAI files small.
            if vend > chunks[-1].vend:
                chunks[-1] = Chunk(chunks[-1].vbegin, vend)
        else:
            chunks.append(Chunk(vbegin, vend))
        if not self.ref_beg:
            self.ref_beg = vbegin
        self.ref_end = max(self.ref_end, vend)
        if mapped:
            self.mapped += 1
        else:
            self.unmapped += 1
        first_w = max(beg, 0) >> WINDOW_SHIFT
        last_w = max(end - 1, beg, 0) >> WINDOW_SHIFT
        if last_w >= len(self.intervals):
            self.intervals.extend([0] * (last_w + 1 - len(self.intervals)))
        for w in range(first_w, last_w + 1):
            if self.intervals[w] == 0 or vbegin < self.intervals[w]:
                self.intervals[w] = vbegin

    def finish(self) -> BaiReference:
        """Seal the accumulator into a :class:`BaiReference`.

        Empty linear-index windows inherit the previous window's
        offset (samtools' gap fill), so ``min_offset`` stays a valid
        lower bound for queries starting in coverage gaps.
        """
        filled: List[int] = []
        last = 0
        for ioffset in self.intervals:
            if ioffset == 0:
                ioffset = last
            filled.append(ioffset)
            last = ioffset
        return BaiReference(
            bins=self.bins,
            intervals=filled,
            ref_beg=self.ref_beg,
            ref_end=self.ref_end,
            mapped=self.mapped,
            unmapped=self.unmapped,
        )


def build_bai(bam_path) -> BaiIndex:
    """Walk a coordinate-sorted BAM once and build its BAI index.

    One pass of :func:`repro.io.bam.walk_spans`, reading the spans'
    columns and decoding no record: each placed record contributes a
    chunk ``(voffset before, voffset after)`` to its :func:`reg2bin`
    bin and lowers the
    linear-index floor of every 16 kbp window its alignment touches
    (a record without CIGAR spans one base).  Records without a
    coordinate (a negative refID or position) count as ``n_no_coor``;
    placed unmapped records are filed like mapped ones but counted as
    unmapped.  The result
    interoperates with external tools via :meth:`BaiIndex.save` and
    answers region queries through :meth:`BaiIndex.chunks_for` (names
    are attached from the header here, so the returned index is
    query-ready).

    Args:
        bam_path: coordinate-sorted BAM to scan.

    Raises:
        FormatError: if the BAM is not coordinate-sorted or a record is
            malformed.
    """
    with BamReader(bam_path) as reader:
        names = [name for name, _ in reader.header.references]
        accumulators = [_RefAccumulator() for _ in names]
        n_no_coor = 0
        for span in _index_spans(reader):
            columns = (span.ref_id, span.pos, span.ref_end, span.flag, span.vbegin, span.vend)
            for ref_id, pos, end, flag, vbegin, vend in zip(*(c.tolist() for c in columns)):
                if ref_id < 0 or pos < 0:
                    n_no_coor += 1
                    continue
                end = max(end, pos + 1)
                accumulators[ref_id].add(
                    reg2bin(pos, end),
                    vbegin,
                    vend,
                    pos,
                    end,
                    mapped=not flag & FLAG_UNMAPPED,
                )
    return BaiIndex(
        [acc.finish() for acc in accumulators],
        n_no_coor=n_no_coor,
        names=names,
    )
