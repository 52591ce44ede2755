"""The unified random-access API: one ``chunks_for`` for every index.

The :class:`RandomAccessIndex` protocol asks every index one
question -- *which file ranges can hold records overlapping*
``[start, end)`` *of this contig?* -- answered as a list of
:class:`Chunk` virtual-offset ranges:

* :class:`MultiContigIndex` (one :class:`LinearIndex` checkpoint
  table per contig, built in memory) answers with one open-ended
  chunk starting at the contig's checkpoint scan offset;
* :class:`~repro.io.bai.BaiIndex` answers with the real binned seek
  plan -- several tight ranges instead of one suffix scan.

:class:`~repro.pipeline.sources.BamSource` consumes either uniformly;
equivalence tests pin the two to byte-identical calls.

Both builders walk the BAM once with :func:`repro.io.bam.walk_spans`,
reading the spans' columns and decoding no record:
:func:`build_linear_index` (the default planner) and
:func:`build_bai_index`.  BAI is the only on-disk format;
:func:`load_index` reads a ``.bai`` sidecar.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.io.bam import BamReader, RecordSpan, walk_spans
from repro.io.errors import FormatError
from repro.io.records import FLAG_UNMAPPED

__all__ = [
    "Chunk",
    "LinearIndex",
    "MAX_VOFFSET",
    "MultiContigIndex",
    "RandomAccessIndex",
    "build_bai_index",
    "build_linear_index",
    "load_index",
]

#: Open-ended chunk sentinel: no virtual offset compares above it, so
#: a ``Chunk(v, MAX_VOFFSET)`` means "scan from ``v`` until the region
#: (or file) ends" -- the linear index's answer shape.
MAX_VOFFSET = (1 << 63) - 1


class Chunk(NamedTuple):
    """One file range of a seek plan: ``[vbegin, vend)`` in virtual
    offsets (see :func:`repro.io.bgzf.make_virtual_offset`)."""

    vbegin: int
    vend: int


@runtime_checkable
class RandomAccessIndex(Protocol):
    """Anything that can plan region seeks into a coordinate-sorted BAM.

    Implementations: :class:`MultiContigIndex` (one linear index per
    contig) and :class:`~repro.io.bai.BaiIndex` (the standard binning
    scheme).
    """

    def contigs(self) -> Sequence[str]:
        """Contig names the index can answer queries for."""
        ...

    def chunks_for(self, contig: str, start: int, end: int) -> List[Chunk]:
        """Ascending, non-overlapping virtual-offset ranges that
        together cover every record overlapping ``[start, end)`` of
        ``contig``; empty when the contig has no (indexed) records.

        A scan of the plan visits records in coordinate order (the
        ranges are ascending over a coordinate-sorted file), so
        consumers may stream the chunks back to back.  Ranges may
        include records *outside* the query (bins are coarse; linear
        indexes are suffixes): consumers still filter by position,
        they just no longer scan from the start of the contig.
        """
        ...


@dataclasses.dataclass
class LinearIndex:
    """One contig's checkpoints into a coordinate-sorted BAM.

    Every ``granularity``-th mapped record of the contig contributes a
    ``(position, virtual offset)`` checkpoint; a query answers with
    the offset of one suffix scan.

    Attributes:
        checkpoints: ``(pos, voffset)`` pairs, non-decreasing in both.
        max_read_span: the longest reference span of any record; a
            query for position ``p`` must start no later than the
            first read at ``p - max_read_span + 1`` to catch every
            overlapping read.
        data_start: virtual offset of the contig's first indexed
            record.
    """

    checkpoints: List[Tuple[int, int]]
    max_read_span: int
    data_start: int

    def query(self, pos: int) -> int:
        """Virtual offset from which a scan is guaranteed to see every
        read overlapping position ``pos``.  Falls back to the contig's
        first record (never the raw file start, which would land a
        reader on the BAM header).

        The answer is the last checkpoint *strictly before* the first
        position that can overlap ``pos``: a checkpoint is one record,
        and reads at its own position may precede it in the file, so a
        checkpoint at exactly that position could skip some of them.
        """
        target = pos - self.max_read_span + 1
        best = self.data_start
        for cp_pos, voffset in self.checkpoints:
            if cp_pos < target:
                best = voffset
            else:
                break
        return best


class MultiContigIndex(Mapping):
    """One :class:`LinearIndex` per contig.

    A :class:`RandomAccessIndex` that is also a read-only
    :class:`~collections.abc.Mapping` (``index["chr1"]``,
    ``index.get``, iteration) over the per-contig tables.

    Args:
        per_contig: ``{contig name: LinearIndex}``; contigs without
            records are simply absent.
    """

    def __init__(self, per_contig: Mapping[str, LinearIndex]) -> None:
        self._per_contig: Dict[str, LinearIndex] = dict(per_contig)

    def __getitem__(self, contig: str) -> LinearIndex:
        """The named contig's linear index."""
        return self._per_contig[contig]

    def __iter__(self) -> Iterator[str]:
        """Iterate contig names (insertion = header order)."""
        return iter(self._per_contig)

    def __len__(self) -> int:
        """Number of indexed contigs."""
        return len(self._per_contig)

    def contigs(self) -> List[str]:
        """Contig names with at least one indexed record."""
        return list(self._per_contig)

    def chunks_for(self, contig: str, start: int, end: int) -> List[Chunk]:
        """One open-ended chunk from the contig's
        :meth:`LinearIndex.query`\\ ``(start)``; empty for an unknown
        contig (it has no records) or an empty region.  ``end`` does
        not tighten the plan (checkpoints only bound starts);
        consumers stop at the region end themselves."""
        table = self._per_contig.get(contig)
        if table is None or end <= start:
            return []
        return [Chunk(table.query(start), MAX_VOFFSET)]


def _index_spans(reader: BamReader) -> Iterator[RecordSpan]:
    """:func:`~repro.io.bam.walk_spans`, raising
    :class:`~repro.io.errors.FormatError` at the first record, in file
    order, that is malformed, has a CIGAR op code above 8 (naming its
    virtual offset) or breaks the coordinate order of placed records
    (``ref_id >= 0`` and ``pos >= 0``)."""
    references = reader.header.references
    last = -1  # (ref_id << 32) | pos of the last placed record
    for span in walk_spans(reader):
        bad_op = np.flatnonzero(span.ops > 8)
        bad_at = np.repeat(np.arange(len(span)), span.n_cigar)[bad_op[:1]]
        placed = np.flatnonzero((span.ref_id >= 0) & (span.pos >= 0))
        key = np.concatenate(([last], (span.ref_id[placed] << 32) | span.pos[placed]))
        drop = np.flatnonzero(key[1:] < key[:-1])[:1]
        if bad_at.size and not (drop.size and placed[drop[0]] < bad_at[0]):
            raise FormatError(
                f"BAM record at voffset {span.vbegin[bad_at[0]]}: "
                f"CIGAR op code {span.ops[bad_op[0]]}"
            )
        if drop.size:
            (k,) = drop
            ref, pos = divmod(int(key[k + 1]), 1 << 32)
            if ref < key[k] >> 32:
                raise FormatError(
                    f"cannot index an unsorted BAM (contig {references[ref][0]!r} "
                    "appears after a later header contig)"
                )
            raise FormatError(
                f"cannot index an unsorted BAM ({span.name(placed[k])} at {pos} "
                f"after {key[k] & 0xFFFFFFFF})"
            )
        last = int(key[-1])
        yield span


def build_linear_index(bam_path, granularity: int = 256) -> MultiContigIndex:
    """Walk a BAM once and build the per-contig linear multi-index.

    :class:`~repro.pipeline.BamSource`'s default index.  A
    coordinate-sorted multi-contig BAM restarts positions at every
    contig, so each contig gets its own :class:`LinearIndex`, whose
    ``data_start`` is the virtual offset of that contig's first mapped
    record: every ``granularity``-th mapped record per contig
    contributes a checkpoint, and ``max_read_span`` is the longest
    CIGAR reference span.  Unmapped and unplaced records are skipped;
    contigs without mapped records are absent.  For the real O(log)
    binned plan, build :func:`build_bai_index` instead.

    Args:
        bam_path: coordinate-sorted BAM to scan.
        granularity: records per checkpoint (positive).

    Raises:
        ValueError: if ``granularity`` is not positive.
        FormatError: if the BAM is not coordinate-sorted or a record is
            malformed (see :func:`repro.io.bam.walk_spans`).
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    tables: Dict[str, LinearIndex] = {}
    with BamReader(bam_path) as reader:
        names = [name for name, _ in reader.header.references]
        last_ref = -1
        for span in _index_spans(reader):
            placed = (span.ref_id >= 0) & (span.pos >= 0)
            mapped = np.flatnonzero(placed & (span.flag & FLAG_UNMAPPED == 0))
            columns = (span.ref_id, span.pos, span.ref_end, span.vbegin)
            for ref_id, pos, end, vbegin in zip(*(c[mapped].tolist() for c in columns)):
                if ref_id != last_ref:
                    last_ref = ref_id
                    table = tables[names[ref_id]] = LinearIndex([], 1, vbegin)
                    n_records = 0
                if end - pos > table.max_read_span:
                    table.max_read_span = end - pos
                if n_records % granularity == 0:
                    table.checkpoints.append((pos, vbegin))
                n_records += 1
    return MultiContigIndex(tables)


def build_bai_index(bam_path):
    """Walk a BAM once and build its standard BAI binning index
    (:class:`~repro.io.bai.BaiIndex`, names attached, query-ready).

    Args:
        bam_path: coordinate-sorted BAM to scan.

    Raises:
        FormatError: if the BAM is not coordinate-sorted or a record is
            malformed (see :func:`repro.io.bam.walk_spans`).
    """
    from repro.io.bai import build_bai

    return build_bai(bam_path)


def load_index(path, names: Optional[Sequence[str]] = None):
    """Load a ``.bai`` sidecar (ours or an external tool's).

    Args:
        path: sidecar file.
        names: the BAM header's reference names.  Required to make the
            index queryable by contig name (the format stores ids
            only).

    Returns:
        A :class:`~repro.io.bai.BaiIndex`.

    Raises:
        FormatError: on an unrecognised magic or a truncated or corrupt
            file; the message names the file and the byte offset.
    """
    from repro.io.bai import BaiIndex

    index = BaiIndex.load(path)
    if names is not None:
        index.attach_names(names)
    return index
