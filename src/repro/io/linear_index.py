"""A linear BAM index: position -> virtual offset.

htslib's BAI index lets readers jump to a genomic region without
scanning; the parallel runtime needs the same capability so each
worker thread can seek its own :class:`~repro.io.bam.BamReader`
straight to its chunk ("an independent .bam file reader for each
thread", paper Section II-B).  This module keeps the *linear*
flavour: every ``granularity``-th record contributes a
``(position, virtual offset)`` checkpoint, and a query answers with
one open-ended suffix scan.  The standard O(log) binning scheme lives
in :mod:`repro.io.bai`; both answer the unified
:class:`repro.io.index.RandomAccessIndex` protocol via
:meth:`LinearIndex.chunks_for`.

The sidecar file format is a small binary table (magic, granularity,
max read span, then packed int64 triples).

.. deprecated::
    The module-level builders :func:`build_index` and
    :func:`build_multi_index` are deprecation shims; use
    :func:`repro.io.index.build_linear_index` (or
    :func:`repro.io.index.build_bai_index` for the standard format).
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from typing import Dict, List, Tuple

from repro.io.bam import BamReader

__all__ = ["LinearIndex", "build_index", "build_multi_index"]

_MAGIC = b"RLI1"


@dataclasses.dataclass
class LinearIndex:
    """Checkpoints into a coordinate-sorted BAM.

    Attributes:
        checkpoints: ``(pos, voffset)`` pairs, non-decreasing in both.
        max_read_span: the longest reference span of any record; a
            query for position ``p`` must start no later than the
            first read at ``p - max_read_span + 1`` to catch every
            overlapping read.
    """

    checkpoints: List[Tuple[int, int]]
    max_read_span: int
    data_start: int

    def query(self, pos: int) -> int:
        """Virtual offset from which a scan is guaranteed to see every
        read overlapping position ``pos``.  Falls back to the first
        alignment record (never the raw file start, which would land a
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

    def chunks_for(self, contig: str, start: int, end: int):
        """The :class:`repro.io.index.RandomAccessIndex` answer shape:
        one open-ended chunk starting at :meth:`query`\\ ``(start)``.

        A single-contig index stores no contig name, so ``contig`` is
        not validated here -- wrap in a
        :class:`repro.io.index.MultiContigIndex` to route by name.
        ``end`` does not tighten the plan either (checkpoints only
        bound starts); consumers stop at the region end themselves.
        """
        from repro.io.index import MAX_VOFFSET, Chunk

        if end <= start:
            return []
        return [Chunk(self.query(start), MAX_VOFFSET)]

    def contigs(self) -> List[str]:
        """Protocol stub: a bare single-contig index is nameless."""
        return []

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the single-contig sidecar table (magic ``RLI1``)."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(
                struct.pack(
                    "<qqq",
                    self.max_read_span,
                    self.data_start,
                    len(self.checkpoints),
                )
            )
            for pos, voffset in self.checkpoints:
                fh.write(struct.pack("<qq", pos, voffset))

    @classmethod
    def load(cls, path) -> "LinearIndex":
        """Load a sidecar index.

        Raises:
            ValueError: if the file is not a linear index.
        """
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ValueError(f"not a linear index (magic {magic!r})")
            max_span, data_start, n = struct.unpack("<qqq", fh.read(24))
            cps = []
            for _ in range(n):
                cps.append(struct.unpack("<qq", fh.read(16)))
        return cls(
            checkpoints=cps, max_read_span=max_span, data_start=data_start
        )


def build_index(bam_path, granularity: int = 256) -> LinearIndex:
    """Scan a BAM once and build its flat (single-contig) linear index.

    .. deprecated::
        Shim kept for compatibility; use
        :func:`repro.io.index.build_linear_index` (multi-contig, the
        unified :class:`~repro.io.index.RandomAccessIndex` API) or
        :func:`repro.io.index.build_bai_index`.  Output is identical
        to the historical implementation.

    Args:
        bam_path: coordinate-sorted BAM file whose records all sit on
            one contig.
        granularity: records between checkpoints (smaller = bigger
            index, finer seeks).

    Raises:
        ValueError: if the BAM is not coordinate-sorted, or its records
            span more than one contig (use
            :func:`repro.io.index.build_linear_index`).
    """
    warnings.warn(
        "build_index is deprecated; use repro.io.index.build_linear_index "
        "(or build_bai_index for the standard binning scheme)",
        DeprecationWarning,
        stacklevel=2,
    )
    indexes = _scan_linear(bam_path, granularity)
    if len(indexes) > 1:
        raise ValueError(
            f"BAM has records on {len(indexes)} contigs "
            f"({sorted(indexes)}); use build_multi_index"
        )
    if indexes:
        (index,) = indexes.values()
        return index
    with BamReader(bam_path) as reader:
        return LinearIndex(
            checkpoints=[], max_read_span=1, data_start=reader.tell()
        )


class _ContigIndexBuilder:
    __slots__ = ("checkpoints", "max_span", "n_records", "data_start")

    def __init__(self, data_start: int) -> None:
        self.checkpoints: List[Tuple[int, int]] = []
        self.max_span = 1
        self.n_records = 0
        self.data_start = data_start


def build_multi_index(
    bam_path, granularity: int = 256
) -> Dict[str, LinearIndex]:
    """Scan a BAM once and build one linear index per contig.

    .. deprecated::
        Shim kept for compatibility (returns the historical plain
        ``dict``); use :func:`repro.io.index.build_linear_index`,
        which returns the same tables wrapped as a
        :class:`~repro.io.index.MultiContigIndex` speaking the
        unified ``chunks_for`` protocol.

    Args:
        bam_path: coordinate-sorted BAM file.
        granularity: records between checkpoints, per contig.

    Raises:
        ValueError: if the BAM is not coordinate-sorted (positions
            decreasing within a contig, or contigs out of header
            order), or a record references a name not in the header.
    """
    warnings.warn(
        "build_multi_index is deprecated; use "
        "repro.io.index.build_linear_index (or build_bai_index for the "
        "standard binning scheme)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _scan_linear(bam_path, granularity)


def _scan_linear(bam_path, granularity: int = 256) -> Dict[str, LinearIndex]:
    """The single-scan implementation behind every linear-index
    builder: one :class:`LinearIndex` per contig with records.

    A coordinate-sorted multi-contig BAM restarts positions at every
    contig, so a single flat checkpoint table cannot cover it; instead
    each contig gets its own :class:`LinearIndex` whose ``data_start``
    is the virtual offset of that contig's first record.  Contigs with
    no records are simply absent from the result.

    Raises:
        ValueError: see :func:`build_multi_index`.
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    builders: Dict[str, _ContigIndexBuilder] = {}
    with BamReader(bam_path) as reader:
        rank = {
            name: i for i, (name, _) in enumerate(reader.header.references)
        }
        last_rank = -1
        last_pos = -1
        while True:
            voffset = reader.tell()
            record = reader.read_record()
            if record is None:
                break
            if record.is_unmapped or record.rname == "*":
                continue
            r = rank.get(record.rname)
            if r is None:
                raise ValueError(
                    f"record references {record.rname!r}, not in the header"
                )
            if r < last_rank:
                raise ValueError(
                    "cannot index an unsorted BAM (contig "
                    f"{record.rname!r} appears after a later header contig)"
                )
            if r > last_rank:
                last_rank = r
                last_pos = -1
                builders[record.rname] = _ContigIndexBuilder(voffset)
            if record.pos < last_pos:
                raise ValueError(
                    "cannot index an unsorted BAM "
                    f"({record.qname} at {record.pos} after {last_pos})"
                )
            last_pos = record.pos
            builder = builders[record.rname]
            span = record.reference_end - record.pos
            if span > builder.max_span:
                builder.max_span = span
            if builder.n_records % granularity == 0:
                builder.checkpoints.append((record.pos, voffset))
            builder.n_records += 1
    return {
        name: LinearIndex(
            checkpoints=b.checkpoints,
            max_read_span=b.max_span,
            data_start=b.data_start,
        )
        for name, b in builders.items()
    }
