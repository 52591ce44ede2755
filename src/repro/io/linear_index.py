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

:func:`repro.io.index.build_linear_index` builds one
:class:`LinearIndex` per contig (through :func:`_scan_linear`) and
wraps them in a :class:`~repro.io.index.MultiContigIndex`, which also
owns the ``RMI1`` sidecar format.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.io.bam import BamReader

__all__ = ["LinearIndex"]


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


class _ContigIndexBuilder:
    __slots__ = ("checkpoints", "max_span", "n_records", "data_start")

    def __init__(self, data_start: int) -> None:
        self.checkpoints: List[Tuple[int, int]] = []
        self.max_span = 1
        self.n_records = 0
        self.data_start = data_start


def _scan_linear(bam_path, granularity: int = 256) -> Dict[str, LinearIndex]:
    """Scan a BAM once: one :class:`LinearIndex` per contig with
    records (the body of :func:`repro.io.index.build_linear_index`).

    A coordinate-sorted multi-contig BAM restarts positions at every
    contig, so a single flat checkpoint table cannot cover it; instead
    each contig gets its own :class:`LinearIndex` whose ``data_start``
    is the virtual offset of that contig's first record.  Contigs with
    no records are simply absent from the result.

    Raises:
        ValueError: if ``granularity`` is not positive, the BAM is not
            coordinate-sorted (positions decreasing within a contig,
            or contigs out of header order), or a record references a
            name not in the header.
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
