"""Streaming pileup over coordinate-sorted reads.

The engine sweeps left-to-right: reads arrive sorted by position, each
read deposits its aligned bases into per-position accumulators, and a
column is emitted (and its accumulator freed) as soon as the sweep
passes it -- memory stays proportional to read length x depth, not
genome length.  This is the "iterating over the .bam file" stage that
dominates the teal regions of the paper's Figure 2 trace.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.io.cigar import CONSUMES_QUERY, CONSUMES_REFERENCE, CigarOp
from repro.io.records import (
    FLAG_DUPLICATE,
    FLAG_QCFAIL,
    FLAG_SECONDARY,
    FLAG_SUPPLEMENTARY,
    FLAG_UNMAPPED,
    AlignedRead,
)
from repro.io.regions import Region
from repro.pileup.column import BASE_TO_CODE, N_CODE, ColumnBatch, PileupColumn

__all__ = ["PileupConfig", "pileup", "pileup_batches"]

#: LoFreq's default depth cap (Table I footnote: "LoFreq by default
#: limits columns to 1 million").
DEFAULT_MAX_DEPTH = 1_000_000


@dataclasses.dataclass(frozen=True)
class PileupConfig:
    """Filtering parameters for pileup construction.

    Attributes:
        min_mapq: drop reads mapped below this quality (LoFreq: 0 by
            default but commonly raised; we default to 0 for parity).
        min_baseq: drop individual bases below this quality
            (LoFreq default 6).
        max_depth: per-column cap; extra reads are counted in
            ``n_capped`` but their bases dropped (first-come order,
            matching samtools).
        include_duplicates: keep flagged duplicates.
        include_secondary: keep secondary/supplementary alignments.
        include_qcfail: keep QC-failed reads.
    """

    min_mapq: int = 0
    min_baseq: int = 6
    max_depth: int = DEFAULT_MAX_DEPTH
    include_duplicates: bool = False
    include_secondary: bool = False
    include_qcfail: bool = False

    def __post_init__(self) -> None:
        if self.max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")
        if self.min_baseq < 0 or self.min_mapq < 0:
            raise ValueError("quality thresholds must be non-negative")

    @property
    def excluded_flags(self) -> int:
        """SAM flag bits that drop a read: unmapped always; secondary,
        supplementary, duplicate and QC-fail unless included."""
        flags = FLAG_UNMAPPED
        if not self.include_secondary:
            flags |= FLAG_SECONDARY | FLAG_SUPPLEMENTARY
        if not self.include_duplicates:
            flags |= FLAG_DUPLICATE
        if not self.include_qcfail:
            flags |= FLAG_QCFAIL
        return flags

    def read_passes(self, read: AlignedRead) -> bool:
        """Read-level filters (flag and mapping quality)."""
        return not read.flag & self.excluded_flags and (
            read.mapq >= self.min_mapq
        )


class _ColumnAccumulator:
    """Mutable per-position buffers, converted to arrays on emit."""

    __slots__ = ("codes", "quals", "reverse", "mapqs", "capped")

    def __init__(self) -> None:
        self.codes: List[int] = []
        self.quals: List[int] = []
        self.reverse: List[bool] = []
        self.mapqs: List[int] = []
        self.capped = 0

    def add(self, code: int, qual: int, rev: bool, mapq: int, cap: int) -> None:
        """Append one base, counting instead of storing past ``cap``."""
        if len(self.codes) >= cap:
            self.capped += 1
            return
        self.codes.append(code)
        self.quals.append(qual)
        self.reverse.append(rev)
        self.mapqs.append(mapq)

    def to_column(self, chrom: str, pos: int, ref_base: str) -> PileupColumn:
        """Freeze the accumulated bases into a column value."""
        return PileupColumn(
            chrom=chrom,
            pos=pos,
            ref_base=ref_base,
            base_codes=np.array(self.codes, dtype=np.uint8),
            quals=np.array(self.quals, dtype=np.uint8),
            reverse=np.array(self.reverse, dtype=bool),
            mapqs=np.array(self.mapqs, dtype=np.uint8),
            n_capped=self.capped,
        )


def _sweep(
    reads: Iterable[AlignedRead],
    region: Region,
    cfg: PileupConfig,
) -> Iterator[Tuple[int, Optional[_ColumnAccumulator]]]:
    """The left-to-right sweep shared by :func:`pileup` and
    :func:`pileup_batches`: yields ``(position, accumulator)`` for
    every position of ``region`` in order, with ``None`` accumulators
    at uncovered positions.

    Raises:
        ValueError: if the input violates coordinate sorting.
    """
    acc: Dict[int, _ColumnAccumulator] = {}
    emit_from = region.start
    last_read_pos = -1

    def _emit_until(bound: int) -> Iterator[Tuple[int, Optional[_ColumnAccumulator]]]:
        nonlocal emit_from
        while emit_from < bound:
            pos = emit_from
            emit_from += 1
            yield pos, acc.pop(pos, None)

    for read in reads:
        if read.rname != region.chrom:
            continue
        if read.is_unmapped:
            continue
        if read.pos < last_read_pos:
            raise ValueError(
                f"reads are not coordinate-sorted: {read.qname} at "
                f"{read.pos} after {last_read_pos}"
            )
        last_read_pos = read.pos
        if read.pos >= region.end:
            break
        if read.reference_end <= region.start:
            continue
        # Everything strictly left of this read's start is complete.
        yield from _emit_until(min(read.pos, region.end))
        if not cfg.read_passes(read):
            continue
        _deposit(read, region, cfg, acc)

    yield from _emit_until(region.end)


def pileup(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    emit_empty: bool = False,
) -> Iterator[PileupColumn]:
    """Yield pileup columns for ``region`` from coordinate-sorted reads.

    Args:
        reads: alignments sorted by position; reads on other
            chromosomes or outside the region are skipped (callers
            normally pre-restrict, but correctness does not rely on it).
        reference: the full reference sequence for ``region.chrom``
            (indexed absolutely by position).
        region: half-open interval to emit columns for.
        config: filtering parameters (defaults to :class:`PileupConfig`).
        emit_empty: also yield zero-depth columns (callers that need a
            column for every position, e.g. coverage reports).

    Yields:
        :class:`PileupColumn` in strictly increasing position order.

    Raises:
        ValueError: if the input violates coordinate sorting.
    """
    cfg = config or PileupConfig()
    for pos, builder in _sweep(reads, region, cfg):
        if builder is None:
            if emit_empty:
                yield _ColumnAccumulator().to_column(
                    region.chrom, pos, reference[pos].upper()
                )
            continue
        yield builder.to_column(region.chrom, pos, reference[pos].upper())


#: Columns per batch emitted by :func:`pileup_batches`; matches the
#: batched caller engine's internal slice size so one batch feeds one
#: vectorised screening pass.
BATCH_SWEEP_COLUMNS = 1024


def pileup_batches(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    batch_columns: Optional[int] = BATCH_SWEEP_COLUMNS,
) -> Iterator[ColumnBatch]:
    """Batch-emitting sweep: like :func:`pileup` but yields
    :class:`~repro.pileup.column.ColumnBatch` spans of at most
    ``batch_columns`` columns, never materialising the per-column
    :class:`PileupColumn` objects in between.

    Since PR 5 this delegates to the incremental
    :class:`~repro.pileup.vectorized.ColumnBatchBuilder` (the
    per-base Python list accumulators are gone): reads are deposited
    as flat segment arrays and a completed window is flushed as soon
    as the scan passes it, so memory stays proportional to one flush
    window -- read length x depth plus ``batch_columns`` columns --
    and the columns covered are identical to :func:`pileup`.
    ``batch_columns=None`` emits one batch for the whole region.

    Raises:
        ValueError: if ``batch_columns`` is not positive (raised
            eagerly, at call time) or the input violates coordinate
            sorting (raised during iteration).
    """
    from repro.pileup.vectorized import iter_pileup_batches

    if batch_columns is not None and batch_columns <= 0:
        raise ValueError(
            f"batch_columns must be positive, got {batch_columns}"
        )
    return iter_pileup_batches(
        reads, reference, region, config, batch_columns=batch_columns
    )


def _deposit(
    read: AlignedRead,
    region: Region,
    cfg: PileupConfig,
    acc: Dict[int, _ColumnAccumulator],
) -> None:
    """Walk the CIGAR and add each aligned base to its accumulator (a
    read without SEQ, ``*``, has none)."""
    seq = read.seq
    if not seq:
        return
    qi = 0
    ri = read.pos
    qual = read.qual
    rev = read.is_reverse
    mapq = read.mapq
    for op, length in read.cigar:
        op = CigarOp(op)
        in_q = op in CONSUMES_QUERY
        in_r = op in CONSUMES_REFERENCE
        if in_q and in_r:
            for j in range(length):
                pos = ri + j
                if pos < region.start or pos >= region.end:
                    continue
                q = int(qual[qi + j]) if qual.size else 0
                if q < cfg.min_baseq:
                    continue
                code = BASE_TO_CODE.get(seq[qi + j], N_CODE)
                builder = acc.get(pos)
                if builder is None:
                    builder = acc[pos] = _ColumnAccumulator()
                builder.add(code, q, rev, mapq, cfg.max_depth)
            qi += length
            ri += length
        elif in_q:
            qi += length
        elif in_r:
            ri += length
