"""Column sources: the input side of the pipeline.

A :class:`ColumnSource` owns an input substrate (a BAM file, a read
stream, an in-memory sample, pre-built columns) and exposes it as
``(region, columns)`` work units:

* :meth:`ColumnSource.regions` declares the top-level regions the
  source is responsible for -- one per contig for a multi-contig BAM,
  which is how the pipeline calls across **every** reference instead
  of only ``header.references[0]``;
* :meth:`ColumnSource.columns_for` produces the pileup columns of
  any sub-interval of those regions (lazily where the substrate
  permits -- :class:`BamSource` streams the ``pileup()`` generator
  per column), so the execution layer is free to re-chunk regions
  for scheduling;
* :meth:`ColumnSource.batches_for` is the columnar spine: the same
  span as structure-of-arrays
  :class:`~repro.pileup.column.ColumnBatch` work units, which the
  batched caller engine screens without materialising per-column
  Python objects.  ``columns_for`` remains as the per-column
  compatibility view (the streaming engine's input).

Both must be safe to call from multiple workers at once
(:class:`BamSource` keeps one reader per worker; :class:`SampleSource`
reads shared matrices), except :class:`ReadsSource` over a one-shot
iterator, which supports exactly one pass and is documented as such.
"""

from __future__ import annotations

import os
import threading
import time
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.results import IO_COUNTERS
from repro.io.records import AlignedRead
from repro.io.regions import Region
from repro.parallel.trace import Category, Tracer
from repro.pileup.column import ColumnBatch, PileupColumn
from repro.pileup.engine import PileupConfig, pileup, pileup_batches

__all__ = [
    "BamSource",
    "ColumnSource",
    "ColumnsSource",
    "ReadsSource",
    "SampleSource",
]

#: A reference is either one sequence string (single-contig inputs) or
#: a mapping ``{contig name: sequence}`` (``load_reference`` output or
#: ``FastaRecord`` values both work).
ReferenceLike = Union[str, Mapping[str, object]]

#: Default cap on the columns per emitted batch work unit, shared by
#: every source (16 engine-sized slices).  Small enough that a
#: worker's in-flight construction memory is a few batches, large
#: enough to amortise the vectorised passes.
DEFAULT_BATCH_COLUMNS = 16384

#: Every BGZF reader counter :meth:`BamSource.io_stats` sums.
_READER_COUNTERS = IO_COUNTERS + ("blocks_read", "time_decompress")


def _validate_batch_columns(batch_columns: Optional[int]) -> Optional[int]:
    """Shared ``batch_columns`` contract of every source: a positive
    column cap, or ``None`` for one batch per chunk."""
    if batch_columns is not None and batch_columns <= 0:
        raise ValueError(
            f"batch_columns must be positive, got {batch_columns}"
        )
    return batch_columns


@runtime_checkable
class ColumnSource(Protocol):
    """Anything that can hand the pipeline pileup columns by region."""

    def regions(self) -> Sequence[Region]:
        """Top-level regions this source will produce columns for."""
        ...

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[PileupColumn]:
        """Columns of ``chunk`` (any sub-interval of a region)."""
        ...

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[ColumnBatch]:
        """The same span as structure-of-arrays batches."""
        ...


class ColumnsSource:
    """Pre-built pileup columns (unit tests, custom pileup engines).

    Args:
        columns: pileup columns covering ``region`` (any iterable; a
            one-shot iterator is materialised on first use).
        region: the Bonferroni scope the columns represent.
        batch_columns: cap on the columns packed into one emitted
            :class:`~repro.pileup.column.ColumnBatch` work unit, so
            each pack's flat copies stay bounded; ``None`` packs each
            chunk as a single batch.
    """

    def __init__(
        self,
        columns: Iterable[PileupColumn],
        region: Region,
        *,
        batch_columns: Optional[int] = DEFAULT_BATCH_COLUMNS,
    ) -> None:
        self._columns = columns
        self._materialised: Optional[List[PileupColumn]] = None
        self._lock = threading.Lock()
        self.region = region
        self.batch_columns = _validate_batch_columns(batch_columns)

    def regions(self) -> Sequence[Region]:
        """The single region the pre-built columns cover."""
        return [self.region]

    def _materialise(self) -> List[PileupColumn]:
        # Double-checked under a lock: concurrent workers must not
        # split a shared one-shot iterator between them.
        if self._materialised is None:
            with self._lock:
                if self._materialised is None:
                    self._materialised = list(self._columns)
        return self._materialised

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> List[PileupColumn]:
        """The pre-built columns falling inside ``chunk``."""
        return [
            c
            for c in self._materialise()
            if c.chrom == chunk.chrom and chunk.start <= c.pos < chunk.end
        ]

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> List[ColumnBatch]:
        """The chunk's columns packed into bounded batches.

        A compatibility bridge (pre-built columns are per-column by
        construction): consecutive runs of at most ``batch_columns``
        columns are packed through
        :meth:`~repro.pileup.column.ColumnBatch.from_columns`, so each
        pack's flat copies stay bounded like the streaming sources'
        work units.
        """
        cols = self.columns_for(chunk, tracer, worker)
        cap = self.batch_columns or max(len(cols), 1)
        if not cols:
            return [ColumnBatch.from_columns([], chrom=chunk.chrom)]
        return [
            ColumnBatch.from_columns(cols[lo : lo + cap], chrom=chunk.chrom)
            for lo in range(0, len(cols), cap)
        ]


class ReadsSource:
    """Coordinate-sorted reads through the streaming pileup engine.

    Args:
        reads: alignments sorted by position.  A list/tuple supports
            any execution mode; a one-shot iterator streams lazily but
            supports only a single ``columns_for`` pass (serial,
            unchunked execution -- the default
            :class:`~repro.pipeline.ExecutionPolicy`).
        reference: reference sequence for ``region.chrom``.
        region: scope of the calling run.
        pileup_config: pileup filtering parameters.
        batch_columns: cap on the columns per batch work unit emitted
            by :meth:`batches_for` (the
            :class:`~repro.pileup.vectorized.ColumnBatchBuilder` flush
            granularity); ``None`` builds each chunk as one batch.
    """

    def __init__(
        self,
        reads: Iterable[AlignedRead],
        reference: str,
        region: Region,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: Optional[int] = DEFAULT_BATCH_COLUMNS,
    ) -> None:
        self._reads = reads
        self._consumed = False
        self.reference = reference
        self.region = region
        self.pileup_config = pileup_config or PileupConfig()
        self.batch_columns = _validate_batch_columns(batch_columns)

    def regions(self) -> Sequence[Region]:
        """The single region this read stream covers."""
        return [self.region]

    def _reads_for_pass(self) -> Iterable[AlignedRead]:
        if isinstance(self._reads, (list, tuple)):
            return iter(self._reads)
        if self._consumed:
            raise ValueError(
                "ReadsSource over a one-shot iterator supports a "
                "single pass; pass a list of reads for parallel or "
                "chunked execution"
            )
        self._consumed = True
        return self._reads

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[PileupColumn]:
        """The chunk's columns through the streaming pileup sweep."""
        return pileup(
            self._reads_for_pass(), self.reference, chunk, self.pileup_config
        )

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[ColumnBatch]:
        """The chunk as a lazy stream of bounded batches.

        Reads go through the incremental
        :class:`~repro.pileup.vectorized.ColumnBatchBuilder` (via
        :func:`repro.pileup.engine.pileup_batches`): columns are never
        lifted to per-column objects on the way and construction
        memory stays one flush window, not the chunk.
        """
        return pileup_batches(
            self._reads_for_pass(),
            self.reference,
            chunk,
            self.pileup_config,
            batch_columns=self.batch_columns,
        )


class SampleSource:
    """An in-memory :class:`~repro.sim.reads.SimulatedSample` through
    the vectorised pileup (the benchmark fast path).  Workers share the
    sample's matrices read-only, so every execution mode is safe.

    Args:
        sample: the simulated sample (its read matrices are consumed
            directly; no per-read objects are built).
        region: scope of the calling run (default: the whole genome).
        pileup_config: pileup filtering parameters.
        batch_columns: cap on the reference positions per batch work
            unit emitted by :meth:`batches_for`: each sub-window is
            built independently by the computed-permutation deposit,
            so construction memory is one window, not the chunk.
            ``None`` builds each chunk as a single batch.
    """

    def __init__(
        self,
        sample,
        region: Optional[Region] = None,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: Optional[int] = DEFAULT_BATCH_COLUMNS,
    ) -> None:
        self.sample = sample
        self._region = region
        self.pileup_config = pileup_config or PileupConfig()
        self.batch_columns = _validate_batch_columns(batch_columns)

    def regions(self) -> Sequence[Region]:
        """The configured region, or the sample's whole genome."""
        if self._region is not None:
            return [self._region]
        return [
            Region(self.sample.genome.name, 0, len(self.sample.genome))
        ]

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> List[PileupColumn]:
        """The chunk's columns through the vectorised sample pileup."""
        from repro.pileup.vectorized import pileup_sample

        trc = tracer or Tracer()
        with trc.span(worker, Category.BAM_ITER):
            return list(
                pileup_sample(self.sample, chunk, self.pileup_config)
            )

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[ColumnBatch]:
        """The chunk as a lazy stream of bounded batches built
        directly from the sample's matrices -- no per-column slicing
        at all.

        Each window of at most ``batch_columns`` reference positions
        is deposited independently (the computed-permutation path
        windows its reads by ``searchsorted``), so peak construction
        memory is one window rather than the chunk; the concatenation
        of the yielded batches is exactly the whole-chunk batch.
        """
        from repro.pileup.vectorized import pileup_sample_batch

        trc = tracer or Tracer()
        cap = self.batch_columns
        if cap is None:
            spans = [chunk]
        else:
            spans = [
                Region(chunk.chrom, lo, min(lo + cap, chunk.end))
                for lo in range(chunk.start, chunk.end, cap)
            ]
        for span in spans:
            with trc.span(worker, Category.BAM_ITER):
                batch = pileup_sample_batch(
                    self.sample, span, self.pileup_config
                )
            if batch.n_columns:
                yield batch


class BamSource:
    """A BAM file on disk, with per-worker readers and per-contig seeks.

    The default region set is **every reference in the BAM header**, so
    multi-contig BAMs are called end to end.  Each worker (thread or
    forked process) gets an independent :class:`~repro.io.bam.BamReader`
    and seeks straight to its chunk through a
    :class:`~repro.io.index.RandomAccessIndex` -- by default a lazily
    built per-contig linear index
    (:func:`repro.io.index.build_linear_index`), or any index passed
    via ``index`` (a :class:`~repro.io.bai.BaiIndex` for the standard
    O(log) binned seek plan, or a ``.bai`` path); the common serial
    whole-file case streams from the first record without paying for
    an index scan.  Per-worker readers keep an LRU buffer of
    decompressed BGZF blocks (``cache_blocks``), so repeated or
    overlapping region traffic stops re-inflating the same blocks;
    the buffer's hit/miss/eviction counters aggregate through
    :meth:`io_stats` into :class:`~repro.core.results.RunStats`.

    Args:
        path: coordinate-sorted BAM file.
        reference: one sequence string (valid only when all regions sit
            on a single contig) or a ``{name: sequence}`` mapping as
            returned by :func:`repro.io.fasta.load_reference`
            (:class:`~repro.io.fasta.FastaRecord` values also accepted).
        regions: explicit regions to call; default is one region per
            header reference -- except with a plain-string reference on
            a multi-contig BAM, where the default falls back to the
            first reference only (one string cannot cover several
            contigs).
        pileup_config: pileup filtering parameters.
        batch_columns: cap on the columns per emitted
            :class:`~repro.pileup.column.ColumnBatch` work unit: a
            chunk whose pileup covers more columns is re-sliced into
            consecutive zero-copy sub-batches at the source, so
            downstream per-batch structures (screen histograms,
            survivor planes, per-unit call buffers) stay bounded even
            for huge unchunked regions -- the engine no longer relies
            solely on its own ``slice_columns`` guard.  ``None``
            disables the re-slice (one batch per chunk).
        index: region-seek index.  ``None`` (default) lazily builds
            the per-contig linear index in memory on first region
            seek (one walk of the record headers, no record decode);
            a :class:`~repro.io.index.RandomAccessIndex` instance
            (e.g. :func:`repro.io.index.build_bai_index` output) is
            used as given; a path loads a ``.bai`` file via
            :func:`repro.io.index.load_index`, with the header's
            reference names attached.  Every flavour produces
            byte-identical calls -- only the seek plans differ.
        cache_blocks: decompressed BGZF blocks kept resident per
            worker reader (~64 KiB each; the
            :data:`DEFAULT_CACHE_BLOCKS` default bounds a reader's
            buffer at ~2 MiB).

    Raises:
        ValueError: if a single reference string is paired with regions
            on more than one contig, or ``batch_columns`` /
            ``cache_blocks`` is not positive.
    """

    #: Default decompressed-block LRU capacity per worker reader.
    DEFAULT_CACHE_BLOCKS = 32

    def __init__(
        self,
        path,
        reference: ReferenceLike,
        regions: Optional[Sequence[Region]] = None,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: Optional[int] = DEFAULT_BATCH_COLUMNS,
        index=None,
        cache_blocks: Optional[int] = None,
    ) -> None:
        from repro.io.bam import BamReader

        self.path = os.fspath(path)
        self.batch_columns = _validate_batch_columns(batch_columns)
        if cache_blocks is None:
            cache_blocks = self.DEFAULT_CACHE_BLOCKS
        if cache_blocks <= 0:
            raise ValueError(
                f"cache_blocks must be positive, got {cache_blocks}"
            )
        self.cache_blocks = cache_blocks
        self.pileup_config = pileup_config or PileupConfig()
        with BamReader(self.path) as reader:
            self.contigs: List[Tuple[str, int]] = list(
                reader.header.references
            )
        self._rank = {name: i for i, (name, _) in enumerate(self.contigs)}
        self._index = None
        if isinstance(index, (str, os.PathLike)):
            from repro.io.index import load_index

            # Resolve sidecar paths eagerly: a bad --index surfaces at
            # construction, not at the first non-rewind seek.
            self._index = load_index(
                index, names=[name for name, _ in self.contigs]
            )
        elif index is not None:
            self._index = index
        if regions is None:
            if isinstance(reference, str) and len(self.contigs) > 1:
                # A single sequence string cannot describe more than
                # one contig, so fall back to the first-reference
                # scope instead of failing.
                name, length = self.contigs[0]
                self._regions = [Region(name, 0, length)]
            else:
                self._regions = [
                    Region(name, 0, length) for name, length in self.contigs
                ]
        else:
            self._regions = list(regions)
        self._refmap = self._build_refmap(reference)
        self._index_lock = threading.Lock()
        self._local = threading.local()
        self._all_readers: List[object] = []
        self._readers_lock = threading.Lock()

    def _build_refmap(self, reference: ReferenceLike) -> Dict[str, str]:
        if isinstance(reference, str):
            chroms = {r.chrom for r in self._regions}
            if len(chroms) > 1:
                raise ValueError(
                    "a single reference string covers one contig; pass "
                    "a {name: sequence} mapping to call "
                    f"{sorted(chroms)}"
                )
            return {chrom: reference for chrom in chroms}
        out: Dict[str, str] = {}
        for name, seq in reference.items():
            out[name] = seq.sequence if hasattr(seq, "sequence") else str(seq)
        return out

    def regions(self) -> Sequence[Region]:
        """The configured regions (default: one per header contig)."""
        return list(self._regions)

    def _reference_for(self, chrom: str) -> str:
        try:
            return self._refmap[chrom]
        except KeyError:
            raise ValueError(
                f"no reference sequence for contig {chrom!r}"
            ) from None

    def prepare(self) -> None:
        """Build (or load) the seek index eagerly (the process backend
        calls this before forking so children inherit it)."""
        self._ensure_index()

    def _ensure_index(self):
        """The :class:`~repro.io.index.RandomAccessIndex` behind every
        region seek.  Explicit indexes (instance or ``.bai`` path) were
        resolved at construction; the default linear multi-index is
        built lazily here, on the first seek that needs it."""
        if self._index is None:
            with self._index_lock:
                if self._index is None:
                    from repro.io.index import build_linear_index

                    self._index = build_linear_index(self.path)
        return self._index

    def _reader(self):
        from repro.io.bam import BamReader

        # One reader per (process, thread): forked children must not
        # share the parent's file descriptor offset.
        key = os.getpid()
        reader = getattr(self._local, "reader", None)
        if reader is None or getattr(self._local, "pid", None) != key:
            # Independent reader per worker, with its own
            # decompressed-block LRU buffer.
            reader = BamReader(self.path, cache_blocks=self.cache_blocks)
            self._local.reader = reader
            self._local.pid = key
            with self._readers_lock:
                self._all_readers.append(reader)
        return reader

    _NO_READS = object()
    _REWIND = object()

    def _chunk_plan(self, chunk: Region):
        """The seek plan for ``chunk``: the :data:`_REWIND` sentinel
        ("stream from the first record", no index needed -- the serial
        whole-file fast path), or the index's
        :meth:`~repro.io.index.RandomAccessIndex.chunks_for` list
        (empty when the contig has no indexed records)."""
        if (
            self.contigs
            and chunk.chrom == self.contigs[0][0]
            and chunk.start == 0
        ):
            return self._REWIND
        return self._ensure_index().chunks_for(
            chunk.chrom, chunk.start, chunk.end
        )

    def _iter_records(self, reader, chunk: Region, plan):
        """``chunk``'s records in file order, driven by the seek plan.

        The rewind plan streams from the first record; a chunk-list
        plan seeks to each range's start and stops at its end (ranges
        whose ``vend`` is :data:`~repro.io.index.MAX_VOFFSET` are
        open-ended, so the per-record ``tell()`` bound check is
        skipped -- the linear indexes' plans cost exactly what the old
        single-offset seek did).  Position/contig filtering is
        identical in both modes, which is what keeps every index
        flavour byte-identical: plans may cover extra records, but
        only records overlapping ``chunk`` survive the filters.
        """
        from repro.io.index import MAX_VOFFSET

        chunk_rank = self._rank.get(chunk.chrom)
        if chunk_rank is None:
            raise ValueError(
                f"contig {chunk.chrom!r} is not in the BAM header"
            )
        if plan is self._REWIND:
            reader.rewind()
            spans = [None]
        else:
            spans = plan
        for span in spans:
            if span is not None:
                reader.seek(span.vbegin)
                bounded = span.vend < MAX_VOFFSET
            else:
                bounded = False
            while True:
                if bounded and reader.tell() >= span.vend:
                    break  # past this range; try the plan's next one
                rec = reader.read_record()
                if rec is None:
                    return
                if rec.rname != chunk.chrom:
                    # Sorted BAM: a later contig means we are done; an
                    # earlier one (only possible after a rewind) is
                    # skipped until our contig's block starts.
                    if (
                        self._rank.get(rec.rname, len(self._rank))
                        > chunk_rank
                    ):
                        return
                    continue
                if rec.pos >= chunk.end:
                    return
                yield rec

    def _timed_pulls(self, reader, inner, trc: Tracer, worker: int):
        """Drive a lazy per-chunk stream (columns or batches) one pull
        at a time, attributing each pull's BGZF inflation to
        ``DECOMPRESS`` and the remaining decode/pileup work to
        ``BAM_ITER`` -- the per-pull twin of the old eager scan's
        one-block attribution."""
        while True:
            t_dec0 = reader._bgzf.time_decompress
            t0 = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                item = None
            t1 = time.perf_counter()
            dec = reader._bgzf.time_decompress - t_dec0
            trc.record(worker, Category.DECOMPRESS, t0, t0 + dec)
            trc.record(worker, Category.BAM_ITER, t0 + dec, t1)
            if item is None:
                return
            yield item

    def io_stats(self) -> Dict[str, float]:
        """Aggregate I/O counters over every reader this source has
        created (in this process): the decompressed-block LRU's
        :data:`~repro.core.results.IO_COUNTERS`, BGZF blocks inflated
        and inflation seconds.  Readers created inside forked worker
        processes (process backend) live in the children and are not
        visible here -- but the process backend's workers fold their
        own deltas into the stats they return, so pipeline-level
        :class:`~repro.core.results.RunStats` totals are complete on
        every backend.
        """
        with self._readers_lock:
            readers = [reader._bgzf for reader in self._all_readers]
        return {
            name: sum(getattr(bgzf, name) for bgzf in readers)
            for name in _READER_COUNTERS
        }

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[PileupColumn]:
        """The chunk's columns as a lazy per-column stream.

        The :func:`~repro.pileup.engine.pileup` generator is pulled
        one column at a time over a seek-positioned per-worker reader
        -- the chunk's column list is never materialised, so the
        streaming engine's in-flight memory is one column's arrays
        plus the sweep's active accumulators (read length x depth),
        matching the batch path's bounded-construction guarantee.

        Each pull's time is attributed like :meth:`batches_for`:
        inflation to ``DECOMPRESS``, decode+pileup to ``BAM_ITER``
        (interleaved with the consumer's own spans).  Like the batch
        stream, at most **one** live stream per thread: exhaust (or
        abandon) a chunk's stream before starting the next chunk's on
        the same thread, as the pipeline's worker loop does.
        """
        trc = tracer or Tracer()
        plan = self._chunk_plan(chunk)
        if plan is not self._REWIND and not plan:
            return
        reader = self._reader()
        inner = pileup(
            self._iter_records(reader, chunk, plan),
            self._reference_for(chunk.chrom),
            chunk,
            self.pileup_config,
        )
        yield from self._timed_pulls(reader, inner, trc, worker)

    def _stream_batches(self, reader, chunk: Region, plan):
        """The untimed inner generator behind :meth:`batches_for`:
        stream the seek plan's records through a
        :class:`~repro.pileup.vectorized.ColumnBatchBuilder`, yielding
        each completed window's batches as soon as the scan passes
        them."""
        from repro.pileup.vectorized import ColumnBatchBuilder

        builder = ColumnBatchBuilder(
            self._reference_for(chunk.chrom),
            chunk,
            self.pileup_config,
            batch_columns=self.batch_columns,
        )
        for rec in self._iter_records(reader, chunk, plan):
            yield from builder.add_read(rec)
        yield from builder.finish()

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
    ) -> Iterable[ColumnBatch]:
        """The chunk as a lazy stream of bounded batch work units.

        The columnar deposit path, now incremental: each record's
        aligned bases are decoded straight into flat arrays
        (:func:`repro.io.bam.aligned_base_arrays`) and deposited into
        a :class:`~repro.pileup.vectorized.ColumnBatchBuilder`, which
        flushes a :class:`~repro.pileup.column.ColumnBatch` of at most
        ``batch_columns`` columns as soon as the scan passes its last
        column -- no per-base tuples, no per-column objects, and **no
        whole-chunk flat arrays**: peak construction memory is one
        flush window regardless of how large (or unchunked) the
        region is.  Flushed windows wider than ``batch_columns``
        (sparse coverage) are sliced into zero-copy sub-batches with
        strand/mapq laziness preserved.

        Each pull's time is attributed like the eager scan used to be:
        BGZF inflation to ``DECOMPRESS``, the rest of the
        decode+deposit work to ``BAM_ITER``, now interleaved per batch
        instead of one block per chunk.

        The stream reads through this worker's thread-local reader, so
        at most **one** stream per thread may be live at a time:
        exhaust (or abandon) a chunk's stream before starting the next
        chunk's on the same thread, as the pipeline's worker loop
        does.  Concurrent streams are fine across threads/processes
        (each has its own reader).
        """
        trc = tracer or Tracer()
        plan = self._chunk_plan(chunk)
        if plan is not self._REWIND and not plan:
            return
        reader = self._reader()
        inner = self._stream_batches(reader, chunk, plan)
        yield from self._timed_pulls(reader, inner, trc, worker)
