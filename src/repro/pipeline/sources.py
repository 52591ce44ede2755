"""Column sources: the input side of the pipeline.

A :class:`ColumnSource` owns an input substrate (a BAM file, a read
stream, an in-memory sample) and exposes it as work units by region,
in each engine's own unit type:

* :meth:`ColumnSource.regions` declares the top-level regions the
  source is responsible for -- one per contig for a multi-contig BAM,
  which is how the pipeline calls across **every** reference instead
  of only ``header.references[0]``;
* :meth:`ColumnSource.batches_for` produces any sub-interval of those
  regions as structure-of-arrays
  :class:`~repro.pileup.column.ColumnBatch` work units, the batched
  engine's input, which it screens without materialising per-column
  Python objects;
* :meth:`ColumnSource.columns_for` produces the same span as
  per-column :class:`~repro.pileup.column.PileupColumn` objects, the
  streaming engine's (the oracle's) input.

Both are lazy where the substrate permits (:class:`BamSource` streams
one window or one column per pull), so the execution layer is free to
re-chunk regions for scheduling.  Every batch stream windows at
``batch_columns`` positions: :class:`BamSource` (raw records) and
:class:`ReadsSource` (reads) feed a
:class:`~repro.pileup.vectorized.ColumnBatchBuilder`, the one owner
of the window rule, and :class:`SampleSource` tiles its chunk, whose
reads are matrices rather than a sorted stream.  Both streams must be
safe to call from multiple workers at once (:class:`BamSource` keeps
one reader per worker; :class:`SampleSource` reads shared matrices),
except :class:`ReadsSource` over a one-shot iterator, which supports
exactly one pass and is documented as such.  Both take the pulling worker's
:class:`~repro.core.results.RunStats`, to which :class:`BamSource`
adds its stream's block-cache lookups; the in-memory sources ignore
it.  Pre-built columns need no
source: :meth:`~repro.core.caller.VariantCaller.call_columns` takes
them directly under the streaming engine, and
:meth:`~repro.pileup.column.ColumnBatch.from_columns` packs them for
the batched one.
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

from repro.core.results import IO_COUNTERS, RunStats
from repro.io.errors import FormatError
from repro.io.records import AlignedRead
from repro.io.regions import Region
from repro.parallel.partition import chunk_region
from repro.parallel.trace import Category, Tracer
from repro.pileup.column import (
    BATCH_COLUMNS,
    ColumnBatch,
    PileupColumn,
    check_batch_columns,
)
from repro.pileup.engine import PileupConfig, pileup

__all__ = [
    "BamSource",
    "ColumnSource",
    "ReadsSource",
    "SampleSource",
]

#: A reference is either one sequence string (single-contig inputs) or
#: a mapping ``{contig name: sequence}`` (``load_reference`` output or
#: ``FastaRecord`` values both work).
ReferenceLike = Union[str, Mapping[str, object]]

#: Where a record read by a :class:`BamSource` seek plan sits relative
#: to the chunk: on its contig before its end, on an earlier contig, or
#: where the scan stops.
_KEEP, _SKIP, _STOP = range(3)


@runtime_checkable
class ColumnSource(Protocol):
    """Anything that can hand the pipeline work units by region: the
    batched engine reads :meth:`batches_for`, the streaming engine
    :meth:`columns_for`."""

    def regions(self) -> Sequence[Region]:
        """Top-level regions this source will produce columns for."""
        ...

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
        stats: Optional[RunStats] = None,
    ) -> Iterable[PileupColumn]:
        """Columns of ``chunk`` (any sub-interval of a region)."""
        ...

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
        stats: Optional[RunStats] = None,
    ) -> Iterable[ColumnBatch]:
        """The same span as structure-of-arrays batches."""
        ...


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
        batch_columns: the window of :meth:`batches_for` (the
            :class:`~repro.pileup.vectorized.ColumnBatchBuilder`'s),
            and the cap on the columns per emitted batch.
    """

    def __init__(
        self,
        reads: Iterable[AlignedRead],
        reference: str,
        region: Region,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: int = BATCH_COLUMNS,
    ) -> None:
        self._reads = reads
        self._consumed = False
        self.reference = reference
        self.region = region
        self.pileup_config = pileup_config or PileupConfig()
        self.batch_columns = check_batch_columns(batch_columns)

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
        stats: Optional[RunStats] = None,
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
        stats: Optional[RunStats] = None,
    ) -> Iterable[ColumnBatch]:
        """The chunk as a lazy stream of bounded batches.

        Reads go through the incremental
        :class:`~repro.pileup.vectorized.ColumnBatchBuilder` (via
        :func:`~repro.pileup.vectorized.iter_pileup_batches`): columns
        are never lifted to per-column objects on the way and
        construction memory stays one flush window, not the chunk.
        """
        from repro.pileup.vectorized import iter_pileup_batches

        return iter_pileup_batches(
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
    """

    def __init__(
        self,
        sample,
        region: Optional[Region] = None,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: int = BATCH_COLUMNS,
    ) -> None:
        self.sample = sample
        self._region = region
        self.pileup_config = pileup_config or PileupConfig()
        self.batch_columns = check_batch_columns(batch_columns)

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
        stats: Optional[RunStats] = None,
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
        stats: Optional[RunStats] = None,
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
        for span in chunk_region(chunk, self.batch_columns):
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
    :data:`DEFAULT_CACHE_BLOCKS` decompressed BGZF blocks, so repeated
    or overlapping region traffic stops re-inflating the same blocks.
    Each chunk stream adds the lookups it made (and the header-block
    load of a reader it opened) to the pulling worker's
    :class:`~repro.core.results.RunStats`, so a run reports its own.

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
        batch_columns: the window of :meth:`batches_for`, in reference
            positions, and the cap on the columns per emitted
            :class:`~repro.pileup.column.ColumnBatch` work unit
            (default :data:`~repro.pileup.column.BATCH_COLUMNS`, the
            engine's screening slice): construction memory is one
            window's reads, and downstream per-batch structures
            (screen histograms, survivor planes, per-unit call
            buffers) stay bounded even for huge unchunked regions.
        index: region-seek index.  ``None`` (default) lazily builds
            the per-contig linear index in memory on first region
            seek (one walk of the record headers, no record decode);
            a :class:`~repro.io.index.RandomAccessIndex` instance
            (e.g. :func:`repro.io.index.build_bai_index` output) is
            used as given; a path loads a ``.bai`` file via
            :func:`repro.io.index.load_index`, with the header's
            reference names attached.  Every flavour produces
            byte-identical calls -- only the seek plans differ.

    Raises:
        ValueError: if a single reference string is paired with regions
            on more than one contig, or ``batch_columns`` is not a
            positive int.
    """

    #: Decompressed-block LRU capacity per worker reader (~64 KiB a
    #: block, so ~2 MiB a reader).
    DEFAULT_CACHE_BLOCKS = 32

    def __init__(
        self,
        path,
        reference: ReferenceLike,
        regions: Optional[Sequence[Region]] = None,
        pileup_config: Optional[PileupConfig] = None,
        *,
        batch_columns: int = BATCH_COLUMNS,
        index=None,
    ) -> None:
        from repro.io.bam import BamReader

        self.path = os.fspath(path)
        self.batch_columns = check_batch_columns(batch_columns)
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
        """This worker's reader, and the :data:`IO_COUNTERS` values a
        stream on it counts from: zeros when the reader is opened here,
        so the run that opens a reader counts its header-block load."""
        from repro.io.bam import BamReader

        # One reader per (process, thread): forked children must not
        # share the parent's file descriptor offset.
        key = os.getpid()
        reader = getattr(self._local, "reader", None)
        if reader is None or getattr(self._local, "pid", None) != key:
            # Independent reader per worker, with its own
            # decompressed-block LRU buffer.
            reader = BamReader(self.path, cache_blocks=self.DEFAULT_CACHE_BLOCKS)
            self._local.reader = reader
            self._local.pid = key
            return reader, (0,) * len(IO_COUNTERS)
        return reader, tuple(getattr(reader._bgzf, n) for n in IO_COUNTERS)

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

    def _plan_records(self, reader, chunk: Region, plan):
        """Every record ``chunk``'s seek plan reads, in file order, as
        ``(where, vbegin, body, core)`` from
        :func:`repro.io.bam.walk_bodies`: ``where`` is :data:`_KEEP`
        for a record on the chunk's contig before ``chunk.end``,
        :data:`_SKIP` for one on an earlier contig, and :data:`_STOP`
        for the record that ends the scan (a later contig, an unplaced
        record, or one at or past ``chunk.end``), which comes last.

        The rewind plan streams from the first record; a chunk-list
        plan seeks to each range's start and stops at its end (ranges
        whose ``vend`` is :data:`~repro.io.index.MAX_VOFFSET` are
        open-ended -- the linear indexes' plans cost exactly what a
        single-offset seek does).  EOF ends the whole plan.  Plans may
        cover extra records, but only records overlapping ``chunk``
        survive the pileup's filters, which is what keeps every index
        flavour byte-identical.  This walk is shared by both engines'
        streams, so they read exactly the same records.
        """
        from repro.io.bam import walk_bodies
        from repro.io.index import MAX_VOFFSET

        chunk_rank = self._rank.get(chunk.chrom)
        if chunk_rank is None:
            raise ValueError(
                f"contig {chunk.chrom!r} is not in the BAM header"
            )
        # Where each refID's records sit relative to the chunk, indexed
        # by refID + 1 (refID -1, unplaced, sorts after every contig).
        place = [_STOP] + [
            _KEEP
            if name == chunk.chrom
            else (_STOP if self._rank[name] > chunk_rank else _SKIP)
            for name, _ in self.contigs
        ]
        if plan is self._REWIND:
            reader.rewind()
            spans = [None]
        else:
            spans = plan
        end = chunk.end
        for span in spans:
            stop = MAX_VOFFSET
            if span is not None:
                reader.seek(span.vbegin)
                stop = span.vend
                if reader.tell() >= stop:
                    continue
            for vbegin, vend, body, core in walk_bodies(reader):
                where = place[core[0] + 1]
                if where == _KEEP and core[1] >= end:
                    where = _STOP
                yield where, vbegin, body, core
                if where == _STOP:
                    return
                if vend >= stop:
                    break  # past this range; try the plan's next one
            else:
                return  # EOF

    def _iter_records(self, reader, chunk: Region, plan):
        """``chunk``'s records as :class:`~repro.io.records.AlignedRead`
        (the streaming engine's input): every record the plan reads is
        decoded, so a malformed one raises
        :class:`~repro.io.errors.FormatError` wherever it sits."""
        from repro.io.bam import decode_record_at

        header = reader.header
        for where, vbegin, body, _ in self._plan_records(reader, chunk, plan):
            read = decode_record_at(body, header, vbegin)
            if where == _KEEP:
                yield read

    def _timed_pulls(self, reader, counted, inner, trc: Tracer, worker: int, stats):
        """Drive a lazy per-chunk stream (columns or batches) one pull
        at a time, attributing each pull's BGZF inflation to
        ``DECOMPRESS`` and the remaining decode/pileup work to
        ``BAM_ITER`` -- the per-pull twin of the old eager scan's
        one-block attribution.  When the stream ends, the lookups
        ``reader`` made since its ``counted`` values are added to
        ``stats``."""
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
                if stats is not None:
                    for name, before in zip(IO_COUNTERS, counted):
                        now = getattr(reader._bgzf, name)
                        setattr(stats, name, getattr(stats, name) + now - before)
                return
            yield item

    def columns_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
        stats: Optional[RunStats] = None,
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
        (interleaved with the consumer's own spans), and its block
        loads are added to ``stats`` when it ends.  Like the batch
        stream, at most **one** live stream per thread: exhaust (or
        abandon) a chunk's stream before starting the next chunk's on
        the same thread, as the pipeline's worker loop does.
        """
        trc = tracer or Tracer()
        plan = self._chunk_plan(chunk)
        if plan is not self._REWIND and not plan:
            return
        reader, counted = self._reader()
        inner = pileup(
            self._iter_records(reader, chunk, plan),
            self._reference_for(chunk.chrom),
            chunk,
            self.pileup_config,
        )
        yield from self._timed_pulls(reader, counted, inner, trc, worker, stats)

    def _stream_batches(self, reader, chunk: Region, plan):
        """The untimed inner generator behind :meth:`batches_for`: every
        record the seek plan reads goes through one
        :class:`~repro.pileup.vectorized.ColumnBatchBuilder`, which
        cuts the windows and checks each record before anything that
        follows it becomes visible.  A record the walk itself rejects
        raises only after the records read before it are checked, so
        errors surface as in :meth:`columns_for`."""
        from repro.pileup.vectorized import ColumnBatchBuilder

        builder = ColumnBatchBuilder(
            self._reference_for(chunk.chrom),
            chunk,
            self.pileup_config,
            batch_columns=self.batch_columns,
            header=reader.header,
        )
        add = builder.add_record
        try:
            for _, vbegin, body, core in self._plan_records(reader, chunk, plan):
                batches = add(vbegin, body, core)
                if batches:
                    yield from batches
        except FormatError:
            builder.check()  # a record read before the bad one fails first
            raise
        yield from builder.finish()

    def batches_for(
        self,
        chunk: Region,
        tracer: Optional[Tracer] = None,
        worker: int = 0,
        stats: Optional[RunStats] = None,
    ) -> Iterable[ColumnBatch]:
        """The chunk as a lazy stream of bounded batch work units.

        The batched engine's BAM path builds no
        :class:`~repro.io.records.AlignedRead`: the fixed-field walk
        hands each record's body to a
        :class:`~repro.pileup.vectorized.ColumnBatchBuilder`
        (:meth:`~repro.pileup.vectorized.ColumnBatchBuilder.add_record`),
        which closes a window as soon as the scan passes
        ``batch_columns`` positions and decodes and deposits it a span
        of records at a time.  Peak construction memory is one
        window's reads regardless of how large (or unchunked) the
        region is, and each :class:`~repro.pileup.column.ColumnBatch`
        holds at most ``batch_columns`` columns.  Columns equal
        :meth:`columns_for`'s, and a malformed record raises the same
        :class:`~repro.io.errors.FormatError`.

        Each pull's time is attributed like the eager scan used to be:
        BGZF inflation to ``DECOMPRESS``, the rest of the
        decode+deposit work to ``BAM_ITER``, now interleaved per batch
        instead of one block per chunk.  The stream's block loads are
        added to ``stats`` when it ends.

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
        reader, counted = self._reader()
        inner = self._stream_batches(reader, chunk, plan)
        yield from self._timed_pulls(reader, counted, inner, trc, worker, stats)
