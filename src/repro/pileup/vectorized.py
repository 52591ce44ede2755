"""Bulk pileup construction into columnar :class:`ColumnBatch` values.

The streaming engine (:mod:`repro.pileup.engine`) deposits one base at
a time, which is faithful to htslib's pileup loop but slow in Python at
the paper's depths.  Here the entire pileup of a region is instead
built with a handful of array operations, into a structure-of-arrays
:class:`~repro.pileup.column.ColumnBatch` whose per-column
:class:`~repro.pileup.column.PileupColumn` views slice the flat arrays
without copying.

Two deposit kernels build every batch:

* the *counting deposit* (:func:`pileup_batch_from_arrays`): reads of
  one ungapped length with sorted starts, whose stable
  sort-by-position permutation is computed rather than searched for;
* the *stable-sort deposit*: flat per-base arrays in read order,
  masked and stable-sorted by position (gapped, clipped or
  mixed-length reads, and unsorted matrices).

Three producers feed them:

* :func:`pileup_batch_from_arrays` / :func:`pileup_sample_batch` --
  the read-matrix representation of
  :class:`repro.sim.reads.ReadSimulator` samples;
* :func:`pileup_batch_from_records` -- raw BAM records, decoded a
  span at a time by :class:`repro.io.bam.RecordSpan` with no
  :class:`~repro.io.records.AlignedRead` built: a window whose reads
  are all ungapped and of one length takes the counting deposit, any
  other the stable-sort deposit;
* :class:`ColumnBatchBuilder` -- the one owner of the window rule,
  which cuts a coordinate-sorted stream into windows of
  :data:`~repro.pileup.column.BATCH_COLUMNS` columns unless told
  otherwise and deposits each through
  :func:`pileup_batch_from_records`: spans of raw BAM records, already
  checked, from :meth:`repro.pipeline.BamSource.batches_for` (the
  batched engine's BAM path), or :class:`~repro.io.records.AlignedRead`
  values encoded as records (:func:`iter_pileup_batches`,
  :func:`pileup_batch_from_reads`).

Both kernels defer the strand/mapq planes (the screen reads only codes
and qualities).  The test suite checks every path produces columns
identical to the streaming engine; benchmarks use these so that -- as
in the C original -- the probability computation, not Python pileup
overhead, dominates the measured runtimes.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.io.bam import SEQ_NIBBLES, RecordSpan, encode_record
from repro.io.errors import FormatError
from repro.io.records import FLAG_REVERSE, FLAG_UNMAPPED, AlignedRead, SamHeader
from repro.io.regions import Region
from repro.pileup.column import (
    BATCH_COLUMNS,
    SEQ_CODE_LUT,
    ColumnBatch,
    PileupColumn,
    check_batch_columns,
)
from repro.pileup.engine import PileupConfig

__all__ = [
    "ColumnBatchBuilder",
    "iter_pileup_batches",
    "pileup_batch_from_arrays",
    "pileup_batch_from_reads",
    "pileup_batch_from_records",
    "pileup_sample",
    "pileup_sample_batch",
]

#: BAM sequence nibble -> base code: the nibble's character through
#: ``BASE_TO_CODE.get(char, N_CODE)``, as for a decoded read.
_NIBBLE_CODES = SEQ_CODE_LUT[
    np.frombuffer(SEQ_NIBBLES.encode("ascii"), dtype=np.uint8)
]

def _ref_bases_at(reference: str, positions: np.ndarray) -> str:
    """Uppercase reference characters at sorted ``positions`` (one
    gather).  Only the covered span is encoded, so per-chunk cost is
    bounded by the chunk, not the reference length."""
    if positions.size == 0:
        return ""
    lo = int(positions[0])
    raw = np.frombuffer(
        reference[lo : int(positions[-1]) + 1].encode("ascii"),
        dtype=np.uint8,
    )
    return raw[positions - lo].tobytes().decode("ascii").upper()


def _batch_from_flat(
    chrom: str,
    positions: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reference: str,
    cfg: PileupConfig,
    planes: Callable[[], Tuple[np.ndarray, np.ndarray]],
) -> ColumnBatch:
    """Assemble a batch from flat per-base arrays.

    ``positions`` must already be stable-sorted so that, within a
    column, bases appear in read-deposit order -- that ordering is what
    makes the depth cap (keep the first ``max_depth``) agree with the
    streaming engine exactly.

    The strand/mapq planes come as a deferred ``planes`` thunk
    (producing the sorted-order pair), carried into the batch and
    composed with the depth-cap mask when one applies, so the scatters
    never run unless something downstream reads the planes.
    """
    if positions.size == 0:
        return ColumnBatch.empty(chrom)
    # positions is sorted, so column boundaries come from one diff --
    # no np.unique, which would sort a second time.
    first = np.empty(positions.size, dtype=bool)
    first[0] = True
    np.not_equal(positions[1:], positions[:-1], out=first[1:])
    first_idx = np.nonzero(first)[0]
    unique_pos = positions[first_idx]
    boundaries = np.append(first_idx, positions.size)
    depths = np.diff(boundaries)
    if int(depths.max()) > cfg.max_depth:
        # Vectorised first-come cap: index of each base within its
        # column, keep only the first max_depth of them.
        within = np.arange(positions.size) - np.repeat(boundaries[:-1], depths)
        keep = within < cfg.max_depth
        codes = codes[keep]
        quals = quals[keep]
        uncapped = planes

        def planes(
            _build: Callable[[], Tuple[np.ndarray, np.ndarray]] = uncapped,
            _keep: np.ndarray = keep,
        ) -> Tuple[np.ndarray, np.ndarray]:
            """The deferred planes with the depth-cap mask folded in."""
            rev, mq = _build()
            return rev[_keep], mq[_keep]

        kept = np.minimum(depths, cfg.max_depth)
        capped = depths - kept
    else:
        kept = depths
        capped = np.zeros(depths.size, dtype=np.int64)
    offsets = np.zeros(unique_pos.size + 1, dtype=np.int64)
    np.cumsum(kept, out=offsets[1:])
    return ColumnBatch(
        chrom=chrom,
        positions=unique_pos.astype(np.int64),
        ref_bases=_ref_bases_at(reference, unique_pos),
        base_codes=codes,
        quals=quals,
        offsets=offsets,
        n_capped=capped,
        planes=planes,
    )


def pileup_batch_from_arrays(
    starts: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reverse: np.ndarray,
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    mapq: Union[int, np.ndarray] = 60,
) -> ColumnBatch:
    """Build the pileup of an ``(n, read_length)`` read matrix as one
    :class:`ColumnBatch`.

    Args:
        starts: sorted int read start positions, shape ``(n,)``.
        codes: uint8 base-code matrix, shape ``(n, read_length)``.
        quals: uint8 Phred matrix, same shape.
        reverse: bool strand vector, shape ``(n,)``.
        reference: full reference sequence (indexed absolutely).
        region: half-open interval to build columns for.
        config: quality filters and depth cap.  Only the *quality*
            semantics of the streaming engine apply here: matrix input
            carries no SAM flags, so the flag-based read filters
            (``include_duplicates`` / ``include_secondary`` /
            ``include_qcfail``) have no effect -- every read in the
            matrix is treated as a primary, non-duplicate, QC-pass
            alignment.
        mapq: mapping quality -- one int stamped on all reads (the
            simulator's default), or a per-read int vector of shape
            ``(n,)``.  The ``min_mapq`` filter compares against the
            *raw* values (a scalar below threshold empties the whole
            pileup; a vector drops exactly the failing reads, like the
            streaming engine's per-read ``read_passes``); values above
            255 are only saturated to 255 afterwards, when stamped
            into the batch's uint8 ``mapqs`` array (so e.g.
            ``mapq=300`` passes a ``min_mapq=260`` filter but reads
            back as 255, the SAM-format ceiling).

    Returns:
        The region's non-empty columns as one batch (possibly empty).

    Raises:
        ValueError: on inconsistent array shapes or negative ``mapq``
            (which a bare uint8 cast would silently wrap or reject
            depending on the NumPy version).
    """
    cfg = config or PileupConfig()
    n, rl = codes.shape
    if starts.shape != (n,) or quals.shape != (n, rl) or reverse.shape != (n,):
        raise ValueError("read matrix arrays are not mutually consistent")
    if np.isscalar(mapq) or np.ndim(mapq) == 0:
        mapq = int(mapq)
        if mapq < 0:
            raise ValueError(f"mapq must be non-negative, got {mapq}")
        if mapq < cfg.min_mapq or n == 0:
            return ColumnBatch.empty(region.chrom)
        mapq_reads = None
    else:
        mapq_arr = np.asarray(mapq)
        if mapq_arr.shape != (n,):
            raise ValueError(
                f"per-read mapq must have shape ({n},), got {mapq_arr.shape}"
            )
        if n and int(mapq_arr.min()) < 0:
            raise ValueError("mapq must be non-negative in every read")
        keep_reads = mapq_arr >= cfg.min_mapq
        if not keep_reads.all():
            # Dropping whole reads preserves the sorted-starts
            # counting-deposit structure, so the fast path below still
            # applies to the surviving subset.
            starts = starts[keep_reads]
            codes = codes[keep_reads]
            quals = quals[keep_reads]
            reverse = reverse[keep_reads]
            mapq_arr = mapq_arr[keep_reads]
            n = int(starts.size)
        if n == 0:
            return ColumnBatch.empty(region.chrom)
        mapq_reads = np.minimum(mapq_arr, 255).astype(np.uint8)
    if np.any(starts[1:] < starts[:-1]):
        # Unsorted input loses the counting-deposit structure; the
        # flattened matrix goes through the stable-sort deposit.
        if mapq_reads is None:
            mapq_reads = np.full(n, min(mapq, 255), dtype=np.uint8)
        return _sorted_deposit(
            region.chrom,
            (starts[:, None] + np.arange(rl)[None, :]).ravel(),
            codes.ravel(),
            quals.ravel(),
            np.full(n, rl, dtype=np.int64),
            reverse,
            mapq_reads,
            reference,
            cfg,
            window=region,
        )

    # Counting deposit: because every read spans exactly rl contiguous
    # positions and starts are sorted, the reads covering position p
    # are precisely rows lo[p]..hi[p], and the stable sort-by-position
    # permutation can be *computed* instead of searched for: base
    # (i, j) lands at col_start[p] + (i - lo[p]).  This is the same
    # deposit order as the streaming sweep (read order within each
    # column), with no O(m log m) sort anywhere.
    i_lo = int(np.searchsorted(starts, region.start - rl + 1, side="left"))
    i_hi = int(np.searchsorted(starts, region.end, side="left"))
    if i_hi <= i_lo:
        return ColumnBatch.empty(region.chrom)
    starts_r = starts[i_lo:i_hi]
    nr = i_hi - i_lo
    span_lo = int(starts_r[0])
    span_hi = int(starts_r[-1]) + rl
    grid = np.arange(span_lo, span_hi, dtype=np.int64)
    lo = np.searchsorted(starts_r, grid - rl + 1, side="left")
    col_start = np.zeros(grid.size + 1, dtype=np.int64)
    np.cumsum(
        np.searchsorted(starts_r, grid, side="right") - lo,
        out=col_start[1:],
    )
    m = nr * rl
    # dest[i, j] = col_start[p] + i - lo[p] for p = starts[i] + j,
    # factored as (col_start - lo) gathered per position plus an
    # in-place row add.  Each read's positions are contiguous, so the
    # gather is a sliding-window row copy, not an element gather;
    # 32-bit indices halve the memory traffic whenever they fit.
    idx_dtype = np.int64 if m > np.iinfo(np.int32).max else np.int32
    base = (col_start[:-1] - lo).astype(idx_dtype)
    windows = np.lib.stride_tricks.sliding_window_view(base, rl)
    dest = windows[starts_r - span_lo]
    dest += np.arange(nr, dtype=idx_dtype)[:, None]
    dest = dest.reshape(-1)
    # Deposit by direct single-byte scatters, which stay
    # cache-resident where a permutation index would not.
    q_sorted = np.empty(m, dtype=np.uint8)
    q_sorted[dest] = quals[i_lo:i_hi].reshape(-1)
    c_sorted = np.empty(m, dtype=np.uint8)
    c_sorted[dest] = codes[i_lo:i_hi].reshape(-1)
    depth = np.diff(col_start)

    # The region clip is a slice of the sorted axis, not a mask.
    p0 = max(region.start - span_lo, 0)
    p1 = min(region.end - span_lo, grid.size)
    a = int(col_start[p0])
    b = int(col_start[p1])
    pos_sorted = np.repeat(grid[p0:p1], depth[p0:p1])
    q_sorted = q_sorted[a:b]
    c_sorted = c_sorted[a:b]
    if pos_sorted.size == 0:
        return ColumnBatch.empty(region.chrom)

    keep: Optional[np.ndarray] = None
    if cfg.min_baseq > 0:
        passed = q_sorted >= cfg.min_baseq
        if not passed.all():
            keep = passed
            pos_sorted = pos_sorted[keep]
            q_sorted = q_sorted[keep]
            c_sorted = c_sorted[keep]
            if pos_sorted.size == 0:
                return ColumnBatch.empty(region.chrom)
    rev_reads = reverse[i_lo:i_hi]
    mapq_rows = None if mapq_reads is None else mapq_reads[i_lo:i_hi]
    mapq_all = min(mapq, 255) if mapq_reads is None else 0
    base_cols = base[p0:p1]
    depth_cols = depth[p0:p1]

    def planes() -> Tuple[np.ndarray, np.ndarray]:
        """Deferred strand/mapq planes: sorted slot k of column p holds
        read k - base[p], so each plane is one gather."""
        rows = np.arange(a, b, dtype=idx_dtype)
        rows -= np.repeat(base_cols, depth_cols)
        if keep is not None:
            rows = rows[keep]
        if mapq_rows is None:
            mapqs = np.full(rows.size, mapq_all, dtype=np.uint8)
        else:
            mapqs = mapq_rows[rows]
        return rev_reads[rows], mapqs

    return _batch_from_flat(
        region.chrom, pos_sorted, c_sorted, q_sorted, reference, cfg, planes
    )


def _stable_order(positions: np.ndarray) -> np.ndarray:
    """``np.argsort(positions, kind="stable")``, on 16-bit keys when the
    positions span fewer than 65536 (numpy radix-sorts those in linear
    time; a window of at most ``batch_columns`` positions always does
    at the default)."""
    lo = int(positions.min())
    if int(positions.max()) - lo < 1 << 16:
        positions = (positions - lo).astype(np.uint16)
    return np.argsort(positions, kind="stable")


def _sorted_deposit(
    chrom: str,
    positions: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    counts: np.ndarray,
    reverse: np.ndarray,
    mapqs: np.ndarray,
    reference: str,
    cfg: PileupConfig,
    *,
    window: Optional[Region] = None,
) -> ColumnBatch:
    """The stable-sort deposit: flat per-base arrays, read after read
    in deposit order (``counts`` bases per read; ``reverse`` and
    ``mapqs`` one value per read), to one batch.

    Masks ``min_baseq`` (and ``window``, when given), stable-sorts by
    position -- so within a column bases keep the streaming deposit
    order and the depth cap drops exactly the same reads -- and defers
    the strand/mapq scatters into a lazy planes thunk.
    """
    mask = quals >= cfg.min_baseq
    if window is not None:
        mask &= (positions >= window.start) & (positions < window.end)
    all_in = bool(mask.all())
    if not all_in:
        positions = positions[mask]
        codes = codes[mask]
        quals = quals[mask]
    if positions.size == 0:
        return ColumnBatch.empty(chrom)

    order = _stable_order(positions)

    def planes() -> Tuple[np.ndarray, np.ndarray]:
        """Deferred strand/mapq scatters for this deposit."""
        rev = np.repeat(reverse, counts)
        mqs = np.repeat(mapqs, counts)
        if not all_in:
            rev = rev[mask]
            mqs = mqs[mask]
        return rev[order], mqs[order]

    return _batch_from_flat(
        chrom,
        positions[order],
        codes[order],
        quals[order],
        reference,
        cfg,
        planes,
    )


def pileup_batch_from_records(
    span: RecordSpan,
    rows: np.ndarray,
    reference: str,
    window: Region,
    config: Optional[PileupConfig] = None,
) -> Tuple[ColumnBatch, np.ndarray]:
    """One window's batch straight from raw BAM records.

    The records were decoded together by
    :class:`~repro.io.bam.RecordSpan` -- one buffer, numpy gathers, no
    :class:`~repro.io.records.AlignedRead` -- and are deposited under
    the read-level rules of :meth:`ColumnBatchBuilder.add_read`: the
    flag and mapping-quality filters, reads ending at or before the
    window skipped, a read without SEQ depositing nothing, all-``0xff``
    qualities reading as 0.  If every kept read is ungapped (one
    ``M``, ``=`` or ``X`` operation) and all have one length, no
    longer than the window or
    :data:`~repro.pileup.column.BATCH_COLUMNS`, the window goes
    through the counting deposit of :func:`pileup_batch_from_arrays`,
    which expands each read whole; otherwise through the stable-sort
    deposit, which expands only the bases inside the window (a long
    read is carried through many windows).  Either way the columns
    equal the streaming engine's.

    Args:
        span: the decoded records, each one
            :func:`repro.io.bam.decode_record` accepts (see
            :meth:`~repro.io.bam.RecordSpan.suspects`).
        rows: the window's candidate reads, as indices into ``span``
            in file order: mapped reads on ``window.chrom`` with
            non-decreasing positions.
        reference: reference sequence for ``window.chrom``.
        window: the interval whose columns to build.
        config: pileup filtering parameters.

    Returns:
        ``(batch, rest)``: the window's batch (possibly empty) and, in
        order, the rows of the kept reads reaching past
        ``window.end`` -- the next window's carry.
    """
    cfg = config or PileupConfig()
    live = rows[
        ((span.flag[rows] & cfg.excluded_flags) == 0)
        & (span.mapq[rows] >= cfg.min_mapq)
        & (span.l_seq[rows] > 0)
    ]
    rest = live[span.ref_end[live] > window.end]
    live = live[span.ref_end[live] > window.start]
    if live.size == 0:
        return ColumnBatch.empty(window.chrom), rest
    reverse = (span.flag[live] & FLAG_REVERSE) != 0
    length = span.l_seq[live]
    rl = int(length[0])
    if (
        rl <= max(len(window), BATCH_COLUMNS)
        and span.ungapped[live].all()
        and bool((length == rl).all())
    ):
        codes, quals = span.bases(live, rl, _NIBBLE_CODES)
        batch = pileup_batch_from_arrays(
            span.pos[live], codes, quals, reverse, reference, window, cfg,
            mapq=span.mapq[live],
        )
    else:
        positions, codes, quals, counts = span.aligned_bases(
            live, _NIBBLE_CODES, window.start, window.end
        )
        batch = _sorted_deposit(
            window.chrom, positions, codes, quals, counts, reverse,
            span.mapq[live], reference, cfg,
        )
    return batch, rest


class ColumnBatchBuilder:
    """Incremental, bounded-memory columnar pileup construction, and
    the one owner of the window rule.

    A coordinate-sorted stream arrives either as spans of raw BAM
    records (:meth:`add_span`, the batched engine's BAM path
    :meth:`repro.pipeline.BamSource.batches_for`) or one
    :class:`~repro.io.records.AlignedRead` at a time (:meth:`add_read`,
    each kept read encoded as a BAM record body); feed one builder one
    kind.  A *kept read* is a mapped read on ``region.chrom`` starting
    before ``region.end``, and the builder holds kept reads only.  All
    columns left of the newest kept read's start are complete, so once
    a kept read starts ``batch_columns`` positions past the last cut,
    the window closes at its position: the kept reads since the cut
    and the reads carried over from the last window become one
    :class:`~repro.io.bam.RecordSpan` for
    :func:`pileup_batch_from_records`, and the batch leaves sliced
    zero-copy into work units of at most ``batch_columns`` columns
    (strand/mapq planes still lazy).  Reads reaching past the cut
    carry into the next window.

    The builder checks no record: :meth:`add_span`'s were checked
    where the seek-plan walk read them, and :meth:`add_read`'s bodies
    were just encoded.

    Peak construction memory is therefore bounded by the records of
    one window (roughly ``batch_columns`` x depth bases, plus one read
    span) -- **not** by the chunk being scanned, which is what lets a
    whole-genome region stream through the caller in constant memory.

    Columns, offsets, depth capping, ``min_baseq`` filtering and the
    within-column deposit order are bit-identical to building the whole
    chunk at once with :func:`pileup_batch_from_reads` (a one-window
    instance of this builder) and to the streaming engine
    (:func:`repro.pileup.engine.pileup`); the property suite in
    ``tests/test_column_batch.py`` asserts it per flush boundary.

    Example -- stream a read list in bounded batches::

        builder = ColumnBatchBuilder(reference, region, batch_columns=1024)
        for read in reads:                  # coordinate-sorted
            for batch in builder.add_read(read):
                consume(batch)              # at most 1024 columns each
            if builder.done:
                break
        for batch in builder.finish():
            consume(batch)

    (:func:`iter_pileup_batches` wraps exactly this loop.)

    Args:
        reference: reference sequence for ``region.chrom`` (indexed
            absolutely by position).
        region: half-open interval to build columns for.
        config: pileup filtering parameters (defaults to
            :class:`~repro.pileup.engine.PileupConfig`).
        batch_columns: the window, in reference positions; emitted
            batches hold at most this many columns.
        header: the BAM header the records' refIDs refer to; by
            default a one-reference header for ``region.chrom``.

    Raises:
        ValueError: if ``batch_columns`` is not a positive int, or
            ``region.chrom`` is not in ``header``.
    """

    def __init__(
        self,
        reference: str,
        region: Region,
        config: Optional[PileupConfig] = None,
        *,
        batch_columns: int = BATCH_COLUMNS,
        header: Optional[SamHeader] = None,
    ) -> None:
        self.reference = reference
        self.region = region
        self.config = config or PileupConfig()
        self.batch_columns = check_batch_columns(batch_columns)
        #: True once :meth:`add_read` has seen a read at or beyond
        #: ``region.end``: no further column can change, so a caller's
        #: loop may stop feeding reads (mirroring the streaming sweep's
        #: early break).
        self.done = False
        self._header = header or SamHeader(references=[(region.chrom, len(reference))])
        self._ref_id = self._header.reference_id(region.chrom)
        if self._ref_id < 0:
            raise ValueError(f"contig {region.chrom!r} is not in the BAM header")
        self._carry: List[bytes] = []  # reads reaching past the last cut
        self._pending: List[bytes] = []  # the kept reads since the last cut
        self._flush_from = region.start
        self._last_pos = -1
        self._finished = False

    def add_span(self, span: RecordSpan, n: int) -> List[ColumnBatch]:
        """Take the first ``n`` records of ``span``, as the seek-plan
        walk reads and checks them; return any batches they completed.
        The kept reads are one mask, the cuts among them one
        ``searchsorted`` per window."""
        on = (span.ref_id[:n] == self._ref_id) & (span.flag[:n] & FLAG_UNMAPPED == 0)
        kept = np.flatnonzero(on & (span.pos[:n] < self.region.end))
        pos = span.pos[kept]
        bodies, rows = span.bodies, kept.tolist()
        batches: List[ColumnBatch] = []
        i = 0
        while True:
            k = int(np.searchsorted(pos, self._flush_from + self.batch_columns))
            if k == len(rows):
                break
            # The read at the cut joins the window it closes: it
            # deposits nothing there and carries over.
            self._pending += [bodies[j] for j in rows[i : k + 1]]
            batches += self._flush(int(pos[k]))
            i = k + 1
        self._pending += [bodies[j] for j in rows[i:]]
        return batches

    def add_read(self, read: AlignedRead) -> List[ColumnBatch]:
        """Deposit one alignment; return any batches it completed.

        Read-level semantics -- chromosome/region skips, flag and
        mapping-quality filters, the coordinate-sort check -- are
        identical to :func:`repro.pileup.engine.pileup`.

        Raises:
            FormatError: if the input violates coordinate sorting.
            ValueError: if the builder was already finished, or the
                read does not encode as a BAM record (what
                :meth:`repro.io.bam.BamWriter.write` rejects).
        """
        if self._finished:
            raise ValueError("builder already finished")
        if read.rname != self.region.chrom or read.is_unmapped:
            return []
        if read.pos < self._last_pos:
            raise FormatError(
                f"reads are not coordinate-sorted: {read.qname} at {read.pos} "
                f"after {self._last_pos}"
            )
        self._last_pos = read.pos
        if read.pos >= self.region.end:
            self.done = True
            return []
        if read.reference_end > self.region.start and self.config.read_passes(read):
            self._pending.append(encode_record(read, self._header))
        if read.pos - self._flush_from >= self.batch_columns:  # the window rule
            return self._flush(read.pos)
        return []

    def finish(self) -> List[ColumnBatch]:
        """Flush the last window and seal the builder.

        Returns the final batches (possibly empty).  Idempotent; any
        further :meth:`add_read` raises.
        """
        if self._finished:
            return []
        self._finished = True
        return self._flush(self.region.end)

    def _flush(self, end: int) -> List[ColumnBatch]:
        """Deposit the window ``[last cut, end)`` from one span over the
        carry and the kept reads since the cut; carry the reads
        reaching past ``end``."""
        window = Region(self.region.chrom, self._flush_from, end)
        self._flush_from = end
        if not self._carry and not self._pending:
            return []
        span = RecordSpan(self._carry + self._pending)
        self._pending = []
        batch, rest = pileup_batch_from_records(
            span, np.arange(len(span)), self.reference, window, self.config
        )
        self._carry = [span.bodies[j] for j in rest]
        return batch.split(self.batch_columns)


def iter_pileup_batches(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    batch_columns: int = BATCH_COLUMNS,
) -> Iterator[ColumnBatch]:
    """Stream coordinate-sorted alignments through a
    :class:`ColumnBatchBuilder`, yielding bounded
    :class:`~repro.pileup.column.ColumnBatch` work units as the scan
    completes them.

    Construction memory stays proportional to one window
    (``batch_columns`` columns), never the whole region -- the
    bounded-memory twin of :func:`pileup_batch_from_reads`, with
    identical columns overall (the batched caller engine produces
    byte-identical calls from either).

    Example::

        for batch in iter_pileup_batches(reads, ref, region,
                                         batch_columns=1024):
            survivors = screen_batch(batch, alpha, config, stats)

    Raises:
        FormatError: if the input violates coordinate sorting.
        ValueError: if ``batch_columns`` is not a positive int.
    """
    builder = ColumnBatchBuilder(
        reference, region, config, batch_columns=batch_columns
    )
    for read in reads:
        yield from builder.add_read(read)
        if builder.done:
            break
    yield from builder.finish()


def pileup_batch_from_reads(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
) -> ColumnBatch:
    """Columnar pileup over coordinate-sorted alignments, as one batch.

    The CIGAR-aware twin of :func:`pileup_batch_from_arrays`: the reads
    are encoded as BAM records and deposited together by
    :func:`pileup_batch_from_records` -- so within a column bases keep
    the streaming engine's deposit order and the depth cap drops
    exactly the same reads.  Read-level semantics (chromosome/region
    skips, flag filters, the coordinate-sort check) are identical to
    :func:`repro.pileup.engine.pileup`.

    Implemented as :func:`iter_pileup_batches` with one window as wide
    as ``region``, so construction memory is the whole chunk; callers
    that can consume batches incrementally should use
    :func:`iter_pileup_batches` itself, which bounds memory at one
    window.

    The batch's strand/mapq planes are built *lazily*: the screen only
    reads base codes and qualities, so the per-base strand/mapq
    scatters are deferred into the batch and run only if the
    ``merge_mapq`` error model or a surviving column's DP4 actually
    needs them (pure screen-outs skip them entirely).

    Raises:
        FormatError: if the input violates coordinate sorting.
    """
    cap = max(1, len(region))
    batches = list(iter_pileup_batches(reads, reference, region, config, batch_columns=cap))
    return batches[0] if batches else ColumnBatch.empty(region.chrom)


def pileup_sample_batch(
    sample,
    region: Optional[Region] = None,
    config: Optional[PileupConfig] = None,
) -> ColumnBatch:
    """Columnar pileup of a :class:`~repro.sim.reads.SimulatedSample`.

    ``region`` defaults to the whole genome.  A sample carrying a
    per-read ``mapqs`` vector (simulated from a
    :class:`~repro.sim.quality.MapqProfile`) feeds it through as the
    per-read mapping qualities, so ``min_mapq`` filtering and
    ``merge_mapq`` models see the same per-read values the BAM path
    would.
    """
    if region is None:
        region = Region(sample.genome.name, 0, len(sample.genome))
    mapqs = getattr(sample, "mapqs", None)
    return pileup_batch_from_arrays(
        sample.starts,
        sample.codes,
        sample.quals,
        sample.reverse,
        sample.genome.sequence,
        region,
        config,
        mapq=sample.mapq if mapqs is None else mapqs,
    )


def pileup_sample(
    sample,
    region: Optional[Region] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[PileupColumn]:
    """Pileup a :class:`~repro.sim.reads.SimulatedSample` directly.

    Compatibility view over :func:`pileup_sample_batch`; ``region``
    defaults to the whole genome.
    """
    return pileup_sample_batch(sample, region, config).columns()
