"""The pipeline execution layer: one ``run()`` for every mode.

:class:`Pipeline` composes a :class:`~repro.pipeline.sources.ColumnSource`
with an :class:`ExecutionPolicy` and a set of
:class:`~repro.pipeline.sinks.CallSink` objects:

* work units are the source's regions, re-chunked for scheduling when
  ``chunk_columns`` is set;
* each chunk is read in the engine's own unit type -- structure-of-
  arrays :class:`~repro.pileup.column.ColumnBatch` spans from
  ``batches_for`` under the batched engine, per-column
  :class:`~repro.pileup.column.PileupColumn` objects from
  ``columns_for`` under the streaming engine -- and every unit is
  pulled outside the probability span and evaluated on its own
  through :meth:`~repro.core.caller.VariantCaller.call_columns`, so
  the trace's source and probability time stay disjoint and a lazy
  chunk never sits in memory whole;
* each chunk stream adds the I/O it made (BGZF block-cache lookups) to
  the stats of the worker that pulls it, so a run's counters cover
  that run alone, on every backend;
* the dynamic post-filter runs exactly **once** on the merged calls --
  the paper's fix for the legacy wrapper's double-filtering bug --
  except in the deliberate ``"legacy"`` demonstration mode, which
  evaluates each partition through the same unit loop and then
  reproduces the bug faithfully through
  :func:`repro.core.filters.filter_twice` (fit+apply per partition,
  then again on the merge);
* the Bonferroni scope is the *total* length of all regions, so a
  multi-contig run corrects genome-wide exactly like a single-contig
  run corrects over its one contig;
* final calls stream through the sinks one at a time.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.caller import VariantCaller
from repro.core.config import CallerConfig
from repro.core.filters import DynamicFilterPolicy, filter_once, filter_twice
from repro.core.results import CallResult, RunStats, VariantCall
from repro.io.regions import Region
from repro.parallel.partition import chunk_region, partition_region
from repro.parallel.scheduler import make_scheduler
from repro.parallel.trace import Category, Tracer
from repro.pipeline.sinks import CallSink
from repro.pipeline.sources import ColumnSource

__all__ = ["ExecutionPolicy", "Pipeline"]

_MODES = ("serial", "thread", "process", "legacy")


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """How the pipeline executes its work units.

    Attributes:
        mode: ``"serial"`` (one worker, deterministic), ``"thread"``
            (shared memory, the OpenMP analogue), ``"process"``
            (fork-based, real CPU scaling) or ``"legacy"`` (the old
            wrapper-script pipeline, double-filtering bug included --
            demonstration only).
        n_workers: worker count (threads / processes; partition count
            in legacy mode).
        chunk_columns: columns per scheduling chunk; ``None`` processes
            each region as a single unit (the default serial mode).
        schedule: ``"static"`` / ``"dynamic"`` / ``"guided"``.
    """

    mode: str = "serial"
    n_workers: int = 1
    chunk_columns: Optional[int] = None
    schedule: str = "dynamic"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown execution mode {self.mode!r}")
        if self.n_workers <= 0:
            raise ValueError(
                f"n_workers must be positive, got {self.n_workers}"
            )
        if self.chunk_columns is not None and self.chunk_columns <= 0:
            raise ValueError("chunk_columns must be positive when set")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def _flatten(item) -> List[Region]:
    """Schedulers may hand back one Region or a span of them."""
    if isinstance(item, Region):
        return [item]
    return list(item)


def _chunk_units(
    source: ColumnSource,
    caller: VariantCaller,
    chunk: Region,
    tracer: Tracer,
    worker: int,
    stats: RunStats,
) -> Iterable[object]:
    """The work units of one chunk, in the engine's own type:
    :class:`~repro.pileup.column.ColumnBatch` spans under the batched
    engine, :class:`~repro.pileup.column.PileupColumn` objects under
    the streaming engine.  The stream adds its I/O to ``stats``."""
    if caller.config.engine == "batched":
        return source.batches_for(chunk, tracer, worker, stats)
    return source.columns_for(chunk, tracer, worker, stats)


def _evaluate_chunk(
    worker: int,
    source: ColumnSource,
    caller: VariantCaller,
    chunk: Region,
    scope: int,
    tracer: Tracer,
    merged: CallResult,
) -> None:
    """Evaluate one chunk's work units into ``merged``.

    Units are pulled *outside* the probability span -- a source
    records its own BAM_ITER/DECOMPRESS time per pull -- and each is
    evaluated as its own unit, so the trace's categories never nest
    and a lazily-built chunk is never in memory whole.  The chunk
    stream counts its I/O into ``merged.stats``.
    """
    for unit in _chunk_units(source, caller, chunk, tracer, worker, merged.stats):
        with tracer.span(worker, Category.PROB):
            result = caller.call_columns((unit,), scope)
        merged.merge(result)


def _worker_loop(
    worker: int,
    scheduler,
    source: ColumnSource,
    caller: VariantCaller,
    scope: int,
    tracer: Tracer,
) -> CallResult:
    """One worker: pull chunks until the scheduler runs dry."""
    merged = CallResult(calls=[], stats=RunStats())
    while True:
        with tracer.span(worker, Category.SCHED):
            item = scheduler.next(worker)
        if item is None:
            break
        for chunk in _flatten(item):
            _evaluate_chunk(
                worker, source, caller, chunk, scope, tracer, merged
            )
    return merged


def _record_barrier(tracer: Tracer, n_workers: int) -> None:
    """Synthesise end-barrier events: each worker waits from its last
    activity until the slowest worker finishes (the dark-green tail in
    Figure 2)."""
    events = tracer.events
    if not events:
        return
    t_end = max(e.end for e in events)
    for w in range(n_workers):
        w_events = [e for e in events if e.worker == w]
        if not w_events:
            continue
        last = max(e.end for e in w_events)
        if t_end - last > 1e-9:
            tracer.record(w, Category.BARRIER, last, t_end)


class Pipeline:
    """Source -> engine -> sinks, behind a single :meth:`run`.

    Example -- call every contig of a BAM with four threads, writing
    a VCF and a machine-readable stats report as the calls stream::

        from repro.pipeline import (BamSource, ExecutionPolicy,
                                    Pipeline, StatsSink, VcfSink)
        from repro.io.fasta import load_reference

        source = BamSource("sample.bam", load_reference("ref.fa"))
        result = Pipeline(
            source,
            policy=ExecutionPolicy(mode="thread", n_workers=4,
                                   chunk_columns=256),
            sinks=[VcfSink("calls.vcf", contigs=source.contigs),
                   StatsSink("stats.json")],
        ).run()

    Args:
        source: where columns come from (see
            :mod:`repro.pipeline.sources`).
        config: caller configuration (default: improved preset); its
            ``engine`` field picks streaming vs batched evaluation.
        filter_policy: dynamic post-filter, applied exactly once on the
            merged calls (``None`` skips post-filtering; legacy mode
            substitutes the default policy, since the bug it
            demonstrates *is* the filter).
        policy: execution policy (default: serial, unchunked).
        sinks: call sinks to stream the final calls into.
        tracer: optional tracer collecting Figure 2 events.
    """

    def __init__(
        self,
        source: ColumnSource,
        *,
        config: Optional[CallerConfig] = None,
        filter_policy: Optional[DynamicFilterPolicy] = DynamicFilterPolicy(),
        policy: Optional[ExecutionPolicy] = None,
        sinks: Sequence[CallSink] = (),
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.source = source
        self.config = config or CallerConfig.improved()
        self.filter_policy = filter_policy
        self.policy = policy or ExecutionPolicy()
        self.sinks: List[CallSink] = list(sinks)
        self.tracer = tracer

    def run(self) -> CallResult:
        """Execute the pipeline end to end and return the result.

        The returned :class:`CallResult` holds the filtered calls and
        the merged run statistics; the same calls have already been
        streamed through every sink.
        """
        regions = list(self.source.regions())
        if not regions:
            raise ValueError("source declares no regions to call")
        scope = sum(len(r) for r in regions)
        tracer = self.tracer or Tracer()
        if self.policy.mode == "legacy":
            result = self._run_legacy(regions, tracer)
        else:
            merged = self._execute(regions, scope, tracer)
            if self.filter_policy is not None:
                merged = CallResult(
                    calls=filter_once(merged.calls, self.filter_policy),
                    stats=merged.stats,
                )
            result = merged
        # Sinks only open once calling has succeeded (filter labels are
        # fitted on the complete call set anyway, so nothing could
        # stream earlier) -- a failed run never leaves a header-only
        # output file behind.
        try:
            for sink in self.sinks:
                sink.start()
            for call in result.calls:
                for sink in self.sinks:
                    sink.write(call)
            for sink in self.sinks:
                sink.finish(result)
        except BaseException:
            for sink in self.sinks:
                abort = getattr(sink, "abort", None)
                if abort is not None:
                    abort()
            raise
        return result

    # -- execution backends --------------------------------------------------

    def _chunks(self, regions: Sequence[Region]) -> List[Region]:
        if self.policy.chunk_columns is None:
            return list(regions)
        return [
            chunk
            for region in regions
            for chunk in chunk_region(region, self.policy.chunk_columns)
        ]

    def _execute(
        self, regions: Sequence[Region], scope: int, tracer: Tracer
    ) -> CallResult:
        caller = VariantCaller(self.config)
        chunks = self._chunks(regions)
        mode = self.policy.mode
        if mode == "serial":
            scheduler = make_scheduler(self.policy.schedule, chunks, 1)
            merged = _worker_loop(0, scheduler, self.source, caller, scope, tracer)
            n_workers = 1
        elif mode == "thread":
            n_workers = self.policy.n_workers
            scheduler = make_scheduler(self.policy.schedule, chunks, n_workers)
            results: List[Optional[CallResult]] = [None] * n_workers
            errors: List[Optional[BaseException]] = [None] * n_workers

            def run_worker(w: int) -> None:
                """One thread's worker loop, errors captured for re-raise."""
                try:
                    results[w] = _worker_loop(
                        w, scheduler, self.source, caller, scope, tracer
                    )
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors[w] = exc

            threads = [
                threading.Thread(target=run_worker, args=(w,), name=f"omp-{w}")
                for w in range(n_workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for exc in errors:
                # A dead worker must fail the run, not shrink its output.
                if exc is not None:
                    raise exc
            merged = CallResult(calls=[], stats=RunStats())
            for r in results:
                if r is not None:
                    merged.merge(r)
        else:  # process
            n_workers = self.policy.n_workers
            merged = self._process_backend(chunks, caller, scope, tracer)
        _record_barrier(tracer, n_workers)
        return merged

    def _process_backend(
        self,
        chunks: Sequence[Region],
        caller: VariantCaller,
        scope: int,
        tracer: Tracer,
    ) -> CallResult:
        """Fork-based backend: chunks pre-partitioned round-robin
        (static) across processes; shared state inherited
        copy-on-write."""
        import multiprocessing as mp

        prepare = getattr(self.source, "prepare", None)
        if prepare is not None:
            prepare()  # e.g. build the BAM index before forking
        ctx = mp.get_context("fork")
        n = self.policy.n_workers
        assignments = [
            (w, [chunks[i] for i in range(w, len(chunks), n)])
            for w in range(n)
        ]
        _FORK_STATE["source"] = self.source
        _FORK_STATE["caller"] = caller
        _FORK_STATE["scope"] = scope
        try:
            with ctx.Pool(n) as pool:
                outputs = pool.map(_process_worker, assignments)
        finally:
            _FORK_STATE.clear()
        merged = CallResult(calls=[], stats=RunStats())
        for calls, stats, events in outputs:
            merged.merge(CallResult(calls=calls, stats=stats))
            for e in events:
                tracer.record(e.worker, e.category, e.start, e.end)
        return merged

    def _run_legacy(
        self, regions: Sequence[Region], tracer: Tracer
    ) -> CallResult:
        """The wrapper-script pipeline, double filtering included.

        Each partition is Bonferroni-corrected over *its own* length
        (LoFreq run on a slice has no idea how big the whole genome
        is); :func:`~repro.core.filters.filter_twice` then filters
        each partition's calls with thresholds fitted to them and the
        merged survivors again.  Output depends on the partitioning
        -- the bug, reproduced on purpose.
        """
        caller = VariantCaller(self.config)
        merged_stats = RunStats()
        partitions: List[List[VariantCall]] = []
        for region in regions:
            for part in partition_region(region, self.policy.n_workers):
                result = CallResult(calls=[], stats=RunStats())
                _evaluate_chunk(
                    0, self.source, caller, part, len(part), tracer, result
                )
                merged_stats.merge(result.stats)
                partitions.append(result.calls)
        return CallResult(
            calls=filter_twice(partitions, self.filter_policy),
            stats=merged_stats,
        )


# -- process backend fork state ------------------------------------------------

_FORK_STATE: dict = {}


def _process_worker(args: Tuple[int, List[Region]]):
    """One forked worker's chunk loop; its chunk streams count their
    I/O into the stats it returns."""
    worker, chunk_list = args
    source = _FORK_STATE["source"]
    caller = _FORK_STATE["caller"]
    scope = _FORK_STATE["scope"]
    tracer = Tracer()
    merged = CallResult(calls=[], stats=RunStats())
    for chunk in chunk_list:
        _evaluate_chunk(worker, source, caller, chunk, scope, tracer, merged)
    return merged.calls, merged.stats, tracer.events
