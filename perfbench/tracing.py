"""Outside-in layer tracing for the traced benchmark run.

:func:`install` wraps each layer's public functions at the name their
caller looks up, so the program itself carries no tracing code.  Every
wrapped call becomes a span ``(name, start, end, id, parent id, thread,
request id)`` kept in memory; spans are written out once, when the run
ends.  A layer's self time is its spans' time minus the time of their
child spans on the same thread.

Process-backend workers are forked after :func:`install`, so they run
the same wrappers; the wrapper around the worker entry point writes the
child's spans and counters to ``dump_dir`` when each task ends, and
:func:`load_worker_dumps` brings them back into the parent's trace.
"""

from __future__ import annotations

import collections
import functools
import gzip
import itertools
import json
import os
import pickle
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: layers whose spans are work; ``pipeline`` and ``serve`` spans are
#: envelopes whose self time is orchestration
WORK_LAYERS = ("bgzf", "bam", "index", "pileup", "caller", "sinks")

#: BGZF reader counters summed into the bgzf.* metrics
_BGZF_COUNTERS = ("blocks_read", "time_decompress", "cache_hits", "cache_misses")


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        #: (name, start, end, span id, parent id, thread id, request id)
        self.spans: List[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        #: (pid, BgzfReader) of every BamReader opened
        self.readers: List[tuple] = []
        #: per Pipeline.run: its RunStats and program Tracer events
        self.pipeline_runs: List[dict] = []
        #: set by the service client before each submit (one request is
        #: outstanding at a time, so every span belongs to it)
        self.request_id: Optional[int] = None
        self.dump_dir = dump_dir
        #: thread id -> thread name, for the trace's track labels
        self.thread_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> List[int]:
        """This thread's open span ids."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.thread_names[thread.ident] = thread.name
        return stack

    def reader_counters(self, pid: int) -> Dict[str, float]:
        """Summed BGZF counters of the readers opened in process ``pid``."""
        totals = dict.fromkeys(_BGZF_COUNTERS, 0)
        for owner, bgzf in self.readers:
            if owner == pid:
                for key in _BGZF_COUNTERS:
                    totals[key] += getattr(bgzf, key)
        return totals


def _span(rec: Recorder, name: str, fn, post=None):
    """Wrap ``fn`` so each call records a span; ``post(result, args)``
    runs after the span closes (boundary counts stay out of it)."""
    spans, ids, stack_of, tid = rec.spans, rec._ids, rec.stack, threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = stack_of()
        sid = next(ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            spans.append((name, t0, t1, sid, parent, tid(), rec.request_id))
        if post is not None:
            post(out, args)
        return out

    return wrapper


def _read_record(rec: Recorder, fn):
    """``BamReader.read_record`` with its BGZF inflation split out as a
    child span, from the reader's own inflate-seconds counter."""
    spans, ids, stack_of, tid = rec.spans, rec._ids, rec.stack, threading.get_ident

    @functools.wraps(fn)
    def wrapper(self):
        bgzf = self._bgzf
        inflated = bgzf.time_decompress
        stack = stack_of()
        sid = next(ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(self)
        finally:
            t1 = perf_counter()
            stack.pop()
            thread, rid = tid(), rec.request_id
            spent = bgzf.time_decompress - inflated
            if spent:
                spans.append(
                    ("bgzf.inflate", t0, t0 + spent, next(ids), sid, thread, rid)
                )
            spans.append(("bam.read_record", t0, t1, sid, parent, thread, rid))

    return wrapper


def _async_span(rec: Recorder, name: str, fn):
    """Span around a coroutine method, submit to response."""
    tid = threading.get_ident

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        rec.stack()
        sid = next(rec._ids)
        t0 = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            rec.spans.append(
                (name, t0, perf_counter(), sid, 0, tid(), rec.request_id)
            )

    return wrapper


def _pipeline_run(rec: Recorder, fn):
    """``Pipeline.run`` as a span, with a program ``Tracer`` attached
    when the caller passed none, so its per-worker events (chunks,
    busy time, barrier) can be read back afterwards."""
    from repro.parallel.trace import Tracer

    traced = _span(rec, "pipeline.run", fn)

    @functools.wraps(fn)
    def wrapper(self):
        if self.tracer is None:
            self.tracer = Tracer()
        if self.policy.chunk_columns is None:
            rec.counts["pipeline.chunks"] += len(self.source.regions())
        result = traced(self)
        rec.pipeline_runs.append({"stats": result.stats, "events": self.tracer.events})
        return result

    return wrapper


def _process_worker(rec: Recorder, fn):
    """The process backend's per-task entry point.  Runs in a forked
    child: records the task as a ``pipeline.worker`` span on a fresh
    stack and dumps the task's spans, counts and reader counters."""

    @functools.wraps(fn)
    def wrapper(args):
        pid = os.getpid()
        stack = rec.stack()
        inherited = list(stack)
        stack.clear()
        mark = len(rec.spans)
        counts = collections.Counter(rec.counts)
        readers = rec.reader_counters(pid)
        try:
            return _span(rec, "pipeline.worker", fn)(args)
        finally:
            stack[:] = inherited
            after = rec.reader_counters(pid)
            dump = {
                "pid": pid,
                "thread_names": rec.thread_names,
                "spans": rec.spans[mark:],
                "counts": dict(rec.counts - counts),
                "readers": {k: after[k] - readers[k] for k in after},
            }
            del rec.spans[mark:]
            path = os.path.join(rec.dump_dir, f"worker-{pid}-{mark}.pkl")
            with open(path, "wb") as fh:
                pickle.dump(dump, fh)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core import batched
    from repro.io import bai, bam, index
    from repro.pileup import vectorized
    from repro.pipeline import engine, sinks
    from repro.serve import server

    def count(key: str, of):
        def post(out, args):
            rec.counts[key] += of(out, args)
        return post

    def columns(out, args):
        return sum(batch.n_columns for batch in out) if out else 0

    def screened(out, args):
        rec.counts["caller.columns_screened"] += args[0].n_columns
        rec.counts["caller.survivors"] += len(out)

    reader_init = bam.BamReader.__init__

    @functools.wraps(reader_init)
    def register_reader(self, *args, **kwargs):
        reader_init(self, *args, **kwargs)
        rec.readers.append((os.getpid(), self._bgzf))

    chunk_region = engine.chunk_region

    @functools.wraps(chunk_region)
    def counted_chunks(region, size):
        out = chunk_region(region, size)
        rec.counts["pipeline.chunks"] += len(out)
        return out

    bam.BamReader.__init__ = register_reader
    bam.BamReader.read_record = _read_record(rec, bam.BamReader.read_record)
    for name in ("build_linear_index", "build_bai_index"):
        setattr(index, name, _span(rec, "index.build", getattr(index, name)))
    for cls in (index.MultiContigIndex, bai.BaiIndex):
        cls.chunks_for = _span(rec, "index.plan", cls.chunks_for)
    builder = vectorized.ColumnBatchBuilder
    builder.add_read = _span(
        rec, "pileup.add_read", builder.add_read,
        count("pileup.columns_built", columns),
    )
    builder.finish = _span(
        rec, "pileup.finish", builder.finish,
        count("pileup.columns_built", columns),
    )
    batched.screen_batch = _span(rec, "caller.screen", batched.screen_batch, screened)
    batched.exact_batch = _span(rec, "caller.exact", batched.exact_batch)
    engine.filter_once = _span(rec, "caller.filter", engine.filter_once)
    engine.chunk_region = counted_chunks
    engine.Pipeline.run = _pipeline_run(rec, engine.Pipeline.run)
    engine._process_worker = _process_worker(rec, engine._process_worker)
    sinks.VcfSink.write = _span(rec, "sinks.write", sinks.VcfSink.write)
    sinks.VcfSink.finish = _span(rec, "sinks.finish", sinks.VcfSink.finish)
    server.CallService.submit = _async_span(
        rec, "serve.submit", server.CallService.submit
    )


def load_worker_dumps(rec: Recorder) -> List[dict]:
    """The dumps forked workers wrote, oldest first."""
    dumps = []
    for name in sorted(os.listdir(rec.dump_dir)):
        if name.startswith("worker-") and name.endswith(".pkl"):
            with open(os.path.join(rec.dump_dir, name), "rb") as fh:
                dumps.append(pickle.load(fh))
    return dumps


# -- analysis -----------------------------------------------------------------


def self_times(tracks: Dict[Tuple[int, int], List[tuple]]) -> List[tuple]:
    """``(name, duration, self time, request id, track)`` per span: its
    duration minus the durations of its children on the same track."""
    out = []
    for track, spans in tracks.items():
        child = collections.defaultdict(float)
        for name, t0, t1, sid, parent, _tid, rid in spans:
            if parent:
                child[parent] += t1 - t0
        for name, t0, t1, sid, parent, _tid, rid in spans:
            out.append((name, t1 - t0, t1 - t0 - child.get(sid, 0.0), rid, track))
    return out


def totals(rows: Iterable[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    out: Dict[str, Dict[str, float]] = {}
    for name, dur, own, _rid, _track in rows:
        entry = out.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0})
        entry["n"] += 1
        entry["total"] += dur
        entry["self"] += own
    return out


def by_track(spans_by_pid: Dict[int, List[tuple]]) -> Dict[Tuple[int, int], List[tuple]]:
    """Group spans per (process, thread)."""
    tracks: Dict[Tuple[int, int], List[tuple]] = collections.defaultdict(list)
    for pid, spans in spans_by_pid.items():
        for span in spans:
            tracks[(pid, span[5])].append(span)
    return tracks


def coverage(tracks, t_begin: float, t_end: float) -> float:
    """Share of ``[t_begin, t_end]`` during which some work-layer span
    is open on any thread or process."""
    intervals = sorted(
        (max(s[1], t_begin), min(s[2], t_end))
        for spans in tracks.values()
        for s in spans
        if s[0].split(".", 1)[0] in WORK_LAYERS and s[2] > t_begin and s[1] < t_end
    )
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered / (t_end - t_begin) if t_end > t_begin else 0.0


def layer_table(rows: List[tuple], wall: float, labels: Dict[tuple, str]) -> List[str]:
    """Self time per layer on each track (process / thread), then per
    span name over all tracks."""
    per_track: Dict[tuple, Dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    for name, _dur, own, _rid, track in rows:
        per_track[track][name.split(".", 1)[0]] += own
    width = max(len(label) for label in labels.values()) if labels else 5
    lines = [f"{'track':<{width}} {'layer':<9} {'self s':>8} {'% wall':>7}"]
    for track in sorted(per_track, key=lambda t: labels.get(t, "")):
        label = labels.get(track, str(track))
        for layer, own in sorted(per_track[track].items(), key=lambda kv: -kv[1]):
            lines.append(f"{label:<{width}} {layer:<9} {own:8.3f} {100 * own / wall:6.1f}%")
            label = ""
    lines.append(f"{'span':<20} {'calls':>8} {'total s':>9} {'self s':>9}")
    for name, e in sorted(totals(rows).items(), key=lambda kv: -kv[1]["self"]):
        lines.append(f"{name:<20} {e['n']:8d} {e['total']:9.3f} {e['self']:9.3f}")
    return lines


def export_perfetto(path: str, spans_by_pid: Dict[int, List[tuple]],
                    processes: Dict[int, str], threads: Dict[tuple, str]) -> None:
    """Write spans as Chrome trace-event JSON (gzip), which Perfetto
    (ui.perfetto.dev) opens directly; one track per process/thread."""
    t_zero = min((s[1] for spans in spans_by_pid.values() for s in spans), default=0.0)
    events = []
    tids: Dict[tuple, int] = {}
    for pid, spans in spans_by_pid.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": processes.get(pid, f"pid {pid}")}})
        for name, t0, t1, _sid, _parent, thread, rid in spans:
            tid = tids.get((pid, thread))
            if tid is None:
                tid = tids[(pid, thread)] = len(tids) + 1
                events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                               "args": {"name": threads.get((pid, thread), str(thread))}})
            event = {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                     "ts": round((t0 - t_zero) * 1e6, 3),
                     "dur": round((t1 - t0) * 1e6, 3), "pid": pid, "tid": tid}
            if rid is not None:
                event["args"] = {"request": rid}
            events.append(event)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                  separators=(",", ":"))
