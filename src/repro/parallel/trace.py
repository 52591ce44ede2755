"""Per-worker execution tracing and the ASCII timeline (Figure 2).

The paper profiles its OpenMP build with HPC-Toolkit and reads off a
trace: per-thread timelines coloured by activity (pink = probability
computation, teal = BAM iteration, light blue = decompression, dark
green = barrier), with one straggler thread visibly dragging the
barrier.  :class:`Tracer` collects the same event structure from our
workers; :func:`render_timeline` draws it as text; and
:func:`imbalance_metrics` quantifies what the picture shows (max/mean
busy time, barrier waits, per-category shares).
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Category",
    "TraceEvent",
    "Tracer",
    "render_timeline",
    "imbalance_metrics",
]


class Category(enum.Enum):
    """Activity categories matching the paper's Figure 2 legend."""

    DECOMPRESS = "decompress"  # light blue: BGZF block inflation
    BAM_ITER = "bam_iter"  # teal: record decoding / pileup build
    PROB = "prob"  # pink: Poisson-binomial / Poisson computation
    BARRIER = "barrier"  # dark green: waiting at the end barrier
    SCHED = "sched"  # scheduler interaction (tiny, by design)


#: One display character per category for the text timeline.
_CATEGORY_CHAR: Dict[Category, str] = {
    Category.DECOMPRESS: "d",
    Category.BAM_ITER: "b",
    Category.PROB: "P",
    Category.BARRIER: "=",
    Category.SCHED: "s",
}


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """A half-open time interval of one worker doing one activity."""

    worker: int
    category: Category
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds between ``start`` and ``end``."""
        return self.end - self.start


class Tracer:
    """Thread-safe event collector.

    Use either :meth:`record` with explicit timestamps or the
    :meth:`span` context manager::

        with tracer.span(worker_id, Category.PROB):
            ... compute ...
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self.t0 = time.perf_counter()

    def record(
        self, worker: int, category: Category, start: float, end: float
    ) -> None:
        """Record an interval (perf_counter timestamps)."""
        with self._lock:
            self._events.append(TraceEvent(worker, category, start, end))

    def span(self, worker: int, category: Category) -> "_Span":
        """A context manager that records its body's interval as one
        ``category`` event of ``worker``."""
        return _Span(self, worker, category)

    @property
    def events(self) -> List[TraceEvent]:
        """A snapshot copy of the events recorded so far."""
        with self._lock:
            return list(self._events)

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's events in (process-backend workers
        return their tracers by value)."""
        with self._lock:
            self._events.extend(other.events)


class _Span:
    """Context manager recording one interval on exit."""

    def __init__(self, tracer: Tracer, worker: int, category: Category) -> None:
        self._tracer = tracer
        self._worker = worker
        self._category = category
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.record(
            self._worker, self._category, self._start, time.perf_counter()
        )


def render_timeline(
    events: Sequence[TraceEvent],
    *,
    width: int = 100,
    n_workers: Optional[int] = None,
) -> str:
    """Render events as an ASCII trace: one row per worker, one
    character per time bucket showing the bucket's dominant category.

    Legend: ``d`` decompress, ``b`` bam-iter, ``P`` probability,
    ``=`` barrier, ``s`` scheduler, ``.`` idle.
    """
    if not events:
        return "(no events)"
    t_min = min(e.start for e in events)
    t_max = max(e.end for e in events)
    span = max(t_max - t_min, 1e-12)
    workers = n_workers or (max(e.worker for e in events) + 1)
    # accumulate per (worker, bucket, category) time
    acc: Dict[tuple, float] = {}
    for e in events:
        b0 = int((e.start - t_min) / span * width)
        b1 = int((e.end - t_min) / span * width)
        b1 = min(b1, width - 1)
        for b in range(b0, b1 + 1):
            bucket_start = t_min + b * span / width
            bucket_end = bucket_start + span / width
            overlap = min(e.end, bucket_end) - max(e.start, bucket_start)
            if overlap > 0:
                key = (e.worker, b, e.category)
                acc[key] = acc.get(key, 0.0) + overlap
    rows = []
    for w in range(workers):
        chars = []
        for b in range(width):
            best: Optional[Category] = None
            best_t = 0.0
            for cat in Category:
                t = acc.get((w, b, cat), 0.0)
                if t > best_t:
                    best, best_t = cat, t
            chars.append(_CATEGORY_CHAR[best] if best else ".")
        rows.append(f"T{w:02d} |{''.join(chars)}|")
    header = (
        f"trace: {span * 1e3:.1f} ms total, {workers} workers  "
        "[d=decompress b=bam P=prob ==barrier s=sched .=idle]"
    )
    return "\n".join([header] + rows)


def imbalance_metrics(events: Sequence[TraceEvent]) -> Dict[str, float]:
    """Quantify the trace.

    Returns a dict with:
        * ``busy_max`` / ``busy_mean`` / ``imbalance`` -- per-worker
          non-barrier busy time and the OpenMP imbalance ratio
          ``busy_max / busy_mean`` (1.0 = perfect balance);
        * ``barrier_total`` -- total time spent in barriers;
        * ``share_<category>`` -- fraction of all busy time per
          category (the paper: prob + bam dominate, sched minimal).
    """
    if not events:
        return {}
    busy: Dict[int, float] = {}
    by_cat: Dict[Category, float] = {c: 0.0 for c in Category}
    for e in events:
        by_cat[e.category] += e.duration
        if e.category is not Category.BARRIER:
            busy[e.worker] = busy.get(e.worker, 0.0) + e.duration
    busy_values = list(busy.values()) or [0.0]
    busy_mean = sum(busy_values) / len(busy_values)
    busy_max = max(busy_values)
    total_busy = sum(
        t for c, t in by_cat.items() if c is not Category.BARRIER
    )
    out: Dict[str, float] = {
        "busy_max": busy_max,
        "busy_mean": busy_mean,
        "imbalance": busy_max / busy_mean if busy_mean > 0 else 1.0,
        "barrier_total": by_cat[Category.BARRIER],
    }
    for cat in Category:
        if cat is Category.BARRIER:
            continue
        out[f"share_{cat.value}"] = (
            by_cat[cat] / total_busy if total_busy > 0 else 0.0
        )
    return out
