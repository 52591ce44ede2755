"""Chunk schedulers modelling OpenMP's ``schedule()`` kinds.

A scheduler hands out work items (genome chunks) to workers.  All three
classic OpenMP policies are implemented so the ablation benchmark can
compare them on a variant-hotspot workload:

* **static** -- chunks pre-assigned round-robin; zero coordination but
  no rebalancing (a worker stuck with the expensive partition drags
  the whole run -- the imbalance visible in the paper's Figure 2);
* **dynamic** -- workers pull the next chunk from a shared queue when
  free (what the paper's branch uses via ``#pragma omp for
  schedule(dynamic)``);
* **guided** -- like dynamic but hands out exponentially shrinking
  spans, "smaller partitions towards the end of the run" per the
  Discussion.

Thread safety: a single lock around the cursor; contention is
negligible at realistic chunk counts.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, TypeVar

__all__ = [
    "StaticScheduler",
    "DynamicScheduler",
    "GuidedScheduler",
    "make_scheduler",
]

T = TypeVar("T")


class StaticScheduler:
    """Round-robin pre-assignment: worker ``w`` gets items
    ``w, w + n_workers, w + 2 n_workers, ...``."""

    name = "static"

    def __init__(self, items: Sequence[T], n_workers: int) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self._items = list(items)
        self._n_workers = n_workers
        self._cursors = list(range(n_workers))

    def next(self, worker: int) -> Optional[T]:
        """The worker's next pre-assigned item, or ``None`` when done."""
        if not (0 <= worker < self._n_workers):
            raise ValueError(f"worker {worker} out of range")
        cursor = self._cursors[worker]
        if cursor >= len(self._items):
            return None
        self._cursors[worker] = cursor + self._n_workers
        return self._items[cursor]


class DynamicScheduler:
    """Shared-queue pull scheduling: first free worker takes the next
    item.  This is ``schedule(dynamic, 1)`` over pre-built chunks."""

    name = "dynamic"

    def __init__(self, items: Sequence[T], n_workers: int) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self._items = list(items)
        self._cursor = 0
        self._lock = threading.Lock()

    def next(self, worker: int) -> Optional[T]:
        """The next unclaimed item for whichever worker asks first, or
        ``None`` when the queue is empty."""
        with self._lock:
            if self._cursor >= len(self._items):
                return None
            item = self._items[self._cursor]
            self._cursor += 1
            return item


class GuidedScheduler:
    """Guided self-scheduling over *contiguous spans* of the item list.

    Each grab takes ``max(min_chunk, remaining / (factor * n_workers))``
    consecutive items, so early grabs are large (low overhead) and the
    tail is fine-grained (good balance).  Returned items are lists of
    the underlying items; the driver flattens them.
    """

    name = "guided"

    def __init__(
        self,
        items: Sequence[T],
        n_workers: int,
        *,
        min_chunk: int = 1,
        factor: float = 2.0,
    ) -> None:
        if min_chunk <= 0:
            raise ValueError(f"min_chunk must be positive, got {min_chunk}")
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self._items = list(items)
        self._cursor = 0
        self._n_workers = max(1, n_workers)
        self._min_chunk = min_chunk
        self._factor = factor
        self._lock = threading.Lock()

    def next(self, worker: int) -> Optional[List[T]]:
        """The next span of consecutive items, shrinking as the list
        drains, or ``None`` when none are left."""
        with self._lock:
            remaining = len(self._items) - self._cursor
            if remaining <= 0:
                return None
            size = max(
                self._min_chunk,
                int(remaining / (self._factor * self._n_workers)),
            )
            size = min(size, remaining)
            span = self._items[self._cursor : self._cursor + size]
            self._cursor += size
            return span


def make_scheduler(kind: str, items: Sequence[T], n_workers: int):
    """Factory: ``"static"`` / ``"dynamic"`` / ``"guided"``.

    Raises:
        ValueError: on an unknown kind.
    """
    if kind == "static":
        return StaticScheduler(items, n_workers)
    if kind == "dynamic":
        return DynamicScheduler(items, n_workers)
    if kind == "guided":
        return GuidedScheduler(items, n_workers)
    raise ValueError(f"unknown scheduler kind {kind!r}")
