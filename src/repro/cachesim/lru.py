"""A real (non-simulated) LRU cache with hit/miss/eviction counters.

The :mod:`repro.cachesim` package started as a *model*: replaying
memory-access traces through :class:`~repro.cachesim.cache.
SetAssociativeCache` to reproduce the paper's cache-miss claims.  This
module graduates the same LRU replacement policy into a production
structure: a bounded mapping used by
:class:`repro.io.bgzf.BgzfReader` to keep recently decompressed BGZF
blocks resident, so repeated and overlapping region queries stop
re-inflating the same 64 KiB blocks.

The counters mirror :class:`~repro.cachesim.cache.CacheStats` (plus an
eviction count) and surface through
:meth:`repro.core.results.RunStats.to_dict` when the pipeline runs
over a :class:`~repro.pipeline.sources.BamSource`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, TypeVar

__all__ = ["LruCache"]

K = TypeVar("K")
V = TypeVar("V")

#: Sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


class LruCache(Generic[K, V]):
    """A bounded mapping with least-recently-used eviction.

    The policy is exactly the one the trace simulator models
    (:mod:`repro.cachesim.cache`): a lookup promotes its key to
    most-recently-used; an insert beyond ``capacity`` evicts the
    least-recently-used entry.  All three event classes are counted.

    Example::

        >>> cache = LruCache(capacity=2)
        >>> cache.put("a", 1); cache.put("b", 2)
        >>> cache.get("a")        # promotes "a" over "b"
        1
        >>> cache.put("c", 3)     # evicts "b", the LRU entry
        >>> "b" in cache
        False
        >>> (cache.hits, cache.misses, cache.evictions)
        (1, 0, 1)

    Args:
        capacity: maximum number of resident entries (positive).

    Raises:
        ValueError: if ``capacity`` is not positive.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        #: lookups that found their key resident
        self.hits = 0
        #: lookups that did not
        self.misses = 0
        #: entries dropped to make room
        self.evictions = 0

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Look up ``key``, promoting it to most-recently-used.

        Counts one hit or one miss; returns ``default`` on a miss.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) ``key`` as the most-recently-used entry,
        evicting the least-recently-used entry if over capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: K) -> bool:
        """Residency probe with no side effects on LRU order or stats."""
        return key in self._entries

    def __len__(self) -> int:
        """Number of resident entries."""
        return len(self._entries)

    def __iter__(self) -> Iterator[K]:
        """Resident keys, least- to most-recently-used."""
        return iter(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters preserved; not counted as
        evictions, matching :meth:`SetAssociativeCache.flush`)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
