"""Deterministic bounded LRU mapping for the world's memo caches.

Every :class:`~repro.web.worldgen.World` memo (generated sites, host
resolutions, visit plans, shared URLs) is a pure function of the world
seed and the key, so evicting an entry can never change results -- a
miss just regenerates the same bits. That makes an LRU bound *bit
invisible*: the only observable difference is time and memory. This
module provides the one primitive all of those caches share, with
hit/miss/eviction counters the observability layer snapshots into the
``world_cache_*`` gauges at the end of a run.

Eviction order is pure access order (no wall clock, no randomness):
``dict``/``OrderedDict`` iteration order is an explicit language
guarantee, so a bounded cache evolves identically across runs and
platforms. Each cache is process-local: shard workers are processes,
so a worker's evictions never touch the parent's caches. Mutating steps
are still defensive (a key evicted between a read and its touch never
raises); values are pure regenerable memos, so an interleaved caller
could only make counters undercount, never change a result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, Optional

__all__ = ["BoundedLRU", "MISSING"]

#: Sentinel distinguishing "key absent" from a cached ``None`` value
#: (the host cache memoizes negative lookups as ``None``).
MISSING = object()


class BoundedLRU:
    """Access-ordered mapping with a deterministic size bound.

    ``maxsize=None`` means unbounded -- byte-for-byte the behavior of
    the plain ``dict`` it replaces, minus nothing. A bounded instance
    evicts the least-recently-used entry on overflow and reports the
    eviction through :attr:`evictions` and the optional ``on_evict``
    callback (used to keep sibling memos, e.g. domain->rank, from
    pinning evicted values).
    """

    __slots__ = ("maxsize", "on_evict", "hits", "misses", "evictions", "_data")

    def __init__(
        self,
        maxsize: Optional[int] = None,
        on_evict: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.maxsize = maxsize
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    # Mapping interface (drop-in for the plain dicts it replaces)
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        self._touch(key)
        return value

    def __getitem__(self, key: Any) -> Any:
        value = self._data[key]
        self.hits += 1
        self._touch(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._touch(key)
        maxsize = self.maxsize
        if maxsize is None:
            return
        while len(self._data) > maxsize:
            try:
                evicted_key, evicted_value = self._data.popitem(last=False)
            except KeyError:  # an interleaved caller emptied the cache
                break
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_value)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __delitem__(self, key: Any) -> None:
        del self._data[key]

    def pop(self, key: Any, default: Any = MISSING) -> Any:
        if default is MISSING:
            return self._data.pop(key)
        return self._data.pop(key, default)

    def setdefault(self, key: Any, value: Any) -> Any:
        existing = self.get(key, MISSING)
        if existing is not MISSING:
            return existing
        self[key] = value
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    # ------------------------------------------------------------------
    def _touch(self, key: Any) -> None:
        if self.maxsize is None:
            # Unbounded caches skip recency bookkeeping entirely; the
            # OrderedDict degenerates to insertion order, like the
            # plain dicts these replaced.
            return
        try:
            self._data.move_to_end(key)
        except KeyError:  # evicted between the read and this touch
            pass

