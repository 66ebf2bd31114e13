"""Deterministic bounded memos for the world's and the crawl's caches.

Every :class:`~repro.web.worldgen.World` memo (generated sites, host
resolutions, shared URLs) is a pure function of the world seed and the
key, so evicting an entry can never change results -- a miss just
regenerates the same bits. That makes a size bound *bit invisible*:
the only observable difference is time and memory. This module
provides the one primitive all of those caches share, with
hit/miss/eviction counters the observability layer snapshots into the
``world_cache_*`` gauges at the end of a run. :class:`FunctionMemo`
bounds the crawl's per-host tables (registrable domains, fingerprint
masks) the same way, with hits a caller's bare dict lookup.

A hit is one ``dict`` lookup plus a counter; nothing is reordered. On
overflow the oldest insertion is evicted. Insertion order is the
dict's own, so eviction involves no clock and no randomness and a
memo evolves identically across runs and platforms. Once a memo first
overflows, a :class:`~collections.deque` takes over the order: CPython
finds a dict's first live entry by scanning past every entry deleted
before it, which makes ``del d[next(iter(d))]`` cost tens of
microseconds per eviction at the default bounds. Each memo is
process-local: shard workers are processes, so a worker's evictions
never touch the parent's memos.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Any, Callable, Deque, Dict, NamedTuple, Optional

__all__ = [
    "BoundedMemo", "CountMap", "FunctionMemo", "MISSING", "MemoCounts",
    "count_growth", "sum_counts",
]

#: Sentinel distinguishing "key absent" from any cached value,
#: ``None`` included.
MISSING = object()


class MemoCounts(NamedTuple):
    """A memo's counters; every lookup is a hit or a miss."""

    hits: int
    misses: int
    evictions: int
    entries: int


#: :class:`MemoCounts` by memo label.
CountMap = Dict[str, MemoCounts]

_ZERO = MemoCounts(0, 0, 0, 0)


def sum_counts(a: CountMap, b: CountMap) -> CountMap:
    """Label-wise sum of two count maps (a label absent counts zero)."""
    out = dict(a)
    for name, counts in b.items():
        mine = out.get(name)
        out[name] = (
            counts if mine is None
            else MemoCounts(*map(operator.add, mine, counts))
        )
    return out


def count_growth(after: CountMap, before: CountMap) -> CountMap:
    """Label-wise ``after - before`` (a label absent from *before*
    counts zero)."""
    return {
        name: MemoCounts(*map(operator.sub, counts, before.get(name, _ZERO)))
        for name, counts in after.items()
    }


class BoundedMemo:
    """A ``dict`` memo that evicts its oldest insertion past *maxsize*.

    ``maxsize=None`` means unbounded. Replacing the value of a key
    already present keeps the key's place in the eviction order.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data", "_order")

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: Dict[Any, Any] = {}
        #: Keys in insertion order, from the first overflow on.
        self._order: Optional[Deque[Any]] = None

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        data = self._data
        size = len(data)
        data[key] = value
        if len(data) == size:  # replaced a value: its place stands
            return
        if self._order is not None:
            self._order.append(key)
        elif size != self.maxsize:
            return
        else:  # the first overflow: the dict's order, *key* last
            self._order = deque(data)
        del data[self._order.popleft()]
        self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def counts(self) -> MemoCounts:
        return MemoCounts(
            self.hits, self.misses, self.evictions, len(self._data)
        )


class FunctionMemo(BoundedMemo):
    """A :class:`BoundedMemo` of one pure *function*, read on hot paths.

    A hit is the caller's own ``memo.data.get(key)``: one dict lookup
    that counts nothing, so ``hits`` stays 0. Calling the memo answers
    any key, computing, inserting and counting a miss when it is
    absent; hot callers call it only after their lookup missed.
    ``data`` is never rebound, so a caller may hold it across calls.
    """

    __slots__ = ("function", "data")

    def __init__(
        self, function: Callable[[Any], Any], maxsize: Optional[int]
    ) -> None:
        super().__init__(maxsize)
        self.function = function
        self.data = self._data

    def __call__(self, key: Any) -> Any:
        value = self._data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            value = self.function(key)
            self[key] = value
        return value
