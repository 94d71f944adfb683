"""Byte-budgeted LRU block cache for the query engine.

Queries touch tiles, not the whole matrix: a point query needs one
block, a k-nearest scan one block row.  The cache keeps the hottest
tiles materialized in memory under a byte budget and evicts in strict
least-recently-used order; everything it does is visible on the
``serve.cache.*`` metrics (hits / misses / evictions / resident bytes),
so cache tuning is a measurement, not a guess (docs/SERVING.md).

A tile larger than the whole budget is served pass-through: it still
counts as a miss and is handed to the caller, but is never admitted
(``serve.cache.oversize`` counts these), so one huge tile cannot flush
the working set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = ["BlockCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget (64 MiB): thousands of 128 x 128 float64 tiles.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


class BlockCache:
    """An LRU mapping of block keys to arrays under a byte budget."""

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES, metrics=None):
        if not isinstance(capacity_bytes, int) or isinstance(capacity_bytes, bool):
            raise ConfigurationError(
                f"cache capacity must be an int, got {capacity_bytes!r}"
            )
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be > 0 bytes, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0
        self._metrics = metrics

    # -- core -------------------------------------------------------------
    def get(self, key: Hashable, loader: Callable[[], np.ndarray]) -> np.ndarray:
        """The cached array for ``key``, calling ``loader`` on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if self._metrics is not None:
                self._metrics.counter("serve.cache.hits").inc()
            return entry
        self.misses += 1
        if self._metrics is not None:
            self._metrics.counter("serve.cache.misses").inc()
        data = loader()
        self._admit(key, data)
        return data

    def _admit(self, key: Hashable, data: np.ndarray) -> None:
        nbytes = int(data.nbytes)
        if nbytes > self.capacity_bytes:
            self.oversize += 1
            if self._metrics is not None:
                self._metrics.counter("serve.cache.oversize").inc()
        else:
            while self._bytes + nbytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= int(evicted.nbytes)
                self.evictions += 1
                if self._metrics is not None:
                    self._metrics.counter("serve.cache.evictions").inc()
            self._entries[key] = data
            self._bytes += nbytes
        if self._metrics is not None:
            self._metrics.gauge("serve.cache.bytes").set(self._bytes)
            self._metrics.gauge("serve.cache.blocks").set(len(self._entries))

    def put(self, key: Hashable, data: np.ndarray) -> None:
        """Hold ``data`` as ``key``'s entry (after a block rewrite),
        replacing any held one; admitted like a loaded tile, so an
        oversize one is dropped and counted."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= int(entry.nbytes)
        self._admit(key, data)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        if self._metrics is not None:
            self._metrics.gauge("serve.cache.bytes").set(0)
            self._metrics.gauge("serve.cache.blocks").set(0)

    # -- introspection ----------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "oversize": self.oversize,
            "hit_rate": self.hit_rate,
            "resident_bytes": self._bytes,
            "resident_blocks": len(self._entries),
            "capacity_bytes": self.capacity_bytes,
        }
