"""Shared query-result cache for the search fast path.

Benchmark workloads (the Figure 5/6 drivers, the ablation suite, any
repeated-traffic scenario) re-execute identical queries many times.  Every
stage after ``getKeywordNodes`` is a pure function of the document, so the
complete :class:`~repro.core.fragments.SearchResult` of a query can be reused
as long as the cache key captures everything the answer depends on:

* the algorithm name (each pipeline prunes differently),
* the normalized keyword tuple (so ``"XML search"`` and ``["xml", "search"]``
  share one entry),
* the backend identity (``PostingSource.source_id``), so results computed
  against one posting backend are never replayed for another (backends must
  agree — the parity suite enforces it — but distinct stores behind one
  shared cache must not mix).  Note the identity names the backend, not its
  contents: after re-ingesting a database in place, call ``clear_cache()``.

The cache is a classic LRU over an :class:`collections.OrderedDict` with
hit/miss/eviction counters so benchmarks can report exactly how much work was
skipped.

The cache is thread-safe: one lock serializes every operation, so engines
shared by the concurrent serving layer (:mod:`repro.service`) never corrupt
the recency order or lose counter increments.  The critical sections are a
handful of dictionary operations, so the serial path pays only an uncontended
lock acquire per lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from .fragments import SearchResult
from .query import Query

#: A fully-resolved cache key:
#: (algorithm, normalized keywords, backend identity).
CacheKey = Tuple[str, Tuple[str, ...], str]


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __str__(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions} size={self.size}/{self.max_size} "
                f"hit_rate={self.hit_rate:.2%}")


class QueryResultCache:
    """LRU cache mapping ``(algorithm, keywords, backend)`` -> result.

    One engine owns each cache, and an engine's content-feature mode is
    fixed when it is built, so the mode is not part of the key.

    Parameters
    ----------
    max_size:
        Maximum number of cached results; must be positive.  The least
        recently *used* (read or written) entry is evicted on overflow.
    """

    def __init__(self, max_size: int = 128):
        if max_size <= 0:
            raise ValueError(f"cache max_size must be positive, got {max_size}")
        self.max_size = max_size
        self._entries: "OrderedDict[CacheKey, SearchResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # Key construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(algorithm: str, query: Query, backend: str) -> CacheKey:
        """The cache key of one (already parsed/normalized) query.

        ``backend`` is the serving source's ``source_id``.
        """
        return (algorithm, query.keywords, backend)

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> Optional[SearchResult]:
        """The cached result for ``key``, or ``None``; counts a hit/miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, key: CacheKey, result: SearchResult) -> None:
        """Insert (or refresh) one result, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            if len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def peek(self, key: CacheKey) -> Optional[SearchResult]:
        """Like :meth:`get` but without touching recency or the counters."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries are preserved)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the current counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return f"QueryResultCache({self.stats})"
