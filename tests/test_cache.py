"""Tests for the query-result cache.

Covers the :class:`QueryResultCache` LRU/statistics semantics on their own,
the cache wiring inside :class:`SearchEngine` (cached and uncached searches
must return identical results; one engine owns its cache and builds every
record tree in one fixed content-feature mode), and a ``search`` loop over
a repeated workload — the speedup the cache statistics make visible.
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    ALGORITHM_NAMES,
    Query,
    QueryResultCache,
    SearchEngine,
    SearchResult,
    UnknownAlgorithmError,
)
from repro.datasets import PAPER_QUERIES


def make_result(name: str) -> SearchResult:
    return SearchResult(query=Query.parse(name), algorithm="validrtf",
                        fragments=())


def key(name: str) -> tuple:
    return QueryResultCache.key_for("validrtf", Query.parse(name), "memory")


# ---------------------------------------------------------------------- #
# QueryResultCache unit behaviour
# ---------------------------------------------------------------------- #
class TestQueryResultCache:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            QueryResultCache(0)
        with pytest.raises(ValueError):
            QueryResultCache(-3)

    def test_miss_then_hit(self):
        cache = QueryResultCache(4)
        assert cache.get(key("alpha")) is None
        result = make_result("alpha")
        cache.put(key("alpha"), result)
        assert cache.get(key("alpha")) is result
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_key_includes_algorithm_and_backend(self):
        query = Query.parse("alpha beta")
        keys = {QueryResultCache.key_for(algorithm, query, backend)
                for algorithm in ("validrtf", "maxmatch")
                for backend in ("memory", "sqlite::memory:#doc")}
        assert len(keys) == 4

    def test_key_normalizes_query_forms(self):
        # The same logical query in different spellings shares one key.
        assert key("Alpha  Beta") == key(["alpha", "beta"])

    def test_lru_eviction_order(self):
        cache = QueryResultCache(2)
        cache.put(key("a"), make_result("a"))
        cache.put(key("b"), make_result("b"))
        assert cache.get(key("a")) is not None   # refresh "a": "b" is now LRU
        cache.put(key("c"), make_result("c"))    # evicts "b"
        assert key("b") not in cache
        assert key("a") in cache and key("c") in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = QueryResultCache(2)
        first, second = make_result("a"), make_result("a")
        cache.put(key("a"), first)
        cache.put(key("b"), make_result("b"))
        cache.put(key("a"), second)              # refresh, not insert
        cache.put(key("c"), make_result("c"))    # evicts "b", not "a"
        assert cache.get(key("a")) is second
        assert key("b") not in cache
        assert len(cache) == 2

    def test_clear_keeps_the_counters(self):
        cache = QueryResultCache(2)
        cache.put(key("a"), make_result("a"))
        cache.get(key("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1             # counters survive clear()


# ---------------------------------------------------------------------- #
# SearchEngine wiring
# ---------------------------------------------------------------------- #
def assert_same_answer(left: SearchResult, right: SearchResult) -> None:
    """Byte-identical answers modulo the measured wall-clock time."""
    assert left.query == right.query
    assert left.algorithm == right.algorithm
    assert left.lca_nodes == right.lca_nodes
    assert left.fragments == right.fragments


class TestEngineCache:
    def test_disabled_by_default(self, publications):
        engine = SearchEngine(publications)
        assert not engine.cache_enabled
        stats = engine.cache_stats()
        assert (stats.hits, stats.misses, stats.max_size) == (0, 0, 0)
        engine.clear_cache()  # no-op, must not raise

    def test_repeat_query_is_a_hit(self, publications):
        engine = SearchEngine(publications, cache_size=8)
        first = engine.search(PAPER_QUERIES["Q2"])
        second = engine.search(PAPER_QUERIES["Q2"])
        assert second is first
        stats = engine.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_cached_equals_uncached_per_algorithm(self, publications, algorithm):
        cached = SearchEngine(publications, cache_size=16)
        uncached = SearchEngine(publications)
        for query in ("xml keyword search", "liu keyword", PAPER_QUERIES["Q2"]):
            for _ in range(2):  # the second pass answers from the cache
                assert_same_answer(cached.search(query, algorithm),
                                   uncached.search(query, algorithm))

    def test_algorithms_do_not_share_entries(self, publications):
        engine = SearchEngine(publications, cache_size=8)
        validrtf = engine.search("xml keyword search", "validrtf")
        maxmatch = engine.search("xml keyword search", "maxmatch")
        assert validrtf.algorithm == "validrtf"
        assert maxmatch.algorithm == "maxmatch"
        assert engine.cache_stats().misses == 2

    def test_unknown_algorithm_still_rejected(self, publications):
        engine = SearchEngine(publications, cache_size=8)
        with pytest.raises(UnknownAlgorithmError):
            engine.search("xml", algorithm="bogus")

    def test_query_spellings_share_one_entry(self, publications):
        engine = SearchEngine(publications, cache_size=8)
        first = engine.search("XML  Keyword Search")
        second = engine.search(["xml", "keyword", "search"])
        assert second is first


# ---------------------------------------------------------------------- #
# A search loop over a repeated workload
# ---------------------------------------------------------------------- #
class TestRepeatedSearches:
    def test_unmatched_keyword_yields_empty_result(self, publications):
        engine = SearchEngine(publications)
        assert engine.search("xml").count > 0
        assert engine.search("zzzunmatchedzzz").count == 0

    def test_cache_hits_across_passes(self, small_dblp):
        engine = SearchEngine(small_dblp, cache_size=32)
        queries = ["xml keyword", "database query", "xml keyword"]
        for query in queries:
            engine.search(query)
        stats = engine.cache_stats()
        assert (stats.hits, stats.misses) == (1, 2)
        for query in queries:
            engine.search(query)
        stats = engine.cache_stats()
        assert (stats.hits, stats.misses) == (4, 2)

    def test_repeated_workload_speedup(self, small_dblp):
        """Acceptance check: a cached ``search`` loop beats the uncached
        one on a repeated-query workload, with identical answers and the
        reuse made visible by the cache statistics counters."""
        unique = ["xml keyword", "database query", "query processing",
                  "xml database"]
        passes = 5

        uncached = SearchEngine(small_dblp)
        started = time.perf_counter()
        looped = [uncached.search(query)
                  for _ in range(passes) for query in unique]
        uncached_seconds = time.perf_counter() - started

        cached = SearchEngine(small_dblp, cache_size=64)
        started = time.perf_counter()
        repeated = [cached.search(query)
                    for _ in range(passes) for query in unique]
        cached_seconds = time.perf_counter() - started

        for slow, fast in zip(looped, repeated):
            assert_same_answer(slow, fast)
        stats = cached.cache_stats()
        assert stats.misses == len(unique)
        assert stats.hits == (passes - 1) * len(unique)
        assert cached_seconds < uncached_seconds, (
            f"cached loop ({cached_seconds:.4f}s) not faster than uncached "
            f"loop ({uncached_seconds:.4f}s) despite {stats.hits} cache hits")


# ---------------------------------------------------------------------- #
# Thread safety (the serving layer shares one cache across workers)
# ---------------------------------------------------------------------- #
class TestCacheThreadSafety:
    def test_concurrent_hammer_preserves_invariants(self):
        """Many threads get/put/clear one small cache; nothing corrupts.

        The LRU must never exceed its capacity, every returned value must be
        the one stored under its key (no cross-key bleed), and no counter
        increment may be lost: with ``threads * iterations`` ``get`` calls
        in total, the hit+miss sum must equal exactly that.
        """
        import threading

        cache = QueryResultCache(8)
        names = [f"kw{i}" for i in range(24)]
        results = {name: make_result(name) for name in names}
        threads, iterations = 8, 400
        errors = []
        barrier = threading.Barrier(threads)

        def hammer(seed: int) -> None:
            try:
                barrier.wait()
                for step in range(iterations):
                    name = names[(seed * 7 + step) % len(names)]
                    got = cache.get(key(name))
                    if got is None:
                        cache.put(key(name), results[name])
                    elif got is not results[name]:
                        raise AssertionError(
                            f"cache returned another query's result for {name}")
                    if step % 97 == 0:
                        cache.clear()
                    if len(cache) > cache.max_size:
                        raise AssertionError("LRU exceeded its capacity")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=hammer, args=(index,))
                   for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors, errors
        stats = cache.stats
        assert stats.hits + stats.misses == threads * iterations
        assert len(cache) <= cache.max_size
