"""Ablation — the query-result cache and the ``search_many`` batch fast path.

Benchmark workloads repeat every query several times per repetition, which the
seed harness paid full pipeline cost for.  This ablation measures (a) a cold
``search`` loop, (b) the same loop on a cache-enabled engine, and (c) the
``search_many`` batch API, and checks the cache statistics counters account
for exactly the reuse observed.

Run with ``pytest benchmarks/test_cache_ablation.py --benchmark-only`` for the
timing panels, or without ``--benchmark-only`` for the semantics checks.
"""

from __future__ import annotations

import pytest

from repro.bench import alternating_passes
from repro.core import SearchEngine

from .conftest import REPETITIONS, representative_queries


@pytest.fixture(scope="module")
def workload_texts(dataset_specs):
    return [query.text for query in dataset_specs["dblp"].workload]


@pytest.fixture(scope="module")
def cached_dblp_engine(dataset_specs):
    return SearchEngine(dataset_specs["dblp"].tree_factory(), cache_size=256)


def test_benchmark_search_uncached(benchmark, engines, dataset_specs):
    query = representative_queries(dataset_specs["dblp"], count=2)[1]
    engine = engines["dblp"]
    benchmark.group = "ablation-cache"
    benchmark.name = "search-uncached"
    benchmark(lambda: engine.search(query.text, "validrtf"))


def test_benchmark_search_cached(benchmark, cached_dblp_engine, dataset_specs):
    query = representative_queries(dataset_specs["dblp"], count=2)[1]
    benchmark.group = "ablation-cache"
    benchmark.name = "search-cached"
    benchmark(lambda: cached_dblp_engine.search(query.text, "validrtf"))


def test_benchmark_batch_uncached(benchmark, engines, workload_texts):
    engine = engines["dblp"]
    benchmark.group = "ablation-cache-workload"
    benchmark.name = "search_many-uncached"
    benchmark(lambda: engine.search_many(workload_texts, "validrtf"))


def test_benchmark_batch_cached(benchmark, cached_dblp_engine, workload_texts):
    benchmark.group = "ablation-cache-workload"
    benchmark.name = "search_many-cached"
    benchmark(lambda: cached_dblp_engine.search_many(workload_texts, "validrtf"))


def test_cache_speedup_and_accounting(dataset_specs, workload_texts):
    """The cached workload pass beats the cold loop, answers identically, and
    the hit/miss counters account for every query of every pass."""
    tree = dataset_specs["dblp"].tree_factory()
    uncached = SearchEngine(tree)
    cached = SearchEngine(tree, cache_size=256)

    cold_passes, hot_passes = alternating_passes(
        [lambda: [uncached.search(text) for text in workload_texts],
         lambda: cached.search_many(workload_texts, "validrtf")],
        REPETITIONS)
    cold = sum(cold_passes) / REPETITIONS
    hot = sum(hot_passes) / REPETITIONS

    stats = cached.cache_stats()
    assert stats.misses == len(workload_texts)   # the warm-up pass only
    assert stats.hits == REPETITIONS * len(workload_texts)
    for text in workload_texts:
        assert cached.search(text).fragments == uncached.search(text).fragments
    print(f"\nablation-cache: cold loop {cold * 1000:.1f} ms vs cached batch "
          f"{hot * 1000:.1f} ms per pass over {len(workload_texts)} queries "
          f"({stats})")
    assert hot < cold, (hot, cold)
