"""Storage-substrate benchmarks: shredding throughput and SQL keyword lookup.

Section 5.2 measures nothing about the shredding store itself, but the paper's
pipeline depends on it (keyword nodes come back from SQL).  These benchmarks
document the cost of the substitution (sqlite3 instead of PostgreSQL) and
check that the posting sources' stage-1 lookups, the only reads of a store's
rows, agree with the in-memory index.
"""

from __future__ import annotations

import pytest

from repro.index import InvertedIndex
from repro.storage import SQLitePostingSource, SQLiteStore, shred_tree


@pytest.fixture(scope="module")
def dblp_tree(engines):
    return engines["dblp"].tree


@pytest.fixture(scope="module")
def stores(dblp_tree):
    """The document in a store's base tables, and in another store's delta
    segment (stored, then shadowed by an identical update)."""
    sqlite_store = SQLiteStore()
    sqlite_store.store_tree(dblp_tree, "dblp")
    segmented_store = SQLiteStore()
    segmented_store.store_tree(dblp_tree, "dblp")
    segmented_store.update_document(dblp_tree, "dblp")
    return {"sqlite": sqlite_store, "segmented": segmented_store}


def test_benchmark_shredding(benchmark, dblp_tree):
    benchmark.group = "storage-shred"
    benchmark.name = "shred_tree-dblp"
    shredded = benchmark(lambda: shred_tree(dblp_tree, "dblp"))
    assert shredded.node_count == dblp_tree.size()


def test_benchmark_sqlite_bulk_load(benchmark, dblp_tree):
    benchmark.group = "storage-load"
    benchmark.name = "sqlite-store_tree"
    shredded = shred_tree(dblp_tree, "dblp")

    def load():
        with SQLiteStore() as store:
            store.store_shredded(shredded)
            return store.document_stats("dblp")["nodes"]

    assert benchmark(load) == dblp_tree.size()


@pytest.mark.parametrize("backend", ["sqlite", "segmented", "inverted-index"])
def test_benchmark_keyword_lookup(benchmark, backend, stores, engines):
    """Stage 1 (getKeywordNodes) served by each backend.

    The disk sources run with their posting LRU off, so every round reads
    the packed blobs from the store.
    """
    keywords = ["xml", "keyword", "data", "retrieval", "algorithm"]
    benchmark.group = "storage-keyword-lookup"
    benchmark.name = backend
    if backend == "inverted-index":
        index = engines["dblp"].source
        benchmark(lambda: index.keyword_nodes(keywords))
        return
    source = SQLitePostingSource(stores[backend], "dblp", lru_size=0)
    lists = benchmark(lambda: source.keyword_nodes(keywords))
    assert list(lists) == keywords
    assert source.read_stats()["lru_hits"] == 0


def test_backends_agree_with_index(stores, engines):
    index: InvertedIndex = engines["dblp"].source
    for backend, store in stores.items():
        source = SQLitePostingSource(store, "dblp")
        for keyword in ("xml", "keyword", "data", "vldb", "henry"):
            expected = index.keyword_nodes([keyword])[keyword]
            assert source.keyword_nodes([keyword])[keyword] == expected, \
                (backend, keyword)
            assert source.impact(keyword).count == len(expected), \
                (backend, keyword)
        stats = source.read_stats()
        read_from = "segment_reads" if backend == "segmented" else "base_reads"
        assert stats[read_from] == stats["packed_fetches"] > 0, backend
