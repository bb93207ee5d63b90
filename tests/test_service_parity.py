"""Service parity: answers through the TCP front end are byte-identical.

The serving-layer counterpart of ``tests/test_backend_parity.py`` and the
convention new service endpoints must follow (see ROADMAP, Serving layer):
for every posting backend and every algorithm, the canonical payload a
client receives over the wire must be **byte-identical** (canonical JSON
encoding) to serializing a direct :meth:`CorpusSearchEngine.search` on the
same backend — batching, pooling and admission must be completely
transparent.  A single-document backend serves a one-document corpus, so
its reference is one too.  The matrix also serves both datasets from one
segmented corpus database, the ``serve --db --backend corpus`` path, diffed
against a direct :meth:`CorpusSearchEngine.from_store` engine over the same
file.

The concurrent-hammer test drives one server from many threads with
distinct per-thread queries and asserts every response matches its own
query's expected payload — i.e. the batcher never bleeds one request's
answer into another's.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import ALGORITHM_NAMES
from repro.corpus import CorpusSearchEngine, corpus_from_store
from repro.datasets import PAPER_QUERIES, publications_tree, team_tree
from repro.service import (
    EnginePool,
    SearchService,
    ServerThread,
    ServiceClient,
    ServiceError,
    comparison_payload,
    encode_message,
    rank_stats_payload,
    ranking_payload,
    result_payload,
)
from repro.storage import SQLiteStore
from repro.xmltree import parse_string, to_xml_string

BACKENDS = ("memory", "sqlite")
#: Everything the parity matrix serves: the single-document backends plus
#: ``corpus-db``, one database holding both datasets.
SERVED = BACKENDS + ("corpus-db",)

#: (dataset fixture name, golden paper queries) the parity matrix runs over.
DATASETS = (
    ("publications", ("Q1", "Q2", "Q3")),
    ("team", ("Q4", "Q5")),
)


def build_reference_engine(tree, backend: str,
                           name: str) -> CorpusSearchEngine:
    """A direct (unserved) one-document corpus for one backend — the truth
    the served payloads are diffed against."""
    if backend == "memory":
        return CorpusSearchEngine.from_trees({name: tree})
    if backend == "sqlite":
        store = SQLiteStore()
        store.store_tree(tree, name)
        return CorpusSearchEngine(corpus_from_store(store))
    raise ValueError(backend)


@pytest.fixture(scope="module")
def served(publications, team, tmp_path_factory):
    """One running server (and reference engine) per (dataset, backend);
    both datasets' ``corpus-db`` entries share the one corpus server."""
    trees = {"publications": publications, "team": team}
    servers = {}
    pools = []
    for dataset, tree in trees.items():
        for backend in BACKENDS:
            pool = EnginePool.for_backend(backend, tree=tree, workers=2,
                                          document=dataset)
            pools.append(pool)
            server = ServerThread(pool).start()
            reference = build_reference_engine(tree, backend, dataset)
            servers[(dataset, backend)] = (server, reference)
    db = str(tmp_path_factory.mktemp("served") / "corpus.db")
    store = SQLiteStore(db)
    for dataset, tree in trees.items():
        store.store_tree(tree, dataset)
    pool = EnginePool.for_backend("corpus", db_path=db, workers=2)
    pools.append(pool)
    server = ServerThread(pool).start()
    reference = CorpusSearchEngine.from_store(store)
    for dataset in trees:
        servers[(dataset, "corpus-db")] = (server, reference)
    yield servers
    for server, _ in servers.values():
        server.stop()
    for pool in pools:
        pool.shutdown()
    store.close()


# ---------------------------------------------------------------------- #
# The parity matrix: datasets x algorithms x backends, byte-identical
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", SERVED)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("dataset,query_names", DATASETS)
def test_served_search_is_byte_identical(served, dataset, query_names,
                                         algorithm, backend):
    server, reference = served[(dataset, backend)]
    with ServiceClient(*server.address) as client:
        for query_name in query_names:
            query = PAPER_QUERIES[query_name]
            over_the_wire = client.search(query, algorithm)
            direct = result_payload(reference.search(query, algorithm))
            assert encode_message(over_the_wire) == encode_message(direct), (
                dataset, query_name, algorithm, backend)


@pytest.mark.parametrize("backend", SERVED)
def test_served_compare_is_byte_identical(served, backend):
    server, reference = served[("publications", backend)]
    with ServiceClient(*server.address) as client:
        query = PAPER_QUERIES["Q2"]
        over_the_wire = client.compare(query)
        direct = comparison_payload(reference.compare(query))
        assert encode_message(over_the_wire) == encode_message(direct)


@pytest.mark.parametrize("cid_mode", ("minmax", "exact"))
@pytest.mark.parametrize("op", ("search", "compare", "rank"))
@pytest.mark.parametrize("backend", SERVED)
def test_removed_cid_mode_is_a_bad_request(served, backend, op, cid_mode):
    """Every served record tree uses the (min, max) cID, and the
    per-request ``cid_mode`` option is gone.  A request still carrying it,
    even with the one mode served, answers the typed ``bad_request`` naming
    the option: ignoring the key would answer a client that asked for
    ``exact`` with (min, max) results."""
    server, _ = served[("publications", backend)]
    with ServiceClient(*server.address) as client:
        response = client.request({"op": op, "query": PAPER_QUERIES["Q2"],
                                   "cid_mode": cid_mode, "id": 5})
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_request"
    assert "cid_mode" in response["error"]["message"]
    assert response["id"] == 5


# ---------------------------------------------------------------------- #
# Typed errors over the wire
# ---------------------------------------------------------------------- #
def test_unknown_algorithm_is_typed(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.search("xml", algorithm="bogus")
        assert excinfo.value.code == "unknown_algorithm"


def test_bad_query_is_typed(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        response = client.request({"op": "search"})  # no query at all
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        response = client.request({"op": "search", "query": "   "})
        assert response["error"]["code"] == "bad_request"
        response = client.request({"op": "nonsense", "id": 9})
        assert response["error"]["code"] == "bad_request"
        assert response["id"] == 9  # request ids echo on errors too


# ---------------------------------------------------------------------- #
# Introspection ops over the wire: ping, stats, algorithms
# ---------------------------------------------------------------------- #
def test_ping_answers_pong(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        assert client.ping() is True
        response = client.request({"op": "ping", "id": 3})
        assert response == {"ok": True, "pong": True, "id": 3}


def test_stats_reports_every_layer(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q1"])
        stats = client.stats()
    assert set(stats) == {"pool", "batcher", "admission", "server"}
    assert stats["pool"]["workers"] == 2
    assert stats["pool"]["backend"] == "corpus[publications=memory]"
    assert stats["server"]["requests"].get("search", 0) >= 1


def test_stats_wire_response_is_byte_identical(served):
    """The stats op answers exactly what a direct service call computes.

    Introspection ops record no metrics of their own, so the wire response
    and the locally recomputed payload must agree byte for byte.
    """
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q1"])
        over_the_wire = client.request({"op": "stats"})
    direct = {"ok": True, "stats": server.service.stats(),
              "metrics": server.service.metrics_snapshot()}
    assert encode_message(over_the_wire) == encode_message(direct)


def test_stats_metrics_snapshot_reaches_the_wire(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q1"])
        metrics = client.metrics()
    assert set(metrics) == {"counters", "gauges", "histograms"}
    counters = metrics["counters"]
    assert counters.get("batcher.requests", 0) >= 1
    assert counters.get("admission.admitted", 0) >= 1
    assert counters.get('server.requests{op="search"}', 0) >= 1
    # Engine-level series cross the pool-worker merge into the snapshot.
    assert any(key.startswith("query.count") for key in counters)


@pytest.mark.parametrize("backend", SERVED)
def test_stats_report_the_served_pool(served, backend):
    """A client learns the server's setup from the server: the pool's own
    worker count and the served corpus's source identity, which names
    every document and its posting backend."""
    server, reference = served[("publications", backend)]
    with ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q2"])
        pool = client.stats(section="pool")["pool"]
    assert pool["workers"] == 2
    assert pool["backend"] == reference.backend_id


@pytest.mark.parametrize("backend", SERVED)
def test_merged_metrics_snapshot_is_consistent(served, backend):
    """The snapshot folds every worker's registry into the server's: no
    counter is negative, and each histogram's per-bucket counts (plus the
    overflow slot) add up to its count."""
    server, _ = served[("publications", backend)]
    with ServiceClient(*server.address) as client:
        for name in ("Q1", "Q2", "Q3"):
            client.search(PAPER_QUERIES[name])
        metrics = client.metrics()
    assert metrics["counters"]
    assert all(value >= 0 for value in metrics["counters"].values())
    assert metrics["histograms"]
    for key, series in metrics["histograms"].items():
        assert len(series["counts"]) == len(series["buckets"]) + 1, key
        assert all(count >= 0 for count in series["counts"]), key
        assert sum(series["counts"]) == series["count"] > 0, key
        assert 0 <= series["max"] <= series["sum"], key


def test_stats_section_filter_and_typed_error(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        section = client.stats(section="admission")
        assert set(section) == {"admission"}
        response = client.request({"op": "stats", "section": "nonsense"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        with pytest.raises(ServiceError) as excinfo:
            client.stats(section="nope")
        assert excinfo.value.code == "bad_request"


def test_stats_and_metrics_can_never_disagree(served):
    """Satellite guard: stats() is *derived* from the registries, so the two
    views of the same counters must match exactly."""
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q2"])
        stats = client.stats()
        counters = client.metrics()["counters"]
    batcher = stats["batcher"]
    assert batcher["requests"] == counters.get("batcher.requests", 0)
    assert batcher["batches"] == counters.get("batcher.batches", 0)
    admission = stats["admission"]
    assert admission["admitted"] == counters.get("admission.admitted", 0)
    assert admission["rejected"] == counters.get("admission.rejected", 0)
    assert admission["timed_out"] == counters.get("admission.timed_out", 0)
    cache = stats["pool"]["cache"]
    assert cache["hits"] + cache["misses"] >= 1
    assert cache["hits"] == counters.get("cache.hits", 0)
    assert cache["misses"] == counters.get("cache.misses", 0)


def test_algorithms_lists_the_engine_registry(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        payload = client.algorithms()
        raw = client.request({"op": "algorithms"})
    assert payload == {"algorithms": list(ALGORITHM_NAMES)}
    assert raw == {"ok": True, "algorithms": list(ALGORITHM_NAMES)}


def test_unfiltered_served_search_records_storage_metrics(tmp_path,
                                                          publications):
    """An unfiltered served search rides the batcher into ``search_many``;
    its posting fetch and its corpus counters reach the metrics as a
    filtered search's do."""
    db = str(tmp_path / "pub.db")
    store = SQLiteStore(db)
    store.store_tree(publications, "pub")
    store.close()
    pool = EnginePool.for_backend("corpus", db_path=db, workers=1,
                                  cache_size=0)
    with pool, ServerThread(pool) as server, \
            ServiceClient(*server.address) as client:
        client.search(PAPER_QUERIES["Q1"])
        counters = client.metrics()["counters"]
    assert counters.get("batcher.requests") == 1
    assert counters.get("posting.rows", 0) > 0
    assert counters.get("segment.base_reads", 0) > 0
    assert counters.get("corpus.docs_searched") == 1


# ---------------------------------------------------------------------- #
# Corpus backend over the wire: byte-identical, doc-tagged, filterable
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served_corpus():
    """One corpus server over the two figure documents + its reference."""
    trees = {"publications": publications_tree(), "team": team_tree()}
    pool = EnginePool.for_backend("corpus", trees=trees, workers=2)
    reference = CorpusSearchEngine.from_trees(trees)
    with ServerThread(pool) as server:
        yield server, reference
    pool.shutdown()


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_served_corpus_search_is_byte_identical(served_corpus, algorithm):
    server, reference = served_corpus
    with ServiceClient(*server.address) as client:
        for query_name in ("Q1", "Q2", "Q4", "Q5"):
            query = PAPER_QUERIES[query_name]
            over_the_wire = client.search(query, algorithm)
            direct = result_payload(reference.search(query, algorithm))
            assert encode_message(over_the_wire) == encode_message(direct), (
                query_name, algorithm)
            assert "documents" in over_the_wire  # doc-id-tagged payload


def test_served_corpus_doc_filter_is_byte_identical(served_corpus):
    server, reference = served_corpus
    with ServiceClient(*server.address) as client:
        query = PAPER_QUERIES["Q2"]
        for doc_filter in (["publications"], ["team"],
                           ["publications", "team"]):
            over_the_wire = client.search(query, doc_filter=doc_filter)
            direct = result_payload(
                reference.search(query, doc_filter=doc_filter))
            assert encode_message(over_the_wire) == encode_message(direct), \
                doc_filter


def test_served_corpus_compare_is_byte_identical(served_corpus):
    server, reference = served_corpus
    with ServiceClient(*server.address) as client:
        query = PAPER_QUERIES["Q2"]
        over_the_wire = client.compare(query)
        direct = comparison_payload(reference.compare(query))
        assert encode_message(over_the_wire) == encode_message(direct)
        # doc_filter is honoured on compare too (never silently ignored).
        filtered = client.compare(query, doc_filter=["team"])
        direct = comparison_payload(reference.compare(query,
                                                      doc_filter=["team"]))
        assert encode_message(filtered) == encode_message(direct)


def test_served_corpus_rank_honours_doc_filter(served_corpus):
    server, reference = served_corpus
    with ServiceClient(*server.address) as client:
        query = PAPER_QUERIES["Q2"]
        ranking = client.rank(query, doc_filter=["publications"])
        assert ranking and all(entry["doc"] == "publications"
                               for entry in ranking)
        direct = reference.rank_search(query, doc_filter=["publications"])
        assert [entry["root"] for entry in ranking] == \
            [str(entry.fragment.root) for entry in direct.ranked]


def test_corpus_doc_filter_errors_are_typed(served_corpus):
    server, _ = served_corpus
    with ServiceClient(*server.address) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.search("xml", doc_filter=["no-such-doc"])
        assert excinfo.value.code == "bad_request"
        response = client.request({"op": "search", "query": "xml",
                                   "doc_filter": "publications"})
        assert response["error"]["code"] == "bad_request"  # must be a list
        response = client.request({"op": "search", "query": "xml",
                                   "doc_filter": []})
        assert response["error"]["code"] == "bad_request"


def test_doc_filter_on_single_document_backends(served):
    """A single-document backend serves a corpus of one: a ``doc_filter``
    naming its document answers exactly what no filter answers, and any
    other id is a typed ``bad_request``."""
    query = PAPER_QUERIES["Q2"]
    for backend in BACKENDS:
        server, _ = served[("publications", backend)]
        with ServiceClient(*server.address) as client:
            for op in ("search", "compare", "rank"):
                request = {"op": op, "query": query}
                filtered = dict(request, doc_filter=["publications"])
                assert encode_message(client.request(filtered)) == \
                    encode_message(client.request(request)), (backend, op)
                response = client.request(dict(request,
                                               doc_filter=["team"]))
                assert response["error"]["code"] == "bad_request", \
                    (backend, op)


@pytest.mark.parametrize("dataset,query_names", DATASETS)
def test_served_tree_free_rank_is_byte_identical(served, dataset,
                                                 query_names):
    """The tree-free sqlite server ranks exactly as the memory engine."""

    server, _ = served[(dataset, "sqlite")]
    _, memory = served[(dataset, "memory")]
    with ServiceClient(*server.address) as client:
        for query_name in query_names:
            query = PAPER_QUERIES[query_name]
            for algorithm in ALGORITHM_NAMES:
                for top_k, explain in ((None, False), (1, True)):
                    response = client.rank_response(
                        query, algorithm, top_k=top_k, explain=explain)
                    ranked = memory.rank_search(query, algorithm,
                                                top_k=top_k)
                    assert encode_message(
                        {"ranking": response["ranking"],
                         "rank_stats": response["rank_stats"]}) == \
                        encode_message(
                            {"ranking": ranking_payload(ranked.ranked,
                                                        explain=explain),
                             "rank_stats": rank_stats_payload(ranked)}), \
                        (query_name, algorithm, top_k)


def test_rank_on_memory_backend_works(served, publications):
    server, reference = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        response = client.rank_response(PAPER_QUERIES["Q2"])
        ranking = response["ranking"]
        assert ranking, "expected at least one ranked fragment"
        direct = reference.rank_search(PAPER_QUERIES["Q2"])
        assert [entry["root"] for entry in ranking] == \
            [str(entry.fragment.root) for entry in direct.ranked]
        assert response["rank_stats"] == rank_stats_payload(direct)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_document_early_termination_is_exhaustive(served, backend):
    """``early_terminate`` takes effect on a single-document backend and
    answers exactly the exhaustive ranking."""
    server, _ = served[("publications", backend)]
    with ServiceClient(*server.address) as client:
        for query_name in ("Q1", "Q2", "Q3"):
            query = PAPER_QUERIES[query_name]
            for top_k in (0, 1, 2, 10):
                exhaustive = client.rank_response(query, top_k=top_k)
                early = client.rank_response(query, top_k=top_k,
                                             early_terminate=True)
                assert early["ranking"] == exhaustive["ranking"], \
                    (query_name, top_k)
                stats = early["rank_stats"]
                assert stats["early_terminated"] is True
                assert stats["docs_selected"] == 1
                assert stats["docs_visited"] + stats["docs_skipped"] == 1


#: (doc_filter, rank options) the tree-free corpus server is diffed over.
TREE_FREE_RANK_CASES = tuple(
    (doc_filter, options)
    for doc_filter in (None, ["publications"], ["team", "publications"])
    for options in ({}, {"explain": True}, {"top_k": 2},
                    {"top_k": 2, "early_terminate": True},
                    {"top_k": 1, "early_terminate": True, "explain": True}))


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_served_tree_free_corpus_rank_is_byte_identical(
        served, publications, team, algorithm):
    """A corpus served from a database runs tree-free; its ``rank`` rows
    and visit accounting equal an in-process memory corpus over the same
    trees, with and without every rank option."""

    server, _ = served[("publications", "corpus-db")]
    memory = CorpusSearchEngine.from_trees({"publications": publications,
                                            "team": team})
    with ServiceClient(*server.address) as client:
        for query_name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            query = PAPER_QUERIES[query_name]
            for doc_filter, options in TREE_FREE_RANK_CASES:
                response = client.rank_response(
                    query, algorithm, doc_filter=doc_filter, **options)
                direct = memory.rank_search(
                    query, algorithm, top_k=options.get("top_k"),
                    doc_filter=doc_filter,
                    early_terminate=options.get("early_terminate", False))
                assert encode_message(
                    {"ranking": response["ranking"],
                     "rank_stats": response["rank_stats"]}) == \
                    encode_message(
                        {"ranking": ranking_payload(
                            direct.ranked,
                            explain=options.get("explain", False)),
                         "rank_stats": rank_stats_payload(direct)}), \
                    (query_name, doc_filter, options)


def test_served_corpus_rank_top_k_is_byte_identical(served_corpus):
    server, reference = served_corpus
    query = PAPER_QUERIES["Q2"]
    with ServiceClient(*server.address) as client:
        for early in (False, True):
            response = client.rank_response(query, top_k=2,
                                            early_terminate=early)
            direct = reference.rank_search(query, top_k=2,
                                           early_terminate=early)
            assert encode_message({"ranking": response["ranking"]}) == \
                encode_message({"ranking": ranking_payload(direct.ranked)})
            assert response["rank_stats"] == rank_stats_payload(direct)


def test_served_rank_explain_components_sum_to_score(served_corpus):
    server, _ = served_corpus
    with ServiceClient(*server.address) as client:
        ranking = client.rank(PAPER_QUERIES["Q2"], top_k=3, explain=True)
        assert ranking
        for row in ranking:
            explanation = row["explanation"]
            assert explanation["score"] == row["score"]
            assert sum(c["contribution"]
                       for c in explanation["components"]) == \
                pytest.approx(row["score"])


def test_rank_option_errors_are_typed(served_corpus):
    server, _ = served_corpus
    with ServiceClient(*server.address) as client:
        for request in (
                {"op": "rank", "query": "xml", "top_k": -1},
                {"op": "rank", "query": "xml", "top_k": True},
                {"op": "rank", "query": "xml", "top_k": "five"},
                {"op": "rank", "query": "xml", "early_terminate": True},
                {"op": "rank", "query": "xml", "top_k": 3,
                 "early_terminate": "yes"},
                {"op": "rank", "query": "xml", "explain": 1}):
            response = client.request(request)
            assert response["error"]["code"] == "bad_request", request


# ---------------------------------------------------------------------- #
# Live mutations over the wire: update / delete_doc
# ---------------------------------------------------------------------- #
@pytest.fixture
def served_mutable(tmp_path):
    """A corpus server over a segmented database that accepts live writes.

    Function-scoped on purpose: mutation tests change the served corpus, so
    each gets its own fresh database and server.
    """
    db = str(tmp_path / "live.db")
    store = SQLiteStore(db)
    store.store_tree(publications_tree(), "publications")
    store.store_tree(team_tree(), "team")
    store.close()
    pool = EnginePool.for_backend("corpus", db_path=db, workers=2)
    with ServerThread(pool) as server:
        yield server
    pool.shutdown()


def test_served_update_is_byte_identical(served_mutable):
    """An absorbed update serves answers byte-identical to a direct engine
    over the post-update corpus — no restart, no stale snapshot."""
    server = served_mutable
    xml = to_xml_string(team_tree()).replace("Conley", "Morant")
    reference = CorpusSearchEngine.from_trees(
        {"publications": publications_tree(),
         "team": parse_string(xml, "team")})
    with ServiceClient(*server.address) as client:
        outcome = client.update("team", xml)
        assert outcome["updated"] == "team" and outcome["segment"] == 1
        assert outcome["documents"] == ["publications", "team"]
        for query in (PAPER_QUERIES["Q4"], PAPER_QUERIES["Q1"],
                      "Morant guard"):
            for algorithm in ALGORITHM_NAMES:
                over_the_wire = client.search(query, algorithm)
                direct = result_payload(reference.search(query, algorithm))
                assert encode_message(over_the_wire) == \
                    encode_message(direct), (query, algorithm)


def test_served_update_adds_a_new_document(served_mutable):
    server = served_mutable
    with ServiceClient(*server.address) as client:
        outcome = client.update(
            "notes", "<notes><note>segmented live ingest</note></notes>")
        assert outcome["documents"] == ["notes", "publications", "team"]
        payload = client.search("segmented ingest")
        assert [entry["doc"] for entry in payload["documents"]] == ["notes"]


def test_served_delete_doc_is_byte_identical(served_mutable):
    server = served_mutable
    reference = CorpusSearchEngine.from_trees(
        {"publications": publications_tree()})
    with ServiceClient(*server.address) as client:
        outcome = client.delete_doc("team")
        assert outcome["deleted"] == "team"
        assert outcome["documents"] == ["publications"]
        for query_name in ("Q1", "Q4"):
            query = PAPER_QUERIES[query_name]
            for algorithm in ALGORITHM_NAMES:
                over_the_wire = client.search(query, algorithm)
                direct = result_payload(reference.search(query, algorithm))
                assert encode_message(over_the_wire) == \
                    encode_message(direct), (query_name, algorithm)


def test_mutation_errors_are_typed(served_mutable):
    server = served_mutable
    with ServiceClient(*server.address) as client:
        # Unknown doc id, missing/blank fields, unparsable xml: bad_request.
        with pytest.raises(ServiceError) as excinfo:
            client.delete_doc("no-such-doc")
        assert excinfo.value.code == "bad_request"
        for message in ({"op": "update", "doc": "team"},
                        {"op": "update", "doc": "  ", "xml": "<a/>"},
                        {"op": "update", "doc": "team", "xml": "<broken"},
                        {"op": "delete_doc"}):
            response = client.request(message)
            assert response["ok"] is False, message
            assert response["error"]["code"] == "bad_request", message
        # Deleting down to an empty corpus is refused.
        client.delete_doc("team")
        with pytest.raises(ServiceError) as excinfo:
            client.delete_doc("publications")
        assert excinfo.value.code == "bad_request"
        assert "last live" in excinfo.value.message


def test_pool_cache_counters_survive_an_update(served_mutable):
    """``stats.pool.cache`` hits and misses are the registry's cumulative
    counters: an update rebuilds every worker engine (and its cache), and
    the counters neither reset nor drift from the metrics."""
    server = served_mutable
    xml = to_xml_string(team_tree()).replace("Conley", "Morant")
    with ServiceClient(*server.address) as client:
        for _ in range(3):
            client.compare(PAPER_QUERIES["Q2"])
        before = client.stats("pool")["pool"]["cache"]
        client.update("team", xml)
        after = client.stats("pool")["pool"]["cache"]
        counters = client.metrics()["counters"]
    assert before["hits"] > 0 and before["misses"] > 0, before
    assert (after["hits"], after["misses"]) == \
        (before["hits"], before["misses"])
    assert (after["hits"], after["misses"]) == \
        (counters.get("cache.hits", 0), counters.get("cache.misses", 0))


def test_served_sqlite_document_is_the_live_generation(tmp_path):
    """``--backend sqlite`` serves a database document's live generation:
    an absorbed update is what it answers, and a deleted document is not
    servable."""
    db = str(tmp_path / "live.db")
    store = SQLiteStore(db)
    store.store_tree(publications_tree(), "publications")
    store.store_tree(team_tree(), "team")
    xml = to_xml_string(team_tree()).replace("Conley", "Morant")
    store.update_document(parse_string(xml, "team"), "team")
    store.delete_document("publications")
    store.close()
    reference = CorpusSearchEngine.from_store(SQLiteStore(db),
                                              documents=["team"])
    pool = EnginePool.for_backend("sqlite", db_path=db, document="team",
                                  workers=2)
    with ServerThread(pool) as server:
        with ServiceClient(*server.address) as client:
            assert client.search("Morant guard")["count"] == 1
            assert client.search("Conley guard")["count"] == 0
            for query in ("Morant guard", PAPER_QUERIES["Q4"]):
                for algorithm in ALGORITHM_NAMES:
                    over_the_wire = client.search(query, algorithm)
                    direct = result_payload(reference.search(query,
                                                             algorithm))
                    assert encode_message(over_the_wire) == \
                        encode_message(direct), (query, algorithm)
    pool.shutdown()
    with pytest.raises(ValueError, match="no document"):
        EnginePool.for_backend("sqlite", db_path=db, document="publications")


def test_mutations_on_single_document_backends_are_unsupported(served):
    """update / delete_doc need a database-served corpus; every other
    backend answers the typed ``unsupported`` error."""
    for backend in BACKENDS:
        server, _ = served[("publications", backend)]
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.update("publications", "<a/>")
            assert excinfo.value.code == "unsupported", backend
            with pytest.raises(ServiceError) as excinfo:
                client.delete_doc("publications")
            assert excinfo.value.code == "unsupported", backend


def test_mutations_on_pinned_subset_corpus_are_unsupported(tmp_path):
    """A corpus pool pinned to a document subset cannot absorb writes."""
    db = str(tmp_path / "subset.db")
    store = SQLiteStore(db)
    store.store_tree(publications_tree(), "publications")
    store.store_tree(team_tree(), "team")
    store.close()
    pool = EnginePool.for_backend("corpus", db_path=db, workers=1,
                                  documents=("team",))
    assert pool.mutable_store is None
    with ServerThread(pool) as server:
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.update("team", "<a/>")
            assert excinfo.value.code == "unsupported"
    pool.shutdown()


def test_served_compact_wire_op(served_mutable):
    """The ``compact`` op folds segments live; served answers stay
    byte-identical to a direct engine over the compacted corpus."""
    server = served_mutable
    xml = to_xml_string(team_tree()).replace("Conley", "Morant")
    reference = CorpusSearchEngine.from_trees(
        {"publications": publications_tree(),
         "team": parse_string(xml, "team")})
    with ServiceClient(*server.address) as client:
        client.update("team", xml)
        outcome = client.compact()
        assert outcome["compacted"]["segments"] == 1
        assert outcome["compacted"]["folded"] == 1
        assert outcome["segments"] == 0
        assert outcome["documents"] == ["publications", "team"]
        for query_name in ("Q1", "Q4"):
            query = PAPER_QUERIES[query_name]
            for algorithm in ALGORITHM_NAMES:
                over_the_wire = client.search(query, algorithm)
                direct = result_payload(reference.search(query, algorithm))
                assert encode_message(over_the_wire) == \
                    encode_message(direct), (query_name, algorithm)


def test_compact_on_single_document_backend_is_unsupported(served):
    server, _ = served[("publications", "memory")]
    with ServiceClient(*server.address) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.compact()
        assert excinfo.value.code == "unsupported"


def test_keyed_update_replay_is_idempotent(served_mutable):
    """Replaying an update with the same idempotency key answers the
    original segment without applying the mutation twice."""
    server = served_mutable
    xml = "<notes><note>replayed keyword</note></notes>"
    with ServiceClient(*server.address) as client:
        first = client.update("notes", xml, idempotency_key="put-1")
        replay = client.update("notes", xml, idempotency_key="put-1")
        assert replay["segment"] == first["segment"]
        assert replay["documents"] == first["documents"]
        stats = client.stats("pool")
        assert stats  # the replay never rebuilt engines or wrote a segment
        payload = client.search("replayed keyword")
        assert [entry["doc"] for entry in payload["documents"]] == ["notes"]


def test_keyed_delete_replay_is_idempotent(served_mutable):
    """A replayed keyed delete answers the recorded segment even though
    the document is already gone — not ``bad_request``."""
    server = served_mutable
    with ServiceClient(*server.address) as client:
        first = client.delete_doc("team", idempotency_key="del-1")
        replay = client.delete_doc("team", idempotency_key="del-1")
        assert replay["segment"] == first["segment"]
        assert replay["deleted"] == "team"
        assert replay["documents"] == ["publications"]


def test_mutation_key_validation_is_typed(served_mutable):
    server = served_mutable
    with ServiceClient(*server.address) as client:
        for message in ({"op": "update", "doc": "team", "xml": "<a/>",
                         "key": ""},
                        {"op": "delete_doc", "doc": "team", "key": 7}):
            response = client.request(message)
            assert response["ok"] is False, message
            assert response["error"]["code"] == "bad_request", message


# ---------------------------------------------------------------------- #
# Self-healing: degraded answers, quarantine, retrying clients
# ---------------------------------------------------------------------- #
def _flaky_pool(failures: int, backoff: float = 0.05) -> EnginePool:
    """A pool whose engine factory fails the first ``failures`` times."""
    state = {"left": failures}

    def factory() -> CorpusSearchEngine:
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("simulated engine-build failure")
        return CorpusSearchEngine.from_trees(
            {"publications": publications_tree()})

    return EnginePool(factory, workers=1,
                      rebuild_backoff_seconds=backoff,
                      max_rebuild_backoff_seconds=1.0)


def test_engine_rebuild_failure_answers_degraded():
    """A failing engine factory quarantines the worker and answers the
    typed ``degraded`` error — then heals once the backoff elapses."""
    import time

    pool = _flaky_pool(failures=1, backoff=0.3)
    with ServerThread(pool) as server:
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.search(PAPER_QUERIES["Q1"])
            assert excinfo.value.code == "degraded"
            assert "quarantined" in excinfo.value.message
            # While quarantined, requests are refused (still degraded)...
            with pytest.raises(ServiceError) as excinfo:
                client.search(PAPER_QUERIES["Q1"])
            assert excinfo.value.code == "degraded"
            # ...and once the backoff elapses the worker rebuilds.
            time.sleep(0.4)
            payload = client.search(PAPER_QUERIES["Q1"])
            assert payload["count"] >= 1
            stats = client.stats("pool")["pool"]
            assert stats["rebuilds"] >= 1
            assert stats["rebuild_failures"] == 1
            assert stats["quarantine_refusals"] >= 1
    pool.shutdown()


def test_retrying_client_heals_degraded_transparently():
    """A client under a RetryPolicy never sees the transient failure."""
    from repro.service import RetryPolicy

    pool = _flaky_pool(failures=1, backoff=0.02)
    with ServerThread(pool) as server:
        retry = RetryPolicy(attempts=5, base_delay_seconds=0.05, seed=11)
        with ServiceClient(*server.address, retry=retry) as client:
            payload = client.search(PAPER_QUERIES["Q1"])
            assert payload["count"] >= 1
            assert client.retries >= 1
    pool.shutdown()


# ---------------------------------------------------------------------- #
# The concurrent hammer: no cross-request bleed under load
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", SERVED)
def test_concurrent_hammer_no_cross_request_bleed(served, backend):
    """Many client threads, distinct interleaved queries and algorithms:
    every response must match its own request's expected bytes, while the
    batcher actively coalesces across connections."""
    server, reference = served[("publications", backend)]
    workload = [
        (PAPER_QUERIES[name], algorithm)
        for name in ("Q1", "Q2", "Q3")
        for algorithm in ("validrtf", "maxmatch")
    ]
    expected = {
        (query, algorithm): encode_message(
            result_payload(reference.search(query, algorithm)))
        for query, algorithm in workload
    }
    threads, iterations = 6, 15
    errors = []
    barrier = threading.Barrier(threads)

    def hammer(seed: int) -> None:
        try:
            with ServiceClient(*server.address) as client:
                barrier.wait(30)
                for step in range(iterations):
                    query, algorithm = workload[(seed + step) % len(workload)]
                    payload = client.search(query, algorithm)
                    if encode_message(payload) != expected[(query, algorithm)]:
                        raise AssertionError(
                            f"response bleed for {query!r}/{algorithm}")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    workers = [threading.Thread(target=hammer, args=(index,))
               for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors, errors
    stats = server.service.stats()
    assert stats["admission"]["admitted"] >= threads * iterations
    assert stats["batcher"]["requests"] >= threads * iterations


def test_concurrent_burst_actually_batches(publications):
    """Sanity check on the hammer's premise: a burst of identical requests
    from many connections, arriving while both workers are busy, coalesces
    into one multi-request engine batch (and still answers correctly).

    The first two batches block on their worker until the whole burst has
    been submitted, so the test needs no timing window."""
    pool = EnginePool.for_backend("memory", tree=publications, workers=2,
                                  document="publications")
    service = SearchService(pool)
    threads = 8
    admitted = threading.Event()

    def gated_search_many(queries, algorithm, doc_filter=None):
        def run(engine):
            admitted.wait(30)
            return engine.search_many(queries, algorithm,
                                      doc_filter=doc_filter)
        return pool.submit(run)

    pool.search_many = gated_search_many
    submitted = 0
    submit = service.batcher.submit

    def counted_submit(*args, **kwargs):
        nonlocal submitted
        future = submit(*args, **kwargs)
        submitted += 1
        if submitted == threads:
            admitted.set()
        return future

    service.batcher.submit = counted_submit
    reference = build_reference_engine(publications, "memory",
                                       "publications")
    expected = encode_message(
        result_payload(reference.search(PAPER_QUERIES["Q2"])))
    barrier = threading.Barrier(threads)
    errors = []
    with ServerThread(service) as server:
        def burst() -> None:
            try:
                with ServiceClient(*server.address) as client:
                    barrier.wait(30)
                    payload = client.search(PAPER_QUERIES["Q2"])
                    assert encode_message(payload) == expected
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=burst) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stats = service.stats()["batcher"]
    pool.shutdown()
    assert not errors, errors
    # Two lone batches held both workers; the six requests that queued
    # behind them left as one batch when the first worker came free.
    assert stats["requests"] == threads, stats
    assert (stats["batches"], stats["largest_batch"]) == (3, 6), stats
