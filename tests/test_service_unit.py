"""Unit behaviour of the serving-layer components.

Engine pool (per-worker engines over one shared snapshot), request batcher
(coalescing, flush-on-size, flush-on-window, error fan-out), admission
controller (bounded depth, typed shedding, deadlines), the background
compactor's trigger and the protocol's canonical encoding — each exercised
on its own, without a TCP socket.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.corpus import CorpusSearchEngine
from repro.datasets import PAPER_QUERIES, team_tree
from repro.service import (
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    AdmissionController,
    BackgroundCompactor,
    EnginePool,
    RequestBatcher,
    SearchService,
    ServiceError,
    decode_message,
    encode_message,
    result_payload,
)
from repro.storage import SQLiteStore


def one_document_corpus(tree, name: str = "service") -> CorpusSearchEngine:
    """The direct engine a pool serves ``tree`` through, as doc ``name``
    (``service`` is the pools' default document name)."""
    return CorpusSearchEngine.from_trees({name: tree})


# ---------------------------------------------------------------------- #
# EnginePool
# ---------------------------------------------------------------------- #
class TestEnginePool:
    def test_rejects_bad_worker_count(self, publications):
        with pytest.raises(ValueError):
            EnginePool.for_backend("memory", tree=publications, workers=0)

    def test_unknown_backend_rejected(self, publications):
        with pytest.raises(ValueError):
            EnginePool.for_backend("postgres", tree=publications)

    def test_memory_backend_needs_tree(self):
        with pytest.raises(ValueError):
            EnginePool.for_backend("memory")

    def test_sqlite_backend_without_tree_or_document(self):
        with pytest.raises(ValueError):
            EnginePool.for_backend("sqlite")

    def test_warm_builds_one_engine_per_worker(self, publications):
        with EnginePool.for_backend("memory", tree=publications,
                                    workers=3) as pool:
            assert pool.engine_count == 0
            assert pool.warm() == 3
            assert pool.engine_count == 3
            assert pool.backend_id == "corpus[service=memory]"

    def test_workers_share_one_memory_snapshot(self, publications):
        with EnginePool.for_backend("memory", tree=publications,
                                    workers=3) as pool:
            pool.warm()
            sources = {id(engine.source) for engine in pool._engines}
            assert len(sources) == 1

    def test_search_matches_direct_engine(self, publications):
        direct_engine = one_document_corpus(publications)
        with EnginePool.for_backend("memory", tree=publications,
                                    workers=2) as pool:
            for name in ("Q1", "Q2", "Q3"):
                served = pool.search(PAPER_QUERIES[name]).result(30)
                direct = direct_engine.search(PAPER_QUERIES[name])
                assert result_payload(served) == result_payload(direct)

    @pytest.mark.parametrize("backend", ["sqlite", "corpus"])
    def test_disk_backends_serve_concurrently(self, tmp_path, publications,
                                              team, backend):
        """12 concurrent searches through 3 workers answer like one engine.

        ``corpus`` is the ``serve --db --backend corpus`` path: a pool over a
        database file holding two documents.  Its queries mix
        ``name`` (both documents) with the two-keyword Q2 and Q4 (one
        document each).
        """
        if backend == "corpus":
            queries = ["name", PAPER_QUERIES["Q2"], PAPER_QUERIES["Q4"]]
            db_path = str(tmp_path / "corpus.db")
            store = SQLiteStore(db_path)
            store.store_tree(publications, "pub")
            store.store_tree(team, "team")
            direct = CorpusSearchEngine.from_store(store)
            expected = {query: result_payload(direct.search(query))
                        for query in queries}
            store.close()
            pool = EnginePool.for_backend("corpus", db_path=db_path,
                                          workers=3)
        else:
            queries = [PAPER_QUERIES["Q2"]]
            expected = {queries[0]: result_payload(
                one_document_corpus(publications, "pub").search(queries[0]))}
            pool = EnginePool.for_backend("sqlite", tree=publications,
                                          workers=3, document="pub")
        sent = [queries[i % len(queries)] for i in range(12)]
        with pool:
            futures = [pool.search(query) for query in sent]
            for query, future in zip(sent, futures):
                assert result_payload(future.result(30)) == expected[query]

    def test_cache_stats_aggregate_across_workers(self, publications):
        with EnginePool.for_backend("memory", tree=publications, workers=2,
                                    cache_size=16) as pool:
            for _ in range(6):
                pool.search(PAPER_QUERIES["Q1"]).result(30)
            stats = pool.cache_stats()
            assert stats.lookups == 6
            assert stats.hits + stats.misses == 6
            assert stats.hits >= 4  # at most one cold miss per worker

    def test_submit_after_shutdown_raises(self, publications):
        pool = EnginePool.for_backend("memory", tree=publications, workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.search("xml")


# ---------------------------------------------------------------------- #
# RequestBatcher
# ---------------------------------------------------------------------- #
@pytest.fixture()
def memory_pool(publications):
    with EnginePool.for_backend("memory", tree=publications,
                                workers=2) as pool:
        yield pool


class TestRequestBatcher:
    def test_knob_validation(self, memory_pool):
        with pytest.raises(ValueError):
            RequestBatcher(memory_pool, max_batch_size=0)
        with pytest.raises(ValueError):
            RequestBatcher(memory_pool, max_wait_seconds=-1)

    def test_concurrent_submissions_coalesce(self, memory_pool,
                                             publications):
        batcher = RequestBatcher(memory_pool, max_batch_size=8,
                                 max_wait_seconds=0.05)
        queries = [PAPER_QUERIES[name] for name in ("Q1", "Q2", "Q3")]

        async def drive():
            return await asyncio.gather(
                *(batcher.submit(query) for query in queries))

        results = asyncio.run(drive())
        direct = one_document_corpus(publications)
        for query, result in zip(queries, results):
            assert result_payload(result) == \
                result_payload(direct.search(query))
        stats = batcher.stats()
        assert stats["requests"] == 3
        assert stats["batches"] == 1  # one window, one engine-level batch
        assert stats["largest_batch"] == 3

    def test_flush_on_size_beats_the_window(self, memory_pool):
        batcher = RequestBatcher(memory_pool, max_batch_size=2,
                                 max_wait_seconds=30.0)

        async def drive():
            return await asyncio.wait_for(
                asyncio.gather(batcher.submit(PAPER_QUERIES["Q1"]),
                               batcher.submit(PAPER_QUERIES["Q2"])),
                timeout=10)

        results = asyncio.run(drive())
        assert len(results) == 2
        assert batcher.stats()["size_flushes"] == 1

    def test_algorithms_batch_separately(self, memory_pool):
        batcher = RequestBatcher(memory_pool, max_batch_size=8,
                                 max_wait_seconds=0.02)

        async def drive():
            return await asyncio.gather(
                batcher.submit(PAPER_QUERIES["Q1"], "validrtf"),
                batcher.submit(PAPER_QUERIES["Q1"], "maxmatch"))

        validrtf, maxmatch = asyncio.run(drive())
        assert validrtf.algorithm != maxmatch.algorithm
        assert batcher.stats()["batches"] == 2

    def test_worker_failure_fans_out_as_service_error(self, memory_pool):
        batcher = RequestBatcher(memory_pool, max_batch_size=2,
                                 max_wait_seconds=0.01)

        async def drive():
            # The empty query fails engine-side (EmptyQueryError); the
            # batcher must surface the worker's failure as a typed error.
            with pytest.raises(ServiceError):
                await batcher.submit("")

        asyncio.run(drive())


# ---------------------------------------------------------------------- #
# SearchService dispatch
# ---------------------------------------------------------------------- #
class TestSearchService:
    def test_unknown_ops_share_one_metric_series(self, memory_pool):
        """Requests for ops the dispatcher does not serve are recorded
        under one ``unknown`` label, so a client sending arbitrary op
        strings cannot grow the registry (and every scrape) without bound;
        a served op keeps its own label."""
        service = SearchService(memory_pool)

        async def drive():
            answers = [await service.handle({"op": f"bogus-{index}"})
                       for index in range(50)]
            answers.append(await service.handle(
                {"op": "search", "query": PAPER_QUERIES["Q1"]}))
            return answers

        answers = asyncio.run(drive())
        assert [answer["error"]["code"] for answer in answers[:50]] == \
            ["bad_request"] * 50
        assert answers[50]["ok"] is True
        snapshot = service.metrics.snapshot()
        requests = {key: value
                    for key, value in snapshot["counters"].items()
                    if key.startswith("server.requests")}
        assert requests == {'server.requests{op="unknown"}': 50,
                            'server.requests{op="search"}': 1}
        assert snapshot["counters"]['server.errors{code="bad_request"}'] == 50
        assert sorted(key for key in snapshot["histograms"]
                      if key.startswith("server.request_seconds")) == \
            ['server.request_seconds{op="search"}',
             'server.request_seconds{op="unknown"}']
        assert service.stats()["server"]["requests"] == \
            {"search": 1, "unknown": 50}


# ---------------------------------------------------------------------- #
# AdmissionController
# ---------------------------------------------------------------------- #
class TestAdmissionController:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(timeout_seconds=0)

    def test_sheds_load_beyond_the_bound(self):
        admission = AdmissionController(max_inflight=2)
        admission.acquire()
        admission.acquire()
        with pytest.raises(ServiceError) as excinfo:
            admission.acquire()
        assert excinfo.value.code == ERROR_OVERLOADED
        admission.release()
        admission.acquire()  # a slot freed up again
        stats = admission.stats()
        assert stats["rejected"] == 1
        assert stats["admitted"] == 3
        assert stats["peak_inflight"] == 2

    def test_release_without_acquire_is_a_bug(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_deadline_becomes_typed_timeout(self):
        admission = AdmissionController(timeout_seconds=0.01)

        async def drive():
            with pytest.raises(ServiceError) as excinfo:
                await admission.run(asyncio.sleep(5))
            assert excinfo.value.code == ERROR_TIMEOUT

        asyncio.run(drive())
        assert admission.stats()["timed_out"] == 1

    def test_context_manager_balances_counts(self):
        admission = AdmissionController(max_inflight=1)
        with admission:
            assert admission.inflight == 1
        assert admission.inflight == 0

    def test_thread_hammer_never_exceeds_bound(self):
        admission = AdmissionController(max_inflight=3)
        overshoot = []

        def worker() -> None:
            for _ in range(200):
                try:
                    with admission:
                        if admission.inflight > 3:
                            overshoot.append(admission.inflight)
                except ServiceError:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not overshoot
        stats = admission.stats()
        assert stats["inflight"] == 0
        assert stats["admitted"] + stats["rejected"] == 8 * 200


# ---------------------------------------------------------------------- #
# BackgroundCompactor: the trigger threshold
# ---------------------------------------------------------------------- #
class CountingPool:
    """The one pool call the compactor makes."""

    def __init__(self) -> None:
        self.invalidations = 0

    def invalidate_engines(self) -> None:
        self.invalidations += 1


class TestBackgroundCompactor:
    @pytest.mark.parametrize("segments,compacts", [(3, True), (2, False)])
    def test_tick_compacts_at_max_segments(self, segments, compacts):
        store = SQLiteStore()
        for _ in range(segments):
            store.update_document(team_tree(), "team")
        pool = CountingPool()
        compactor = BackgroundCompactor(store, pool, max_segments=3)
        assert compactor._tick() == compactor.interval_seconds
        assert store.segment_count() == (0 if compacts else segments)
        assert pool.invalidations == (1 if compacts else 0)
        assert compactor.stats()["runs"] == (1 if compacts else 0)
        store.close()


# ---------------------------------------------------------------------- #
# Protocol framing
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "search", "query": "xml keyword", "id": 7}
        assert decode_message(encode_message(message)) == message

    def test_encoding_is_canonical(self):
        left = encode_message({"b": 1, "a": 2})
        right = encode_message({"a": 2, "b": 1})
        assert left == right  # key order never leaks into the bytes

    def test_bad_lines_are_typed(self):
        with pytest.raises(ServiceError):
            decode_message(b"not json\n")
        with pytest.raises(ServiceError):
            decode_message(b"[1, 2, 3]\n")

    def test_result_payload_excludes_timing(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q1"])
        payload = result_payload(result)
        assert "elapsed" not in str(sorted(payload))
        again = result_payload(result.with_timing(123.0))
        assert payload == again
