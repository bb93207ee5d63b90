"""Unit behaviour of the serving-layer components.

Engine pool (per-worker engines over one shared snapshot), request batcher
(dispatch while a worker is free, queueing per key, coalescing on
completion, dropped expired requests, error fan-out, a queued batch's one
task of searches on a real pool), admission controller
(bounded depth, typed shedding, deadlines), the compaction trigger of a
write and the protocol's canonical encoding — each exercised on its own,
without a TCP socket.  The batcher and compaction tests are event-driven:
no sleeps, no windows.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from fuzz_util import crash_at
from repro.core import ALGORITHM_NAMES, Query
from repro.corpus import CorpusSearchEngine
from repro.datasets import PAPER_QUERIES, team_tree
from repro.service import (
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    AdmissionController,
    EnginePool,
    RequestBatcher,
    SearchService,
    ServiceConfig,
    ServiceError,
    decode_message,
    encode_message,
    result_payload,
)
from repro.service.batcher import MAX_BATCH_SIZE
from repro.storage import DatabaseFileError, SQLiteStore
from repro.xmltree import to_xml_string


def search_on(pool, query, doc_filter=None) -> Future:
    """One search on a pool worker: the task a one-request batch runs."""
    return pool.submit(
        lambda engine: engine.search(query, doc_filter=doc_filter))


def queued_batch(pool, queries, algorithm="validrtf", doc_filter=None,
                 lead="xml") -> list:
    """The answers to ``queries`` served as one batch of the batcher.

    On a one-worker pool a ``lead`` request takes the worker, the
    ``queries`` queue behind it under one key, and its completion
    dispatches them together as one pool task.  A failed request's entry
    is its exception.
    """
    assert pool.workers == 1
    batcher = RequestBatcher(pool)

    async def drive():
        first = batcher.submit(lead, algorithm, doc_filter)
        queued = [batcher.submit(query, algorithm, doc_filter)
                  for query in queries]
        await first
        return await asyncio.gather(*queued, return_exceptions=True)

    answers = asyncio.run(drive())
    stats = batcher.stats()
    assert (stats["batches"], stats["largest_batch"]) == (2, len(queries))
    return answers


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

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "corpus"])
    def test_negative_cache_size_is_refused_at_build(self, publications,
                                                      backend):
        # A permanent mistake, not a worker fault to retry.
        with pytest.raises(ValueError, match="cache size must be >= 0"):
            ServiceConfig(backend=backend, cache_size=-1,
                          workers=1).build(publications)

    def test_sqlite_backend_without_tree_or_document(self):
        with pytest.raises(ValueError):
            EnginePool.for_backend("sqlite")

    @pytest.mark.parametrize("open_missing", [
        lambda db: EnginePool.for_backend("corpus", db_path=db),
        lambda db: EnginePool.for_backend("sqlite", db_path=db,
                                          document="x"),
        lambda db: ServiceConfig(backend="sqlite", db_path=db,
                                 document="x").build(),
    ], ids=["pool-corpus", "pool-sqlite", "config-sqlite"])
    def test_a_missing_database_is_refused_not_created(self, tmp_path,
                                                       open_missing):
        db = tmp_path / "typo.db"
        with pytest.raises(DatabaseFileError, match="no such database file"):
            open_missing(str(db))
        assert not db.exists()

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
            queries = [PAPER_QUERIES[name] for name in ("Q1", "Q2", "Q3")]
            served = [search_on(pool, query) for query in queries]
            for query, result in zip(queries,
                                     (future.result(30) for future in served)):
                assert result_payload(result) == \
                    result_payload(direct_engine.search(query))

    def test_search_honours_doc_filter(self, publications, team):
        trees = {"publications": publications, "team": team}
        direct = CorpusSearchEngine.from_trees(trees)
        with EnginePool.for_backend("corpus", trees=trees,
                                    workers=1) as pool:
            served = search_on(pool, "name", doc_filter=["team"]).result(30)
        assert served.doc_ids == ("team",)
        assert result_payload(served) == \
            result_payload(direct.search("name", doc_filter=["team"]))

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
            futures = [search_on(pool, query) for query in sent]
            for query, future in zip(sent, futures):
                assert result_payload(future.result(30)) == expected[query]

    def test_cache_stats_aggregate_across_workers(self, publications):
        with EnginePool.for_backend("memory", tree=publications, workers=2,
                                    cache_size=16) as pool:
            for _ in range(6):
                search_on(pool, PAPER_QUERIES["Q1"]).result(30)
            stats = pool.cache_stats()
            assert stats.lookups == 6
            assert stats.hits + stats.misses == 6
            assert stats.hits >= 4  # at most one cold miss per worker

    def test_submit_after_shutdown_raises(self, publications):
        pool = EnginePool.for_backend("memory", tree=publications, workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            search_on(pool, "xml")


# ---------------------------------------------------------------------- #
# RequestBatcher
# ---------------------------------------------------------------------- #
@pytest.fixture()
def memory_pool(publications):
    with EnginePool.for_backend("memory", tree=publications,
                                workers=2) as pool:
        yield pool


class StubPool:
    """Two workers whose batches the test resolves by hand."""

    workers = 2

    def __init__(self) -> None:
        #: Every dispatched batch: (queries, algorithm, doc_filter, future).
        self.batches = []

    def submit(self, task, queries, algorithm, doc_filter):
        future = Future()
        self.batches.append((list(queries), algorithm, doc_filter, future))
        return future

    def dispatched(self):
        return [(queries, algorithm, doc_filter)
                for queries, algorithm, doc_filter, _ in self.batches]

    def resolve(self, index: int) -> None:
        queries, _, _, future = self.batches[index]
        future.set_result([f"answer:{query}" for query in queries])


class TestRequestBatcher:
    def test_lone_submissions_dispatch_inside_submit(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)

        async def drive():
            first = batcher.submit("q1")
            assert pool.dispatched() == [(["q1"], "validrtf", None)]
            second = batcher.submit("q2", "maxmatch")
            assert pool.dispatched() == [(["q1"], "validrtf", None),
                                         (["q2"], "maxmatch", None)]
            pool.resolve(1)
            pool.resolve(0)
            return await first, await second

        assert asyncio.run(drive()) == ("answer:q1", "answer:q2")
        stats = batcher.stats()
        assert (stats["requests"], stats["batches"]) == (2, 2)

    def test_submissions_queue_while_every_worker_is_busy(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)

        async def drive():
            batcher.submit("q1")
            batcher.submit("q2")
            batcher.submit("q3")
            batcher.submit("q4")
            assert len(pool.batches) == 2
            assert batcher.stats()["requests"] == 4
            # Closing dispatches whatever is still queued, workers busy or
            # not, so no request is stranded by a shutdown.
            batcher.close()
            assert pool.dispatched()[2:] == [(["q3", "q4"], "validrtf",
                                              None)]

        asyncio.run(drive())

    def test_a_completed_batch_dispatches_the_queue_as_one_batch(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)

        async def drive():
            first = batcher.submit("q1")
            batcher.submit("q2")
            third = batcher.submit("q3")
            fourth = batcher.submit("q4")
            pool.resolve(0)
            assert await first == "answer:q1"
            assert pool.dispatched()[2] == (["q3", "q4"], "validrtf", None)
            pool.resolve(2)
            return await third, await fourth

        assert asyncio.run(drive()) == ("answer:q3", "answer:q4")
        stats = batcher.stats()
        assert (stats["batches"], stats["largest_batch"]) == (3, 2)

    def test_a_batch_carries_at_most_max_batch_size(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)
        queued = [f"q{index}" for index in range(MAX_BATCH_SIZE + 2)]

        async def drive():
            first = batcher.submit("first")
            second = batcher.submit("second")
            for query in queued:
                batcher.submit(query)
            pool.resolve(0)
            await first
            pool.resolve(1)
            await second

        asyncio.run(drive())
        assert [queries for queries, _, _ in pool.dispatched()[2:]] == \
            [queued[:MAX_BATCH_SIZE], queued[MAX_BATCH_SIZE:]]

    def test_expired_request_is_never_dispatched(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)

        async def drive():
            first = batcher.submit("q1")
            batcher.submit("q2")
            expired = batcher.submit("q3")
            kept = batcher.submit("q4")
            # A zero deadline expires at once: the admission controller's
            # timeout cancels the queued future the same way.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(expired, 0)
            pool.resolve(0)
            await first
            assert pool.dispatched()[2] == (["q4"], "validrtf", None)
            pool.resolve(2)
            return await kept

        assert asyncio.run(drive()) == "answer:q4"
        waits = batcher.metrics.snapshot()["histograms"][
            "batcher.queue_wait_seconds"]
        assert waits["count"] == 3  # q1, q2 and q4: q3 never left the queue

    def test_keys_never_mix(self):
        pool = StubPool()
        batcher = RequestBatcher(pool)

        async def drive():
            first = batcher.submit("q1")
            second = batcher.submit("q2")
            queued = [batcher.submit("a1"),
                      batcher.submit("b1", "maxmatch"),
                      batcher.submit("c1", doc_filter=["pub"]),
                      batcher.submit("a2"),
                      batcher.submit("b2", "maxmatch"),
                      batcher.submit("c2", doc_filter=["pub"])]
            pool.resolve(0)
            await first
            pool.resolve(1)
            await second
            pool.resolve(2)
            await queued[0]
            for index in (3, 4):
                pool.resolve(index)
            return await asyncio.gather(*queued)

        answers = asyncio.run(drive())
        assert answers == [f"answer:{query}" for query in
                           ("a1", "b1", "c1", "a2", "b2", "c2")]
        assert pool.dispatched()[2:] == [
            (["a1", "a2"], "validrtf", None),
            (["b1", "b2"], "maxmatch", None),
            (["c1", "c2"], "validrtf", ("pub",)),
        ]

    def test_answers_match_the_engine(self, memory_pool, publications):
        batcher = RequestBatcher(memory_pool)
        queries = [PAPER_QUERIES[name] for name in ("Q1", "Q2", "Q3")]

        async def drive():
            return await asyncio.gather(
                *(batcher.submit(query) for query in queries))

        results = asyncio.run(drive())
        direct = one_document_corpus(publications)
        for query, result in zip(queries, results):
            assert result_payload(result) == \
                result_payload(direct.search(query))
        assert batcher.stats()["requests"] == 3

    def test_algorithms_batch_separately(self, memory_pool):
        batcher = RequestBatcher(memory_pool)

        async def drive():
            return await asyncio.gather(
                batcher.submit(PAPER_QUERIES["Q1"], "validrtf"),
                batcher.submit(PAPER_QUERIES["Q1"], "maxmatch"))

        validrtf, maxmatch = asyncio.run(drive())
        assert validrtf.algorithm != maxmatch.algorithm
        assert batcher.stats()["batches"] == 2

    def test_worker_failure_fans_out_as_service_error(self, memory_pool):
        batcher = RequestBatcher(memory_pool)

        async def drive():
            # The empty query fails engine-side (EmptyQueryError); the
            # batcher must surface the worker's failure as a typed error.
            with pytest.raises(ServiceError):
                await batcher.submit("")

        asyncio.run(drive())

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_a_queued_batch_answers_as_looped_search(self, publications,
                                                     algorithm):
        queries = ["xml keyword search", "liu keyword", "search algorithm",
                   "xml"]
        with EnginePool.for_backend("memory", tree=publications,
                                    workers=1) as pool:
            answers = queued_batch(pool, queries, algorithm)
        direct = one_document_corpus(publications)
        for query, answer in zip(queries, answers):
            assert result_payload(answer) == \
                result_payload(direct.search(query, algorithm))

    def test_a_query_repeated_in_a_batch_is_a_cache_hit(self, publications):
        queries = ["xml", "liu keyword", "xml"]
        with EnginePool.for_backend("memory", tree=publications, workers=1,
                                    cache_size=8) as pool:
            answers = queued_batch(pool, queries, lead="xml")
            stats = pool.cache_stats()
        # Answers come back in input order; the lead cached "xml", so the
        # batch misses only on "liu keyword".
        assert [answer.query for answer in answers] == \
            [Query.parse(query) for query in queries]
        assert (stats.hits, stats.misses) == (2, 2)

    def test_a_queued_batch_carries_its_doc_filter(self, publications, team):
        trees = {"publications": publications, "team": team}
        # "name" matches both documents; every search of the batch keeps
        # to the filter.
        queries = ["name", PAPER_QUERIES["Q4"], "name"]
        with EnginePool.for_backend("corpus", trees=trees,
                                    workers=1) as pool:
            answers = queued_batch(pool, queries, doc_filter=["team"],
                                   lead="name")
        direct = CorpusSearchEngine.from_trees(trees)
        for query, answer in zip(queries, answers):
            assert answer.doc_ids == ("team",)
            assert result_payload(answer) == result_payload(
                direct.search(query, doc_filter=["team"]))

    def test_a_failing_request_fails_its_whole_batch(self, publications):
        with EnginePool.for_backend("memory", tree=publications,
                                    workers=1) as pool:
            # The empty query fails engine-side (EmptyQueryError) inside
            # the batch's one task, so no request of the batch is answered.
            answers = queued_batch(pool, ["xml", "", "liu keyword"])
        assert all(isinstance(answer, ServiceError) for answer in answers)

    def test_closed_batcher_refuses_work(self):
        batcher = RequestBatcher(StubPool())
        batcher.close()

        async def drive():
            with pytest.raises(ServiceError):
                batcher.submit("q1")

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
# Compaction on the write that crosses the trigger
# ---------------------------------------------------------------------- #
class TestCompactionTrigger:
    @pytest.fixture()
    def service(self, tmp_path, publications):
        db = str(tmp_path / "live.db")
        store = SQLiteStore(db)
        store.store_tree(publications, "pub")
        store.store_tree(team_tree(), "team")
        store.close()
        pool = EnginePool.for_backend("corpus", db_path=db, workers=1)
        service = SearchService(pool, owns_pool=True, compact_segments=3)
        yield service
        service.close()

    @staticmethod
    def update(service: SearchService):
        return asyncio.run(service.handle({
            "op": "update", "doc": "team",
            "xml": to_xml_string(team_tree())}))

    def test_the_write_that_reaches_the_trigger_compacts(self, service):
        store = service.pool.mutable_store
        invalidations = []
        invalidate = service.pool.invalidate_engines

        def counted() -> None:
            invalidations.append(1)
            invalidate()

        service.pool.invalidate_engines = counted
        for segments in (1, 2):
            assert self.update(service)["ok"]
            assert store.segment_count() == segments
        assert service.stats()["compactor"]["runs"] == 0
        answer = self.update(service)
        assert answer["ok"] and answer["documents"] == ["pub", "team"]
        assert store.segment_count() == 0
        assert service.stats()["compactor"] == {
            "max_segments": 3, "runs": 1, "failures": 0,
            "segments_folded": 3}
        assert len(invalidations) == 3  # once per write, fold included
        assert "repro-compactor" not in {
            thread.name for thread in threading.enumerate()}

    def test_a_failed_fold_still_answers_the_write(self, service, capsys):
        store = service.pool.mutable_store
        store.fault_hook = crash_at("compact.apply")
        for _ in range(3):
            assert self.update(service)["ok"]
        assert store.segment_count() == 3  # the fold rolled back whole
        assert "[compaction] failed" in capsys.readouterr().err
        compactor = service.stats()["compactor"]
        assert (compactor["runs"], compactor["failures"]) == (0, 1)
        store.fault_hook = None
        assert self.update(service)["ok"]  # the next write retries
        assert store.segment_count() == 0
        compactor = service.stats()["compactor"]
        assert (compactor["runs"], compactor["failures"],
                compactor["segments_folded"]) == (1, 1, 4)

    def test_trigger_needs_a_mutable_store(self, memory_pool):
        with pytest.raises(ValueError, match="mutable corpus backend"):
            SearchService(memory_pool, compact_segments=3)

    def test_trigger_must_be_positive(self, service):
        with pytest.raises(ValueError, match="positive"):
            SearchService(service.pool, compact_segments=0)


# ---------------------------------------------------------------------- #
# The update op parses its document on a worker
# ---------------------------------------------------------------------- #
class TestUpdateParse:
    @pytest.fixture()
    def service(self, tmp_path, publications):
        db = str(tmp_path / "live.db")
        store = SQLiteStore(db)
        store.store_tree(publications, "pub")
        store.close()
        pool = EnginePool.for_backend("corpus", db_path=db, workers=1)
        service = SearchService(pool, owns_pool=True)
        yield service
        service.close()

    def test_the_xml_parses_off_the_event_loop(self, service, monkeypatch):
        import repro.service.server as server_module
        parse = server_module.parse_string
        parsed_on = []

        def recording_parse(*args, **kwargs):
            parsed_on.append(threading.get_ident())
            return parse(*args, **kwargs)

        monkeypatch.setattr(server_module, "parse_string", recording_parse)

        async def drive():
            good = await service.handle({
                "op": "update", "doc": "team",
                "xml": to_xml_string(team_tree())})
            bad = await service.handle({
                "op": "update", "doc": "team", "xml": "<team><player></team>"})
            return threading.get_ident(), good, bad

        loop_thread, good, bad = asyncio.run(drive())
        assert good["ok"] and good["documents"] == ["pub", "team"]
        assert bad["error"]["code"] == "bad_request"
        assert bad["error"]["message"].startswith("unparsable xml: ")
        assert len(parsed_on) == 2 and loop_thread not in parsed_on


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
