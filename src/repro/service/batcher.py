"""Request coalescing: concurrent searches share one worker task.

The batcher is the asyncio shim between independent in-flight search
requests and the engine pool, and it never holds a request while a worker
is free:

* a search is dispatched the moment it arrives while fewer batches are in
  flight than the pool has workers;
* otherwise it queues under its ``(algorithm, doc_filter)`` key — what
  every request of one batch must agree on — and each batch that completes
  dispatches the key whose oldest request has waited longest, up to
  :data:`MAX_BATCH_SIZE` of its requests;
* each dispatch is one pool task that runs
  :meth:`~repro.corpus.engine.CorpusSearchEngine.search` for each of the
  batch's requests in turn, on a single worker, and fans the results back
  out to the per-request futures.  The searches share no posting fetch; a
  query repeated in a batch is a result-cache hit when the cache is on.

So requests coalesce exactly when they would otherwise wait for a worker,
and no timer runs.  Failures propagate to every request of the batch; a
queued request whose future is already done (its deadline expired) is
dropped at dispatch and never reaches a worker.

All batching counters — requests, batches — plus the queue-wait and
batch-occupancy histograms live in a :class:`~repro.obs.MetricsRegistry`;
:meth:`RequestBatcher.stats` is derived from it, so the ``stats`` wire op
and a metrics scrape always agree.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.query import QueryLike
from ..corpus import CorpusSearchEngine, CorpusSearchResult
from ..obs import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from ..obs import names as metric_names
from .engine_pool import EnginePool
from .protocol import ERROR_INTERNAL, ServiceError

#: The most requests one batch carries.
MAX_BATCH_SIZE = 16

#: A batch key: the algorithm and document subset its requests share.
BatchKey = Tuple[str, Optional[Tuple[str, ...]]]

#: One queued request: (query, its future, its enqueue timestamp).
_Entry = Tuple[QueryLike, "asyncio.Future[CorpusSearchResult]", float]


class RequestBatcher:
    """Coalesce concurrent search requests into engine-level batches.

    Must be used from a running asyncio event loop (the server's); the pool's
    worker threads never touch the batcher.
    """

    def __init__(self, pool: EnginePool,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.pool = pool
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry())
        self._queues: Dict[BatchKey, List[_Entry]] = {}
        self._in_flight = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, query: QueryLike, algorithm: str = "validrtf",
               doc_filter: Optional[Sequence[str]] = None
               ) -> "asyncio.Future[CorpusSearchResult]":
        """Enqueue one query; the future resolves with its result.

        When a worker is free the query is dispatched before this returns.
        """
        if self._closed:
            raise ServiceError(ERROR_INTERNAL, "the batcher is shut down")
        future = asyncio.get_running_loop().create_future()
        key = (algorithm, None if doc_filter is None else tuple(doc_filter))
        self._queues.setdefault(key, []).append(
            (query, future, time.monotonic()))
        self.metrics.counter(metric_names.BATCHER_REQUESTS).inc()
        self._pump()
        return future

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        """Dispatch queued work while a worker is free."""
        while self._queues and self._in_flight < self.pool.workers:
            self._dispatch_oldest()

    def _dispatch_oldest(self) -> None:
        key = min(self._queues, key=lambda queued: self._queues[queued][0][2])
        live = [entry for entry in self._queues.pop(key)
                if not entry[1].done()]
        if len(live) > MAX_BATCH_SIZE:
            self._queues[key] = live[MAX_BATCH_SIZE:]
        if live:
            self._dispatch(key, live[:MAX_BATCH_SIZE])

    def _dispatch(self, key: BatchKey, batch: List[_Entry]) -> None:
        self.metrics.counter(metric_names.BATCHER_BATCHES).inc()
        self.metrics.histogram(
            metric_names.BATCHER_BATCH_SIZE,
            buckets=DEFAULT_COUNT_BUCKETS,
        ).observe(len(batch))
        dispatched_at = time.monotonic()
        waits = self.metrics.histogram(metric_names.BATCHER_QUEUE_WAIT_SECONDS)
        for _, _, enqueued_at in batch:
            waits.observe(dispatched_at - enqueued_at)
        algorithm, doc_filter = key
        try:
            pending = self.pool.submit(
                _search_each, [query for query, _, _ in batch], algorithm,
                doc_filter)
        except Exception as error:  # noqa: BLE001 - fan the failure out  # lint: allow(exception-discipline)
            _fail(batch, error)
            return
        self._in_flight += 1
        # The callback runs on the loop the requests wait on; once that loop
        # has closed, wrap_future drops the result instead of raising.
        completion = asyncio.wrap_future(pending,
                                         loop=batch[0][1].get_loop())
        completion.add_done_callback(functools.partial(self._complete, batch))

    def _complete(self, batch: List[_Entry],
                  done: "asyncio.Future[List[CorpusSearchResult]]") -> None:
        self._in_flight -= 1
        try:
            results = done.result()
        except Exception as error:  # noqa: BLE001 - fan the failure out  # lint: allow(exception-discipline)
            _fail(batch, error)
        else:
            for (_, future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        self._pump()

    def close(self) -> None:
        """Dispatch everything still queued, then refuse new submissions."""
        while self._queues:
            self._dispatch_oldest()
        self._closed = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Batching counters for the ``stats`` endpoint / load reports.

        Derived entirely from the metrics registry: ``largest_batch`` is the
        batch-size histogram's maximum; ``mean_queue_wait_ms`` the queue-wait
        histogram's mean.
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        requests = counters.get(metric_names.BATCHER_REQUESTS, 0)
        batches = counters.get(metric_names.BATCHER_BATCHES, 0)
        sizes = histograms.get(metric_names.BATCHER_BATCH_SIZE)
        waits = histograms.get(metric_names.BATCHER_QUEUE_WAIT_SECONDS)
        return {
            "requests": requests,
            "batches": batches,
            "largest_batch": int(sizes["max"]) if sizes else 0,
            "mean_batch_size": (requests / batches if batches else 0.0),
            "mean_queue_wait_ms": (
                round(waits["sum"] / waits["count"] * 1000.0, 4)
                if waits and waits["count"] else 0.0),
        }

    def __repr__(self) -> str:
        queued = sum(len(queue) for queue in self._queues.values())
        return (f"RequestBatcher(in_flight={self._in_flight}/"
                f"{self.pool.workers}, queued={queued})")


def _search_each(engine: CorpusSearchEngine, queries: List[QueryLike],
                 algorithm: str, doc_filter: Optional[Sequence[str]]
                 ) -> List[CorpusSearchResult]:
    """One batch's task on a worker: each request's search, in order."""
    return [engine.search(query, algorithm, doc_filter=doc_filter)
            for query in queries]


def _fail(batch: List[_Entry], error: Exception) -> None:
    """Answer every still-waiting request of a batch with ``error``."""
    for _, future, _ in batch:
        if not future.done():
            future.set_exception(_as_service_error(error))


def _as_service_error(error: Exception) -> ServiceError:
    """Wrap a worker-side failure for the wire (idempotent)."""
    if isinstance(error, ServiceError):
        return error
    return ServiceError(ERROR_INTERNAL, f"{type(error).__name__}: {error}")
