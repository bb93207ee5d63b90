"""Request coalescing: concurrent searches become ``search_many`` batches.

Concurrent callers frequently query overlapping keywords (hot queries, shared
vocabulary).  :meth:`CorpusSearchEngine.search_many` already amortizes
stage 1 by fetching the posting lists of a batch's keyword *union* once per
document — the batcher is the asyncio shim that turns independent in-flight
requests into such batches:

* requests are bucketed by algorithm (the one knob a batch must agree
  on),
* a bucket flushes when it reaches ``max_batch_size`` **or** when
  ``max_wait_seconds`` elapses since its first request — the classic
  size-or-deadline window, so a lone request pays at most the window in
  added latency and a burst pays (almost) none,
* each flush dispatches one :meth:`EnginePool.search_many` call to a single
  worker and fans the results back out to the per-request futures.

Failures propagate to every request of the batch; requests whose future was
already cancelled (deadline hit while queued) are skipped.

All batching counters — requests, batches, flush causes — plus the
queue-wait and batch-occupancy histograms live in a
:class:`~repro.obs.MetricsRegistry`; :meth:`RequestBatcher.stats` is derived
from it, so the ``stats`` wire op and a metrics scrape always agree.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from ..core.query import QueryLike
from ..corpus import CorpusSearchResult
from ..obs import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from ..obs import names as metric_names
from .engine_pool import EnginePool
from .protocol import ERROR_INTERNAL, ServiceError

#: Default flush-on-size bound.
DEFAULT_MAX_BATCH_SIZE = 16

#: Default flush-on-deadline window (seconds).
DEFAULT_MAX_WAIT_SECONDS = 0.002

#: A bucket key: the algorithm all requests of one batch share.
BatchKey = str

#: One queued request: (query, its future, its enqueue timestamp).
_Entry = Tuple[object, "asyncio.Future", float]


class _Bucket:
    """The open batch of one algorithm."""

    __slots__ = ("entries", "timer")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class RequestBatcher:
    """Coalesce concurrent search requests into engine-level batches.

    Must be used from a running asyncio event loop (the server's); the pool's
    worker threads never touch the batcher.
    """

    def __init__(self, pool: EnginePool,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds must be >= 0, got {max_wait_seconds}")
        self.pool = pool
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry())
        self._buckets: Dict[BatchKey, _Bucket] = {}
        # Strong references to in-flight flush tasks: the event loop only
        # keeps weak ones, and a collected task would drop its whole batch.
        self._tasks: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, query: QueryLike,
                     algorithm: str = "validrtf") -> CorpusSearchResult:
        """Enqueue one query; resolves when its batch has been computed."""
        if self._closed:
            raise ServiceError(ERROR_INTERNAL, "the batcher is shut down")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.get(algorithm)
        if bucket is None:
            bucket = self._buckets[algorithm] = _Bucket()
        bucket.entries.append((query, future, time.monotonic()))
        self.metrics.counter(metric_names.BATCHER_REQUESTS).inc()
        if len(bucket.entries) >= self.max_batch_size:
            self.metrics.counter(metric_names.BATCHER_SIZE_FLUSHES).inc()
            self._flush(algorithm)
        elif bucket.timer is None:
            bucket.timer = loop.call_later(self.max_wait_seconds,
                                           self._timer_flush, algorithm)
        return await future

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #
    def _timer_flush(self, key: BatchKey) -> None:
        if key in self._buckets:
            self.metrics.counter(metric_names.BATCHER_TIMER_FLUSHES).inc()
            self._flush(key)

    def _flush(self, key: BatchKey) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        if bucket.entries:
            self.metrics.counter(metric_names.BATCHER_BATCHES).inc()
            self.metrics.histogram(
                metric_names.BATCHER_BATCH_SIZE,
                buckets=DEFAULT_COUNT_BUCKETS,
            ).observe(len(bucket.entries))
            flushed_at = time.monotonic()
            waits = self.metrics.histogram(
                metric_names.BATCHER_QUEUE_WAIT_SECONDS)
            for _, _, enqueued_at in bucket.entries:
                waits.observe(flushed_at - enqueued_at)
            task = asyncio.ensure_future(self._run_batch(key, bucket.entries))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, algorithm: BatchKey,
                         entries: List[_Entry]) -> None:
        queries = [query for query, _, _ in entries]
        try:
            results = await asyncio.wrap_future(
                self.pool.search_many(queries, algorithm))
        except Exception as error:  # noqa: BLE001 - fan the failure out  # lint: allow(exception-discipline)
            for _, future, _ in entries:
                if not future.done():
                    future.set_exception(_as_service_error(error))
            return
        for (_, future, _), result in zip(entries, results):
            if not future.done():
                future.set_result(result)

    def flush_all(self) -> None:
        """Flush every open bucket immediately (used on shutdown)."""
        for key in list(self._buckets):
            self._flush(key)

    def close(self) -> None:
        """Flush pending work and refuse new submissions."""
        self._closed = True
        self.flush_all()

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
            "max_batch_size": self.max_batch_size,
            "max_wait_seconds": self.max_wait_seconds,
            "requests": requests,
            "batches": batches,
            "largest_batch": int(sizes["max"]) if sizes else 0,
            "size_flushes": counters.get(
                metric_names.BATCHER_SIZE_FLUSHES, 0),
            "timer_flushes": counters.get(
                metric_names.BATCHER_TIMER_FLUSHES, 0),
            "mean_batch_size": (requests / batches if batches else 0.0),
            "mean_queue_wait_ms": (
                round(waits["sum"] / waits["count"] * 1000.0, 4)
                if waits and waits["count"] else 0.0),
        }

    def __repr__(self) -> str:
        return (f"RequestBatcher(max_batch_size={self.max_batch_size}, "
                f"window={self.max_wait_seconds}s, open={len(self._buckets)})")


def _as_service_error(error: Exception) -> ServiceError:
    """Wrap a worker-side failure for the wire (idempotent)."""
    if isinstance(error, ServiceError):
        return error
    return ServiceError(ERROR_INTERNAL, f"{type(error).__name__}: {error}")
