"""A pool of per-worker corpus engines over one shared snapshot.

The search pipelines are CPU-bound Python with mutable per-engine state
(memoization caches, posting LRUs), so the pool gives every worker thread its
**own** :class:`~repro.corpus.engine.CorpusSearchEngine` while sharing the
expensive immutable substrate exactly once.  Every backend is served as a
corpus — a single document is a corpus of one, tagged with its name:

* ``memory`` and ``corpus`` without a database — one set of per-document
  :class:`~repro.index.inverted.InvertedIndex` snapshots is built once and
  shared by every worker engine (posting lists and node cIDs are read-only
  after the build, so queries never write the shared snapshot).
* ``sqlite`` and ``corpus`` with a database — one shared
  :class:`~repro.storage.sqlite_backend.SQLiteStore`; every document serves
  its live generation, including one absorbed through ``index --update``
  into a delta segment.  Each worker
  engine wraps it in its own per-document posting sources (private posting
  LRUs); the store hands every thread its own sqlite connection, so disk
  reads genuinely parallelize.  ``sqlite`` serves one document of the
  store, ``corpus`` every document (or a pinned subset).

What a backend serves is decided once, by :func:`~repro.corpus.open_corpus`.
Work is executed on a :class:`~concurrent.futures.ThreadPoolExecutor`; every
submission receives the calling thread's engine as its first argument.  The
asyncio front end bridges the returned futures with
:func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from types import TracebackType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core.cache import CacheStats
from ..core.query import QueryLike
from ..corpus import CorpusComparisonOutcome, CorpusSearchEngine, open_corpus
from ..corpus.engine import RankedCorpusSearch
from ..faults import FaultPlan
from ..obs import MetricsRegistry, Snapshot, merge_snapshots
from ..obs import names as metric_names
from .protocol import ERROR_BAD_REQUEST, ERROR_DEGRADED, ServiceError
from ..storage import SQLiteStore
from ..storage.errors import DocumentNotFound
from ..xmltree import XMLTree

#: Default number of worker threads (and therefore engines).
DEFAULT_WORKERS = 4

#: Default per-engine query-result cache capacity.  Serving workloads are
#: repeat-heavy, so unlike the measurement protocol the service caches by
#: default; pass ``cache_size=0`` for always-cold engines.
DEFAULT_CACHE_SIZE = 256


class EnginePool:
    """N worker threads, each owning one engine over a shared snapshot.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one worker's engine.  Called at most
        once per worker thread, lazily on that thread (so thread-affine
        resources like sqlite connections are created where they are used).
    workers:
        Number of worker threads.
    """

    def __init__(self, engine_factory: Callable[[], CorpusSearchEngine],
                 workers: int = DEFAULT_WORKERS,
                 name: str = "repro-service",
                 rebuild_backoff_seconds: float = 0.5,
                 max_rebuild_backoff_seconds: float = 30.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if rebuild_backoff_seconds <= 0:
            raise ValueError("rebuild_backoff_seconds must be positive")
        self.workers = workers
        self._factory = engine_factory
        #: Quarantine schedule after a failed engine rebuild: the worker
        #: refuses work (typed ``degraded``) for an exponentially growing
        #: backoff instead of re-running a failing factory per request —
        #: and instead of poisoning the pool for good.
        self.rebuild_backoff_seconds = rebuild_backoff_seconds
        self.max_rebuild_backoff_seconds = max_rebuild_backoff_seconds
        #: Pool-level self-healing counters (rebuilds, quarantines); merged
        #: into :meth:`metrics_snapshot` alongside the engine registries.
        self.metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix=name)
        self._local = threading.local()
        self._engines: List[CorpusSearchEngine] = []
        # One registry per worker engine ever built (kept across engine
        # invalidations so the counters stay cumulative); merged lazily by
        # :meth:`metrics_snapshot`.
        self._engine_registries: List[MetricsRegistry] = []
        self._engines_lock = threading.Lock()
        self._closed = False
        #: Bumped by :meth:`invalidate_engines`; worker engines built under
        #: an older generation are discarded and rebuilt on next use.
        self._engine_version = 0
        #: Set by :meth:`for_backend`: the shared
        #: :class:`~repro.storage.sqlite_backend.SQLiteStore` live updates
        #: are written to (``None`` for immutable backends, and for corpus
        #: pools pinned to a document subset).
        self.mutable_store: Optional[SQLiteStore] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_backend(cls, backend: str, tree: Optional[XMLTree] = None,
                    workers: int = DEFAULT_WORKERS,
                    cache_size: int = DEFAULT_CACHE_SIZE,
                    db_path: Optional[str] = None,
                    document: Optional[str] = "service",
                    trees: Optional[Dict[str, XMLTree]] = None,
                    documents: Optional[Sequence[str]] = None,
                    fault_plan: Optional[FaultPlan] = None) -> "EnginePool":
        """A pool of ``workers`` engines over what
        :func:`~repro.corpus.open_corpus` opens for ``backend``: it holds
        every rule about what a backend serves.  The pool takes live writes
        when the opened corpus does (:attr:`mutable_store`).
        """
        factory, store = open_corpus(
            backend, db_path=db_path, document=document, documents=documents,
            tree=tree, trees=trees, fault_plan=fault_plan,
            cache_size=cache_size)
        pool = cls(factory, workers=workers)
        pool.mutable_store = store
        return pool

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _thread_engine(self) -> CorpusSearchEngine:
        """This worker thread's engine, built on first use.

        An engine built before the last :meth:`invalidate_engines` call is
        discarded and rebuilt here, so every request dispatched after a
        mutation commits sees the post-mutation corpus.
        """
        engine = getattr(self._local, "engine", None)
        version = getattr(self._local, "engine_version", -1)
        if engine is None or version != self._engine_version:
            quarantined_until = getattr(self._local, "quarantined_until", 0.0)
            remaining = quarantined_until - time.monotonic()
            if remaining > 0:
                self.metrics.counter(
                    metric_names.POOL_QUARANTINE_REFUSALS).inc()
                raise ServiceError(
                    ERROR_DEGRADED,
                    f"worker quarantined for another {remaining:.2f}s after "
                    f"an engine rebuild failure; capacity is reduced, retry "
                    f"shortly")
            try:
                engine = self._factory()
            except ServiceError:
                raise
            except Exception as error:
                # Quarantine this worker instead of poisoning the pool: it
                # backs off exponentially and retries the build when the
                # window expires, so a transient storage fault heals itself.
                failures = getattr(self._local, "rebuild_failures", 0) + 1
                self._local.rebuild_failures = failures
                backoff = min(self.max_rebuild_backoff_seconds,
                              self.rebuild_backoff_seconds
                              * (2 ** (failures - 1)))
                self._local.quarantined_until = time.monotonic() + backoff
                self.metrics.counter(
                    metric_names.POOL_REBUILD_FAILURES).inc()
                raise ServiceError(
                    ERROR_DEGRADED,
                    f"worker engine rebuild failed "
                    f"({type(error).__name__}: {error}); quarantined for "
                    f"{backoff:.2f}s") from error
            self._local.rebuild_failures = 0
            self._local.quarantined_until = 0.0
            self.metrics.counter(metric_names.POOL_REBUILDS).inc()
            # Every worker engine observes into its own registry (no lock
            # contention between workers on the hot path); snapshots are
            # merged on demand.
            registry = MetricsRegistry()
            engine.set_metrics(registry)
            self._local.engine = engine
            self._local.engine_version = self._engine_version
            with self._engines_lock:
                self._engines.append(engine)
                self._engine_registries.append(registry)
        return engine

    def invalidate_engines(self) -> None:
        """Discard every worker's engine; they rebuild lazily on next use.

        Called once after a live mutation (``update`` / ``delete_doc``, and
        the compaction it may trigger) or a ``compact`` commits: worker
        engines are snapshots over the shared store, so absorbing a write
        means rebuilding them — in-flight requests finish on their old
        snapshot, later ones see the new state.
        """
        with self._engines_lock:
            self._engine_version += 1
            self._engines.clear()

    def submit_direct(self, fn: Callable[..., object],
                      *args: object) -> Future:
        """Run ``fn(*args)`` on a worker thread, without an engine argument.

        For store-level mutations, which need the executor (so the event
        loop never blocks on sqlite writes) but not a search engine.
        """
        if self._closed:
            raise RuntimeError("the engine pool is shut down")
        return self._executor.submit(fn, *args)

    def submit(self, fn: Callable[..., object], *args: object,
               **kwargs: object) -> Future:
        """Run ``fn(engine, *args, **kwargs)`` on a worker thread."""
        if self._closed:
            raise RuntimeError("the engine pool is shut down")
        return self._executor.submit(self._invoke, fn, args, kwargs)

    def _invoke(self, fn: Callable[..., object], args: Tuple[object, ...],
                kwargs: Dict[str, object]) -> object:
        try:
            return fn(self._thread_engine(), *args, **kwargs)
        except sqlite3.OperationalError as error:
            # Transient storage trouble (a flaky disk, or an injected
            # chaos fault) is a typed, retryable condition — not an
            # internal error.
            raise ServiceError(
                ERROR_DEGRADED,
                f"storage fault while serving the request: {error}"
            ) from error
        except DocumentNotFound as error:
            # A doc_filter naming a document the engine does not serve.
            raise ServiceError(ERROR_BAD_REQUEST, str(error)) from None

    def compare(self, query: QueryLike,
                doc_filter: Optional[Sequence[str]] = None
                ) -> "Future[CorpusComparisonOutcome]":
        """ValidRTF-vs-MaxMatch comparison on any worker."""
        return self.submit(
            lambda engine, q, f: engine.compare(q, doc_filter=f),
            query, doc_filter)

    def rank(self, query: QueryLike, algorithm: str = "validrtf",
             top_k: Optional[int] = None, early_terminate: bool = False,
             doc_filter: Optional[Sequence[str]] = None
             ) -> "Future[RankedCorpusSearch]":
        """Ranked retrieval on one worker, with visit accounting."""
        return self.submit(
            lambda engine, q, a, k, early, f: engine.rank_search(
                q, a, top_k=k, doc_filter=f, early_terminate=early),
            query, algorithm, top_k, early_terminate, doc_filter)

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def warm(self, timeout: float = 30.0) -> int:
        """Force every worker thread to build its engine now.

        Returns the number of engines alive afterwards.  A barrier keeps the
        priming tasks from being served by a subset of the workers.
        """
        barrier = threading.Barrier(self.workers)

        def prime() -> None:
            self._thread_engine()
            barrier.wait(timeout)

        futures = [self._executor.submit(prime) for _ in range(self.workers)]
        for future in futures:
            future.result(timeout)
        return self.engine_count

    @property
    def engine_count(self) -> int:
        """Number of worker engines built so far."""
        with self._engines_lock:
            return len(self._engines)

    @property
    def backend_id(self) -> Optional[str]:
        """The shared backend identity, once at least one engine exists."""
        with self._engines_lock:
            return self._engines[0].backend_id if self._engines else None

    def cache_stats(self) -> CacheStats:
        """Aggregated query-cache counters across all worker engines."""
        with self._engines_lock:
            engines = list(self._engines)
        totals = [engine.cache_stats() for engine in engines]
        return CacheStats(
            hits=sum(stats.hits for stats in totals),
            misses=sum(stats.misses for stats in totals),
            evictions=sum(stats.evictions for stats in totals),
            size=sum(stats.size for stats in totals),
            max_size=sum(stats.max_size for stats in totals),
        )

    def metrics_snapshot(self) -> Snapshot:
        """Merged engine-level metrics across every worker registry.

        Registries of invalidated (discarded) engines are included, so the
        counters remain cumulative across live-mutation rebuilds.
        """
        with self._engines_lock:
            registries = [self.metrics, *self._engine_registries]
        return merge_snapshots([registry.snapshot()
                                for registry in registries])

    def stats(self) -> Dict[str, object]:
        """Pool-level counters for the ``stats`` endpoint.

        Cache hits and misses come from the merged registry, so they stay
        cumulative across engine rebuilds; the other cache fields describe
        the live engines' caches.
        """
        cache = self.cache_stats()
        counters = self.metrics_snapshot()["counters"]
        return {
            "workers": self.workers,
            "engines": self.engine_count,
            "backend": self.backend_id,
            "rebuilds": counters.get(metric_names.POOL_REBUILDS, 0),
            "rebuild_failures": counters.get(
                metric_names.POOL_REBUILD_FAILURES, 0),
            "quarantine_refusals": counters.get(
                metric_names.POOL_QUARANTINE_REFUSALS, 0),
            "cache": {
                "hits": counters.get(metric_names.CACHE_HITS, 0),
                "misses": counters.get(metric_names.CACHE_MISSES, 0),
                "evictions": cache.evictions,
                "size": cache.size,
                "max_size": cache.max_size,
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (idempotent)."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"EnginePool(workers={self.workers}, "
                f"engines={self.engine_count}, backend={self.backend_id!r})")
