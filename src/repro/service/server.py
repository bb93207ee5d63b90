"""The asyncio front end: newline-delimited JSON over TCP.

Three layers, assembled by :class:`ServiceConfig.build` or by hand:

* :class:`SearchService` — transport-free request dispatch.  Validates the
  request, runs it through admission control (bounded in-flight depth +
  deadline) and answers with the canonical payloads of
  :mod:`~repro.service.protocol`.  ``search`` goes through the
  :class:`~repro.service.batcher.RequestBatcher`; ``compare`` and ``rank``
  dispatch straight to the pool.
* :class:`SearchServer` — binds the service to a TCP socket with
  :func:`asyncio.start_server`; one JSON object per line in, one per line
  out, requests of one connection answered in order.
* :class:`ServerThread` — hosts a server (and its event loop) on a
  background thread, for tests, examples and the self-hosting load
  generator.

Supported operations::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "algorithms"}
    {"op": "search",  "query": ..., "algorithm": ..., "doc_filter": [...]}
    {"op": "compare", "query": ..., "doc_filter": [...]}
    {"op": "rank",    "query": ..., "algorithm": ..., "doc_filter": [...],
                      "top_k": ..., "early_terminate": ..., "explain": ...}
    {"op": "update",     "doc": ..., "xml": ..., "key": ...}
    {"op": "delete_doc", "doc": ..., "key": ...}
    {"op": "compact"}

Every request may carry an ``id``, echoed verbatim in the response.  Every
backend serves a corpus (a single document is a corpus of one), so every
answer is doc-tagged, and ``doc_filter`` (a list of doc ids) restricts a
request to a subset of the served documents; an unknown id answers the
typed ``bad_request`` error, as does a request carrying the removed
per-request content-feature option (the served cID is always (min, max)).

``update`` and ``delete_doc`` are the live-mutation operations: the first
shreds the ``xml`` payload into a delta segment under the given doc id
(adding the document if it is new, shadowing the stored version otherwise),
the second writes a tombstone.  Both need a corpus backend served from a
database (``--backend corpus --db ...``) without a pinned document subset —
anything else answers ``unsupported``.  After a mutation commits, the pool's
worker engines are invalidated, so every later request sees the new corpus
without a restart; responses carry the delta segment id and the live
document list.

Mutations may carry an idempotency ``key``: replaying a keyed mutation
whose response was lost answers the original outcome from the idempotency
ledger instead of applying it twice.  ``compact`` folds every delta
segment into the base generation on demand (the background compactor does
the same on a segment-count trigger).  Storage faults during a mutation
answer the typed ``degraded`` error — safe to retry, because each mutation
is one SQLite transaction that a fault rolls back whole.
"""

from __future__ import annotations

import asyncio
import sqlite3
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from types import TracebackType
from typing import Dict, List, Optional, Tuple, Type, Union

from ..core import ALGORITHM_NAMES, Query
from ..core.errors import EmptyQueryError
from ..faults import FaultPlan
from ..obs import MetricsRegistry, Snapshot, merge_snapshots, split_series_key
from ..obs import names as metric_names
from ..storage import SQLiteStore
from ..storage.errors import DocumentNotFound
from ..xmltree import ParseError, XMLTree, parse_string
from .admission import DEFAULT_MAX_INFLIGHT, AdmissionController
from .batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_WAIT_SECONDS,
    RequestBatcher,
)
from .compactor import BackgroundCompactor
from .engine_pool import DEFAULT_CACHE_SIZE, DEFAULT_WORKERS, EnginePool
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEGRADED,
    ERROR_INTERNAL,
    ERROR_UNKNOWN_ALGORITHM,
    ERROR_UNSUPPORTED,
    ServiceError,
    comparison_payload,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    rank_stats_payload,
    ranking_payload,
    result_payload,
)

#: StreamReader line limit — queries are tiny, but leave headroom.
_READLINE_LIMIT = 1 << 20


def _label_value(label_body: str, key: str) -> str:
    """Extract one label's value from a snapshot key's label body."""
    for part in label_body.split(","):
        name, _, value = part.partition("=")
        if name == key:
            return value.strip('"')
    return ""


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the serving stack in one place.

    The defaults favour a laptop demo: four workers, 2 ms batch window,
    64 in-flight requests, no deadline.
    """

    backend: str = "memory"
    workers: int = DEFAULT_WORKERS
    cache_size: int = DEFAULT_CACHE_SIZE
    db_path: Optional[str] = None
    document: str = "service"
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    batch_window_seconds: float = DEFAULT_MAX_WAIT_SECONDS
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    timeout_seconds: Optional[float] = None
    #: Corpus backend only: serve this doc-id subset of the database
    #: instead of every stored document.
    documents: Optional[Tuple[str, ...]] = None
    #: Log (and count) requests slower than this many seconds; ``None``
    #: disables the slow-query log.
    slow_query_seconds: Optional[float] = None
    #: Fault-plan spec string (``seed=7,error=0.05,...``) injected at the
    #: storage seam; ``None`` serves faithfully.  Needs a store-backed
    #: backend (sqlite, or corpus with ``db_path``).
    fault_plan: Optional[str] = None
    #: Start a background compactor folding delta segments once this many
    #: pile up; ``None`` disables it.  Needs a mutable corpus backend.
    compact_segments: Optional[int] = None
    #: Poll period of the background compactor's trigger check.
    compact_interval_seconds: float = 0.5

    def build(self, tree: Optional[XMLTree] = None) -> "SearchService":
        """Assemble pool + batcher + admission into a ready service.

        One shared :class:`~repro.obs.MetricsRegistry` carries the
        service-level series (requests, queue waits, shed counters); worker
        engines keep per-thread registries merged on snapshot.
        """
        plan = (FaultPlan.parse(self.fault_plan)
                if self.fault_plan else None)
        pool = EnginePool.for_backend(
            self.backend, tree=tree, workers=self.workers,
            cache_size=self.cache_size, db_path=self.db_path,
            document=self.document,
            documents=self.documents,
            fault_plan=plan)
        metrics = MetricsRegistry()
        if plan is not None:
            plan.bind(metrics)
        if pool.mutable_store is not None:
            pool.mutable_store.set_metrics(metrics)
        compactor: Optional[BackgroundCompactor] = None
        if self.compact_segments is not None:
            if pool.mutable_store is None:
                pool.shutdown()
                raise ValueError(
                    "background compaction needs a mutable corpus backend "
                    "(--backend corpus --db ...)")
            compactor = BackgroundCompactor(
                pool.mutable_store, pool, self.compact_segments,
                self.compact_interval_seconds, metrics=metrics)
        return SearchService(
            pool,
            batcher=RequestBatcher(pool, self.max_batch_size,
                                   self.batch_window_seconds,
                                   metrics=metrics),
            admission=AdmissionController(self.max_inflight,
                                          self.timeout_seconds,
                                          metrics=metrics),
            owns_pool=True,
            metrics=metrics,
            slow_query_seconds=self.slow_query_seconds,
            compactor=compactor,
        )


class SearchService:
    """Transport-free dispatch: a request dict in, a response dict out."""

    #: Ops that are answered without touching engines or admission.  They
    #: deliberately record **no** request metrics: a ``stats`` request must
    #: return exactly the state the service was in when it arrived (this is
    #: what makes the wire response byte-identical to a direct
    #: :meth:`stats` call).
    _INTROSPECTION_OPS = frozenset({"ping", "stats", "algorithms"})

    #: The measured ops the dispatcher serves; every other op string is
    #: recorded as ``unknown``, so clients cannot grow the series unbounded.
    _SERVED_OPS = frozenset({"search", "compare", "rank", "update",
                             "delete_doc", "compact"})

    def __init__(self, pool: EnginePool,
                 batcher: Optional[RequestBatcher] = None,
                 admission: Optional[AdmissionController] = None,
                 owns_pool: bool = False,
                 metrics: Optional[MetricsRegistry] = None,
                 slow_query_seconds: Optional[float] = None,
                 compactor: Optional[BackgroundCompactor] = None) -> None:
        if slow_query_seconds is not None and slow_query_seconds < 0:
            # Constructor-time misconfiguration, not a wire answer.
            raise ValueError(f"slow_query_seconds must be >= 0, "  # lint: allow(typed-errors)
                             f"got {slow_query_seconds}")
        self.pool = pool
        self.batcher = batcher if batcher is not None else RequestBatcher(pool)
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry())
        self.slow_query_seconds = slow_query_seconds
        self._owns_pool = owns_pool
        self.compactor = compactor
        if compactor is not None:
            compactor.start()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one request; never raises — failures become typed errors."""
        request_id = request.get("id")
        op = str(request.get("op", "search"))
        measured = op not in self._INTROSPECTION_OPS
        if op not in self._SERVED_OPS:
            op = "unknown"
        started = perf_counter() if measured else 0.0
        try:
            response = await self._dispatch(request)
        except ServiceError as error:
            if measured:
                self._observe_request(op, started, error.code, request)
            return error_response(error.code, error.message, request_id)
        except Exception as error:  # noqa: BLE001 - the wire needs an answer  # lint: allow(exception-discipline)
            if measured:
                self._observe_request(op, started, ERROR_INTERNAL, request)
            return error_response(ERROR_INTERNAL,
                                  f"{type(error).__name__}: {error}",
                                  request_id)
        if measured:
            self._observe_request(op, started, None, request)
        if request_id is not None:
            response["id"] = request_id
        return response

    def _observe_request(self, op: str, started: float,
                         error_code: Optional[str],
                         request: Dict[str, object]) -> None:
        """Record one answered (non-introspection) request."""
        elapsed = perf_counter() - started
        self.metrics.counter(metric_names.SERVER_REQUESTS,
                             {"op": op}).inc()
        self.metrics.histogram(metric_names.SERVER_REQUEST_SECONDS,
                               {"op": op}).observe(elapsed)
        if error_code is not None:
            self.metrics.counter(metric_names.SERVER_ERRORS,
                                 {"code": error_code}).inc()
        if (self.slow_query_seconds is not None
                and elapsed >= self.slow_query_seconds):
            self.metrics.counter(metric_names.SERVER_SLOW_QUERIES).inc()
            query = request.get("query")
            detail = f" query={query!r}" if isinstance(query, str) else ""
            print(f"[slow-query] op={op} elapsed_ms={elapsed * 1000.0:.1f} "
                  f"threshold_ms={self.slow_query_seconds * 1000.0:g}"
                  f"{detail}", file=sys.stderr)

    async def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op", "search")
        if op == "ping":
            return ok_response(pong=True)
        if op == "stats":
            return ok_response(**self._stats_payload(request))
        if op == "algorithms":
            return ok_response(algorithms=list(ALGORITHM_NAMES))
        if op == "search":
            return await self._search(request)
        if op == "compare":
            return await self._compare(request)
        if op == "rank":
            return await self._rank(request)
        if op == "update":
            return await self._update(request)
        if op == "delete_doc":
            return await self._delete_doc(request)
        if op == "compact":
            return await self._compact(request)
        raise ServiceError(ERROR_BAD_REQUEST, f"unknown op {op!r}")

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _validated(self, request: Dict[str, object]) -> Tuple[str, str]:
        """Extract and validate (query, algorithm)."""
        if "cid_mode" in request:
            raise ServiceError(ERROR_BAD_REQUEST, (
                "the per-request 'cid_mode' option was removed: every served "
                "record tree uses the (min, max) cID"))
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ServiceError(ERROR_BAD_REQUEST,
                               "a non-empty string 'query' is required")
        try:
            Query.parse(query)
        except EmptyQueryError as error:
            raise ServiceError(ERROR_BAD_REQUEST, str(error)) from None
        algorithm = request.get("algorithm", "validrtf")
        if algorithm not in ALGORITHM_NAMES:
            raise ServiceError(
                ERROR_UNKNOWN_ALGORITHM,
                f"unknown algorithm {algorithm!r}; "
                f"expected one of {list(ALGORITHM_NAMES)}")
        return query, algorithm

    @staticmethod
    def _doc_filter(request: Dict[str, object]) -> Optional[List[str]]:
        """The validated per-request ``doc_filter``, or ``None``."""
        doc_filter = request.get("doc_filter")
        if doc_filter is None:
            return None
        if not isinstance(doc_filter, list) or not doc_filter or \
                not all(isinstance(doc, str) and doc for doc in doc_filter):
            raise ServiceError(
                ERROR_BAD_REQUEST,
                "doc_filter must be a non-empty list of document ids")
        return doc_filter

    async def _search(self, request: Dict[str, object]) -> Dict[str, object]:
        query, algorithm = self._validated(request)
        doc_filter = self._doc_filter(request)
        with self.admission:
            if doc_filter is None:
                result = await self.admission.run(
                    self.batcher.submit(query, algorithm))
            else:
                # Filtered requests skip the batcher: a batch must agree on
                # its document subset, and filtered traffic is rare enough
                # that coalescing it would mostly create one-request batches.
                result = await self.admission.run(asyncio.wrap_future(
                    self.pool.search(query, algorithm,
                                     doc_filter=doc_filter)))
        return ok_response(result=result_payload(result))

    async def _compare(self, request: Dict[str, object]) -> Dict[str, object]:
        query, _ = self._validated(request)
        doc_filter = self._doc_filter(request)
        with self.admission:
            outcome = await self.admission.run(asyncio.wrap_future(
                self.pool.compare(query, doc_filter=doc_filter)))
        return ok_response(comparison=comparison_payload(outcome))

    @staticmethod
    def _rank_options(request: Dict[str, object]
                      ) -> Tuple[Optional[int], bool, bool]:
        """Validate the rank op's (top_k, early_terminate, explain) fields."""
        top_k = request.get("top_k")
        if top_k is not None and (isinstance(top_k, bool) or
                                  not isinstance(top_k, int) or top_k < 0):
            raise ServiceError(ERROR_BAD_REQUEST,
                               "top_k must be a non-negative integer")
        flags = {}
        for field in ("early_terminate", "explain"):
            value = request.get(field, False)
            if not isinstance(value, bool):
                raise ServiceError(ERROR_BAD_REQUEST,
                                   f"{field} must be a boolean")
            flags[field] = value
        if flags["early_terminate"] and top_k is None:
            raise ServiceError(ERROR_BAD_REQUEST,
                               "early_terminate needs a top_k bound to "
                               "terminate against")
        return top_k, flags["early_terminate"], flags["explain"]

    async def _rank(self, request: Dict[str, object]) -> Dict[str, object]:
        query, algorithm = self._validated(request)
        doc_filter = self._doc_filter(request)
        top_k, early_terminate, explain = self._rank_options(request)
        with self.admission:
            ranked = await self.admission.run(asyncio.wrap_future(
                self.pool.rank(query, algorithm, top_k=top_k,
                               early_terminate=early_terminate,
                               doc_filter=doc_filter)))
        return ok_response(
            ranking=ranking_payload(ranked.ranked, explain=explain),
            rank_stats=rank_stats_payload(ranked))

    # ------------------------------------------------------------------ #
    # Live mutations
    # ------------------------------------------------------------------ #
    def _mutable_store(self) -> "SQLiteStore":
        """The pool's writable store, or the typed ``unsupported`` error."""
        store = self.pool.mutable_store
        if store is None:
            raise ServiceError(
                ERROR_UNSUPPORTED,
                "live updates need a corpus backend served from a database "
                "without a pinned document subset (serve with "
                "--backend corpus --db ...)")
        return store

    @staticmethod
    def _required_doc(request: Dict[str, object]) -> str:
        doc = request.get("doc")
        if not isinstance(doc, str) or not doc.strip():
            raise ServiceError(ERROR_BAD_REQUEST,
                               "a non-empty string 'doc' is required")
        return doc

    @staticmethod
    def _idempotency_key(request: Dict[str, object]) -> Optional[str]:
        """The validated optional idempotency ``key`` of a mutation."""
        key = request.get("key")
        if key is None:
            return None
        if not isinstance(key, str) or not key.strip():
            raise ServiceError(ERROR_BAD_REQUEST,
                               "'key' must be a non-empty string when given")
        return key

    @staticmethod
    def _degraded_message(error: sqlite3.OperationalError) -> str:
        """The message of a storage fault's ``degraded`` answer."""
        return (f"storage fault during the mutation ({error}); it rolled "
                f"back whole, so a retry is clean")

    async def _update(self, request: Dict[str, object]) -> Dict[str, object]:
        store = self._mutable_store()
        doc = self._required_doc(request)
        key = self._idempotency_key(request)
        xml = request.get("xml")
        if not isinstance(xml, str) or not xml.strip():
            raise ServiceError(ERROR_BAD_REQUEST,
                               "a non-empty string 'xml' is required")
        try:
            tree = parse_string(xml, doc)
        except ParseError as error:
            raise ServiceError(ERROR_BAD_REQUEST,
                               f"unparsable xml: {error}") from None

        def mutate() -> Tuple[int, List[str]]:
            # The post-mutation reads stay inside this worker-side try as
            # well: under a fault plan they can fault too, and they must
            # answer `degraded`, not `internal`.
            try:
                segment = store.update_document(tree, doc,
                                                idempotency_key=key)
                documents = store.documents()
            except sqlite3.OperationalError as error:
                raise ServiceError(ERROR_DEGRADED,
                                   self._degraded_message(error)) from error
            # Worker engines are snapshots; rebuild them so every request
            # dispatched from here on sees the post-update corpus.
            self.pool.invalidate_engines()
            return segment, documents

        with self.admission:
            segment, documents = await self.admission.run(asyncio.wrap_future(
                self.pool.submit_direct(mutate)))
        return ok_response(updated=doc, segment=segment,
                           documents=documents)

    async def _delete_doc(self,
                          request: Dict[str, object]) -> Dict[str, object]:
        store = self._mutable_store()
        doc = self._required_doc(request)
        key = self._idempotency_key(request)

        def mutate() -> Tuple[int, List[str]]:
            try:
                # A keyed replay answers the recorded segment before any
                # liveness checks — the document is already gone, and that
                # is exactly what makes the replay a success, not a bad
                # request.
                if key is not None:
                    replay = store.replay_of(key)
                    if replay is not None:
                        return replay, store.documents()
                live = store.documents()
            except sqlite3.OperationalError as error:
                raise ServiceError(ERROR_DEGRADED,
                                   self._degraded_message(error)) from error
            if doc not in live:
                raise ServiceError(
                    ERROR_BAD_REQUEST,
                    f"no document named {doc!r}; stored: {', '.join(live)}")
            if len(live) == 1:
                raise ServiceError(
                    ERROR_BAD_REQUEST,
                    f"refusing to delete {doc!r}: it is the last live "
                    f"document (a corpus backend cannot serve an empty "
                    f"database)")
            try:
                segment = store.delete_document(doc, idempotency_key=key)
                documents = store.documents()
            except DocumentNotFound as error:  # raced with another delete
                raise ServiceError(ERROR_BAD_REQUEST, str(error)) from None
            except sqlite3.OperationalError as error:
                raise ServiceError(ERROR_DEGRADED,
                                   self._degraded_message(error)) from error
            self.pool.invalidate_engines()
            return segment, documents

        with self.admission:
            segment, documents = await self.admission.run(asyncio.wrap_future(
                self.pool.submit_direct(mutate)))
        return ok_response(deleted=doc, segment=segment,
                           documents=documents)

    async def _compact(self, request: Dict[str, object]) -> Dict[str, object]:
        store = self._mutable_store()

        def mutate() -> Tuple[Dict[str, int], int, List[str]]:
            try:
                outcome = store.compact()
                segments = store.segment_count()
                documents = store.documents()
            except sqlite3.OperationalError as error:
                raise ServiceError(ERROR_DEGRADED,
                                   self._degraded_message(error)) from error
            self.pool.invalidate_engines()
            return outcome, segments, documents

        with self.admission:
            outcome, segments, documents = await self.admission.run(
                asyncio.wrap_future(self.pool.submit_direct(mutate)))
        return ok_response(compacted=outcome, segments=segments,
                           documents=documents)

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def _stats_payload(self, request: Dict[str, object]) -> Dict[str, object]:
        """The ``stats`` op's payload, with optional section filtering."""
        stats = self.stats()
        section = request.get("section")
        if section is not None:
            if not isinstance(section, str) or section not in stats:
                raise ServiceError(
                    ERROR_BAD_REQUEST,
                    f"unknown stats section {section!r}; "
                    f"expected one of {sorted(stats)}")
            stats = {section: stats[section]}
        return {"stats": stats, "metrics": self.metrics_snapshot()}

    def stats(self) -> Dict[str, object]:
        """One merged stats payload: pool, batcher, admission, server.

        A ``compactor`` section appears only when a background compactor
        is attached — the key set stays stable for every other stack.
        """
        stats: Dict[str, object] = {
            "pool": self.pool.stats(),
            "batcher": self.batcher.stats(),
            "admission": self.admission.stats(),
            "server": self._server_stats(),
        }
        if self.compactor is not None:
            stats["compactor"] = self.compactor.stats()
        return stats

    def _server_stats(self) -> Dict[str, object]:
        """Front-door counters — derived from the service registry."""
        counters = self.metrics.snapshot()["counters"]
        requests: Dict[str, object] = {}
        errors: Dict[str, object] = {}
        for key, value in counters.items():
            name, labels = split_series_key(key)
            if name == metric_names.SERVER_REQUESTS:
                requests[_label_value(labels, "op")] = value
            elif name == metric_names.SERVER_ERRORS:
                errors[_label_value(labels, "code")] = value
        return {
            "requests": requests,
            "errors": errors,
            "slow_queries": counters.get(metric_names.SERVER_SLOW_QUERIES, 0),
            "slow_query_seconds": self.slow_query_seconds,
        }

    def metrics_snapshot(self) -> Snapshot:
        """Every registry of the stack, merged into one snapshot.

        Covers the service-level registry (shared with the batcher and the
        admission controller when built via :class:`ServiceConfig`, distinct
        when assembled by hand) plus every pool worker's engine registry.
        """
        registries = [self.metrics]
        for candidate in (self.batcher.metrics, self.admission.metrics):
            if all(candidate is not registry for registry in registries):
                registries.append(candidate)
        snapshots = [registry.snapshot() for registry in registries]
        snapshots.append(self.pool.metrics_snapshot())
        return merge_snapshots(snapshots)

    def close(self) -> None:
        """Stop the compactor, flush the batcher, stop an owned pool."""
        if self.compactor is not None:
            self.compactor.stop()
        self.batcher.close()
        if self._owns_pool:
            self.pool.shutdown()


# ---------------------------------------------------------------------- #
# TCP binding
# ---------------------------------------------------------------------- #
class SearchServer:
    """One JSON object per line over TCP, answered in per-connection order."""

    def __init__(self, service: SearchService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves on start)."""
        if self._server is None:
            raise RuntimeError("the server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind the socket; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=_READLINE_LIMIT)
        return self.address

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's ``serve`` loop)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        """One connection's request loop, hardened against bad peers.

        A mid-request disconnect drops this connection (counted, served
        on) without touching the others; an oversized request line gets
        the typed ``bad_request`` answer before the connection closes
        (the stream is desynchronized past that point, so it cannot be
        kept).  Malformed JSON lines answer ``bad_request`` and keep the
        connection — the framing is still intact.
        """
        metrics = self.service.metrics
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    # The peer vanished mid-request; keep serving others.
                    metrics.counter(metric_names.SERVER_DISCONNECTS).inc()
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # Line beyond the read limit.  Answer with the typed
                    # error, then close: the tail of the oversized line is
                    # still in flight, so the framing cannot recover.
                    writer.write(encode_message(error_response(
                        ERROR_BAD_REQUEST,
                        f"request line exceeds the {_READLINE_LIMIT}-byte "
                        f"limit")))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        metrics.counter(
                            metric_names.SERVER_DISCONNECTS).inc()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_message(line)
                except ServiceError as error:
                    response = error.response()
                else:
                    response = await self.service.handle(request)
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    metrics.counter(metric_names.SERVER_DISCONNECTS).inc()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


class ServerThread:
    """Host a server + event loop on a background thread.

    Accepts a ready :class:`SearchService`, a bare :class:`EnginePool` (a
    default service is wrapped around it) or a :class:`ServiceConfig` plus
    ``tree``.  Usable as a context manager::

        with ServerThread(pool) as server:
            client = ServiceClient(*server.address)
    """

    def __init__(self, service: Union[SearchService, EnginePool, ServiceConfig],
                 host: str = "127.0.0.1", port: int = 0,
                 tree: Optional[XMLTree] = None) -> None:
        if isinstance(service, ServiceConfig):
            service = service.build(tree)
        elif isinstance(service, EnginePool):
            service = SearchService(service)
        self.service = service
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        """Start the loop thread; blocks until the socket is bound."""
        if self._thread is not None:
            raise RuntimeError("the server thread is already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-server")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("the server thread did not come up")
        if self._startup_error is not None:
            raise RuntimeError("server startup failed") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = SearchServer(self.service, self.host, self.port)
        try:
            self.address = await server.start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()  # lint: allow(exception-discipline)
            self._startup_error = error
            self._loop = None  # the loop is about to close; stop() must
            self._stop = None  # not post to it
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def stop(self) -> None:
        """Stop the server and join the thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # the loop already exited (e.g. startup failed)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> None:
        self.stop()
