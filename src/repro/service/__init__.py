"""Concurrent query-serving layer over the search engine.

This package turns the single-caller library into a small serving system —
the ROADMAP's "heavy traffic" direction — without adding any dependency
beyond the standard library:

* :mod:`~repro.service.engine_pool` — a pool of per-worker
  :class:`~repro.corpus.engine.CorpusSearchEngine` instances sharing one
  immutable posting-source snapshot, so queries run in parallel threads
  while per-document work (index build, shredding) is paid once.  Every
  backend is served as a corpus; a single document is a corpus of one.
* :mod:`~repro.service.batcher` — a request coalescer: a search is
  dispatched the moment a worker is free, and searches that arrive while
  every worker is busy queue into one batch per ``(algorithm,
  doc_filter)``, run as one worker task of per-request searches.  No timer
  runs.
* :mod:`~repro.service.admission` — bounded in-flight depth, per-request
  timeouts and load shedding with typed error responses.
* :mod:`~repro.service.server` — an asyncio newline-delimited-JSON TCP
  front end exposing search / compare / rank with a per-request algorithm
  and ``doc_filter``, plus live ``update`` / ``delete_doc`` / ``compact``
  on a database-served corpus; an optional segment-count trigger folds the
  segments on the write that crosses it, so no thread polls for it.
* :mod:`~repro.service.client` — a blocking client for the same protocol.

Served throughput and latency are measured by the repository benchmark,
``python -m benchmarks.e2e --workload served-read`` (or ``served-rw``),
which drives a ``serve --db`` process with its own load generator.

Quickstart (in-process)::

    from repro.datasets import publications_tree
    from repro.service import EnginePool, ServerThread, ServiceClient

    pool = EnginePool.for_backend("memory", tree=publications_tree(),
                                  workers=4)
    with ServerThread(pool) as server:
        with ServiceClient(*server.address) as client:
            print(client.search("xml keyword search")["count"])

Or from the command line: ``python -m repro.cli serve`` (and
``python -m repro.cli metrics --address HOST:PORT`` to scrape it).
"""

from .admission import AdmissionController
from .batcher import RequestBatcher
from .client import RetryPolicy, ServiceClient
from .engine_pool import EnginePool
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEGRADED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_UNKNOWN_ALGORITHM,
    ERROR_UNSUPPORTED,
    ServiceError,
    comparison_payload,
    corpus_result_payload,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    rank_stats_payload,
    ranking_payload,
    result_payload,
    score_explanation_payload,
)
from .server import SearchServer, SearchService, ServerThread, ServiceConfig

__all__ = [
    "AdmissionController",
    "EnginePool",
    "RequestBatcher",
    "RetryPolicy",
    "SearchServer",
    "SearchService",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ERROR_BAD_REQUEST",
    "ERROR_DEGRADED",
    "ERROR_INTERNAL",
    "ERROR_OVERLOADED",
    "ERROR_TIMEOUT",
    "ERROR_UNKNOWN_ALGORITHM",
    "ERROR_UNSUPPORTED",
    "comparison_payload",
    "corpus_result_payload",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
    "rank_stats_payload",
    "ranking_payload",
    "result_payload",
    "score_explanation_payload",
]
