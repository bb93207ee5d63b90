"""Blocking client for the newline-delimited-JSON search protocol.

One socket, one request in flight at a time (the server answers a
connection's requests in order).  The load generator opens one client per
simulated user; tests use it to compare served payloads with direct engine
calls.

Self-healing: constructed with a :class:`RetryPolicy`, the client retries
requests that fail with a retryable typed error (``overloaded``,
``timeout``, ``degraded``) or a transport error, sleeping an exponential
backoff with deterministic jitter between attempts and reconnecting after
transport failures.  Mutations (:meth:`update` / :meth:`delete_doc`)
always carry a generated idempotency key that is reused across retries,
so a replay of a mutation whose response was lost is a ledger-backed
no-op answering the original result — retrying a mutation can never
double-apply it.
"""

from __future__ import annotations

import itertools
import socket
import time
import uuid
from dataclasses import dataclass, field
from random import Random
from types import TracebackType
from typing import BinaryIO, Dict, Optional, Tuple, Type

from .protocol import (
    ERROR_DEGRADED,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ServiceError,
    decode_message,
    encode_message,
)

#: Distinguishes the deterministic jitter streams of concurrently-built
#: clients (each client seeds its RNG from policy seed + its own ordinal).
_CLIENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``attempts`` is the total number of tries (so ``attempts=1`` disables
    retrying).  The delay before retry *n* (1-based) is
    ``min(max_delay, base_delay * 2**(n-1))`` scaled by a jitter factor
    drawn uniformly from ``[1 - jitter, 1]``.
    """

    attempts: int = 4
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_codes: Tuple[str, ...] = field(
        default=(ERROR_OVERLOADED, ERROR_TIMEOUT, ERROR_DEGRADED))

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry_number: int, rng: Random) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        raw = min(self.max_delay_seconds,
                  self.base_delay_seconds * (2 ** (retry_number - 1)))
        return raw * (1.0 - self.jitter * rng.random())


class ServiceClient:
    """A connected caller of one search server.

    Parameters
    ----------
    host, port:
        The server's bound address (``ServerThread.address`` unpacks here).
    timeout:
        Socket timeout in seconds for connect and each response.
    retry:
        Optional :class:`RetryPolicy`; without one every failure surfaces
        immediately (the pre-existing behaviour).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.address: Tuple[str, int] = (host, int(port))
        self.timeout = timeout
        self.retry = retry
        #: Retries actually performed (for load reports / chaos smokes).
        self.retries = 0
        self._rng = Random(((retry.seed if retry else 0) * 7351)
                           + next(_CLIENT_COUNTER))
        self._socket: Optional[socket.socket] = None
        self._file: Optional[BinaryIO] = None

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def connect(self) -> "ServiceClient":
        """Open the connection now (otherwise the first request does)."""
        if self._socket is None:
            self._socket = socket.create_connection(self.address,
                                                    timeout=self.timeout)
            self._file = self._socket.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Raw protocol
    # ------------------------------------------------------------------ #
    def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """Send one request and block for its response envelope."""
        self.connect()
        assert self._socket is not None and self._file is not None
        self._socket.sendall(encode_message(message))
        line = self._file.readline()
        if not line:
            raise ConnectionError("the server closed the connection")
        return decode_message(line)

    def _checked_once(self, message: Dict[str, object]) -> Dict[str, object]:
        """One attempt, raising typed errors on ``ok: false``."""
        response = self.request(message)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(str(error.get("code", "internal")),
                               str(error.get("message", "request failed")))
        return response

    def _checked(self, message: Dict[str, object]) -> Dict[str, object]:
        """Like :meth:`request` but typed — and retrying, under a policy.

        Typed errors outside the policy's retry codes surface immediately;
        transport errors drop the connection so the next attempt
        reconnects.  Safe for mutations because every mutation message
        carries an idempotency key (see :meth:`update`).
        """
        policy = self.retry
        if policy is None:
            return self._checked_once(message)
        last_error: Optional[Exception] = None
        for attempt in range(policy.attempts):
            if attempt:
                self.retries += 1
                time.sleep(policy.delay(attempt, self._rng))
            try:
                return self._checked_once(message)
            except ServiceError as error:
                if error.code not in policy.retry_codes:
                    raise
                last_error = error
            except (ConnectionError, socket.timeout, OSError) as error:
                self.close()
                last_error = error
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------ #
    # Convenience operations
    # ------------------------------------------------------------------ #
    def ping(self) -> bool:
        """True iff the server answers."""
        return bool(self._checked({"op": "ping"}).get("pong"))

    def search(self, query: str, algorithm: str = "validrtf",
               doc_filter: Optional[list] = None) -> Dict[str, object]:
        """One search; returns the canonical result payload.

        ``doc_filter`` restricts the search to the given served doc ids
        (typed ``bad_request`` error on an unknown id).
        """
        message: Dict[str, object] = {"op": "search", "query": query,
                                      "algorithm": algorithm}
        if doc_filter is not None:
            message["doc_filter"] = list(doc_filter)
        return self._checked(message)["result"]

    def compare(self, query: str,
                doc_filter: Optional[list] = None) -> Dict[str, object]:
        """ValidRTF-vs-MaxMatch comparison payload for one query."""
        message: Dict[str, object] = {"op": "compare", "query": query}
        if doc_filter is not None:
            message["doc_filter"] = list(doc_filter)
        return self._checked(message)["comparison"]

    def rank(self, query: str, algorithm: str = "validrtf",
             doc_filter: Optional[list] = None,
             top_k: Optional[int] = None, early_terminate: bool = False,
             explain: bool = False) -> Dict[str, object]:
        """Ranked fragment payload for one query (any backend).

        ``top_k`` truncates to the k best fragments; ``early_terminate``
        (requires ``top_k``) lets the threshold driver skip
        provably-unneeded documents; ``explain`` attaches a per-component
        score breakdown to every row.
        """
        return self.rank_response(
            query, algorithm, doc_filter=doc_filter,
            top_k=top_k, early_terminate=early_terminate,
            explain=explain)["ranking"]

    def rank_response(self, query: str, algorithm: str = "validrtf",
                      doc_filter: Optional[list] = None,
                      top_k: Optional[int] = None,
                      early_terminate: bool = False,
                      explain: bool = False) -> Dict[str, object]:
        """The full rank response — ``ranking`` plus the ``rank_stats``
        visit accounting of the retrieval driver."""
        message: Dict[str, object] = {"op": "rank", "query": query,
                                      "algorithm": algorithm}
        if doc_filter is not None:
            message["doc_filter"] = list(doc_filter)
        if top_k is not None:
            message["top_k"] = top_k
        if early_terminate:
            message["early_terminate"] = True
        if explain:
            message["explain"] = True
        return self._checked(message)

    def update(self, doc: str, xml: str,
               idempotency_key: Optional[str] = None) -> Dict[str, object]:
        """Absorb ``xml`` under doc id ``doc`` (add or shadow) via a delta
        segment; returns ``{"updated", "segment", "documents"}``.

        Needs a corpus backend served from a database (typed ``unsupported``
        error otherwise).  A key is generated when not given and reused
        across retries, so a replayed update is a ledger-backed no-op.
        """
        key = idempotency_key or uuid.uuid4().hex
        response = self._checked({"op": "update", "doc": doc, "xml": xml,
                                  "key": key})
        return {"updated": response["updated"],
                "segment": response["segment"],
                "documents": response["documents"]}

    def delete_doc(self, doc: str,
                   idempotency_key: Optional[str] = None
                   ) -> Dict[str, object]:
        """Tombstone document ``doc``; returns ``{"deleted", "segment",
        "documents"}`` (the post-delete live document list).

        Idempotency-keyed exactly like :meth:`update`.
        """
        key = idempotency_key or uuid.uuid4().hex
        response = self._checked({"op": "delete_doc", "doc": doc,
                                  "key": key})
        return {"deleted": response["deleted"],
                "segment": response["segment"],
                "documents": response["documents"]}

    def compact(self) -> Dict[str, object]:
        """Fold every live delta segment into the base generation.

        Returns ``{"compacted", "segments", "documents"}`` where
        ``compacted`` carries the store's folded/dropped/segments
        counters.  Needs a mutable corpus backend, like :meth:`update`.
        """
        response = self._checked({"op": "compact"})
        return {"compacted": response["compacted"],
                "segments": response["segments"],
                "documents": response["documents"]}

    def stats(self, section: Optional[str] = None) -> Dict[str, object]:
        """The server's merged pool/batcher/admission/server counters.

        ``section`` narrows the payload to one layer (typed ``bad_request``
        error on unknown section names).
        """
        message: Dict[str, object] = {"op": "stats"}
        if section is not None:
            message["section"] = section
        return self._checked(message)["stats"]

    def metrics(self) -> Dict[str, object]:
        """The server's merged metrics-registry snapshot.

        The ``counters`` / ``gauges`` / ``histograms`` mapping every
        registry of the serving stack folds into (see
        :meth:`repro.service.server.SearchService.metrics_snapshot`).
        """
        return self._checked({"op": "stats"})["metrics"]

    def algorithms(self) -> Dict[str, object]:
        """The algorithm names the server accepts."""
        response = self._checked({"op": "algorithms"})
        return {"algorithms": response["algorithms"]}

    def __repr__(self) -> str:
        state = "connected" if self._socket is not None else "disconnected"
        return f"ServiceClient({self.address[0]}:{self.address[1]}, {state})"
