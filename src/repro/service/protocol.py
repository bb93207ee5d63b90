"""Wire protocol of the serving layer.

One JSON object per line in both directions (newline-delimited JSON over a
plain TCP stream).  Requests carry an ``op`` plus op-specific fields::

    {"op": "search", "query": "xml keyword search",
     "algorithm": "validrtf"}

Responses are ``{"ok": true, ...payload...}`` or
``{"ok": false, "error": {"code": ..., "message": ...}}``.

Two properties matter here:

* **Determinism** — :func:`result_payload` is the *canonical* serialization
  of a search result.  It deliberately excludes timings, and
  :func:`encode_message` fixes key order and separators, so a result served
  through the TCP front end is byte-identical to the same result serialized
  directly — which is exactly what the service-parity suite
  (``tests/test_service_parity.py``) asserts.
* **Typed errors** — every failure mode the admission controller or the
  dispatch layer can produce has a stable error code, so load generators and
  clients can distinguish shed load (``overloaded``) from timeouts from
  caller mistakes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from ..core.explain import ScoreExplanation, explain_score
from ..core.fragments import SearchResult
from ..core.metrics import EffectivenessReport
from ..core.ranking import DocumentRankedFragment
from ..corpus.engine import CorpusComparisonOutcome, RankedCorpusSearch
from ..corpus.result import CorpusSearchResult

#: Malformed JSON, missing fields, unparseable queries.
ERROR_BAD_REQUEST = "bad_request"
#: Algorithm name not registered with the engine.
ERROR_UNKNOWN_ALGORITHM = "unknown_algorithm"
#: Load shed: the admission controller's in-flight bound was hit.
ERROR_OVERLOADED = "overloaded"
#: The per-request deadline elapsed before a result was ready.
ERROR_TIMEOUT = "timeout"
#: The operation is valid but not available on this engine configuration
#: (e.g. a live ``update`` on a backend not served from a database).
ERROR_UNSUPPORTED = "unsupported"
#: Anything unexpected; the message carries the exception text.
ERROR_INTERNAL = "internal"
#: Transient loss of capacity: a quarantined worker or a storage fault.
#: Safe (and worthwhile) to retry with backoff — a mutation commits whole
#: or not at all, and is idempotency-keyed, so a replay can never
#: double-apply.
ERROR_DEGRADED = "degraded"

ERROR_CODES = (ERROR_BAD_REQUEST, ERROR_UNKNOWN_ALGORITHM, ERROR_OVERLOADED,
               ERROR_TIMEOUT, ERROR_UNSUPPORTED, ERROR_INTERNAL,
               ERROR_DEGRADED)


class ServiceError(Exception):
    """A failure with a stable wire-level error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    def response(self) -> Dict[str, object]:
        """The error as a wire response."""
        return error_response(self.code, self.message)


# ---------------------------------------------------------------------- #
# Canonical payloads
# ---------------------------------------------------------------------- #
def result_payload(result: Union[SearchResult, CorpusSearchResult]
                   ) -> Dict[str, object]:
    """The canonical JSON payload of one search result.

    Everything the parity contract covers — roots, kept node sets, raw node
    sets, keyword nodes, SLCA flags, LCA list — and nothing
    non-deterministic (no timings).  Every served answer is a corpus result
    and serializes to the doc-id-tagged form of
    :func:`corpus_result_payload`; a per-document
    :class:`~repro.core.fragments.SearchResult` serializes to the form each
    document entry carries.
    """
    if isinstance(result, CorpusSearchResult):
        return corpus_result_payload(result)
    return _single_result_payload(result)


def corpus_result_payload(result: CorpusSearchResult) -> Dict[str, object]:
    """The canonical payload of a corpus search: per-document results.

    Documents appear in corpus (sorted doc-id) order and each carries the
    canonical single-document payload, so a served corpus answer is
    byte-identical to serializing the direct engine call — the same parity
    contract every other payload honours.
    """
    return {
        "query": list(result.query.keywords),
        "algorithm": result.algorithm,
        "count": result.count,
        "documents": [
            {"doc": entry.doc_id,
             "result": _single_result_payload(entry.result)}
            for entry in result.documents
        ],
    }


def _single_result_payload(result: SearchResult) -> Dict[str, object]:
    return {
        "query": list(result.query.keywords),
        "algorithm": result.algorithm,
        "count": result.count,
        "lca_nodes": [str(code) for code in result.lca_nodes],
        "fragments": [
            {
                "root": str(fragment.root),
                "is_slca": fragment.is_slca,
                "kept_nodes": [str(code) for code in fragment.kept_nodes],
                "nodes": [str(code) for code in fragment.fragment.nodes],
                "keyword_nodes": [str(code)
                                  for code in fragment.fragment.keyword_nodes],
            }
            for fragment in result.fragments
        ],
    }


def comparison_payload(outcome: CorpusComparisonOutcome) -> Dict[str, object]:
    """The canonical payload of a ValidRTF-vs-MaxMatch comparison.

    One report per contributing document plus the corpus-level summary.
    """
    return {
        "validrtf": corpus_result_payload(outcome.validrtf),
        "maxmatch": corpus_result_payload(outcome.maxmatch),
        "documents": [
            {"doc": doc_id, "report": _report_payload(entry.report)}
            for doc_id, entry in outcome.documents
        ],
        "summary": dict(outcome.summary),
    }


def _report_payload(report: EffectivenessReport) -> Dict[str, object]:
    return {
        "lca_count": report.lca_count,
        "cfr": report.cfr,
        "apr_prime": report.apr_prime,
        "max_apr": report.max_apr,
        "comparisons": [
            {
                "root": str(comparison.root),
                "identical": comparison.identical,
                "maxmatch_size": comparison.maxmatch_size,
                "validrtf_size": comparison.validrtf_size,
                "extra_pruned": comparison.extra_pruned,
            }
            for comparison in report.comparisons
        ],
    }


def ranking_payload(ranked: Sequence[DocumentRankedFragment],
                    explain: bool = False) -> List[Dict[str, object]]:
    """The canonical payload of a ranked fragment list, one row per fragment.

    Each row carries the owning doc id.  With ``explain=True`` it also
    carries a per-component score breakdown
    (:func:`~repro.core.explain.explain_score`) whose contributions sum to
    the served score bit for bit.
    """
    payload: List[Dict[str, object]] = []
    for entry in ranked:
        fragment = entry.ranked
        row: Dict[str, object] = {
            "root": str(fragment.fragment.root),
            "score": fragment.score,
            "specificity": fragment.specificity,
            "compactness": fragment.compactness,
            "coverage": fragment.coverage,
            "doc": entry.doc_id,
        }
        if explain:
            row["explanation"] = score_explanation_payload(
                explain_score(fragment))
        payload.append(row)
    return payload


def score_explanation_payload(explanation: "ScoreExplanation"
                              ) -> Dict[str, object]:
    """One score breakdown as a wire object (components in scoring order)."""
    return {
        "score": explanation.score,
        "components": [
            {
                "name": component.name,
                "value": component.value,
                "weight": component.weight,
                "contribution": component.contribution,
            }
            for component in explanation.components
        ],
    }


def rank_stats_payload(outcome: "RankedCorpusSearch") -> Dict[str, object]:
    """The visit accounting of one ranked corpus retrieval.

    ``docs_visited < docs_selected`` is the observable proof that the
    threshold driver skipped work; the parity contract guarantees the
    ranking itself is identical either way.
    """
    return {
        "docs_selected": outcome.docs_selected,
        "docs_visited": outcome.docs_visited,
        "docs_skipped": outcome.docs_skipped,
        "early_terminated": outcome.early_terminated,
        "top_k": outcome.top_k,
    }


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def encode_message(message: Dict[str, object]) -> bytes:
    """One message as a canonical newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, object]:
    """Parse one received line; raises :class:`ServiceError` on bad input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(ERROR_BAD_REQUEST,
                           f"undecodable request line: {error}") from None
    if not isinstance(message, dict):
        raise ServiceError(ERROR_BAD_REQUEST,
                           f"expected a JSON object, got {type(message).__name__}")
    return message


def ok_response(**payload: object) -> Dict[str, object]:
    """A success response envelope."""
    return {"ok": True, **payload}


def error_response(code: str, message: str,
                   request_id: Optional[object] = None) -> Dict[str, object]:
    """A typed error response envelope."""
    response: Dict[str, object] = {
        "ok": False, "error": {"code": code, "message": message}}
    if request_id is not None:
        response["id"] = request_id
    return response
