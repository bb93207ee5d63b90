"""Cross-document keyword search: the engine every backend is queried through.

:class:`CorpusSearchEngine` is the query engine of the serving stack and the
CLI.  A single document is a corpus of one, so every answer is doc-id-tagged
(:class:`~repro.corpus.result.CorpusSearchResult`), every retrieval method
accepts a ``doc_filter``, and ranking merges the per-document rankings into
one corpus-level top-k (:func:`~repro.core.ranking.merge_ranked`).

Internally the engine owns one per-document
:class:`~repro.core.engine.SearchEngine` per corpus document, each running
over that document's posting source — the SLCA/ELCA/RTF pipeline runs per
document (LCA semantics never cross documents) and the corpus answer is the
union of the per-document answers, the contract the differential fuzz
harness enforces.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.cache import CacheStats
from ..core.engine import ComparisonOutcome, SearchEngine
from ..core.fragments import SearchResult
from ..core.metrics import summarize_reports
from ..core.query import Query, QueryLike
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..core.ranking import (
    DocumentRankedFragment,
    RankingWeights,
    ScoreBounds,
    bounds_from_impacts,
    combine_score,
    merge_ranked,
    rank_result,
)
from ..index import KeywordImpact, keyword_impact
from ..storage import SQLiteStore
from ..storage.errors import DocumentNotFound
from ..xmltree import XMLTree
from .result import CorpusSearchResult, DocumentResult
from .source import (
    CorpusPostingSource,
    corpus_from_store,
    corpus_from_trees,
    unknown_documents_error,
)


@dataclass(frozen=True)
class RankedCorpusSearch:
    """Outcome of one ranked corpus retrieval, with visit accounting.

    ``ranked`` is the corpus-level (top-k capped) ranking.  ``docs_visited``
    counts the documents whose search pipeline actually ran;
    ``docs_skipped`` the ones the threshold driver proved irrelevant from
    impact metadata alone (missing keyword, or score upper bound beaten by
    the k-th ranked score).  The exhaustive path visits every selected
    document, so ``docs_visited == docs_selected`` there — the
    early-terminated/exhaustive ratio of these counters is the benchmark's
    headline number.
    """

    query: Query
    algorithm: str
    top_k: Optional[int]
    early_terminated: bool
    ranked: Tuple[DocumentRankedFragment, ...]
    docs_selected: int
    docs_visited: int
    docs_skipped: int
    bounds: ScoreBounds


@dataclass(frozen=True)
class CorpusComparisonOutcome:
    """ValidRTF vs MaxMatch over a corpus: per-document outcomes + summary."""

    validrtf: CorpusSearchResult
    maxmatch: CorpusSearchResult
    documents: Tuple[Tuple[str, ComparisonOutcome], ...]
    summary: Dict[str, float]


class CorpusSearchEngine:
    """Keyword search over one or many XML documents, doc-id-tagged.

    Parameters
    ----------
    source:
        The :class:`~repro.corpus.source.CorpusPostingSource` serving the
        per-document posting sources.
    trees:
        Optional resident trees per doc id (memory-backed corpora keep them;
        disk-backed corpora run tree-free).  Resident trees enable full
        fragment rendering; search and ranking never need them.
    cid_mode, cache_size:
        Forwarded to every per-document engine; cached results are keyed per
        document (each per-document engine owns its cache).
    """

    def __init__(self, source: CorpusPostingSource,
                 trees: Optional[Mapping[str, XMLTree]] = None,
                 cid_mode: str = "minmax", cache_size: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.source = source
        trees = trees or {}
        unknown = sorted(set(trees) - set(source.doc_ids))
        if unknown:
            raise ValueError(f"trees for unknown corpus document(s): "
                             f"{', '.join(unknown)}")
        self.cid_mode = cid_mode
        self.cache_size = cache_size
        # One registry shared by every per-document engine, so the corpus
        # reports one merged view instead of N disjoint ones.
        self.metrics: Optional[MetricsRegistry] = metrics
        self._engines: Dict[str, SearchEngine] = {
            doc_id: SearchEngine(tree=trees.get(doc_id),
                                 source=source.document_source(doc_id),
                                 cid_mode=cid_mode, cache_size=cache_size,
                                 metrics=metrics)
            for doc_id in source.doc_ids
        }

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(cls, trees: Mapping[str, XMLTree],
                   cid_mode: str = "minmax", cache_size: int = 0,
                   metrics: Optional[MetricsRegistry] = None
                   ) -> "CorpusSearchEngine":
        """A memory corpus over one resident tree per doc id."""
        return cls(corpus_from_trees(trees), trees=trees, cid_mode=cid_mode,
                   cache_size=cache_size, metrics=metrics)

    @classmethod
    def from_store(cls, store: SQLiteStore,
                   documents: Optional[Sequence[str]] = None,
                   cid_mode: str = "minmax",
                   cache_size: int = 0,
                   metrics: Optional[MetricsRegistry] = None
                   ) -> "CorpusSearchEngine":
        """A corpus engine over the documents of an already-indexed store."""
        source = corpus_from_store(store, documents=documents)
        return cls(source, cid_mode=cid_mode, cache_size=cache_size,
                   metrics=metrics)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def backend_id(self) -> str:
        """The corpus source's identity (cache keys carry it per document)."""
        return self.source.source_id

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        """Every corpus document, in corpus (sorted doc-id) order."""
        return self.source.doc_ids

    def document_engine(self, doc_id: str) -> SearchEngine:
        """The single-document engine serving one doc id."""
        try:
            return self._engines[doc_id]
        except KeyError:
            raise unknown_documents_error([doc_id], self.doc_ids) from None

    def _selected(self, doc_filter: Optional[Sequence[str]]
                  ) -> Tuple[str, ...]:
        """The documents a request addresses, in corpus order.

        ``doc_filter`` restricts the search to a subset of doc ids; unknown
        ids raise :class:`DocumentNotFound` (the service maps it to a typed
        ``bad_request``) instead of silently answering from fewer documents.
        """
        if doc_filter is None:
            return self.source.doc_ids
        wanted = set(doc_filter)
        if not wanted:
            raise DocumentNotFound("doc_filter selects no documents")
        unknown = sorted(wanted - set(self.source.doc_ids))
        if unknown:
            raise unknown_documents_error(unknown, self.doc_ids)
        return tuple(doc_id for doc_id in self.source.doc_ids
                     if doc_id in wanted)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    @staticmethod
    def _contributes(result: "SearchResult") -> bool:
        """Whether a per-document result adds anything to the union."""
        return bool(result.count or result.lca_nodes)

    def search(self, query: QueryLike, algorithm: str = "validrtf",
               doc_filter: Optional[Sequence[str]] = None,
               trace: Optional[Trace] = None) -> CorpusSearchResult:
        """Run one query per document and union the doc-tagged answers.

        ``trace`` wraps each document's pipeline in a ``doc`` sub-span, so a
        corpus trace shows which documents the time actually went to.
        """
        parsed = Query.parse(query)
        started = time.perf_counter()
        documents: List[DocumentResult] = []
        selected = self._selected(doc_filter)
        for doc_id in selected:
            if trace is not None:
                with trace.span("doc", doc=doc_id):
                    result = self._engines[doc_id].search(parsed, algorithm,
                                                          trace=trace)
            else:
                result = self._engines[doc_id].search(parsed, algorithm)
            if self._contributes(result):
                documents.append(DocumentResult(doc_id, result))
        if self.metrics is not None:
            self.metrics.counter(
                metric_names.CORPUS_DOCS_SEARCHED).inc(len(selected))
            self.metrics.counter(
                metric_names.CORPUS_DOCS_MATCHED).inc(len(documents))
        return CorpusSearchResult(
            query=parsed, algorithm=algorithm, documents=tuple(documents),
            elapsed_seconds=time.perf_counter() - started)

    def search_traced(self, query: QueryLike, algorithm: str = "validrtf",
                      doc_filter: Optional[Sequence[str]] = None
                      ) -> Tuple[CorpusSearchResult, Trace]:
        """Run one corpus query under a fresh trace with per-document spans."""
        trace = Trace("search")
        trace.root.note(algorithm=algorithm, backend=self.backend_id)
        result = self.search(query, algorithm, doc_filter=doc_filter,
                             trace=trace)
        trace.finish()
        return result, trace

    def search_many(self, queries: Sequence[QueryLike],
                    algorithm: str = "validrtf",
                    doc_filter: Optional[Sequence[str]] = None
                    ) -> List[CorpusSearchResult]:
        """Batch counterpart of :meth:`search`.

        Each per-document engine serves the whole batch through its own
        ``search_many`` fast path (one union posting fetch per document), so
        the corpus batch pays one stage-1 round per (document, batch) instead
        of one per (document, query).
        """
        parsed_queries = [Query.parse(query) for query in queries]
        selected = self._selected(doc_filter)
        per_doc = {doc_id: self._engines[doc_id].search_many(parsed_queries,
                                                             algorithm)
                   for doc_id in selected}
        results: List[CorpusSearchResult] = []
        for position, parsed in enumerate(parsed_queries):
            documents = tuple(
                DocumentResult(doc_id, per_doc[doc_id][position])
                for doc_id in selected
                if self._contributes(per_doc[doc_id][position]))
            results.append(CorpusSearchResult(
                query=parsed, algorithm=algorithm, documents=documents))
        return results

    def compare(self, query: QueryLike,
                doc_filter: Optional[Sequence[str]] = None,
                trace: Optional[Trace] = None) -> CorpusComparisonOutcome:
        """ValidRTF vs MaxMatch per document, with corpus-level summary."""
        parsed = Query.parse(query)
        outcomes: List[Tuple[str, ComparisonOutcome]] = []
        validrtf_docs: List[DocumentResult] = []
        maxmatch_docs: List[DocumentResult] = []
        for doc_id in self._selected(doc_filter):
            if trace is not None:
                with trace.span("doc", doc=doc_id):
                    outcome = self._engines[doc_id].compare(parsed,
                                                            trace=trace)
            else:
                outcome = self._engines[doc_id].compare(parsed)
            if self._contributes(outcome.validrtf):
                validrtf_docs.append(DocumentResult(doc_id, outcome.validrtf))
            if self._contributes(outcome.maxmatch):
                maxmatch_docs.append(DocumentResult(doc_id, outcome.maxmatch))
            if self._contributes(outcome.validrtf) or \
                    self._contributes(outcome.maxmatch):
                outcomes.append((doc_id, outcome))
        return CorpusComparisonOutcome(
            validrtf=CorpusSearchResult(parsed, "validrtf",
                                        tuple(validrtf_docs)),
            maxmatch=CorpusSearchResult(parsed, "maxmatch",
                                        tuple(maxmatch_docs)),
            documents=tuple(outcomes),
            summary=summarize_reports([outcome.report
                                       for _, outcome in outcomes]),
        )

    def compare_traced(self, query: QueryLike,
                       doc_filter: Optional[Sequence[str]] = None
                       ) -> Tuple[CorpusComparisonOutcome, Trace]:
        """Like :meth:`compare`, under one trace with per-document spans."""
        trace = Trace("compare")
        trace.root.note(backend=self.backend_id)
        outcome = self.compare(query, doc_filter=doc_filter, trace=trace)
        trace.finish()
        return outcome, trace

    # ------------------------------------------------------------------ #
    # Ranking (corpus-level top-k merge + threshold-algorithm driver)
    # ------------------------------------------------------------------ #
    def score_bounds(self, query: QueryLike) -> ScoreBounds:
        """Corpus-global normalization bounds for one query.

        Computed over **every** corpus document (independent of any
        ``doc_filter``), so a document's fragments score identically whether
        ranked alone, filtered, or corpus-wide — the comparability contract
        :func:`~repro.core.ranking.merge_ranked` relies on.
        """
        parsed = Query.parse(query)
        return bounds_from_impacts(
            impact
            for doc_id in self.source.doc_ids
            for impact in self._keyword_impacts(doc_id, parsed))

    def _keyword_impacts(self, doc_id: str,
                         parsed: Query) -> List[KeywordImpact]:
        """The per-keyword impact metadata of one document."""
        source = self._engines[doc_id].source
        return [keyword_impact(source, keyword)
                for keyword in parsed.keywords]

    def rank(self, result: CorpusSearchResult,
             weights: RankingWeights = RankingWeights(),
             top_k: Optional[int] = None,
             bounds: Optional[ScoreBounds] = None
             ) -> List[DocumentRankedFragment]:
        """Merge the per-document rankings of a corpus result into one list.

        Every document is scored against the same corpus-global
        :class:`ScoreBounds` (derived from impact metadata), so the merged
        scores are genuinely comparable across documents.
        """
        if bounds is None:
            bounds = self.score_bounds(result.query)
        per_document = {entry.doc_id: rank_result(entry.result, weights,
                                                  bounds=bounds)
                        for entry in result.documents}
        return merge_ranked(per_document, top_k=top_k)

    def rank_search(self, query: QueryLike, algorithm: str = "validrtf",
                    top_k: Optional[int] = None,
                    doc_filter: Optional[Sequence[str]] = None,
                    weights: RankingWeights = RankingWeights(),
                    early_terminate: bool = False) -> RankedCorpusSearch:
        """Ranked corpus retrieval, optionally with early termination.

        The exhaustive path searches every selected document, ranks, and
        merges.  With ``early_terminate=True`` (which requires ``top_k``) a
        threshold-algorithm driver runs instead: documents are visited in
        descending score-upper-bound order — the bound combines each
        document's reachable specificity (``min`` over the query keywords of
        the keyword's deepest node level, since a fragment root is an
        ancestor of one node per keyword) with the trivial component bounds
        1.0, through the same float expression real scores use — and the
        loop stops as soon as the k-th ranked score **strictly** exceeds the
        next document's bound (a tie must keep going: doc-id ordering could
        still admit the tied document).  Documents lacking any query keyword
        are skipped outright (an empty posting list empties the whole
        result).  Both paths return byte-identical rankings; only the visit
        counters differ.
        """
        parsed = Query.parse(query)
        if early_terminate and top_k is None:
            raise ValueError("early_terminate=True needs a top_k bound to "
                             "terminate against")
        normalized = weights.normalized()
        selected = self._selected(doc_filter)
        if not early_terminate:
            bounds = self.score_bounds(parsed)
            result = self.search(parsed, algorithm, doc_filter=doc_filter)
            ranked = self.rank(result, weights=weights, top_k=top_k,
                               bounds=bounds)
            outcome = RankedCorpusSearch(
                query=parsed, algorithm=algorithm, top_k=top_k,
                early_terminated=False, ranked=tuple(ranked),
                docs_selected=len(selected), docs_visited=len(selected),
                docs_skipped=0, bounds=bounds)
            return self._noted_rank(outcome)

        # One impact fetch per (document, keyword): the same pass feeds the
        # corpus-global bounds and the per-document upper bounds.
        impacts_by_doc = {doc_id: self._keyword_impacts(doc_id, parsed)
                          for doc_id in self.source.doc_ids}
        bounds = bounds_from_impacts(
            impact for impacts in impacts_by_doc.values()
            for impact in impacts)
        candidates: List[Tuple[float, str]] = []
        for doc_id in selected:
            impacts = impacts_by_doc[doc_id]
            if any(impact.empty for impact in impacts):
                continue  # a missing keyword provably empties the result
            reachable = (min(impact.max_depth for impact in impacts)
                         / bounds.max_depth)
            upper = combine_score(normalized, reachable, 1.0, 1.0)
            candidates.append((-upper, doc_id))
        candidates.sort()

        per_document: Dict[str, List] = {}
        # Min-heap of the k best scores seen so far; its root is the k-th
        # ranked score, the only value the stop test needs — the full merge
        # happens once, after the loop.
        kth_best: List[float] = []
        visited = 0
        if top_k > 0:
            for negative_bound, doc_id in candidates:
                if len(kth_best) >= top_k and kth_best[0] > -negative_bound:
                    break  # the k-th score provably cannot be beaten
                result = self._engines[doc_id].search(parsed, algorithm)
                visited += 1
                if self._contributes(result):
                    ranked = rank_result(result, weights, bounds=bounds)
                    per_document[doc_id] = ranked
                    for item in ranked:
                        if len(kth_best) < top_k:
                            heapq.heappush(kth_best, item.score)
                        else:
                            heapq.heappushpop(kth_best, item.score)
        merged = merge_ranked(per_document, top_k=top_k)
        outcome = RankedCorpusSearch(
            query=parsed, algorithm=algorithm, top_k=top_k,
            early_terminated=True, ranked=tuple(merged),
            docs_selected=len(selected), docs_visited=visited,
            docs_skipped=len(selected) - visited, bounds=bounds)
        return self._noted_rank(outcome)

    def _noted_rank(self, outcome: RankedCorpusSearch) -> RankedCorpusSearch:
        if self.metrics is not None:
            self.metrics.counter(
                metric_names.CORPUS_RANK_DOCS_VISITED).inc(
                    outcome.docs_visited)
            self.metrics.counter(
                metric_names.CORPUS_RANK_DOCS_SKIPPED).inc(
                    outcome.docs_skipped)
        return outcome

    # ------------------------------------------------------------------ #
    # Cache / mode plumbing (aggregated over the per-document engines)
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """True when the per-document engines carry result caches."""
        return self.cache_size > 0

    def cache_stats(self) -> CacheStats:
        """Summed hit/miss/eviction counters across every document engine."""
        totals = [engine.cache_stats() for engine in self._engines.values()]
        return CacheStats(
            hits=sum(stats.hits for stats in totals),
            misses=sum(stats.misses for stats in totals),
            evictions=sum(stats.evictions for stats in totals),
            size=sum(stats.size for stats in totals),
            max_size=sum(stats.max_size for stats in totals),
        )

    def clear_cache(self) -> None:
        """Drop every document engine's cached results."""
        for engine in self._engines.values():
            engine.clear_cache()

    def set_cid_mode(self, cid_mode: str) -> None:
        """Switch the content-feature mode on every document engine."""
        for engine in self._engines.values():
            engine.set_cid_mode(cid_mode)
        self.cid_mode = cid_mode

    def set_metrics(self, metrics: "Optional[MetricsRegistry]") -> None:
        """Attach (or detach) a registry on the corpus and every doc engine."""
        self.metrics = metrics
        for engine in self._engines.values():
            engine.set_metrics(metrics)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render_result(self, result: CorpusSearchResult,
                      show_text: bool = True) -> str:
        """Render every document's fragments under a doc-id header."""
        blocks = []
        for entry in result.documents:
            engine = self._engines.get(entry.doc_id)
            header = (f"=== document {entry.doc_id} "
                      f"({entry.result.count} fragment"
                      f"{'s' if entry.result.count != 1 else ''}) ===")
            if engine is None:
                blocks.append(header)
                continue
            blocks.append(header + "\n"
                          + engine.render_result(entry.result,
                                                 show_text=show_text))
        return "\n\n".join(blocks) if blocks else "(no results)"

    def __repr__(self) -> str:
        return f"CorpusSearchEngine(documents={len(self.doc_ids)})"
