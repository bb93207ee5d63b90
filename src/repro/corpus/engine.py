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

Ranking reads one :class:`KeywordDocuments` table per query keyword: where
the keyword occurs in the corpus and how deep.  The engine fills a
keyword's table the first time a query uses it, with one
:func:`~repro.index.source.keyword_impact` call per document, and keeps it
for its own lifetime, so a ranked query costs the documents that can hold
an answer, not the corpus.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.cache import CacheStats
from ..core.engine import ComparisonOutcome, SearchEngine
from ..core.fragments import SearchResult
from ..core.metrics import summarize_reports
from ..core.query import Query, QueryLike
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..core.ranking import (
    DocumentRankedFragment,
    RankedFragment,
    RankingWeights,
    ScoreBounds,
    combine_score,
    merge_ranked,
    rank_result,
)
from ..index import keyword_impact
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
class KeywordDocuments:
    """Where one normalized keyword occurs in a corpus: ranking metadata.

    ``depths`` maps the doc id of every document where the keyword's
    :class:`~repro.index.source.KeywordImpact` is non-empty to that
    impact's ``max_depth``; ``deepest`` is the largest of them (0 when no
    document holds the keyword).  It is index metadata, not a result
    cache: memory indexes never change, and a store-backed document's
    source pins its generation at its first read.
    """

    depths: Mapping[str, int]
    deepest: int


def _bounds(tables: Sequence[KeywordDocuments]) -> ScoreBounds:
    """The deepest level of any query keyword in the corpus, floor 1."""
    return ScoreBounds(max_depth=max(max(table.deepest for table in tables),
                                     1))


def threshold_candidates(tables: Sequence[KeywordDocuments],
                         bounds: ScoreBounds, normalized: RankingWeights,
                         wanted: Optional[AbstractSet[str]] = None
                         ) -> List[Tuple[float, str]]:
    """The threshold driver's visit order: ``(-upper bound, doc id)`` pairs.

    The candidates are the documents of the smallest table that every other
    table also holds (and ``wanted``, when given, names).  A candidate's
    upper bound combines its reachable specificity — the smallest of its
    keywords' deepest levels over ``bounds``, since a fragment root is an
    ancestor of one node per keyword — with the trivial component bounds
    1.0, through the float expression real scores use
    (:func:`~repro.core.ranking.combine_score`).  Sorted best bound first,
    ties by doc id.
    """
    smallest = min(tables, key=lambda table: len(table.depths))
    candidates: List[Tuple[float, str]] = []
    for doc_id, depth in smallest.depths.items():
        if wanted is not None and doc_id not in wanted:
            continue
        for table in tables:
            level = table.depths.get(doc_id)
            if level is None:
                break  # a missing keyword provably empties the result
            depth = min(depth, level)
        else:
            upper = combine_score(normalized, depth / bounds.max_depth,
                                  1.0, 1.0)
            candidates.append((-upper, doc_id))
    candidates.sort()
    return candidates


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
    cache_size:
        Forwarded to every per-document engine; cached results are keyed per
        document (each per-document engine owns its cache).
    """

    def __init__(self, source: CorpusPostingSource,
                 trees: Optional[Mapping[str, XMLTree]] = None,
                 cache_size: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.source = source
        trees = trees or {}
        unknown = sorted(set(trees) - set(source.doc_ids))
        if unknown:
            raise ValueError(f"trees for unknown corpus document(s): "
                             f"{', '.join(unknown)}")
        self.cache_size = cache_size
        # One registry shared by every per-document engine, so the corpus
        # reports one merged view instead of N disjoint ones.
        self.metrics: Optional[MetricsRegistry] = metrics
        self._engines: Dict[str, SearchEngine] = {
            doc_id: SearchEngine(tree=trees.get(doc_id),
                                 source=source.document_source(doc_id),
                                 cache_size=cache_size, metrics=metrics)
            for doc_id in source.doc_ids
        }
        # One table per normalized keyword, filled on the keyword's first
        # ranked query.  Two threads racing on a keyword build equal tables.
        self._keyword_documents: Dict[str, KeywordDocuments] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(cls, trees: Mapping[str, XMLTree], cache_size: int = 0,
                   metrics: Optional[MetricsRegistry] = None
                   ) -> "CorpusSearchEngine":
        """A memory corpus over one resident tree per doc id."""
        return cls(corpus_from_trees(trees), trees=trees,
                   cache_size=cache_size, metrics=metrics)

    @classmethod
    def from_store(cls, store: SQLiteStore,
                   documents: Optional[Sequence[str]] = None,
                   cache_size: int = 0,
                   metrics: Optional[MetricsRegistry] = None
                   ) -> "CorpusSearchEngine":
        """A corpus engine over the documents of an already-indexed store."""
        source = corpus_from_store(store, documents=documents)
        return cls(source, cache_size=cache_size, metrics=metrics)

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
            result = self._search_document(doc_id, parsed, algorithm, trace)
            if self._contributes(result):
                documents.append(DocumentResult(doc_id, result))
        self._noted_search(len(selected), len(documents))
        return CorpusSearchResult(
            query=parsed, algorithm=algorithm, documents=tuple(documents),
            elapsed_seconds=time.perf_counter() - started)

    def _search_document(self, doc_id: str, parsed: Query, algorithm: str,
                         trace: Optional[Trace]) -> SearchResult:
        """One document's pipeline, under a ``doc`` span when traced."""
        engine = self._engines[doc_id]
        if trace is None:
            return engine.search(parsed, algorithm)
        with trace.span("doc", doc=doc_id):
            return engine.search(parsed, algorithm, trace=trace)

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

    def _noted_search(self, searched: int, matched: int) -> None:
        """Count one query's searched and matching documents."""
        if self.metrics is not None:
            self.metrics.counter(
                metric_names.CORPUS_DOCS_SEARCHED).inc(searched)
            self.metrics.counter(
                metric_names.CORPUS_DOCS_MATCHED).inc(matched)

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
        return _bounds(self._keyword_tables(Query.parse(query)))

    def keyword_documents(self, keyword: str) -> KeywordDocuments:
        """The table of one normalized keyword, built on its first use.

        One :func:`keyword_impact` call per corpus document fills it, and
        the engine keeps it for its lifetime.
        """
        table = self._keyword_documents.get(keyword)
        if table is None:
            depths: Dict[str, int] = {}
            for doc_id, engine in self._engines.items():
                impact = keyword_impact(engine.source, keyword)
                if not impact.empty:
                    depths[doc_id] = impact.max_depth
            table = KeywordDocuments(depths, max(depths.values(), default=0))
            self._keyword_documents[keyword] = table
        return table

    def _keyword_tables(self, parsed: Query, trace: Optional[Trace] = None
                        ) -> List[KeywordDocuments]:
        """One table per query keyword, under an ``impacts`` span if traced."""
        if trace is None:
            return [self.keyword_documents(keyword)
                    for keyword in parsed.keywords]
        with trace.span("impacts", keywords=parsed.size):
            return [self.keyword_documents(keyword)
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
                    early_terminate: bool = False,
                    trace: Optional[Trace] = None) -> RankedCorpusSearch:
        """Ranked corpus retrieval, optionally with early termination.

        The exhaustive path searches every selected document, ranks, and
        merges.  With ``early_terminate=True`` (which requires ``top_k``) a
        threshold-algorithm driver runs instead: documents are visited in
        descending score-upper-bound order (:func:`threshold_candidates`)
        and the loop stops as soon as the k-th ranked score **strictly**
        exceeds the next document's bound (a tie must keep going: doc-id
        ordering could still admit the tied document).  Documents lacking
        any query keyword are never candidates (an empty posting list
        empties the whole result).  Both paths return byte-identical
        rankings; only the visit counters differ.

        ``trace`` gets an ``impacts`` span around the keyword-table reads
        and a ``doc`` span around each visited document's pipeline.
        """
        parsed = Query.parse(query)
        if early_terminate and top_k is None:
            raise ValueError("early_terminate=True needs a top_k bound to "
                             "terminate against")
        normalized = weights.normalized()
        selected = self._selected(doc_filter)
        tables = self._keyword_tables(parsed, trace)
        bounds = _bounds(tables)
        if not early_terminate or top_k is None:
            result = self.search(parsed, algorithm, doc_filter=doc_filter,
                                 trace=trace)
            ranked = self.rank(result, weights=weights, top_k=top_k,
                               bounds=bounds)
            outcome = RankedCorpusSearch(
                query=parsed, algorithm=algorithm, top_k=top_k,
                early_terminated=False, ranked=tuple(ranked),
                docs_selected=len(selected), docs_visited=len(selected),
                docs_skipped=0, bounds=bounds)
            return self._noted_rank(outcome)

        candidates = threshold_candidates(
            tables, bounds, normalized,
            None if doc_filter is None else frozenset(selected))
        per_document: Dict[str, List[RankedFragment]] = {}
        # Min-heap of the k best scores seen so far; its root is the k-th
        # ranked score, the only value the stop test needs — the full merge
        # happens once, after the loop.
        kth_best: List[float] = []
        visited = 0
        if top_k > 0:
            for negative_bound, doc_id in candidates:
                if len(kth_best) >= top_k and kth_best[0] > -negative_bound:
                    break  # the k-th score provably cannot be beaten
                result = self._search_document(doc_id, parsed, algorithm,
                                               trace)
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
    # Cache / metrics plumbing (aggregated over the per-document engines)
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
