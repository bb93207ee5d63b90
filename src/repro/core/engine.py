"""The per-document search pipeline: one object, one call per query.

:class:`SearchEngine` owns one document's posting source (by default an
inverted index over its tree) and one instance of each registered
algorithm, so repeated queries share all per-document work.  The query
engine of the serving stack and the CLI is
:class:`~repro.corpus.engine.CorpusSearchEngine`, which runs one
:class:`SearchEngine` per document (a single document is a corpus of one);
the paper examples, ``repro.cli explain`` and the Figure 5 drivers call
this class directly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

from ..index import InvertedIndex, PackedDeweyList, PostingSource
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..text import ContentAnalyzer
from ..xmltree import DeweyCode, XMLTree, parse_file, parse_string, render_nodes
from .cache import CacheStats, QueryResultCache
from .errors import UnknownAlgorithmError
from .explain import (
    ComparisonExplanation,
    FragmentExplanation,
    classify_differences,
    explain_contributor,
    explain_valid_contributor,
)
from .fragments import SearchResult
from .maxmatch import MaxMatch, MaxMatchSLCA
from .metrics import EffectivenessReport, effectiveness
from .pipeline import FragmentPipeline
from .query import Query, QueryLike
from .validrtf import ValidRTF, ValidRTFSLCA

#: Names accepted by :meth:`SearchEngine.search`.
ALGORITHM_NAMES = ("validrtf", "maxmatch", "validrtf-slca", "maxmatch-slca")


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of running ValidRTF and MaxMatch side by side on one query."""

    validrtf: SearchResult
    maxmatch: SearchResult
    report: EffectivenessReport


class SearchEngine:
    """XML keyword search over one document with selectable algorithms.

    Parameters
    ----------
    tree:
        The document to search.  Optional when a ``source`` is given: the
        engine then runs every stage off the posting source's node lookups
        (disk-backed retrieval) and fragment rendering degrades gracefully
        to Dewey/label output.
    cid_mode:
        Content-feature mode of record-tree construction, fixed for the
        engine's lifetime; ``"exact"`` (the cID ablation) needs a ``tree``.
    cache_size:
        When positive, completed :class:`SearchResult` objects are kept in an
        LRU :class:`~repro.core.cache.QueryResultCache` keyed on
        ``(algorithm, normalized keywords, backend identity)`` and
        repeated queries are answered without re-running the pipeline.  ``0``
        (the default) disables caching, preserving the paper's measurement
        protocol where every repetition pays full cost.
    source:
        The :class:`~repro.index.source.PostingSource` serving posting lists.
        Defaults to an in-memory :class:`InvertedIndex` over ``tree``; pass a
        disk-backed source from :mod:`repro.storage` to search without
        (re)building the memory index.
    metrics:
        An optional :class:`~repro.obs.MetricsRegistry`.  When given, every
        query reports per-stage timing histograms, candidate/fragment
        counters, posting-fetch accounting and cache hit/miss counters to
        it; when ``None`` (the default) instrumentation costs one branch.
    """

    def __init__(self, tree: Optional[XMLTree] = None, cid_mode: str = "minmax",
                 cache_size: int = 0, source: Optional[PostingSource] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if tree is None and source is None:
            raise ValueError("SearchEngine needs a tree, a source=, or both")
        self.tree = tree
        self.source: PostingSource = (
            source if source is not None else InvertedIndex(tree))
        # Legacy alias: before the PostingSource seam the engine always owned
        # an InvertedIndex under this name.
        self.index = self.source
        self._cache: Optional[QueryResultCache] = (
            QueryResultCache(cache_size) if cache_size else None)
        self.metrics: Optional[MetricsRegistry] = metrics
        # One content analyzer shared by all four pipelines, so they share
        # one memoization cache instead of re-tokenizing per algorithm.
        analyzer = getattr(self.source, "analyzer", None)
        if analyzer is None and tree is not None:
            analyzer = ContentAnalyzer(tree)
        self._algorithms: Dict[str, FragmentPipeline] = {
            "validrtf": ValidRTF(tree, self.source, cid_mode=cid_mode,
                                 analyzer=analyzer),
            "maxmatch": MaxMatch(tree, self.source, cid_mode=cid_mode,
                                 analyzer=analyzer),
            "validrtf-slca": ValidRTFSLCA(tree, self.source, cid_mode=cid_mode,
                                          analyzer=analyzer),
            "maxmatch-slca": MaxMatchSLCA(tree, self.source, cid_mode=cid_mode,
                                          analyzer=analyzer),
        }
        for pipeline in self._algorithms.values():
            pipeline.metrics = metrics

    def set_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        """Attach (or detach) a metrics registry after construction.

        The engine pool builds worker engines lazily through zero-argument
        factories; this hook lets it hand each worker its own registry, to
        be merged at snapshot time.
        """
        self.metrics = metrics
        for pipeline in self._algorithms.values():
            pipeline.metrics = metrics

    @property
    def backend_id(self) -> str:
        """The serving source's identity (also part of every cache key)."""
        return self.source.source_id

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, document: str, **kwargs) -> "SearchEngine":
        """Build an engine from an XML string."""
        return cls(parse_string(document), **kwargs)

    @classmethod
    def from_file(cls, path, **kwargs) -> "SearchEngine":
        """Build an engine from an XML file."""
        return cls(parse_file(path), **kwargs)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def algorithm(self, name: str) -> FragmentPipeline:
        """The pipeline registered under ``name``."""
        try:
            return self._algorithms[name]
        except KeyError:
            raise UnknownAlgorithmError(
                f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}"
            ) from None

    def search(self, query: QueryLike, algorithm: str = "validrtf",
               trace: Optional[Trace] = None) -> SearchResult:
        """Run one query with the chosen algorithm (served from cache if on).

        ``trace`` attaches this query's stage spans (and a ``cache`` span
        when caching is enabled) under the trace's currently open span.
        """
        pipeline = self.algorithm(algorithm)
        if self._cache is None:
            return pipeline.search(query, trace=trace)
        parsed = Query.parse(query)
        key = QueryResultCache.key_for(algorithm, parsed, self.backend_id)
        cached = self._cache.get(key)
        hit = cached is not None
        if self.metrics is not None:
            self.metrics.counter(metric_names.CACHE_HITS if hit
                                 else metric_names.CACHE_MISSES).inc()
        if trace is not None:
            trace.current.note(cache="hit" if hit else "miss")
        if hit:
            return cached
        result = pipeline.search(parsed, trace=trace)
        self._cache.put(key, result)
        return result

    def search_many(self, queries: Sequence[QueryLike],
                    algorithm: str = "validrtf") -> List[SearchResult]:
        """Run a batch of queries, sharing posting-list retrieval.

        The postings for the *union* of all (uncached) queries' keywords are
        fetched from the posting source once and shared across the batch, so
        a keyword appearing in many queries pays its ``getKeywordNodes`` cost
        once instead of once per query — and a batching backend (the sqlite
        source's ``IN (...)`` fetch) serves the whole union in one round-trip.
        The fetch records the posting metrics a :meth:`search` records, each
        fetched keyword counted once per batch.  When the
        result cache is enabled it is consulted per query first and updated
        with every freshly computed result.  Results come back in input
        order with the same answers (fragments, roots) as looping
        :meth:`search` over ``queries`` — though duplicate queries within a
        batch share one :class:`SearchResult` object, and the
        ``elapsed_seconds`` of cached or batch-computed results reflects the
        original computation, not this call.
        """
        pipeline = self.algorithm(algorithm)
        parsed_queries = [Query.parse(query) for query in queries]
        order = [QueryResultCache.key_for(algorithm, parsed, self.backend_id)
                 for parsed in parsed_queries]

        # Resolve each distinct query once: duplicates within the batch share
        # one computation (and one cache lookup at most).
        resolved: Dict[Tuple, SearchResult] = {}
        pending: Dict[Tuple, Query] = {}
        for cache_key, parsed in zip(order, parsed_queries):
            if cache_key in resolved or cache_key in pending:
                continue
            if self._cache is not None:
                cached = self._cache.get(cache_key)
                if self.metrics is not None:
                    self.metrics.counter(
                        metric_names.CACHE_HITS if cached is not None
                        else metric_names.CACHE_MISSES).inc()
                if cached is not None:
                    resolved[cache_key] = cached
                    continue
            pending[cache_key] = parsed

        if pending:
            union: List[str] = []
            seen: set = set()
            for parsed in pending.values():
                for keyword in parsed.keywords:
                    if keyword not in seen:
                        seen.add(keyword)
                        union.append(keyword)
            shared_lists = pipeline.fetch_postings(union)
            for cache_key, parsed in pending.items():
                result = pipeline.search_with_lists(parsed, shared_lists)
                if self._cache is not None:
                    self._cache.put(cache_key, result)
                resolved[cache_key] = result

        return [resolved[cache_key] for cache_key in order]

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """True when a result cache was configured at construction."""
        return self._cache is not None

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters (all zero when caching is disabled)."""
        return self._cache.stats if self._cache is not None else CacheStats()

    def clear_cache(self) -> None:
        """Drop every cached result (no-op when caching is disabled)."""
        if self._cache is not None:
            self._cache.clear()

    def compare(self, query: QueryLike,
                trace: Optional[Trace] = None) -> ComparisonOutcome:
        """Run ValidRTF and revised MaxMatch and compute the Figure 6 metrics.

        ``trace`` attaches one span per algorithm run and one for the
        metrics under the trace's currently open span.
        """
        def span(name: str) -> ContextManager[object]:
            return trace.span(name) if trace is not None else nullcontext()

        with span("validrtf"):
            validrtf_result = self.search(query, "validrtf", trace=trace)
        with span("maxmatch"):
            maxmatch_result = self.search(query, "maxmatch", trace=trace)
        with span("effectiveness"):
            report = effectiveness(maxmatch_result, validrtf_result)
        return ComparisonOutcome(validrtf=validrtf_result, maxmatch=maxmatch_result,
                                 report=report)

    # ------------------------------------------------------------------ #
    # Explanations
    # ------------------------------------------------------------------ #
    def explain(self, query: QueryLike,
                algorithm: str = "validrtf") -> List[FragmentExplanation]:
        """Per-node keep/discard decisions of one algorithm on one query."""
        if algorithm not in ("validrtf", "maxmatch"):
            raise UnknownAlgorithmError(
                f"explanations are available for 'validrtf' and 'maxmatch', "
                f"not {algorithm!r}")
        pipeline = self.algorithm(algorithm)
        parsed = Query.parse(query)
        explanations: List[FragmentExplanation] = []
        for fragment in pipeline.raw_fragments(parsed):
            records = pipeline.record_tree(parsed, fragment)
            if algorithm == "validrtf":
                explanations.append(explain_valid_contributor(records, parsed))
            else:
                explanations.append(explain_contributor(records, parsed))
        return explanations

    def explain_comparison(self, query: QueryLike) -> ComparisonExplanation:
        """Classify every node ValidRTF and MaxMatch disagree on."""
        parsed = Query.parse(query)
        validrtf_result = self.search(parsed, "validrtf")
        maxmatch_result = self.search(parsed, "maxmatch")
        if self.tree is not None:
            labels = {node.dewey: node.label
                      for node in self.tree.iter_preorder()}
        else:
            involved = {dewey
                        for result in (validrtf_result, maxmatch_result)
                        for fragment in result.fragments
                        for dewey in fragment.fragment.nodes}
            labels = {dewey: self.source.node_label(dewey) or ""
                      for dewey in involved}
        return classify_differences(parsed, validrtf_result, maxmatch_result,
                                    labels)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by examples / CLI
    # ------------------------------------------------------------------ #
    def keyword_nodes(self, query: QueryLike) -> Dict[str, PackedDeweyList]:
        """The ``D_i`` posting lists of a query."""
        parsed = Query.parse(query)
        return self.source.keyword_nodes(parsed.keywords)

    def lca_nodes(self, query: QueryLike, algorithm: str = "validrtf") -> List[DeweyCode]:
        """The interesting LCA roots the chosen algorithm would use."""
        return self.algorithm(algorithm).lca_nodes(query)

    def render_fragment(self, fragment, show_text: bool = True) -> str:
        """Human-readable rendering of one result fragment.

        With a resident tree this is the full XML-ish rendering.  On a purely
        source-backed engine it degrades gracefully to one ``dewey <label>``
        line per kept node (keyword nodes marked ``*``) — the fragment
        structure without the document text.
        """
        keyword_nodes = set(fragment.kept_keyword_nodes())
        if self.tree is not None:
            return render_nodes(
                self.tree,
                fragment.kept_nodes,
                show_text=show_text,
                highlight=lambda node: node.dewey in keyword_nodes,
            )
        lines = []
        root_depth = len(fragment.root)
        for dewey in fragment.kept_nodes:
            indent = "  " * (len(dewey) - root_depth)
            label = self.source.node_label(dewey) or "?"
            marker = " *" if dewey in keyword_nodes else ""
            lines.append(f"{indent}{dewey} <{label}>{marker}")
        return "\n".join(lines)

    def render_result(self, result: SearchResult, show_text: bool = True) -> str:
        """Render every fragment of a result, separated by blank lines."""
        blocks = []
        for position, fragment in enumerate(result.fragments, start=1):
            kind = "SLCA" if fragment.is_slca else "LCA"
            header = (f"[{position}] root {fragment.root} ({kind}), "
                      f"{fragment.size} nodes")
            blocks.append(header + "\n" + self.render_fragment(fragment, show_text))
        return "\n\n".join(blocks) if blocks else "(no results)"
