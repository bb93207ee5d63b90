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
from functools import partial
from typing import ContextManager, Dict, List, Optional

from ..index import InvertedIndex, PostingSource, QueryLists
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..xmltree import DeweyCode, XMLTree, render_nodes
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
from .metrics import EffectivenessReport, effectiveness
from .pipeline import ALGORITHMS, FragmentPipeline
from .query import Query, QueryLike

#: Names accepted by :meth:`SearchEngine.search`.
ALGORITHM_NAMES = tuple(ALGORITHMS)


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

    def __init__(self, tree: Optional[XMLTree] = None, cache_size: int = 0,
                 source: Optional[PostingSource] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if tree is None and source is None:
            raise ValueError("SearchEngine needs a tree, a source=, or both")
        self.tree = tree
        self.source: PostingSource = (
            source if source is not None else InvertedIndex(tree))
        self._cache: Optional[QueryResultCache] = (
            QueryResultCache(cache_size) if cache_size else None)
        self.metrics: Optional[MetricsRegistry] = metrics
        self._algorithms: Dict[str, FragmentPipeline] = {
            name: FragmentPipeline(self.source, lca_function,
                                   partial(prune, algorithm=name), name)
            for name, (lca_function, prune) in ALGORITHMS.items()}
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
        fragments = pipeline.raw_fragments(parsed)
        pipeline.warm_nodes(fragments)
        for fragment in fragments:
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
    def keyword_nodes(self, query: QueryLike) -> QueryLists:
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
