"""The shared four-stage XKS pipeline of Algorithm 1.

Both MaxMatch (revised for RTFs, the paper's baseline) and ValidRTF share the
first three stages — ``getKeywordNodes``, ``getLCA`` and ``getRTF`` — and
differ only in the pruning stage.  This module implements the shared pipeline
once; :mod:`repro.core.maxmatch` and :mod:`repro.core.validrtf` plug in their
filtering mechanism.
"""

from __future__ import annotations

import time
from typing import Callable, List, Mapping, Optional, Sequence

from ..index import EMPTY_PACKED, InvertedIndex, PostingSource, QueryLists
from ..lca import elca_is_slca, indexed_stack_elca, indexed_lookup_eager_slca
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..text import ContentAnalyzer
from ..xmltree import DeweyCode, XMLTree
from .fragments import Fragment, PrunedFragment, SearchResult
from .node_record import ContentFeature, RecordTree, check_cid_mode, fold_records
from .query import Query, QueryLike
from .rtf import build_rtfs

#: Signature of a ``getLCA`` stage: posting lists -> interesting LCA roots.
LcaFunction = Callable[[Mapping[str, Sequence[DeweyCode]]], List[DeweyCode]]

#: Signature of a pruning stage: record tree -> pruned fragment.
Pruner = Callable[[RecordTree], PrunedFragment]


def slca_roots(lists: Mapping[str, Sequence[DeweyCode]]) -> List[DeweyCode]:
    """``getLCA`` restricted to SLCA nodes (the original MaxMatch setting)."""
    return indexed_lookup_eager_slca(lists)


def elca_roots(lists: Mapping[str, Sequence[DeweyCode]]) -> List[DeweyCode]:
    """``getLCA`` returning all interesting LCA nodes (Indexed Stack / ELCA)."""
    return indexed_stack_elca(lists)


class FragmentPipeline:
    """The four-stage pipeline with a pluggable pruning mechanism.

    Parameters
    ----------
    tree:
        The document, or ``None`` for a purely source-backed pipeline.
        Every stage runs off the posting source and its node lookups; the
        tree only builds the default source and serves the ``exact`` mode's
        word sets.
    source:
        Any :class:`~repro.index.source.PostingSource` serving stage 1 and
        the node lookups — the in-memory :class:`InvertedIndex` or a
        disk-backed source.  Built on demand (as an inverted index) when
        omitted and a tree is given.
    lca_function:
        The ``getLCA`` stage; defaults to the ELCA (Indexed Stack) semantics
        used by the paper.
    pruner:
        The filtering mechanism applied to every RTF's record tree.
    cid_mode:
        Content-feature mode of the record-tree construction: ``"minmax"``
        (the stored cID, on any source) or ``"exact"`` (full content sets,
        read off the resident tree; refused without one).
    name:
        Algorithm name recorded on results.
    """

    def __init__(
        self,
        tree: Optional[XMLTree],
        pruner: Pruner,
        source: Optional[PostingSource] = None,
        lca_function: LcaFunction = elca_roots,
        cid_mode: str = "minmax",
        name: str = "pipeline",
    ):
        if source is None:
            if tree is None:
                raise ValueError(
                    "FragmentPipeline needs a tree, a posting source, or both")
            source = InvertedIndex(tree)
        check_cid_mode(cid_mode)
        if cid_mode == "exact" and tree is None:
            raise ValueError("cid_mode='exact' reads full content sets off "
                             "the resident tree; a tree-free pipeline uses "
                             "the stored (min, max) cID")
        self.tree = tree
        self.source: PostingSource = source
        # The exact ablation reads each keyword node's word set off the
        # resident tree; every other lookup goes to the source.
        self._word_set: Optional[Callable[[DeweyCode], ContentFeature]] = None
        if tree is not None and cid_mode == "exact":
            node, content = tree.node, ContentAnalyzer(tree).node_content
            self._word_set = lambda dewey: content(node(dewey))
        self.lca_function = lca_function
        self.pruner = pruner
        self.cid_mode = cid_mode
        self.name = name
        # Metrics are opt-in: the owning engine assigns a shared registry
        # after construction; ``None`` keeps every report behind one branch.
        self.metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------ #
    # Stage helpers (also exposed individually for tests and examples)
    # ------------------------------------------------------------------ #
    def keyword_nodes(self, query: QueryLike) -> QueryLists:
        """Stage 1 — ``getKeywordNodes`` (served by the posting source)."""
        parsed = Query.parse(query)
        return self.source.keyword_nodes(parsed.keywords)

    def lca_nodes(self, query: QueryLike) -> List[DeweyCode]:
        """Stage 2 — ``getLCA`` on this pipeline's LCA semantics."""
        return self.lca_function(self.keyword_nodes(query))

    def raw_fragments(self, query: QueryLike) -> List[Fragment]:
        """Stages 1–3 — the raw (unpruned) RTFs."""
        parsed = Query.parse(query)
        lists = self.source.keyword_nodes(parsed.keywords)
        roots = self.lca_function(lists)
        if not roots:
            return []
        flags = elca_is_slca(roots)
        return build_rtfs(roots, lists, flags)

    def record_tree(self, query: QueryLike, fragment: Fragment) -> RecordTree:
        """The constructing step of ``pruneRTF`` for one fragment.

        The keyword masks and the fragment's shape ride on the fragment
        (``build_rtfs`` built it from ``query``'s posting lists), so only
        labels and each keyword node's own content feature are looked up,
        from the posting source: one ``node_label`` per node and one
        ``node_cid`` per keyword node (word sets off the resident tree in
        ``exact`` mode), then one fold.  Batching sources warm their node
        caches first, in one round-trip per fragment instead of one per
        node; the cID rides on the label's element row.
        """
        nodes, keyword_nodes = fragment.nodes, fragment.keyword_nodes
        masks, parents = fragment.keyword_masks, fragment.parents
        if len(masks) != len(keyword_nodes) or len(parents) != len(nodes):
            raise ValueError(
                f"fragment {fragment.root} carries {len(masks)} keyword masks "
                f"for {len(keyword_nodes)} keyword nodes and {len(parents)} "
                f"parent positions for {len(nodes)} nodes; build it with "
                f"build_rtfs, or use build_record_tree")
        source = self.source
        prefetch = getattr(source, "prefetch_nodes", None)
        if prefetch is not None:
            prefetch(nodes, ())
        node_label = source.node_label
        feature_of = self._word_set or source.node_cid
        return fold_records(
            fragment, [node_label(node) or "" for node in nodes],
            [feature_of(node) for node in keyword_nodes],
            self.cid_mode)

    # ------------------------------------------------------------------ #
    # Full run
    # ------------------------------------------------------------------ #
    def search(self, query: QueryLike,
               trace: Optional[Trace] = None) -> SearchResult:
        """Run all four stages and return the pruned fragments.

        ``trace`` attaches one span per stage under the caller's open span;
        metrics (when the engine enabled them) are recorded either way.
        """
        observing = self.metrics is not None or trace is not None
        if not observing:
            parsed = Query.parse(query)
            started = time.perf_counter()
            lists = self.source.keyword_nodes(parsed.keywords)
            return self._run_stages(parsed, lists, started)

        started = time.perf_counter()
        parsed = Query.parse(query)
        tokenized = time.perf_counter()
        if trace is not None:
            trace.record("tokenize", started, tokenized,
                         keywords=len(parsed.keywords))
        if self.metrics is not None:
            self.metrics.histogram(
                metric_names.STAGE_TOKENIZE_SECONDS).observe(tokenized - started)
        lists = self.fetch_postings(parsed.keywords, trace=trace)
        return self._run_stages(parsed, lists, started, trace=trace)

    def fetch_postings(self, keywords: Sequence[str],
                       trace: Optional[Trace] = None) -> QueryLists:
        """Stage 1 on normalized ``keywords``: the one place a posting
        fetch is measured (stage histogram, keyword and row counters, the
        source's read deltas, a ``postings`` span).  :meth:`search` fetches
        one query, ``SearchEngine.search_many`` a batch's keyword union."""
        if self.metrics is None and trace is None:
            return self.source.keyword_nodes(keywords)
        read_stats = getattr(self.source, "read_stats", dict)
        before = read_stats()
        started = time.perf_counter()
        lists = self.source.keyword_nodes(keywords)
        fetched = time.perf_counter()
        rows = sum(len(postings) for postings in lists.values())
        reads = {key: value - before.get(key, 0)
                 for key, value in read_stats().items()
                 if value != before.get(key, 0)}
        if trace is not None:
            trace.record("postings", started, fetched, keywords=len(lists),
                         rows=rows, **reads)
        if self.metrics is not None:
            registry = self.metrics
            registry.histogram(
                metric_names.STAGE_POSTINGS_SECONDS).observe(fetched - started)
            registry.counter(metric_names.POSTING_KEYWORDS).inc(len(lists))
            registry.counter(metric_names.POSTING_ROWS).inc(rows)
            for key, delta in reads.items():
                name = self._READ_COUNTERS.get(key)
                if name is not None:
                    # name is a value of the _READ_COUNTERS mapping, whose
                    # values are catalogue constants
                    registry.counter(name).inc(delta)  # lint: allow(metrics-discipline)
        return lists

    #: Posting-source ``read_stats()`` keys folded into registry counters.
    _READ_COUNTERS = {
        "lru_hits": metric_names.POSTING_LRU_HITS,
        "lru_misses": metric_names.POSTING_LRU_MISSES,
        "bytes": metric_names.POSTING_BYTES,
        "packed_fetches": metric_names.POSTING_PACKED_FETCHES,
        "segment_reads": metric_names.SEGMENT_READS,
        "base_reads": metric_names.SEGMENT_BASE_READS,
    }

    def search_with_lists(self, query: QueryLike,
                          lists: Mapping[str, Sequence[DeweyCode]]) -> SearchResult:
        """Run stages 2–4 on precomputed ``D_i`` posting lists.

        This is the batch fast path used by ``SearchEngine.search_many``: the
        caller fetches the postings for the union of several queries' keywords
        once and shares them across the batch, so ``getKeywordNodes`` is not
        re-run per query.  ``lists`` must map each normalized query keyword to
        its sorted Dewey list (missing keywords mean an empty result, exactly
        as in :meth:`search`).  The lists are never mutated; the query's own
        go into a fresh :class:`QueryLists`, so its stages share one merge.
        """
        parsed = Query.parse(query)
        started = time.perf_counter()
        per_query = QueryLists.of({keyword: lists.get(keyword, EMPTY_PACKED)
                                   for keyword in parsed.keywords})
        return self._run_stages(parsed, per_query, started)

    def _run_stages(self, parsed: Query,
                    lists: Mapping[str, Sequence[DeweyCode]],
                    started: float,
                    trace: Optional[Trace] = None) -> SearchResult:
        """Stages 2–4 (``getLCA``, ``getRTF``, ``pruneRTF``) on ready lists.

        The LCA hot loop and the fragment loop report through *pre-aggregated*
        values stamped around each stage — never a per-iteration callback —
        so ``hot-loop-purity`` holds and the untraced path stays branch-cheap.
        """
        observing = self.metrics is not None or trace is not None
        lca_started = time.perf_counter() if observing else 0.0
        roots = self.lca_function(lists)
        lca_ended = time.perf_counter() if observing else 0.0
        fragments: List[PrunedFragment] = []
        if roots:
            flags = elca_is_slca(roots)
            for fragment in build_rtfs(roots, lists, flags):
                fragments.append(self.pruner(self.record_tree(parsed, fragment)))
        elapsed = time.perf_counter() - started
        if observing:
            fragments_ended = time.perf_counter()
            if trace is not None:
                trace.record("lca", lca_started, lca_ended,
                             algorithm=self.name, candidates=len(roots))
                trace.record("fragments", lca_ended, fragments_ended,
                             fragments=len(fragments))
            if self.metrics is not None:
                registry = self.metrics
                labels = {"algorithm": self.name}
                registry.counter(metric_names.QUERY_COUNT, labels).inc()
                registry.histogram(metric_names.QUERY_SECONDS,
                                   labels).observe(elapsed)
                registry.histogram(metric_names.STAGE_LCA_SECONDS,
                                   labels).observe(lca_ended - lca_started)
                registry.histogram(
                    metric_names.STAGE_FRAGMENTS_SECONDS,
                    labels).observe(fragments_ended - lca_ended)
                registry.counter(metric_names.LCA_CANDIDATES).inc(len(roots))
                registry.counter(metric_names.QUERY_FRAGMENTS).inc(
                    len(fragments))
        return SearchResult(
            query=parsed,
            algorithm=self.name,
            fragments=tuple(fragments),
            elapsed_seconds=elapsed,
            lca_nodes=tuple(roots),
        )
