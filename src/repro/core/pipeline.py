"""The shared four-stage XKS pipeline of Algorithm 1.

Every algorithm of the paper runs the same four stages —
``getKeywordNodes``, ``getLCA``, ``getRTF`` and ``pruneRTF`` — and differs
only in its ``getLCA`` function and its pruning filter.  This module
implements the stages once, and :data:`ALGORITHMS` names each algorithm's
pair.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..index import PostingSource, QueryLists
from ..lca import elca_is_slca, indexed_lookup_eager_slca, indexed_stack_elca
from ..obs import MetricsRegistry, Trace
from ..obs import names as metric_names
from ..xmltree import DeweyCode
from .contributor import prune_with_contributor
from .fragments import Fragment, PrunedFragment, SearchResult
from .node_record import RecordTree, fold_records
from .query import Query, QueryLike
from .rtf import build_rtfs
from .valid_contributor import prune_with_valid_contributor

#: Signature of a ``getLCA`` stage: posting lists -> interesting LCA roots.
LcaFunction = Callable[[Mapping[str, Sequence[DeweyCode]]], List[DeweyCode]]

#: Signature of a pruning stage: record tree -> pruned fragment.
Pruner = Callable[[RecordTree], PrunedFragment]

#: The paper's algorithms: name -> (``getLCA`` stage, pruning filter); the
#: filter also takes the name it records on each fragment.  ValidRTF
#: (Algorithm 1) keeps the valid contributors; revised MaxMatch, the
#: paper's baseline, keeps MaxMatch's contributors of the same RTFs.  Each
#: ``-slca`` variant roots its fragments at SLCA nodes only (the original
#: MaxMatch setting) instead of at every interesting LCA node.
ALGORITHMS: Dict[str, Tuple[LcaFunction,
                            Callable[[RecordTree, str], PrunedFragment]]] = {
    "validrtf": (indexed_stack_elca, prune_with_valid_contributor),
    "maxmatch": (indexed_stack_elca, prune_with_contributor),
    "validrtf-slca": (indexed_lookup_eager_slca, prune_with_valid_contributor),
    "maxmatch-slca": (indexed_lookup_eager_slca, prune_with_contributor),
}


class FragmentPipeline:
    """The four-stage pipeline with a pluggable ``getLCA`` and pruning.

    Parameters
    ----------
    source:
        The :class:`~repro.index.source.PostingSource` serving stage 1 and
        the node lookups — the in-memory ``InvertedIndex`` or a disk-backed
        source.  Every stage runs off it; no stage reads a tree.
    lca_function:
        The ``getLCA`` stage: ELCA roots (Indexed Stack) for the paper's
        algorithms, SLCA roots for their ``-slca`` variants.
    pruner:
        The filtering mechanism applied to every RTF's record tree.
    name:
        Algorithm name recorded on results.
    """

    def __init__(self, source: PostingSource, lca_function: LcaFunction,
                 pruner: Pruner, name: str):
        self.source = source
        self.lca_function = lca_function
        self.pruner = pruner
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

    def warm_nodes(self, fragments: Sequence[Fragment]) -> None:
        """Warm a batching source's node cache for ``fragments``: one
        ``prefetch_nodes`` call with every fragment's nodes, so the element
        rows of a whole query come in one round-trip.  Sources without a
        node cache (the in-memory index) have no such member."""
        prefetch = getattr(self.source, "prefetch_nodes", None)
        if prefetch is not None and fragments:
            prefetch([node for fragment in fragments
                      for node in fragment.nodes], ())

    def record_tree(self, query: QueryLike, fragment: Fragment) -> RecordTree:
        """The constructing step of ``pruneRTF`` for one fragment.

        The keyword masks and the fragment's shape ride on the fragment
        (``build_rtfs`` built it from ``query``'s posting lists), so only
        labels and each keyword node's own cID are looked up, from the
        posting source: one ``node_label`` per node and one ``node_cid`` per
        keyword node, then one fold.  A batching source answers them from
        the cache :meth:`warm_nodes` filled for the whole query.
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
        node_label, node_cid = source.node_label, source.node_cid
        return fold_records(fragment,
                            [node_label(node) or "" for node in nodes],
                            [node_cid(node) for node in keyword_nodes])

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
        """Stage 1 on one query's normalized ``keywords``: the one place a
        posting fetch is measured (stage histogram, keyword and row
        counters, the source's read deltas, a ``postings`` span) when
        :meth:`search` runs observed."""
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
            raw = build_rtfs(roots, lists, elca_is_slca(roots))
            self.warm_nodes(raw)
            for fragment in raw:
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
